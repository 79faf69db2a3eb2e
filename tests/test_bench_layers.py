"""Every library name the benchmark calls or its span tracer wraps exists.

bench/tracer.py wraps library functions and methods by module and name
(LAYERS) and reads work counters off their arguments and results
(COUNTERS); a rename or deletion in the library would drop a per-layer
metric silently.  bench/workloads.py calls the library as ls.<name>; a
deletion there would fail every op of a workload.  Both files are read
with ast, not imported.
"""

import ast
import importlib
from pathlib import Path

import localsurfaces as ls
import localsurfaces.cli  # noqa: F401  (binds ls.cli, as bench/workloads.py does)

from localsurfaces.cech import (
    CechComplex,
    Window,
    stabilize_window,
    triviality_certificate,
)
from localsurfaces.laurent import parse_poly
from localsurfaces.surface import surface

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"


def tracer_assignments():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    nodes = {}
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                nodes[target.id] = node.value
        elif isinstance(node, ast.FunctionDef):
            nodes[node.name] = node
    return nodes


def test_every_traced_layer_resolves():
    layers = ast.literal_eval(tracer_assignments()["LAYERS"])
    assert layers
    for name, module_name, cls_name, attr in layers:
        owner = importlib.import_module(module_name)
        if cls_name:
            owner = getattr(owner, cls_name)
        # The tracer looks the attribute up in the owner's own namespace.
        assert attr in vars(owner), name


def test_every_counted_attribute_exists():
    # The attributes each counter reads off its layer's first argument or
    # result, found in the counter functions' source.
    nodes = tracer_assignments()
    counters = nodes["COUNTERS"]
    read = {}
    for key, value in zip(counters.keys, counters.values):
        attrs = {
            node.attr
            for node in ast.walk(nodes[value.id])
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("result", "complex_")
        }
        if attrs:
            read[key.value] = attrs
    assert read == {
        "cech.complex": {"columns", "truncated_terms"},
        "cech.stabilize": {"enlargements"},
        "cech.certificate": {"exact"},
    }
    s = surface(2, [1])
    samples = {
        "cech.complex": CechComplex(s, 4, Window(-4, 4, 2)),
        "cech.stabilize": stabilize_window(lambda w: 0, Window(-1, 1, 0)),
        "cech.certificate": triviality_certificate(parse_poly("z^-1"), s, 2),
    }
    for layer, attrs in read.items():
        for attr in attrs:
            assert hasattr(samples[layer], attr), (layer, attr)


def test_every_library_name_the_workloads_use_exists():
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    used = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "ls"
    }
    assert "hirzebruch_embed_check" in used and "parse_poly" in used
    assert sorted(name for name in used if not hasattr(ls, name)) == []
