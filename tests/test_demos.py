"""Smoke tests for the documented entry points: the demos and the README's
library quick tour."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from localsurfaces import extension_to_transition, to_U_coords

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout


def quick_tour_values():
    """Run the README's quick-tour block; return the values of its
    expression statements, in order, and the block's namespace."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick tour", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    values = []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), "README.md", "eval")
            values.append(eval(code, namespace))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    return values, namespace


def test_readme_quick_tour():
    values, namespace = quick_tour_values()
    dim_z2, dim_deformed, (f_U, f_V, exact), a_u = values
    assert (dim_z2, dim_deformed) == (4, 0)
    assert (str(f_U), str(f_V), exact) == ("-u", "v", True)
    assert str(a_u) == "[[1, -2*u^2 - z*u^3]; [0, 1]]"
    split, sz = namespace["split"], namespace["sz"]
    a_v_u = split.a_v.map_entries(lambda p: to_U_coords(p, sz))
    T = extension_to_transition(namespace["e"])
    assert a_v_u @ T @ a_u.inverse() == split.target
    assert str(split.target) == "[[z^2, 0]; [0, z^-2]]"
