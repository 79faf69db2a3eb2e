"""localsurfaces benchmark: one workload per process, closed loop, one client.

    python3 bench/run.py --workload golden-grid --seed 1 --seconds 20 --trace 0

The library is imported from the checkout's own ``src/``.  A run takes a
fixed, seed-determined list of ops.  With ``--trace 0`` it runs the list
round after round for ``--seconds`` and reports the end-to-end metrics:
set-up time, throughput, median and tail op latency, and peak memory.  An
op's latency is its median over the rounds, each round's time scaled to a
fixed machine speed (see calibrate.py).  With ``--trace 1`` it runs each op
once untraced and once traced and reports the per-layer metrics.
Every answer is checked by the workload's oracle after the timed part.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_S, SpeedProbe
from tracer import Tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# The contract allows 180 s per run; a run still going at this point is
# stopped without a result.
HARD_LIMIT_S = 170
SETUP_SAMPLES = 11
# Traced runs this long or longer trace the whole op list.
FULL_TRACE_SECONDS = 20
SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import localsurfaces, localsurfaces.cli\n"
    "localsurfaces.cli.build_parser()\n"
    "print(time.perf_counter() - t0)\n"
)


def fail(message: str, code: int = 2) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(code)


def measure_setup() -> float:
    """Median time, over fresh interpreters, to import localsurfaces and
    localsurfaces.cli and build the CLI parser.  The interpreters compile
    from source (PYTHONDONTWRITEBYTECODE=1), so the time includes bytecode
    compilation and does not depend on a cache an earlier run left behind.
    One untimed process first warms the file cache."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            capture_output=True, text=True, timeout=60, env=env,
        )
        if proc.returncode != 0:
            fail(f"set-up process failed:\n{proc.stderr}")
        if i:
            samples.append(float(proc.stdout))
    return statistics.median(samples)


def import_library():
    if not (SRC / "localsurfaces" / "__init__.py").is_file():
        fail(f"no localsurfaces package under {SRC}")
    sys.path.insert(0, str(SRC))
    import localsurfaces

    if Path(localsurfaces.__file__).resolve().parent != SRC / "localsurfaces":
        fail(f"imported localsurfaces from {localsurfaces.__file__}, not {SRC}")
    import workloads

    return workloads


def call(op):
    """(result, error, latency) of one op; an op that raises is kept as a
    failure, never raised."""
    t0 = time.perf_counter()
    try:
        out, error = op.call(), None
    except Exception as exc:
        out, error = None, f"{type(exc).__name__}: {exc}"
    return out, error, time.perf_counter() - t0


def timed_rounds(ops, seconds: int, probe):
    """Closed loop, one client: run the op list round after round until
    ``seconds`` have passed, each op starting when the previous one returns,
    with the speed probe sampled between ops.  Returns, per op reached, its
    (op, result, error) from the first round and its latencies over the
    rounds, each scaled to the reference speed around the time it ran."""
    results, runs = [], []
    deadline = time.perf_counter() + seconds
    while True:
        for i, op in enumerate(ops):
            started = time.perf_counter()
            out, error, latency = call(op)
            if i == len(results):
                results.append((op, out, error))
                runs.append([])
            elif (out, error) != results[i][1:]:
                results[i] = (op, None, "result differs between rounds")
            runs[i].append((started, latency))
            probe.maybe_sample()
            if time.perf_counter() >= deadline:
                return results, [
                    [latency * probe.scale_at(started) for started, latency in op_runs]
                    for op_runs in runs
                ]


def check_results(results) -> list[str]:
    failures = []
    for op, out, error in results:
        reason = error
        if reason is None:
            try:
                reason = op.check(out)
            except Exception as exc:  # a crashing oracle is a failed op
                reason = f"oracle raised {type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append(f"{op.label}: {reason}")
    return failures


def tail(latencies: list[float]) -> tuple[int, float, int]:
    """(percentile, value, samples beyond it) for the highest whole
    percentile, nearest rank, with at least ten samples beyond it; p50 when
    there are too few samples for any."""
    ordered = sorted(latencies)
    n = len(ordered)
    for percentile in range(99, 49, -1):
        rank = math.ceil(n * percentile / 100)
        if n - rank >= 10:
            break
    return percentile, ordered[rank - 1], n - rank


def report(failures: list[str], attempted: int, metrics: dict) -> None:
    for line in failures[:20]:
        print(f"FAILED {line}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))


def op_list(wl, seed: int, count: int) -> list:
    stream = wl.ops(seed, ROOT)
    return [next(stream) for _ in range(count)]


def untraced_run(wl, seed: int, seconds: int) -> None:
    setup_s = measure_setup()
    probe = SpeedProbe()
    results, runs = timed_rounds(op_list(wl, seed, wl.list_size), seconds, probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures = check_results(results)
    latencies = [statistics.median(op_runs) for op_runs in runs]
    n, calls = len(latencies), sum(map(len, runs))
    percentile, tail_s, beyond = tail(latencies)
    print(f"workload {wl.name} seed {seed}: {n} ops, {calls} calls "
          f"({calls / n:.1f} rounds) in {seconds} s; "
          f"error_rate {len(failures) / n:.4f} ({len(failures)}/{n})")
    print(f"reference work took {probe.median() * 1000:.2f} ms (median of "
          f"{len(probe.samples)}); timings below are scaled to "
          f"{REFERENCE_S * 1000:g} ms")
    print(f"op_tail_ms is p{percentile} of {n} op latencies, {beyond} beyond it")
    report(failures, n, {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": n / sum(latencies), "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(latencies) * 1000, "unit": "ms"},
        "op_tail_ms": {"value": tail_s * 1000, "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    })


def traced_run(wl, seed: int, seconds: int) -> None:
    """Run each op of the list once untraced and once traced, alternating
    which goes first; the ratio of the summed latencies is the tracing
    overhead.  Runs shorter than FULL_TRACE_SECONDS trace a prefix of the
    list, so the ops traced depend only on the arguments."""
    count = math.ceil(wl.list_size * min(1.0, seconds / FULL_TRACE_SECONDS))
    ops = op_list(wl, seed, count)
    tracer = Tracer()
    plain, plain_latencies, traced, traced_latencies = [], [], [], []
    for op_id, op in enumerate(ops):
        tracer.op_id = op_id
        for on in (False, True) if op_id % 2 == 0 else (True, False):
            with tracer if on else contextlib.nullcontext():
                out, error, latency = call(op)
            (traced if on else plain).append((op, out, error))
            (traced_latencies if on else plain_latencies).append(latency)

    failures = check_results(traced)
    for (op, out, _), (_, plain_out, _) in zip(traced, plain):
        if out != plain_out:
            failures.append(f"{op.label}: traced result differs from untraced")
    labels = [op.label for op in ops]
    path = ROOT / ".bench_traces" / f"{wl.name}-seed{seed}.json.gz"
    tracer.spans.write(path, {"workload": wl.name, "seed": seed, "ops": labels})

    plain_s, traced_s = sum(plain_latencies), sum(traced_latencies)
    print(f"workload {wl.name} seed {seed}: {count} ops, untraced {plain_s:.3f} s, "
          f"traced {traced_s:.3f} s; spans written to {path.relative_to(ROOT)}")
    slowest = max(range(count), key=plain_latencies.__getitem__)
    print(f"slowest op: {labels[slowest]} ({plain_latencies[slowest] * 1000:.1f} ms "
          f"untraced); self time by layer < parent layer:")
    for key, self_s, calls in tracer.spans.op_breakdown(slowest)[:8]:
        print(f"  {key:<48} {self_s * 1000:9.2f} ms {calls:8d} calls")
    report(failures, count, tracer.metrics(traced_s / plain_s))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        fail("--seconds must be >= 1")

    def stop(signum, frame):
        print(f"bench: run exceeded {HARD_LIMIT_S} s, stopped", file=sys.stderr)
        os._exit(3)

    signal.signal(signal.SIGALRM, stop)
    signal.alarm(HARD_LIMIT_S)
    workloads = import_library().WORKLOADS
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads)}")
    run = traced_run if args.trace else untraced_run
    run(workloads[args.workload], args.seed, args.seconds)


if __name__ == "__main__":
    main()
