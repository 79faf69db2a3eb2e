"""Per-layer self-time breakdown of ops in a span file from a traced run.

    python3 bench/breakdown.py .bench_traces/golden-grid-seed1.json.gz "k=5 n=10 tau=1,0,0,0"

Prints, for every traced op whose label contains the given text (every op
when none is given), its self time per layer under its parent layer.
"""

from __future__ import annotations

import sys
from pathlib import Path

from tracer import Spans


def main(argv: list[str]) -> int:
    if not argv or len(argv) > 2:
        print(__doc__, file=sys.stderr)
        return 2
    spans, header = Spans.read(Path(argv[0]))
    pattern = argv[1] if len(argv) > 1 else ""
    matched = [i for i, label in enumerate(header["ops"]) if pattern in label]
    if not matched:
        print(f"no op label contains {pattern!r}", file=sys.stderr)
        return 1
    for op_id in matched:
        rows = spans.op_breakdown(op_id)
        total = sum(self_s for _, self_s, _ in rows)
        print(f"op {op_id}: {header['ops'][op_id]} ({total * 1000:.1f} ms traced)")
        for key, self_s, calls in rows:
            print(f"  {key:<48} {self_s * 1000:9.2f} ms {100 * self_s / total:5.1f}% "
                  f"{calls:8d} calls")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
