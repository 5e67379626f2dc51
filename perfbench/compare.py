"""Compare two benchmark result files, one row per workload and metric.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the records ``perfbench/run.py`` appends, one per run;
runs of the same workload and mode (traced or not) are pooled.  A row
gives both medians, the ratio new / base with its base, the spread of
each side (interquartile range over the median) and the bound from
BENCHMARK.json.  The verdict is ``worse`` or ``within bound`` only when
both spreads stay within the bound; otherwise it is ``unresolved``,
unless every new run reads better than every base run.  Per-layer
metrics have no bound and get no verdict.  Last, for every workload,
mode and seed run on both sides, it says whether the deterministic
outputs are identical.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def records(path) -> list:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def load(path) -> dict:
    """(workload, trace) -> metric -> list of values."""
    runs = defaultdict(lambda: defaultdict(list))
    for rec in records(path):
        for name, m in rec["result"]["metrics"].items():
            runs[(rec["workload"], rec["trace"])][name].append(m["value"])
    return runs


def output_digests(base_path, new_path) -> list:
    """Per workload, mode and seed run on both sides: same outputs?

    Equal seeds give equal inputs, so on the same seed the deterministic
    outputs (reports without ``runtime_ms``, periods) must not change
    unless the program's answers do.
    """
    seen = [{(r["workload"], r["trace"], r["seed"]): r["info"]["outputs_sha256"] for r in records(p)}
            for p in (base_path, new_path)]
    return [(key, seen[0][key] == seen[1][key]) for key in sorted(set(seen[0]) & set(seen[1]))]


def spread(values) -> float:
    """Interquartile range over the median; 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def verdict(base, new, better: str, bound: float) -> str:
    b, n = statistics.median(base), statistics.median(new)
    sign = 1.0 if better == "lower" else -1.0
    if max(spread(base), spread(new)) > bound:
        if all(sign * (x - y) < 0 for x in new for y in base):
            return "better"
        return "unresolved"
    if b and sign * (n - b) / abs(b) > bound:
        return "worse"
    return "within bound"


def compare(base_path, new_path, spec) -> list:
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load(base_path), load(new_path)
    rows = []
    for key in sorted(set(base) & set(new)):
        for name, m in declared.items():
            if name not in base[key] or name not in new[key]:
                continue
            b, n = base[key][name], new[key][name]
            mb, mn = statistics.median(b), statistics.median(n)
            ratio = f"{mn / mb:.4f}" if mb else "n/a"
            bound = m.get("bound")
            rows.append((
                key[0], "traced" if key[1] else "plain", name,
                f"{mb:.6g} {m['unit']}", f"{mn:.6g} {m['unit']}", f"{ratio} (base {mb:.6g}, n={len(b)}/{len(n)})",
                f"{spread(b):.3f}/{spread(n):.3f}", "-" if bound is None else f"{bound:g}",
                "-" if bound is None else verdict(b, n, m["better"], bound),
            ))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    header = ("workload", "mode", "metric", "base median", "new median", "new/base", "spread", "bound", "verdict")
    rows = [header] + compare(argv[0], argv[1], spec)
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    for (workload, trace, seed), same in output_digests(argv[0], argv[1]):
        mode = "traced" if trace else "plain"
        print(f"outputs {workload} {mode} seed {seed}: {'identical' if same else 'DIFFER'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
