"""Benchmark of the killing_geodesics pipeline.

    python3 perfbench/run.py --workload search-s3 --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 32 --trace 0

A run builds the library from ``src/`` of the checkout it sits in, runs
passes of one workload (closed loop, one client, one thread) until
another pass would overrun ``--seconds``, checks every output against
known answers and prints, as its last line, a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The seed gives
a fixed number of distinct pass inputs; the passes cycle through them,
the oracle checks the first pass on each, and every repeat must give
the same outputs, so ``attempted`` and ``failed`` depend on the seed
alone, not on how many passes fit the time.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:
set-up time (median of several fresh interpreters that import the
package and build the workload's entries), the median wall and CPU time
of a pass, peak RSS and the share of operations that pass their check.
The three times are in seconds on a nominal host: each is measured
against a fixed reference kernel run interleaved with it (see
``hostspeed.py``), because the speed of a shared host drifts more than
any useful bound; the raw times are printed too and kept in the record.
``--trace 1`` runs each pass twice, plain and traced, requires the same
outputs from both, and reports the per-layer metrics.  Each run appends
a record to ``--results`` for ``perfbench/compare.py``; a traced run
also writes its spans next to it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "killing_geodesics" / "__init__.py"
WORKLOAD_NAMES = ("search-s3", "approx-s3", "period-scan")
SETUP_REPEATS = 9
SETUP_KERNELS = 3  # reference kernels before each set-up
# One thread: the library's own worker count, and BLAS.
THREAD_VARS = ("KG_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
PROBE = (
    "import json, sys\n"
    "import killing_geodesics as kg\n"
    "for name, kwargs in json.loads(sys.argv[1]):\n"
    "    kg.build_entry(name, **kwargs)\n"
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--results", type=Path, default=ROOT / "perfbench" / "results" / "runs.jsonl")
    return p.parse_args(argv)


def declared_metrics(trace: int) -> dict:
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def keep_running(start: float, passes: int, distinct: int, seconds: float) -> bool:
    """Whether passes remain on distinct inputs, or another pass, as
    long as the mean so far, fits the budget."""
    elapsed = time.perf_counter() - start
    return passes < distinct or elapsed + elapsed / passes <= seconds


def check_pass(n: int, inputs: list, pass_ops: list, digest: str, ops: list, digests: list, problems: list):
    """Tally pass ``n`` (from 1).  A pass on new inputs adds its checked
    operations; a repeat must give the outputs its first pass gave, so
    ``attempted`` and ``failed`` depend on the seed, not on speed."""
    i = (n - 1) % len(inputs)
    if n <= len(inputs):
        ops += pass_ops
        digests.append(digest)
    elif digest != digests[i]:
        problems.append(f"pass {n}: outputs differ from pass {i + 1} on the same inputs")


def setup_seconds(entries: dict) -> tuple:
    """Median wall time, nominal and raw, of fresh interpreters that
    import and build.  The reference kernel runs between them, and the
    median of those samples scales the median time to the nominal host."""
    import hostspeed

    spec = json.dumps([[name, kwargs] for name, kwargs in entries.values()])
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, kernels = [], []
    for _ in range(SETUP_REPEATS):
        kernels += [hostspeed.sample() for _ in range(SETUP_KERNELS)]
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", PROBE, spec], env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    raw = statistics.median(times)
    kernel = statistics.median(k.wall1 - k.wall0 for k in kernels)
    return raw * hostspeed.REFERENCE_S / kernel, raw


def environment() -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def run_plain(wl, rng, seconds: float):
    import hostspeed
    import workloads

    setup_s, raw_setup_s = setup_seconds(wl.entries)
    entries = workloads.build(wl)
    inputs = [wl.draw(rng, entries) for _ in range(wl.distinct_passes)]
    sampler = hostspeed.Sampler()
    timings, ops, digests, problems = [], [], [], []
    start = time.perf_counter()
    while True:
        i = len(timings) % len(inputs)
        result, timing = sampler.time(lambda: wl.run(entries, inputs[i]))
        timings.append(timing)
        check_pass(len(timings), inputs, result.ops, result.digest(), ops, digests, problems)
        if not keep_running(start, len(timings), len(inputs), seconds):
            break
    failed = sum(not op.verdict.ok for op in ops)
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(t.wall_s for t in timings),
        "cpu_s": statistics.median(t.cpu_s for t in timings),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": 1.0 - failed / len(ops),
    }
    raw = {
        "setup_s": raw_setup_s,
        "wall_s": statistics.median(t.raw_wall_s for t in timings),
        "cpu_s": statistics.median(t.raw_cpu_s for t in timings),
        "pass_wall_s": [t.raw_wall_s for t in timings],
        "pass_nominal_wall_s": [t.wall_s for t in timings],
    }
    return metrics, ops, digests, problems, raw


def run_traced(wl, rng, seconds: float, spans_path: Path):
    import spans
    import workloads
    from killing_geodesics.critical import GRAD_TOL

    t0 = time.perf_counter()
    entries = workloads.build(wl)
    build_s = time.perf_counter() - t0
    tracer = spans.Tracer()
    traced_entries = {key: tracer.instrument_entry(e) for key, e in entries.items()}
    ops, digests, problems = [], [], []
    plain_s = 0.0
    walls = []
    inputs = [wl.draw(rng, entries) for _ in range(wl.distinct_passes)]
    start = time.perf_counter()
    while True:
        i = len(walls) % len(inputs)
        t0 = time.perf_counter()
        plain = wl.run(entries, inputs[i])
        t1 = time.perf_counter()
        with tracer.patched():
            traced = wl.run(traced_entries, inputs[i])
        walls.append(time.perf_counter() - t1)
        plain_s += t1 - t0
        passes = len(walls)
        check_pass(passes, inputs, plain.ops + traced.ops, traced.digest(), ops, digests, problems)
        if plain.digest() != traced.digest():
            problems.append(f"pass {passes}: traced outputs differ from plain ones")
        if not keep_running(start, passes, len(inputs), seconds):
            break
    problems += [f"RK45 counter self-check: {e}" for e in tracer.errors]
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with spans_path.open("w") as fh:
        for record in spans.span_records(tracer):
            fh.write(json.dumps(record) + "\n")
    metrics = spans.layer_metrics(tracer, passes, sum(walls), plain_s, build_s, GRAD_TOL)
    shares = {k: v / sum(walls) for k, v in sorted(spans.layer_self_s(tracer).items())}
    print("layer self time / traced wall time: " + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
    return metrics, ops, digests, problems, {"pass_wall_s": walls}


def run_one(args) -> int:
    if not PACKAGE.is_file():
        print(f"no library source at {PACKAGE.relative_to(ROOT)}: run from a full checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import numpy as np
    import killing_geodesics
    import workloads

    if Path(killing_geodesics.__file__).resolve() != PACKAGE.resolve():
        print(f"killing_geodesics imported from {killing_geodesics.__file__}, not {PACKAGE}", file=sys.stderr)
        return 2
    units = declared_metrics(args.trace)
    wl = workloads.WORKLOADS[args.workload]
    rng = np.random.default_rng(args.seed)
    if args.trace:
        spans_path = args.results.parent / f"spans-{args.workload}-{args.seed}.jsonl"
        metrics, ops, digests, problems, raw = run_traced(wl, rng, args.seconds, spans_path)
    else:
        metrics, ops, digests, problems, raw = run_plain(wl, rng, args.seconds)
    if set(metrics) != set(units):
        raise RuntimeError(f"computed metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")

    failed = [op for op in ops if not op.verdict.ok]
    problems += [f"{op.label}: {op.verdict.detail}" for op in failed if not op.verdict.known_defect]
    for op in failed:
        tag = " [known defect]" if op.verdict.known_defect else ""
        print(f"FAIL {op.label}: {op.verdict.detail}{tag}")
    for problem in problems:
        print(f"INCORRECT {problem}")
    for name, unit in units.items():
        print(f"{name:30s} {metrics[name]:.6g} {unit}")
    print(f"{'fail_ratio':30s} {len(failed) / len(ops):.6g} ({len(failed)}/{len(ops)} operations)")
    if args.trace:
        print("dropped per-layer metrics: none")
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    for name in ("setup_s", "wall_s", "cpu_s"):
        if name in raw:
            print(f"{'raw ' + name:30s} {raw[name]:.6g} s (not scaled to the nominal host)")
    info = {
        "outputs_sha256": hashlib.sha256("".join(digests).encode()).hexdigest(),
        "raw": raw,
        "src_lines": src_lines(),
        "env": environment(),
    }
    print("info: " + json.dumps(info))
    args.results.parent.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "result": result, "info": info}
    with args.results.open("a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; a table of its metrics."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--results", str(args.results.resolve())]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"== {name}  correct={result['correct']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:30s} {m['value']:.6g} {m['unit']}")
        print(f"  {'fail_ratio':30s} {result['failed'] / result['attempted']:.6g} "
              f"({result['failed']}/{result['attempted']} operations)")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
