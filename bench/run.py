"""Benchmark for lightchase: end-to-end and per-layer metrics, standard library only.

One run of one workload:

    python3 bench/run.py --workload queries --seed 1 --seconds 25 --trace 0

It sets the workload up SETUP_REPEATS times (import of the package from
src/ plus input generation) and reports the median as setup_s, then runs
whole rounds of the workload's operations, one at a time in a closed loop
with one caller, until --seconds have passed and at least MIN_OPS operations
are timed. It checks every output against the oracles outside the timed
region, prints each metric with its unit, and prints as its last line one
JSON object: correct, attempted, failed and metrics. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer
list, taken from a separate run with spans around every call into the
package.

Everything, as one command (every workload, untraced then traced, with the
tracing overhead), written to a BENCH_*.json file:

    python3 bench/run.py --seconds 25 --out bench/BENCH_local.json
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import subprocess
import sys
import traceback
from array import array
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
# A 95th percentile needs ten samples beyond it.
MIN_OPS = 200
MAX_REPORTED_ERRORS = 5

# The machine these figures come from shares its cores with other tenants,
# which slows all work by up to 1.7x for minutes at a time. Every time the
# benchmark reports is therefore in reference seconds: measured seconds times
# REF_SECONDS over the time reference_loop() takes at that moment, measured
# around each stretch of SEGMENT_S seconds of operations. REF_SECONDS is the
# loop's time on that machine (2 vCPUs, Python 3.11) when nothing contends.
REF_SECONDS = 1.3e-3
SEGMENT_S = 0.25


def reference_loop() -> None:
    a, b = 0, 1
    for _ in range(20_000):
        a, b = b, (a + b) % 1_000_003


def speed_factor() -> float:
    """REF_SECONDS over the best of three timings of reference_loop()."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        reference_loop()
        best = min(best, perf_counter() - t0)
    return REF_SECONDS / best


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_package():
    """Import lightchase afresh from this checkout's src/ and return it."""
    for name in [m for m in sys.modules if m == "lightchase" or m.startswith("lightchase.")]:
        del sys.modules[name]
    lc = importlib.import_module("lightchase")
    importlib.import_module("lightchase.cli")
    if Path(lc.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"lightchase imported from {lc.__file__}, not from {SRC}")
    return lc


class Run:
    """Outcome of the timed loop over whole rounds."""

    def __init__(self, n_ops: int):
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.first = [None] * n_ops
        self.errors: list[str] = []  # wrong outputs, not failed operations
        self.factors: list[float] = []
        self._factor = speed_factor()

    def next_factor(self) -> float:
        """Speed factor of the stretch of work just done: the mean of the
        factors measured before and after it."""
        now = speed_factor()
        factor, self._factor = (self._factor + now) / 2, now
        self.factors.append(factor)
        return factor

    def record(self, i: int, result) -> None:
        if self.first[i] is None:
            self.first[i] = result
        elif result != self.first[i]:
            self.errors.append(f"op {i}: output differs between rounds")

    def fail(self, i: int, exc: Exception) -> None:
        self.failed += 1
        print(f"op {i} failed:", file=sys.stderr)
        traceback.print_exception(exc, file=sys.stderr)


def measure(wl: workloads.Workload, seconds: float):
    """Untraced rounds: every operation's latency and each round's throughput,
    in reference seconds."""
    # Latencies as doubles, so that the benchmark's own memory hardly grows
    # with the number of operations and peak_rss_mb reflects the package.
    run, latencies, throughputs = Run(len(wl.ops)), array("d"), []
    pending: list[float] = []
    stretches: list[tuple[int, float]] = []  # (operations, reference seconds)

    def flush() -> None:
        factor = run.next_factor()
        latencies.extend(t * factor for t in pending)
        stretches.append((len(pending), factor * sum(pending)))
        pending.clear()

    start = perf_counter()
    while run.rounds == 0 or perf_counter() - start < seconds or run.attempted < MIN_OPS:
        stretches.clear()
        pending_s = 0.0
        for i, op in enumerate(wl.ops):
            run.attempted += 1
            t0 = perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # counted as failed; the run goes on
                run.fail(i, exc)
                continue
            pending.append(perf_counter() - t0)
            pending_s += pending[-1]
            run.record(i, result)
            if pending_s >= SEGMENT_S:
                flush()
                pending_s = 0.0
        if pending:
            flush()
        done = sum(n for n, _ in stretches)
        if done:
            throughputs.append(done / sum(t for _, t in stretches))
        run.rounds += 1
    return run, latencies, throughputs


def measure_traced(wl: workloads.Workload, lc, seconds: float, out: Path):
    """Traced rounds, in reference seconds with one speed factor per round;
    spans of the first round, in measured seconds, are written to `out`."""
    run, totals = Run(len(wl.ops)), spans.Totals()
    samples: dict[str, list[float]] = {name: [] for name in wl.probes}
    op_time, timed = 0.0, 0
    start = perf_counter()
    while run.rounds == 0 or perf_counter() - start < seconds or run.attempted < MIN_OPS:
        tracer, round_op_time, round_samples = spans.Tracer(lc), 0.0, {}
        for i, op in enumerate(wl.ops):
            run.attempted += 1
            n0 = len(tracer.spans)
            try:
                result = op.trace(tracer)
            except Exception as exc:  # counted as failed; the run goes on
                run.fail(i, exc)
                continue
            round_op_time += sum(s[4] - s[3] for s in tracer.spans[n0:] if s[1] is None)
            timed += 1
            run.record(i, result)
        for name, probe in wl.probes.items():
            round_samples[name] = probe()
        if run.rounds == 0:
            write_spans(out, tracer.spans)
        factor = run.next_factor()
        run.rounds += 1
        totals.add_round(tracer.spans, factor)
        op_time += factor * round_op_time
        for name, value in round_samples.items():
            samples[name].append(factor * value)
    samples["trace.op_mean_ms"] = [1e3 * op_time / max(timed, 1)]
    return run, totals, samples


def write_spans(path: Path, recorded: list[tuple]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    t_zero = recorded[0][3] if recorded else 0.0
    rows = [{"id": sid, "parent": parent, "name": name, "start_s": t0 - t_zero,
             "end_s": t1 - t_zero, "counts": counts}
            for sid, parent, name, t0, t1, counts in recorded]
    path.write_text(json.dumps(rows) + "\n")


def check_outputs(wl: workloads.Workload, run: Run) -> list[str]:
    errors = []
    for i, (op, result) in enumerate(zip(wl.ops, run.first)):
        if result is None:
            continue
        try:
            op.check(result)
        except workloads.CheckFailed as exc:
            errors.append(f"op {i} ({op.name}): {exc}")
    try:
        wl.final_check()
    except workloads.CheckFailed as exc:
        errors.append(f"final check: {exc}")
    return errors


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def single_run(args, spec: dict) -> int:
    if not (SRC / "lightchase" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'lightchase'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    setups = []
    for _ in range(SETUP_REPEATS):
        before = speed_factor()
        t0 = perf_counter()
        lc = import_package()
        wl = workloads.build(args.workload, args.seed, lc, ROOT)
        setups.append((perf_counter() - t0) * (before + speed_factor()) / 2)
        if len(setups) < SETUP_REPEATS:
            wl.cleanup()
    try:
        if args.trace:
            out = BENCH / "out" / f"spans-{args.workload}-{args.seed}.json"
            run, totals, samples = measure_traced(wl, lc, args.seconds, out)
            metrics = {m["name"]: (spans.per_layer_metric(m["name"], totals, samples), m["unit"])
                       for m in spec["per_layer"]}
        else:
            run, lat, throughputs = measure(wl, args.seconds)
            rss_mb = peak_rss_mb(wl.rss_of_children)  # before sorting copies lat
            values = {
                "setup_s": median(setups),
                # The median round, so that a short slow spell of the machine
                # does not move it; the time between operations is not counted.
                "ops_per_s": median(throughputs),
                "op_p50_ms": 1e3 * median(lat),
                "op_p95_ms": 1e3 * quantiles(lat, n=20)[18],
                "peak_rss_mb": rss_mb,
            }
            metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in spec["end_to_end"]}
        errors = run.errors + check_outputs(wl, run)
    finally:
        wl.cleanup()

    for message in errors[:MAX_REPORTED_ERRORS]:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{run.rounds} rounds, {run.attempted} operations, {run.failed} failed; "
          f"speed factor median {median(run.factors):.3f}, "
          f"range {min(run.factors):.3f}..{max(run.factors):.3f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value if isinstance(value, int) else f'{value:.6g}'} {unit}")
    print(json.dumps({
        "correct": not errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def full_run(args, spec: dict) -> int:
    """Every workload untraced then traced, each in its own process."""
    report = {"python": sys.version, "platform": platform.platform(), "seed": args.seed,
              "seconds": args.seconds, "workloads": {}}
    ok = True
    for wl in spec["workloads"]:
        name = wl["name"]
        entry = report["workloads"][name] = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed",
                   str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{name} (trace {trace}) exited {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            ok = ok and result["correct"] and result["failed"] == 0
            key = "per_layer" if trace else "end_to_end"
            entry[key] = {k: v["value"] for k, v in result["metrics"].items()}
            entry[f"{key}_ops"] = {"attempted": result["attempted"], "failed": result["failed"],
                                   "correct": result["correct"]}
        # Top-level spans against untimed calls: what recording a span costs.
        overhead = entry["per_layer"]["trace.op_mean_ms"] * entry["end_to_end"]["ops_per_s"] / 1e3
        entry["trace_overhead_pct"] = 100.0 * (overhead - 1.0)
        print(f"  trace_overhead_pct = {entry['trace_overhead_pct']:.3g} %\n")
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES,
                        help="run one workload (default: all, untraced and traced)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(BENCH / "out" / "BENCH_local.json"),
                        help="results file of a full run")
    args = parser.parse_args(argv)
    spec = load_spec()
    return single_run(args, spec) if args.workload else full_run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
