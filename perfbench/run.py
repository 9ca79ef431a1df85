"""The daha benchmark: seeded verification workloads, one case at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the daha sources under ``src/`` are used.
With ``--trace 0`` the run times cases back to back for at least S seconds
and at least MIN_CASES cases, then prints the end-to-end metrics.  With
``--trace 1`` it runs a fixed number of cases with per-layer wrappers
installed and prints the per-layer metrics.  Either way the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if not (SRC / "daha" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no daha sources at {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

from daha import verify  # noqa: E402

import cases  # noqa: E402
import layers  # noqa: E402
import speed  # noqa: E402

# At least this many timed cases, so that ten lie beyond the 99th percentile.
MIN_CASES = 1000
# Wall seconds of cases between two speed probes in the timed phase.
SLICE_S = 0.05
# Fresh interpreters whose set-up time is measured; setup_s is their median.
SETUP_PROBES = 15
OUT_DIR = ROOT / "perfbench" / "out"

# (metric, unit, better) for the end-to-end metrics, in report order.
END_TO_END = [
    ("cases_per_s", "1/s", "higher"),
    ("case_p50_ms", "ms", "lower"),
    ("case_p99_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]


class Tally:
    """Correctness gate: every case must return exactly the reports it was
    generated for, each with one case and no failure.  A case that raises
    ArithmeticError (daha's NonDivisibleError is one) counts as failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, case: cases.Case) -> None:
        check, args, labels = case
        self.attempted += 1
        try:
            result = getattr(verify, check)(*args)
        except ArithmeticError:
            self.failed += 1
            return
        reports = result if isinstance(result, list) else [result]
        if ([(r.label, r.cases) for r in reports] != [(label, 1) for label in labels]
                or any(r.failures for r in reports)):
            self.failed += 1

    @property
    def correct(self) -> bool:
        return self.failed == 0


def run_timed(stream, seconds: float) -> tuple[Tally, list[float], float, float, list[float]]:
    """Run cases back to back until both the time and the case floor are met.

    Cases run in slices of about SLICE_S, each bracketed by speed probes, and
    each slice's times are scaled to reference seconds (see speed.py).
    Returns the tally, per-case reference seconds, the reference and the
    wall seconds spent in cases, and the probes."""
    tally = Tally()
    times = []
    probes = [speed.probe()]
    scaled_wall = wall = 0.0
    clock = time.perf_counter
    start = clock()
    deadline = start + seconds
    while True:
        slice_start = clock()
        slice_times = []
        while True:
            case = next(stream)
            t0 = clock()
            tally.run(case)
            t1 = clock()
            slice_times.append(t1 - t0)
            if t1 - slice_start >= SLICE_S:
                break
        probes.append(speed.probe())
        factor = speed.scale(probes[-2], probes[-1])
        scaled_wall += (t1 - slice_start) * factor
        wall += t1 - slice_start
        times.extend(t * factor for t in slice_times)
        if clock() >= deadline and len(times) >= MIN_CASES:
            return tally, times, scaled_wall, wall, probes


def run_fixed(case_list) -> float:
    """Wall time of running the cases back to back."""
    tally = Tally()
    start = time.perf_counter()
    for case in case_list:
        tally.run(case)
    return time.perf_counter() - start


def _child(args: list[str]) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), *args],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    )


def measure_setup(workload: str, seed: int) -> list[float]:
    """Reference seconds from spawning a fresh interpreter to its first case
    being ready (import daha, build the workload, draw the first sample).

    This process and its children are pinned to one CPU meanwhile, so each
    start-up runs where the speed probes around it run, and is scaled by
    them.  Unpinned, a child usually starts on the other CPU, whose speed
    the probes do not see."""
    samples = []
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        before = speed.probe()
        for _ in range(SETUP_PROBES):
            start = time.perf_counter()
            with _child(["--child", "setup", "--workload", workload, "--seed", str(seed)]) as proc:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - start
                proc.stdout.read()
            if line.strip() != "ready" or proc.returncode != 0:
                raise RuntimeError(f"set-up probe failed (exit {proc.returncode}, said {line!r})")
            after = speed.probe()
            samples.append(elapsed * speed.scale(before, after))
            before = after
    finally:
        os.sched_setaffinity(0, allowed)
    return samples


def untraced_wall(workload: str, seed: int, count: int) -> float:
    """Wall time of the first ``count`` cases in a fresh, untraced process."""
    with _child(["--child", "reference", "--workload", workload, "--seed", str(seed),
                 "--cases", str(count)]) as proc:
        out = proc.stdout.read()
    if proc.returncode != 0:
        raise RuntimeError(f"untraced reference run failed (exit {proc.returncode})")
    return json.loads(out.splitlines()[-1])["wall_s"]


def _git_sha() -> str | None:
    env = dict(os.environ, GIT_DIR=str(ROOT / ".git"))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def metadata(args, argv: list[str], samples: int) -> dict:
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": samples,
        "command": [Path(sys.executable).name, "perfbench/run.py", *argv],
    }


def emit(meta: dict, units: list, values: dict, tally: Tally, correct: bool, extra: dict = None) -> None:
    print("# meta " + json.dumps(meta))
    for name, unit, _ in units:
        print(f"{name} {values[name]!r} {unit}")
    for name, (value, unit) in (extra or {}).items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in units},
    }))


def timed_mode(args, argv: list[str], workload: cases.Workload) -> bool:
    stream = workload.build(args.seed)
    # Set-up ends with the first case drawn; the timed phase starts after it.
    first = next(stream)
    tally, times, scaled_wall, wall, probes = run_timed(itertools.chain([first], stream), args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup = measure_setup(args.workload, args.seed)
    times_ms = [t * 1e3 for t in times]
    values = {
        "cases_per_s": len(times) / scaled_wall,
        "case_p50_ms": statistics.median(times_ms),
        "case_p99_ms": statistics.quantiles(times_ms, n=100)[98],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }
    # Printed with the metrics but kept out of the JSON result: fail_ratio
    # (whose metrics must never read 0; the result carries it as
    # failed/attempted), the unscaled throughput, and the machine's speed
    # relative to the reference (median over the run's probes).
    extra = {
        "fail_ratio": (tally.failed / tally.attempted, "ratio"),
        "wall_cases_per_s": (len(times) / wall, "1/s"),
        "machine_speed": (speed.REFERENCE_S / statistics.median(probes), "ratio"),
    }
    emit(metadata(args, argv, len(times)), END_TO_END, values, tally, tally.correct, extra)
    return tally.correct


def traced_mode(args, argv: list[str], workload: cases.Workload) -> bool:
    case_list = cases.take(workload.build(args.seed), workload.trace_cases)
    reference = untraced_wall(args.workload, args.seed, len(case_list))
    tracer = layers.Tracer()
    tally = Tally()
    start = time.perf_counter()
    with tracer:
        for index, case in enumerate(case_list):
            tracer.case = index
            tally.run(case)
    wall = time.perf_counter() - start
    meta = metadata(args, argv, len(case_list))
    missing = tracer.missing_calls(workload.unreached)
    if missing:
        print(f"perfbench: wrapped functions with no call: {' '.join(missing)}", file=sys.stderr)
    tracer.write_spans(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.csv", meta)
    correct = tally.correct and not missing
    emit(meta, layers.PER_LAYER, tracer.metrics(wall / reference), tally, correct)
    return correct


def child_mode(args, workload: cases.Workload) -> None:
    stream = workload.build(args.seed)
    if args.child == "setup":
        next(stream)
        print("ready", flush=True)
        return
    print(json.dumps({"wall_s": run_fixed(cases.take(stream, args.cases))}))


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(cases.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "reference"), help=argparse.SUPPRESS)
    parser.add_argument("--cases", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = cases.WORKLOADS[args.workload]
    if args.child:
        child_mode(args, workload)
        return 0
    correct = (traced_mode if args.trace else timed_mode)(args, argv, workload)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
