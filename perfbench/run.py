#!/usr/bin/env python3
"""kneser benchmark: one closed-loop client driving the CLI in one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Set-up imports kneser from `src/`, builds
the workload's input files with the program's own corpus recipes, writes
them under `.perfbench_work/` and parses them back.  It is timed in a fresh
interpreter, so each sample pays the whole import as a new `kneser` process
does, five times before the first pass and once between passes; the median
is reported as `setup_s`.  The workload's fixed op list runs pass after pass
through `kneser.cli.main`, which calls `kneser.cli.run` and writes its
payload, for about S seconds and at least twice.  KNESER_THREADS is 1, and
before each op the program's lru caches are emptied and garbage is
collected, so each op starts as a fresh `kneser` process would.  Every op
is checked (see checks.py).

With --trace 0 the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with --trace 1 untraced and traced passes alternate and it
carries the per-layer metrics.  The lines before it are a readable report.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
MIN_PASSES = 2
WORKDIR = ROOT / ".perfbench_work"

# one timed set-up; argv: perfbench dir, src dir, workload, work dir
SETUP_CHILD = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from pathlib import Path
import workloads
workloads.setup(Path(sys.argv[2]), sys.argv[3], Path(sys.argv[4]))
print(time.perf_counter() - start)
"""


@dataclass
class Outcome:
    code: int | None
    stdout: str
    stderr: str
    error: str | None
    seconds: float


@dataclass
class PassResult:
    wall: float
    slowest: float
    attempted: int
    failed: int
    verdict_failed: int
    problems: list[str]


def run_op(cli, argv: list[str], caches) -> Outcome:
    for cache in caches:
        cache.cache_clear()
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except (Exception, SystemExit):
        error = traceback.format_exc()
    seconds = time.perf_counter() - start
    return Outcome(code, out.getvalue(), err.getvalue(), error, seconds)


def program_caches() -> list:
    """Every functools cache the loaded program holds at module level."""
    found = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "kneser" or name.startswith("kneser.")):
            continue
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                found[id(value)] = value
    return list(found.values())


class Bench:
    """One workload's program, inputs and op list, ready to run passes."""

    def __init__(self, workload: str, seed: int, setup_repeats: int = SETUP_REPEATS):
        self.src, schema = workloads.program_paths(ROOT)
        os.environ["KNESER_THREADS"] = "1"
        self.workload = workload
        self.cli, paths = workloads.setup(self.src, workload, WORKDIR / workload)
        self.ops = workloads.workload_ops(workload, paths, seed)
        self.caches = program_caches()
        self.setup_samples: list[float] = []
        for _ in range(setup_repeats):
            self.sample_setup()
        self.checker = checks.OpChecker(checks.load_validator(schema))
        self.tracer = tracing.Tracer()
        self.passes = 0

    def sample_setup(self) -> None:
        """Time one set-up in a fresh interpreter, so that every sample pays
        the whole import, numpy included, as a new `kneser` process does."""
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(HERE), str(self.src),
             self.workload, str(WORKDIR / f"{self.workload}-setup")],
            capture_output=True, text=True, cwd=ROOT, check=True,
        )
        self.setup_samples.append(float(proc.stdout.split()[-1]))

    def run_pass(self, traced: bool = False) -> PassResult:
        result = PassResult(0.0, 0.0, 0, 0, 0, [])
        if traced:
            self.tracer.install()
        try:
            for index, argv in enumerate(self.ops):
                self.tracer.op = self.passes * len(self.ops) + index
                outcome = run_op(self.cli, argv, self.caches)
                result.wall += outcome.seconds
                result.slowest = max(result.slowest, outcome.seconds)
                result.attempted += 1
                result.verdict_failed += outcome.code == 1
                problems = self.checker.check(index, argv, outcome)
                if problems:
                    result.failed += 1
                    result.problems.append(f"{Path(argv[1]).name}: {'; '.join(problems)}")
        finally:
            self.tracer.uninstall()
        self.passes += 1
        return result

    def op_ids(self, pass_no: int) -> set[int]:
        n = len(self.ops)
        return set(range(pass_no * n, (pass_no + 1) * n))

    def centres_per_pass(self) -> int:
        if workloads.WORKLOADS[self.workload].command != "montecarlo":
            return 0
        return sum(int(argv[argv.index("--samples") + 1]) for argv in self.ops)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def measure(bench: Bench, seconds: float, trace: bool):
    """Run passes within `seconds`: another pass starts only if a pass of
    average length still fits, but there are always MIN_PASSES, and with
    --trace at least one untraced and one traced.  Returns the (pass number,
    result) pairs of the untraced and of the traced passes."""
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        use_trace = trace and len(untraced) > len(traced)
        pass_no = bench.passes
        result = bench.run_pass(traced=use_trace)
        (traced if use_trace else untraced).append((pass_no, result))
        done = len(untraced) + len(traced)
        elapsed = time.perf_counter() - start
        if done >= MIN_PASSES and (traced or not trace):
            if elapsed * (done + 1) / done > seconds:
                return untraced, traced
        # one more set-up sample between passes, so set-up is sampled
        # across the whole run like the passes are
        bench.sample_setup()


def end_to_end(bench: Bench, untraced) -> dict[str, list[float] | float]:
    """Each end-to-end metric: a list of per-pass (or per-set-up) samples,
    or one number for the whole run."""
    results = [r for _, r in untraced]
    walls = [r.wall for r in results]
    attempted = sum(r.attempted for r in results)
    out = {
        "setup_s": bench.setup_samples,
        "wall_s": walls,
        "slowest_op_s": [r.slowest for r in results],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_frac": sum(r.failed for r in results) / attempted,
        "verdict_fail_frac": sum(r.verdict_failed for r in results) / attempted,
    }
    if bench.centres_per_pass():
        out["centres_per_s"] = [bench.centres_per_pass() / w for w in walls]
    return out


E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "slowest_op_s": "s",
    "centres_per_s": "1/s",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
    "verdict_fail_frac": "ratio",
}


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        e2e_declared, layer_declared = declared_metrics()
        bench = Bench(args.workload, args.seed)
    except (workloads.MissingProgram, OSError) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2
    except subprocess.CalledProcessError as exc:
        print(f"perfbench: timed set-up failed:\n{exc.stderr}", file=sys.stderr)
        return 2

    untraced, traced = measure(bench, args.seconds, bool(args.trace))
    everything = [r for _, r in untraced + traced]
    attempted = sum(r.attempted for r in everything)
    failed = sum(r.failed for r in everything)
    problems = sorted({p for r in everything for p in r.problems})

    print(f"kneser benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    host = workloads.host_info()
    print("host: " + ", ".join(f"{k}={v}" for k, v in host.items()))
    print(f"client: 1 closed-loop client, {len(bench.ops)} ops per pass, "
          f"{len(untraced)} untraced + {len(traced)} traced passes")

    e2e = end_to_end(bench, untraced)
    print(f"{'metric':<20}{'unit':<7}{'median':>13}{'q1':>13}{'q3':>13}{'n':>4}")
    for name, unit in E2E_UNITS.items():
        if name not in e2e:
            continue
        values = e2e[name] if isinstance(e2e[name], list) else [e2e[name]]
        q1, q2, q3 = quartiles(values)
        print(f"{name:<20}{unit:<7}{q2:>13.6g}{q1:>13.6g}{q3:>13.6g}{len(values):>4}")
    verdicts = sum(r.verdict_failed for r in everything)
    print(f"checks: {attempted} ops attempted, {failed} failed a check, "
          f"{verdicts} exited 1 (CLI verdict failed)")
    for problem in problems:
        print(f"  FAILED {problem}")

    if args.trace:
        layers = {}
        summaries = [bench.tracer.summary(bench.op_ids(p)) for p, _ in traced]
        for key in summaries[0]:
            layers[key] = statistics.median(s[key] for s in summaries)
        traced_wall = statistics.median(r.wall for _, r in traced)
        layers["trace.traced_wall_s"] = traced_wall
        layers["trace.overhead_s"] = traced_wall - statistics.median(e2e["wall_s"])
        units = {**tracing.per_layer_units(), "trace.traced_wall_s": "s", "trace.overhead_s": "s"}
        print(f"{'layer metric':<52}{'unit':<7}{'value':>13}")
        for key, value in layers.items():
            print(f"{key:<52}{units[key]:<7}{value:>13.6g}")
        bench.tracer.write(WORKDIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        metrics = {k: {"value": layers[k], "unit": u} for k, u in layer_declared.items()}
    else:
        metrics = {}
        for name, unit in e2e_declared.items():
            value = e2e[name]
            if isinstance(value, list):
                value = statistics.median(value)
            metrics[name] = {"value": value, "unit": unit}

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
