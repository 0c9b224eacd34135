#!/usr/bin/env python3
"""How much the cost of decompose-sums depends on the labels of its inputs.

    python3 perfbench/relabel_probe.py --seeds 0,1,2,3

For each seed k the workload's inputs are relabelled by the seeded
permutation of `workloads.relabel` (k = 0 keeps them as `kneser generate`
builds them) and each op runs once, traced, through `kneser.cli.main`.  The
table gives the op's time, the time inside `enumerate_vertex_solutions`,
the exit code, the oracle and ledger verdicts, and the benchmark's own
checks, which must hold for every labelling.  Relabelled rp3#rp3 can take
minutes, which is why the timed workloads keep the original labels.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOAD = "decompose-sums"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0,1,2,3")
    args = parser.parse_args(argv)
    try:
        src, schema = workloads.program_paths(run.ROOT)
    except workloads.MissingProgram as exc:
        print(f"relabel_probe: {exc}", file=sys.stderr)
        return 2
    os.environ["KNESER_THREADS"] = "1"
    cli = workloads.import_kneser(src)
    names = workloads.WORKLOADS[WORKLOAD].files
    validator = checks.load_validator(schema)
    caches = run.program_caches()
    print(f"{'seed':>4} {'input':<20}{'op_s':>9}{'enum_s':>9}{'exit':>5}"
          f"{'oracle':>8}{'ledger':>8}  checks")
    rows = []
    for seed in (int(s) for s in args.seeds.split(",")):
        texts = workloads.build_texts(cli, names, relabel_seed=seed)
        paths = workloads.write_inputs(cli, run.WORKDIR / f"relabel-{seed}", texts)
        for index, argv in enumerate(workloads.workload_ops(WORKLOAD, paths, seed)):
            tracer = tracing.Tracer()
            tracer.op = 0
            tracer.install()
            try:
                outcome = run.run_op(cli, argv, caches)
            finally:
                tracer.uninstall()
            enum_s = tracer.summary({0})["vertex_enum.enumerate_vertex_solutions.s"]
            problems = checks.OpChecker(validator).check(index, argv, outcome)
            payload = json.loads(outcome.stdout) if outcome.stdout else {}
            row = {
                "seed": seed,
                "input": Path(argv[1]).name,
                "op_s": outcome.seconds,
                "enumerate_s": enum_s,
                "exit": outcome.code,
                "oracle_agreed": payload.get("oracle", {}).get("agreed"),
                "ledger_balanced": payload.get("ledger", {}).get("balanced"),
                "problems": problems,
            }
            rows.append(row)
            print(f"{seed:>4} {row['input']:<20}{row['op_s']:>9.3f}{enum_s:>9.3f}"
                  f"{str(row['exit']):>5}{str(row['oracle_agreed']):>8}"
                  f"{str(row['ledger_balanced']):>8}  {'; '.join(problems) or 'ok'}",
                  flush=True)
    return 0 if all(not r["problems"] for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
