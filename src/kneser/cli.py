"""Command line interface.

Exit codes: 0 success; 1 a mathematical property failed (a theorem check or
oracle verdict, so CI can tell violations from bad input); 2 input or parse
error; 3 enumeration budget exceeded; 4 internal error (any other exception
from a command, such as a failed internal consistency check or a payload
that is not finite JSON, which is a bug).  Stdout carries a JSON payload
exactly when the exit code is 0 or 1; diagnostics go to stderr, and no
command ends in a traceback.

The side files of `enumerate --dump` and `montecarlo --csv` are opened
before any work; a path that cannot be opened for writing exits 2.

No environment variable is read; every command runs in one thread, so a
KNESER_THREADS setting changes nothing.
"""
from __future__ import annotations

import argparse
import contextlib
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from . import corpus
from .decomposition import decompose
from .errors import BudgetExceeded, KneserError
from .fileio import format_patch, format_tri, parse_patch, parse_tri
from .normal import check_coordinate_rows, edge_weight_rows, euler_rows
from .pl_area import LENGTH_MODEL, pl_area, verify_diameter_bound
from .projection import (
    ProjectionConfig,
    TriangulatedPatch,
    estimate_from_ratios,
    projection_ratios,
)
from .reports import (
    decomposition_dict,
    emit_json,
    estimate_csv_rows,
    estimate_dict,
    surface_entry,
)
from .vertex_enum import DEFAULT_BUDGET, enumerate_vertex_solutions


@dataclass(frozen=True)
class CommandResult:
    exit_code: int
    payload: dict | None
    diagnostics: str = ""


def _load(path: str, parse, what: str):
    """The parsed contents of the file at `path`, or the exit-2 result
    saying why it could not be read or parsed as a `what`."""
    try:
        return parse(Path(path).read_text())
    except OSError as exc:
        return CommandResult(2, None, f"cannot read {path}: {exc}")
    except (KneserError, ValueError) as exc:
        return CommandResult(2, None, f"bad {what}: {exc}")


def _open_side_file(path: str | None):
    """The side file at `path` opened for writing, None for no path, or the
    exit-2 result saying why it cannot be opened; commands open it before
    their work so a bad path fails fast."""
    if path is None:
        return None
    try:
        return open(path, "w")
    except OSError as exc:
        return CommandResult(2, None, f"cannot write {path}: {exc}")


def cmd_decompose(
    path: str,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    oracle_check: bool = False,
) -> CommandResult:
    if budget < 0:
        return CommandResult(2, None, "--budget must be nonnegative")
    tri = _load(path, parse_tri, "triangulation")
    if isinstance(tri, CommandResult):
        return tri
    try:
        report = decompose(tri, budget=budget, oracle_check=oracle_check)
    except BudgetExceeded as exc:
        return CommandResult(3, None, str(exc))
    payload = decomposition_dict(report, input_name=Path(path).name)
    payload["input"]["seed"] = seed
    code = 0
    notes = []
    if any(not s.diameter_bound_ok for s in report.spheres):
        code, notes = 1, notes + ["diameter bound violated"]
    if report.oracle is not None and not report.oracle.agreed:
        code, notes = 1, notes + ["crush/cut-and-cap oracle disagreement"]
    return CommandResult(code, payload, "; ".join(notes))


def _surface_entries(tri, solutions, pl_area_flag: bool, verify_diam: bool):
    """The `surfaces` entries of the enumerate payload, and whether every
    diameter check passed.

    The vertex rays are validated in one `check_coordinate_rows` pass, and
    their weights and Euler characteristics read off in one pass each.  A
    vertex ray is connected, so it is vertex-linking exactly when it has
    no quad, as `decomposition.sphere_witnesses` argues."""
    rays = check_coordinate_rows(tri, solutions)
    weights = edge_weight_rows(tri, rays).sum(axis=1).tolist()
    chis = euler_rows(tri, rays).tolist()
    quad_free = ~(rays.reshape(len(rays), tri.size, 7)[:, :, 4:] != 0).any(axis=(1, 2))
    entries = []
    all_pass = True
    for coords, wt, chi, vl in zip(solutions, weights, chis, quad_free.tolist()):
        kwargs = {}
        if pl_area_flag:
            kwargs["lg"] = pl_area(tri, coords).length
        if verify_diam:
            check = verify_diameter_bound(tri, coords)
            kwargs["diam"] = check.diameter
            kwargs["diam_ok"] = check.passed
            all_pass = all_pass and check.passed
        entries.append(surface_entry(coords, wt=wt, chi=chi, vertex_linking=vl, **kwargs))
    return entries, all_pass


def cmd_enumerate(
    path: str,
    budget: int = DEFAULT_BUDGET,
    pl_area_flag: bool = False,
    verify_diam: bool = False,
    dump_path: str | None = None,
) -> CommandResult:
    if budget < 0:
        return CommandResult(2, None, "--budget must be nonnegative")
    tri = _load(path, parse_tri, "triangulation")
    if isinstance(tri, CommandResult):
        return tri
    dump = _open_side_file(dump_path)
    if isinstance(dump, CommandResult):
        return dump
    with dump or contextlib.nullcontext():
        try:
            entries, all_pass = _surface_entries(
                tri, enumerate_vertex_solutions(tri, budget), pl_area_flag, verify_diam
            )
        except BudgetExceeded as exc:
            return CommandResult(3, None, str(exc))
        if dump is not None:
            dump.write("".join(e["dump"] + "\n" for e in entries))
    payload = {
        "input": {"name": Path(path).name, "ntet": tri.size},
        "length_model": LENGTH_MODEL,
        "count": len(entries),
        "surfaces": entries,
    }
    if verify_diam and not all_pass:
        return CommandResult(1, payload, "diameter bound violated")
    return CommandResult(0, payload, "")


def _parse_sweep(spec: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError("sweep must be start:stop:steps")
    start, stop = float(parts[0]), float(parts[1])
    steps = int(parts[2])
    if steps < 1:
        raise ValueError("sweep needs at least one step")
    if steps == 1:
        return [start]
    return [start + (stop - start) * i / (steps - 1) for i in range(steps)]


def cmd_montecarlo(
    path: str,
    nu: float = 50.0,
    samples: int = 10000,
    seed: int = 0,
    sweep: str | None = None,
    csv_path: str | None = None,
) -> CommandResult:
    if samples < 1:
        return CommandResult(2, None, "--samples must be at least 1")
    triangles = _load(path, parse_patch, "patch")
    if isinstance(triangles, CommandResult):
        return triangles
    try:
        patch = TriangulatedPatch(triangles)
        config = ProjectionConfig(samples=samples, seed=seed)
        if patch.area <= 0:
            raise ValueError("zero-area patch")
    except (KneserError, ValueError) as exc:
        return CommandResult(2, None, f"bad patch: {exc}")
    try:
        nus = [nu] if sweep is None else _parse_sweep(sweep)
    except ValueError as exc:
        return CommandResult(2, None, str(exc))
    if not all(math.isfinite(value) and value > 0 for value in nus):
        return CommandResult(2, None, "nu must be finite and positive")
    csv = _open_side_file(csv_path)
    if isinstance(csv, CommandResult):
        return csv
    with csv or contextlib.nullcontext():
        ratios = projection_ratios(config, patch)
        estimates = [estimate_from_ratios(config, ratios, value) for value in nus]
        if csv is not None:
            csv.write(estimate_csv_rows(estimates))
    payload = {
        "input": {
            "name": Path(path).name,
            "triangles": int(len(patch.triangles)),
            "area": patch.area,
        },
        "r": config.r,
        "seed": seed,
        "samples": samples,
        "estimates": [estimate_dict(e) for e in estimates],
    }
    if not all(e.passed for e in estimates):
        return CommandResult(1, payload, "bad-set bound violated")
    return CommandResult(0, payload, "")


CORPUS_FILES = (
    ("bd4simplex.tri", lambda: format_tri(corpus.bd4_simplex())),
    ("s3_one_tet.tri", lambda: format_tri(corpus.s3_one_tet())),
    ("s3_two_tet.tri", lambda: format_tri(corpus.s3_two_tet())),
    ("rp3_two_tet.tri", lambda: format_tri(corpus.rp3_two_tet())),
    ("rp3_octahedral.tri", lambda: format_tri(corpus.rp3_octahedral())),
    ("l31_two_tet.tri", lambda: format_tri(corpus.l31_two_tet())),
    ("s2xs1_two_tet.tri", lambda: format_tri(corpus.s2xs1_two_tet())),
    ("chain7.tri", lambda: format_tri(corpus.linear_chain(7))),
    (
        "sum_bd4_bd4.tri",
        lambda: format_tri(_sum("bd4_simplex", "bd4_simplex")),
    ),
    (
        "sum_bd4_rp3.tri",
        lambda: format_tri(_sum("bd4_simplex", "rp3_octahedral")),
    ),
    (
        "sum_s3_rp3.tri",
        lambda: format_tri(_sum("s3_two_tet", "rp3_octahedral")),
    ),
    ("patch_sphere.patch", lambda: format_patch(corpus.sphere_patch(0.05, 1))),
    (
        "patch_sphere_large.patch",
        lambda: format_patch(corpus.sphere_patch(0.08, 1)),
    ),
    (
        "patch_square_center.patch",
        lambda: format_patch(
            corpus.tilted_square_patch([0.0, 0.0, 0.05], [1.0, 1.0, 1.0], 0.03)
        ),
    ),
    (
        "patch_square_tilted.patch",
        lambda: format_patch(
            corpus.tilted_square_patch([0.02, -0.01, 0.03], [1.0, -2.0, 0.5], 0.04)
        ),
    ),
    (
        "patch_corner.patch",
        lambda: format_patch(
            corpus.tilted_square_patch(
                0.55 * corpus.regular_tetrahedron()[0],
                corpus.regular_tetrahedron()[0],
                0.01,
            )
        ),
    ),
)


def _sum(a: str, b: str):
    from .decomposition import connected_sum

    return connected_sum(getattr(corpus, a)(), getattr(corpus, b)())


def cmd_generate(outdir: str) -> CommandResult:
    out = Path(outdir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        written = []
        for name, make in CORPUS_FILES:
            (out / name).write_text(make())
            written.append(name)
    except OSError as exc:
        return CommandResult(2, None, f"cannot write corpus: {exc}")
    return CommandResult(0, {"outdir": str(out), "files": written}, "")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kneser",
        description="sphere decompositions of triangulated 3-manifolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="decompose along essential spheres")
    p.add_argument("path")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--oracle-check", action="store_true")

    p = sub.add_parser("enumerate", help="enumerate vertex normal surfaces")
    p.add_argument("path")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--pl-area", action="store_true")
    p.add_argument("--verify-diam", action="store_true")
    p.add_argument("--dump")

    p = sub.add_parser("montecarlo", help="bad-set volume estimates")
    p.add_argument("path")
    p.add_argument("--nu", type=float, default=50.0)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sweep")
    p.add_argument("--csv")

    p = sub.add_parser("generate", help="write the built-in corpus files")
    p.add_argument("outdir")
    return parser


def run(argv: list[str]) -> CommandResult:
    args = build_parser().parse_args(argv)
    if args.command == "decompose":
        return cmd_decompose(
            args.path,
            budget=args.budget,
            seed=args.seed,
            oracle_check=args.oracle_check,
        )
    if args.command == "enumerate":
        return cmd_enumerate(
            args.path,
            budget=args.budget,
            pl_area_flag=args.pl_area,
            verify_diam=args.verify_diam,
            dump_path=args.dump,
        )
    if args.command == "montecarlo":
        return cmd_montecarlo(
            args.path,
            nu=args.nu,
            samples=args.samples,
            seed=args.seed,
            sweep=args.sweep,
            csv_path=args.csv,
        )
    if args.command == "generate":
        return cmd_generate(args.outdir)
    raise AssertionError(args.command)


def main(argv: list[str] | None = None) -> int:
    try:
        result = run(sys.argv[1:] if argv is None else argv)
        out = "" if result.payload is None else emit_json(result.payload) + "\n"
    except Exception as exc:
        diagnostics = f"internal error: {type(exc).__name__}: {exc}"
        result, out = CommandResult(4, None, diagnostics), ""
    sys.stdout.write(out)
    if result.diagnostics:
        sys.stderr.write(result.diagnostics + "\n")
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
