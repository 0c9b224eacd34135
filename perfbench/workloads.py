"""Workload inputs for the kneser benchmark.

The program under test only ever sees generated files: the benchmark builds
the corpus with the program's own `kneser.cli.CORPUS_FILES` recipes (plus
`rp3#rp3`, which the corpus does not ship), writes the files into its work
directory, and hands the CLI their paths.
"""
from __future__ import annotations

import importlib
import os
import platform
import random
import sys
from pathlib import Path
from typing import NamedTuple

# Samples per patch for montecarlo-near.  `montecarlo` defaults to 10000
# samples, about 70 s on patch_sphere_large alone; 300 keeps a pass at a few
# seconds while averaging over enough centres that the cost of a pass barely
# depends on which centres the seed draws.
NEAR_SAMPLES = 300

RP3_SUM = "rp3_rp3.tri"


class Workload(NamedTuple):
    command: str
    args: list[str]  # after the input path
    files: list[str]


WORKLOADS = {
    "decompose-sums": Workload(
        "decompose",
        ["--oracle-check"],
        ["sum_bd4_bd4.tri", "sum_s3_rp3.tri", "sum_bd4_rp3.tri", RP3_SUM],
    ),
    "montecarlo-near": Workload(
        "montecarlo",
        ["--nu", "50", "--samples", str(NEAR_SAMPLES)],
        ["patch_sphere.patch", "patch_sphere_large.patch", "patch_square_tilted.patch"],
    ),
}


class MissingProgram(RuntimeError):
    """The checkout lacks the kneser sources or the payload schema."""


def program_paths(root: Path) -> tuple[Path, Path]:
    src = root / "src"
    schema = root / "schemas" / "payloads.schema.json"
    for need in (src / "kneser" / "__init__.py", src / "kneser" / "cli.py", schema):
        if not need.is_file():
            raise MissingProgram(f"missing {need.relative_to(root)}")
    return src, schema


def import_kneser(src: Path):
    """Import `kneser.cli` from `src`, and make sure that is where it came from."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    cli = importlib.import_module("kneser.cli")
    where = Path(cli.__file__).resolve()
    if src.resolve() not in where.parents:
        raise MissingProgram(f"kneser was imported from {where}, not {src}")
    return cli


def setup(src: Path, workload: str, workdir: Path):
    """Import kneser, then build, write and parse back the workload's
    inputs.  Returns the `kneser.cli` module and the input paths."""
    cli = import_kneser(src)
    texts = build_texts(cli, WORKLOADS[workload].files)
    return cli, write_inputs(cli, workdir, texts)


def relabel(tri, seed: int):
    """The triangulation with tetrahedra and the vertices inside each
    tetrahedron renamed by permutations drawn from `seed`.

    Tet i becomes tet sigma(i) and its local vertex v becomes tau_i(v), so
    face f of tet i glued to face k of tet j by p becomes face tau_i(f) of
    tet sigma(i) glued to face tau_j(k) of tet sigma(j) by tau_j . p . tau_i^-1.
    """
    from kneser.triangulation import perm_compose, perm_inverse, validate

    rng = random.Random(seed)
    t = tri.size
    sigma = list(range(t))
    rng.shuffle(sigma)
    taus = []
    for _ in range(t):
        tau = [0, 1, 2, 3]
        rng.shuffle(tau)
        taus.append(tuple(tau))
    rows = [[None] * 4 for _ in range(t)]
    for i in range(t):
        for f in range(4):
            g = tri.gluings[i][f]
            q = perm_compose(taus[g.tet], perm_compose(g.perm, perm_inverse(taus[i])))
            rows[sigma[i]][taus[i][f]] = (sigma[g.tet], taus[g.tet][g.face], q)
    return validate(rows)


def build_texts(cli, names: list[str], relabel_seed: int = 0) -> dict[str, str]:
    """File name -> contents, built by the program's own corpus recipes.

    With `relabel_seed` > 0 every `.tri` file is relabelled by that seed;
    0 keeps the files exactly as `kneser generate` writes them."""
    recipes = dict(cli.CORPUS_FILES)
    texts = {}
    for name in names:
        if name == RP3_SUM:
            rp3 = cli.corpus.rp3_octahedral()
            from kneser.decomposition import connected_sum

            tri = connected_sum(rp3, rp3)
            text = cli.format_tri(tri)
        else:
            text = recipes[name]()
        if relabel_seed and name.endswith(".tri"):
            text = cli.format_tri(relabel(cli.parse_tri(text), relabel_seed))
        texts[name] = text
    return texts


def write_inputs(cli, workdir: Path, texts: dict[str, str]) -> dict[str, Path]:
    """Write each file, then parse it back with the program's parser to make
    sure the CLI will accept exactly what was written."""
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, text in texts.items():
        path = workdir / name
        path.write_text(text)
        back = path.read_text()
        if name.endswith(".tri"):
            if cli.format_tri(cli.parse_tri(back)) != text:
                raise RuntimeError(f"{name} does not round-trip")
        else:
            cli.parse_patch(back)
        paths[name] = path
    return paths


def workload_ops(workload: str, paths: dict[str, Path], seed: int) -> list[list[str]]:
    """The fixed list of CLI argument vectors for one pass.

    Patches take the seed as `--seed`.  The `.tri` workloads ignore it: a
    seeded relabelling changes the enumeration work itself (rp3#rp3 takes
    from 4.4 s to 111 s of enumeration on seeds 0-3, see README.md), so timing
    relabelled inputs would measure the seed rather than the code."""
    spec = WORKLOADS[workload]
    ops = []
    for name in spec.files:
        argv = [spec.command, str(paths[name]), *spec.args]
        if spec.command == "montecarlo":
            argv += ["--seed", str(seed)]
        ops.append(argv)
    return ops


def host_info() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "KNESER_THREADS": os.environ.get("KNESER_THREADS"),
    }
