import contextlib
import hashlib
import importlib
import io
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kneser import cli
from kneser.cli import (
    cmd_decompose,
    cmd_enumerate,
    cmd_generate,
    cmd_montecarlo,
    run,
)
from kneser.errors import (
    ConsistencyCheckFailed,
    InvalidAfterCrush,
    JacobianBoundExceeded,
    TerminationGuardTripped,
)
from kneser.fileio import parse_tri
from kneser.reports import emit_json
from oracles import parse_surface_dump

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "schemas" / "payloads.schema.json")
    .read_text()
)


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    result = cmd_generate(str(out))
    assert result.exit_code == 0
    return out


def validate_schema(payload):
    jsonschema.validate(payload, SCHEMA)


class TestGenerate:
    def test_files_round_trip(self, corpus_dir):
        from kneser.fileio import parse_patch
        from kneser.projection import TriangulatedPatch

        result = cmd_generate(str(corpus_dir))
        validate_schema(result.payload)
        for name in result.payload["files"]:
            text = (corpus_dir / name).read_text()
            if name.endswith(".tri"):
                closed = "chain" not in name
                tri = parse_tri(text, require_closed=closed)
                assert tri.size >= 1
            else:
                patch = TriangulatedPatch(parse_patch(text))
                assert patch.area > 0


# exit code and sha256 of stdout of `decompose <file> --oracle-check`,
# recorded when witnesses came from reconstructing every vertex ray and
# every witness got a PL area; rp3_rp3.tri is
# connected_sum(rp3_octahedral, rp3_octahedral) and rp3_rp3_rp3.tri is
# connected_sum(rp3_rp3, rp3_octahedral), neither a corpus file.
# rp3_rp3_rp3.tri (20 tets, the default enumeration budget) was recorded
# when cut-and-cap still validated its tables with per-slot union-finds
GOLDEN_DECOMPOSE = {
    "bd4simplex.tri": (0, "a78e73fcf221cedd11ae82a1be48ba4dd6406228871a973dcd650559d4d10c86"),
    "chain7.tri": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "l31_two_tet.tri": (1, "f3b9cd2cd8081fffa128873f83a9a8fa927447b13f4dce14c6ee6da7cc0b16be"),
    "rp3_octahedral.tri": (0, "007527ac1d6eb49f7bc68fdad5067df730824276930185628289aca77176d654"),
    "rp3_rp3.tri": (0, "8fc3de577cd42b048ce79422b2e497c23b36d28967c36cbfad8cbf2482c474a0"),
    "rp3_rp3_rp3.tri": (0, "b7867f157a496a70393cca6a553044dec90fbcd28c80b0ab35306bff427e5b64"),
    "rp3_two_tet.tri": (0, "eb62244399968f4362bbc007081abd6855f4f410199d4934b4651b075bdd195d"),
    "s2xs1_two_tet.tri": (0, "19a529ab75170c9d170a5ffa4d83ceedc970cb2ddaa89360e7f45e55f8d867d9"),
    "s3_one_tet.tri": (0, "157f5c3d138be6924054652a5766813e76553b441cf6b210a7a090f8f53ac76b"),
    "s3_two_tet.tri": (0, "1c49576de31cc10f08145883f521dc15b2c81587a012c7e845acbdec258ae5fe"),
    "sum_bd4_bd4.tri": (0, "6d5e26b803c856db487aaedba9d60b73df2164dd54ee51ca39d99363fd710e34"),
    "sum_bd4_rp3.tri": (0, "323d8065b583828b4e3eb57fec75e879df2262cdb005c6d24248c29dfee02099"),
    "sum_s3_rp3.tri": (0, "beb3e2896a0edf32099117defb6ca908be81cd7d52f3550913b09e0aca9f7a0f"),
}


# exit code and sha256 of stdout of `enumerate <file> --pl-area
# --verify-diam`, which prints every vertex solution's `lg`; recorded when
# pl_area read the length off each solution's disk complex
GOLDEN_ENUMERATE = {
    "bd4simplex.tri": (0, "840410812f699b23601d53d4cb46de2768fb8b2917689d020c724097c42d49c2"),
    "chain7.tri": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "l31_two_tet.tri": (0, "5e9d059fc615ac739081ee12677f8173eafdde2cd4399654594e7a3c34e66b0f"),
    "rp3_octahedral.tri": (0, "01e4d812355b08ea13704a5ef79e86eb21bdef217a561c953c6bcccdc76b5d97"),
    "rp3_rp3.tri": (0, "8bb21c7ee635646428a6a0c6c82b9285721500c91fbf363b388aa1ca84a9d21d"),
    "rp3_two_tet.tri": (0, "c1e0b446306736363531f001504973591df93519fbb027fae2fd021fb25604d2"),
    "s2xs1_two_tet.tri": (0, "b9ff9aa0a37f0baa03bde901426837d2274b36a222fbf43fec3004f39b107e15"),
    "s3_one_tet.tri": (0, "0d4b60e2c807dac669c6b0dbd1ffec90cf2500eaa3f132da2d57b2011aa9431c"),
    "s3_two_tet.tri": (0, "2445ee4e7b9828d51895b0c8037254664568c42909cac610a6da56ee29c3e78a"),
    "sum_bd4_bd4.tri": (0, "a4269754081856de0f32da81ba9c2db39a1ca8036133ed9c09146829ca20f833"),
    "sum_bd4_rp3.tri": (0, "2d68f11557004c7d774a465b3f78e52a75fed40cb727a0e48ee915cda561f527"),
    "sum_s3_rp3.tri": (0, "7252c5dd5fcf1c1f0fec2adbc6bb66777e8973d89cd155f8bfa6d5f20765ecc7"),
}


# exit code and sha256 of stdout of `montecarlo <patch> --samples 300 --seed
# S --sweep 1:200:12` for each corpus patch and S in {0, 3, 7}, recorded
# when every (centre, triangle) pair built its own plane frame
GOLDEN_MONTECARLO = {
    ("patch_corner.patch", 0): (0, "b5b494776fadd0406b274c3a01e24432bc8974f278ccfcb69c436ffd45034f84"),
    ("patch_corner.patch", 3): (0, "b4da352c59deb71ce03ace4101f98b9502e97307946b2fa71c7431d3c9872549"),
    ("patch_corner.patch", 7): (0, "15f803e99d17a950db54ed42faff2b1d49315e7c58579442a1adb7c04f84bfe4"),
    ("patch_sphere.patch", 0): (0, "69d15ce5db877577ff349a680286f32edf2edb76893727e3627b43c07cab708e"),
    ("patch_sphere.patch", 3): (0, "9233f5f1414d16ce0965b6d8b1a9762cba45ea6ad6812c6b1ae0a7fe4c8861d4"),
    ("patch_sphere.patch", 7): (0, "6d7a6c6863ae82b634424188cc70b9de25b8e519c49f92a923c631d2777cb67b"),
    ("patch_sphere_large.patch", 0): (0, "8e2df7a21a2883471498f76b62bec13de0b34b21c41d7a26d6acbb82ed0d9d4f"),
    ("patch_sphere_large.patch", 3): (0, "d503eb4954a6138cad19e9972df7a896444b8162e4619ff335b98f41d35526e9"),
    ("patch_sphere_large.patch", 7): (0, "dea7311c3bfbcaea447eb05d7b78e567cae02c6d3f417f1a622aee572a986357"),
    ("patch_square_center.patch", 0): (0, "3d4211925ce9d33becac48e3d4412a478f9c4f87982ecf26da22279a8c3754eb"),
    ("patch_square_center.patch", 3): (0, "f4bcec0646249b8de4b49f20447164208ead962fff9c07cc9ee6bfa1ed2eb59e"),
    ("patch_square_center.patch", 7): (0, "df2922c78045d205d1ed6507e540eff631f486063e195f55275d7a9f37d70e1d"),
    ("patch_square_tilted.patch", 0): (0, "bae21cdc3e47c8890edea7fcbff1364cec14540b1341e313d8a284ddc26b9c9b"),
    ("patch_square_tilted.patch", 3): (0, "de8b6b0d6cf8232a526b833fe46ea9da90a6e37c32900d2190629c966e530c6c"),
    ("patch_square_tilted.patch", 7): (0, "94d926c817a2779734d865972f20ea156e71b5557840f2bafe229e5c67317bd6"),
}


def write_rp3_sums(directory: Path) -> list[Path]:
    """rp3_rp3.tri and rp3_rp3_rp3.tri, written into `directory`."""
    from kneser import corpus
    from kneser.decomposition import connected_sum
    from kneser.fileio import format_tri

    rp3 = corpus.rp3_octahedral()
    rp3_rp3 = connected_sum(rp3, rp3)
    paths = []
    for name, tri in (
        ("rp3_rp3.tri", rp3_rp3),
        ("rp3_rp3_rp3.tri", connected_sum(rp3_rp3, rp3)),
    ):
        paths.append(directory / name)
        paths[-1].write_text(format_tri(tri))
    return paths


class TestGoldenStdout:
    def test_decompose_oracle_check(self, corpus_dir, tmp_path, capsys):
        paths = sorted(corpus_dir.glob("*.tri")) + write_rp3_sums(tmp_path)
        assert sorted(p.name for p in paths) == sorted(GOLDEN_DECOMPOSE)
        for path in paths:
            code = cli.main(["decompose", str(path), "--oracle-check"])
            out = capsys.readouterr().out
            digest = hashlib.sha256(out.encode()).hexdigest()
            assert (code, digest) == GOLDEN_DECOMPOSE[path.name], path.name


class TestNumpyOnly:
    def test_decompose_without_scipy(self, tmp_path):
        """numpy is the only runtime dependency: with scipy unimportable,
        `decompose --oracle-check` on rp3#rp3 still exits 0 with the golden
        stdout."""
        path = write_rp3_sums(tmp_path)[0]
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from kneser import cli\n"
            f"sys.exit(cli.main(['decompose', {str(path)!r}, '--oracle-check']))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            cwd=str(Path(__file__).resolve().parent.parent),
        )
        digest = hashlib.sha256(proc.stdout).hexdigest()
        assert (proc.returncode, digest) == GOLDEN_DECOMPOSE[path.name], proc.stderr


class TestPackageLayout:
    def test_every_submodule_attribute_is_the_module(self):
        """`kneser.<name>` is the submodule of that name for every module of
        the package, as the README layout table names them: no name
        imported into the package shadows one."""
        import kneser

        names = [info.name for info in pkgutil.iter_modules(kneser.__path__)]
        assert {"homology", "pl_area", "reconstruct"} <= set(names)
        for name in names:
            assert getattr(kneser, name) is importlib.import_module(f"kneser.{name}"), name


class TestGoldenEnumerate:
    def test_enumerate_pl_area_verify_diam(self, corpus_dir, tmp_path, capsys):
        from kneser import corpus
        from kneser.decomposition import connected_sum
        from kneser.fileio import format_tri

        rp3 = corpus.rp3_octahedral()
        (tmp_path / "rp3_rp3.tri").write_text(format_tri(connected_sum(rp3, rp3)))
        paths = sorted(corpus_dir.glob("*.tri")) + [tmp_path / "rp3_rp3.tri"]
        assert sorted(p.name for p in paths) == sorted(GOLDEN_ENUMERATE)
        for path in paths:
            code = cli.main(["enumerate", str(path), "--pl-area", "--verify-diam"])
            out = capsys.readouterr().out
            digest = hashlib.sha256(out.encode()).hexdigest()
            assert (code, digest) == GOLDEN_ENUMERATE[path.name], path.name


class TestGoldenMontecarlo:
    def test_montecarlo_sweep(self, corpus_dir, capsys):
        paths = sorted(corpus_dir.glob("*.patch"))
        assert sorted({name for name, _ in GOLDEN_MONTECARLO}) == [p.name for p in paths]
        for path in paths:
            for seed in (0, 3, 7):
                code = cli.main([
                    "montecarlo", str(path), "--samples", "300", "--seed", str(seed),
                    "--sweep", "1:200:12",
                ])
                out = capsys.readouterr().out
                digest = hashlib.sha256(out.encode()).hexdigest()
                assert (code, digest) == GOLDEN_MONTECARLO[path.name, seed], (path.name, seed)


class TestDecomposeCommand:
    def test_bd4(self, corpus_dir):
        result = cmd_decompose(str(corpus_dir / "bd4simplex.tri"))
        assert result.exit_code == 0
        validate_schema(result.payload)
        assert all(
            p["certificate"]["kind"] == "CertifiedWeaklyIrreducible"
            for p in result.payload["pieces"]
        )
        assert result.payload["ledger"]["balanced"] is True
        c = result.payload["constants"]
        assert c["C1"] == c["C3"] ** 2

    def test_oracle_flag(self, corpus_dir):
        result = cmd_decompose(
            str(corpus_dir / "sum_bd4_rp3.tri"), oracle_check=True
        )
        assert result.exit_code == 0
        validate_schema(result.payload)
        assert result.payload["oracle"]["agreed"] is True

    def test_malformed_exits_two(self, tmp_path):
        bad = tmp_path / "bad.tri"
        bad.write_text("not a triangulation\n")
        result = cmd_decompose(str(bad))
        assert result.exit_code == 2
        assert result.payload is None

    @pytest.mark.parametrize("entry", ["0:-2:0000", "0:-2:9999", "0:-1:0000", "0:4:0123"])
    def test_target_face_out_of_range_exits_two(self, tmp_path, entry):
        bad = tmp_path / "bad.tri"
        bad.write_text(f"tri 1\nntet 1\n{entry} 0:0:1023 0:3:0123 0:2:0123\n")
        result = run(["decompose", str(bad)])
        assert (result.exit_code, result.payload) == (2, None)
        assert result.diagnostics.startswith("bad triangulation: ")
        assert "out of range" in result.diagnostics

    def test_missing_file(self):
        result = cmd_decompose("/nonexistent/x.tri")
        assert result.exit_code == 2

    def test_budget_exit_three(self, corpus_dir):
        result = cmd_decompose(str(corpus_dir / "bd4simplex.tri"), budget=2)
        assert result.exit_code == 3
        assert result.payload is None


@pytest.mark.parametrize(
    "command, suffix, what",
    [
        ("decompose", ".tri", "triangulation"),
        ("enumerate", ".tri", "triangulation"),
        ("montecarlo", ".patch", "patch"),
    ],
)
class TestUnreadableInput:
    def test_missing_file_exits_two(self, tmp_path, command, suffix, what):
        path = tmp_path / f"missing{suffix}"
        result = run([command, str(path)])
        assert (result.exit_code, result.payload) == (2, None)
        assert result.diagnostics.startswith(f"cannot read {path}: ")

    def test_malformed_file_exits_two(self, tmp_path, command, suffix, what):
        path = tmp_path / f"bad{suffix}"
        path.write_text("not an input file\n")
        result = run([command, str(path)])
        assert (result.exit_code, result.payload) == (2, None)
        assert result.diagnostics.startswith(f"bad {what}: ")


class TestBadCountFlags:
    @pytest.mark.parametrize("command", ["decompose", "enumerate"])
    @pytest.mark.parametrize("budget", ["-1", "-20"])
    def test_negative_budget_exits_two(self, corpus_dir, capsys, command, budget):
        path = corpus_dir / "bd4simplex.tri"
        code = cli.main([command, str(path), "--budget", budget])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == "--budget must be nonnegative\n"

    def test_zero_budget_is_exceeded(self, corpus_dir):
        result = run(["decompose", str(corpus_dir / "bd4simplex.tri"), "--budget", "0"])
        assert (result.exit_code, result.payload) == (3, None)

    @pytest.mark.parametrize("command", ["decompose", "enumerate"])
    def test_ray_budget_exits_three(self, tmp_path, monkeypatch, capsys, command):
        """A step of rp3#rp3 writes 162 rows, above a budget of 161."""
        from kneser import corpus, vertex_enum
        from kneser.decomposition import connected_sum
        from kneser.fileio import format_tri

        rp3 = corpus.rp3_octahedral()
        path = tmp_path / "rp3_rp3.tri"
        path.write_text(format_tri(connected_sum(rp3, rp3)))
        monkeypatch.setattr(vertex_enum, "MAX_RAYS", 161)
        code = cli.main([command, str(path)])
        out, err = capsys.readouterr()
        assert (code, out) == (3, "")
        assert "above the work budget of 161" in err

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_nonpositive_samples_exits_two(self, corpus_dir, capsys, samples):
        path = corpus_dir / "patch_corner.patch"
        code = cli.main(["montecarlo", str(path), "--samples", samples])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == "--samples must be at least 1\n"


@pytest.mark.parametrize(
    "error",
    [
        InvalidAfterCrush,
        TerminationGuardTripped,
        ConsistencyCheckFailed,
        JacobianBoundExceeded,
        IndexError,
    ],
)
@pytest.mark.parametrize(
    "command, target",
    [
        ("decompose", "decompose"),
        ("enumerate", "enumerate_vertex_solutions"),
        ("montecarlo", "projection_ratios"),
    ],
)
class TestInternalError:
    def test_exits_four_without_payload(
        self, corpus_dir, monkeypatch, capsys, command, target, error
    ):
        def fail(*args, **kwargs):
            raise error("injected failure")

        monkeypatch.setattr(cli, target, fail)
        name = "patch_sphere.patch" if command == "montecarlo" else "bd4simplex.tri"
        code = cli.main([command, str(corpus_dir / name)])
        out, err = capsys.readouterr()
        assert (code, out) == (4, "")
        assert err == f"internal error: {error.__name__}: injected failure\n"


@pytest.mark.parametrize(
    "command, name, flag, target",
    [
        ("enumerate", "bd4simplex.tri", "--dump", "enumerate_vertex_solutions"),
        ("montecarlo", "patch_corner.patch", "--csv", "projection_ratios"),
    ],
)
class TestUnwritableSideFile:
    def test_exits_two_before_the_work(
        self, corpus_dir, tmp_path, monkeypatch, capsys, command, name, flag, target
    ):
        # the work would exit 4, so exit 2 shows the path was tried first
        def work(*args, **kwargs):
            raise RuntimeError("the work started")

        monkeypatch.setattr(cli, target, work)
        side = tmp_path / "nonexistent_dir" / "x.out"
        code = cli.main([command, str(corpus_dir / name), flag, str(side)])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith(f"cannot write {side}: ")
        assert not side.parent.exists()


class TestNonFinitePayload:
    def test_emit_json_refuses_non_finite(self):
        for value in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError):
                emit_json({"estimate": [value]})

    def test_exits_four_without_payload(self, monkeypatch, capsys):
        def nan_payload(argv):
            return cli.CommandResult(0, {"estimate": float("nan")})

        monkeypatch.setattr(cli, "run", nan_payload)
        code = cli.main(["montecarlo", "any.patch"])
        out, err = capsys.readouterr()
        assert (code, out) == (4, "")
        assert err.startswith("internal error: ValueError: ")


class TestEnumerateCommand:
    def test_bd4_flags(self, corpus_dir, tmp_path):
        dump = tmp_path / "surfaces.dump"
        result = cmd_enumerate(
            str(corpus_dir / "bd4simplex.tri"),
            pl_area_flag=True,
            verify_diam=True,
            dump_path=str(dump),
        )
        assert result.exit_code == 0
        validate_schema(result.payload)
        assert result.payload["count"] == 15
        links = [s for s in result.payload["surfaces"] if s["vl"] == 1]
        assert len(links) == 5
        assert all(s["wt"] == 4 for s in links)
        assert all(s["diam_le_wt2"] for s in result.payload["surfaces"])
        parsed = parse_surface_dump(dump.read_text())
        assert len(parsed) == 15

    def test_budget(self, corpus_dir):
        result = cmd_enumerate(str(corpus_dir / "bd4simplex.tri"), budget=1)
        assert result.exit_code == 3


@pytest.mark.parametrize(
    "args",
    [
        ["enumerate"],
        ["enumerate", "--pl-area", "--verify-diam"],
        ["decompose"],
        ["decompose", "--oracle-check"],
    ],
)
def test_no_tetrahedra_exits_zero(tmp_path, capsys, args):
    """`ntet 0` has no vertex solutions and no pieces."""
    path = tmp_path / "empty.tri"
    path.write_text("tri 1\nntet 0\n")
    code = cli.main([args[0], str(path), *args[1:]])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    payload = json.loads(out, parse_constant=_reject_constant)
    validate_schema(payload)
    if args[0] == "enumerate":
        assert (payload["count"], payload["surfaces"]) == (0, [])
    else:
        assert payload["pieces"] == []


class TestMontecarloCommand:
    def test_pass_at_nu0(self, corpus_dir):
        result = cmd_montecarlo(
            str(corpus_dir / "patch_corner.patch"), nu=50.0, samples=300, seed=7
        )
        assert result.exit_code == 0
        validate_schema(result.payload)
        [est] = result.payload["estimates"]
        assert est["pass"] is True

    def test_sweep_csv(self, corpus_dir, tmp_path):
        csv = tmp_path / "sweep.csv"
        result = cmd_montecarlo(
            str(corpus_dir / "patch_corner.patch"),
            samples=200,
            seed=3,
            sweep="10:50:3",
            csv_path=str(csv),
        )
        assert result.exit_code == 0
        validate_schema(result.payload)
        assert len(result.payload["estimates"]) == 3
        lines = csv.read_text().splitlines()
        assert lines[0] == "nu,estimate,stderr,bound,pass"
        assert len(lines) == 4

    def test_zero_area_exit_two(self, tmp_path):
        empty = tmp_path / "zero.patch"
        empty.write_text("patch 1\n")
        result = cmd_montecarlo(str(empty), samples=10)
        assert result.exit_code == 2

    def test_bad_sweep_spec(self, corpus_dir):
        result = cmd_montecarlo(
            str(corpus_dir / "patch_corner.patch"), sweep="nope"
        )
        assert result.exit_code == 2


    @pytest.mark.parametrize(
        "nu_args",
        [
            ["--nu", "0"],
            ["--nu", "-1"],
            ["--nu", "nan"],
            ["--nu", "inf"],
            ["--sweep", "0:50:3"],
            ["--sweep", "1:inf:2"],
        ],
    )
    def test_bad_nu_exits_two(self, corpus_dir, nu_args):
        path = corpus_dir / "patch_corner.patch"
        result = run(["montecarlo", str(path), "--samples", "10", *nu_args])
        assert (result.exit_code, result.payload) == (2, None)
        assert result.diagnostics == "nu must be finite and positive"

    def test_non_finite_patch_exits_two(self, tmp_path):
        path = tmp_path / "nan.patch"
        path.write_text("patch 1\n0 0 0.01  0.01 0 0.01  nan 0.01 0.01\n")
        result = run(["montecarlo", str(path), "--samples", "10"])
        assert (result.exit_code, result.payload) == (2, None)
        assert result.diagnostics == "bad patch: patch coordinates must be finite"


def run_cli(args, threads=None):
    env = dict(os.environ)
    env.pop("KNESER_THREADS", None)
    if threads is not None:
        env["KNESER_THREADS"] = str(threads)
    proc = subprocess.run(
        [sys.executable, "-m", "kneser.cli", *args],
        capture_output=True,
        env=env,
        cwd=str(Path(__file__).resolve().parent.parent),
    )
    return proc


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, corpus_dir):
        args = ["decompose", str(corpus_dir / "sum_bd4_bd4.tri")]
        first = run_cli(args)
        second = run_cli(args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout.strip()
        json.loads(first.stdout)  # valid JSON on stdout

    def test_thread_count_never_changes_output(self, corpus_dir):
        args = [
            "montecarlo",
            str(corpus_dir / "patch_square_center.patch"),
            "--samples", "300", "--seed", "11",
        ]
        single = run_cli(args, threads=1)
        multi = run_cli(args, threads=4)
        assert single.returncode == multi.returncode
        assert single.stdout == multi.stdout

    def test_emit_json_escapes(self):
        assert emit_json({"a\n": 'x"y'}) == '{"a\\n":"x\\"y"}'


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


_SMALL_FILES = {
    name: make()
    for name, make in cli.CORPUS_FILES
    if name in {
        "s3_one_tet.tri", "s3_two_tet.tri", "rp3_two_tet.tri",
        "l31_two_tet.tri", "s2xs1_two_tet.tri", "bd4simplex.tri", "chain7.tri",
        "patch_corner.patch", "patch_square_tilted.patch",
    }
}
_COMMANDS = {
    ".tri": [
        ["decompose", "--oracle-check"],
        ["enumerate", "--verify-diam", "--pl-area"],
    ],
    ".patch": [["montecarlo", "--samples", "20", "--sweep", "1:60:3"]],
}


@st.composite
def _mutated_input(draw):
    """A small corpus file with a few token, character and line edits, and
    a command that reads it."""
    name = draw(st.sampled_from(sorted(_SMALL_FILES)))
    text = _SMALL_FILES[name]
    for _ in range(draw(st.integers(0, 4))):
        lines = text.split("\n")
        kind = draw(st.sampled_from(
            ["token", "token", "char", "insert", "delete", "dup", "drop", "swap"]
        ))
        spans = [m.span() for m in re.finditer(r"\S+", text)]
        if kind == "token" and spans:
            # swapping two whitespace tokens often keeps the file readable
            (a, b), (c, d) = sorted(
                draw(st.sampled_from(spans)) for _ in range(2)
            )
            if b <= c:
                text = text[:a] + text[c:d] + text[b:c] + text[a:b] + text[d:]
        elif kind in ("char", "insert", "delete") and text:
            at = draw(st.integers(0, len(text) - 1))
            new = draw(st.sampled_from(list("0123456789:b -.#en\n") + ["", "1e9", "nan", "99"]))
            if kind == "char":
                text = text[:at] + new + text[at + 1:]
            elif kind == "insert":
                text = text[:at] + new + text[at:]
            else:
                text = text[:at] + text[at + 1:]
        else:
            i = draw(st.integers(0, len(lines) - 1))
            j = draw(st.integers(0, len(lines) - 1))
            if kind == "dup":
                lines.insert(j, lines[i])
            elif kind == "drop":
                del lines[i]
            else:
                lines[i], lines[j] = lines[j], lines[i]
            text = "\n".join(lines)
    suffix = name[name.rindex("."):]
    command = draw(st.sampled_from(_COMMANDS[suffix]))
    return suffix, text, command


class TestFuzzContract:
    """The CLI contract on mutated corpus files: an exit code in 0..3, strict
    JSON on stdout that validates against the schema exactly when the exit
    code is 0 or 1, nothing on stdout otherwise, and no traceback."""

    @settings(max_examples=150, deadline=None)
    @given(case=_mutated_input())
    def test_mutated_inputs_keep_the_contract(self, tmp_path_factory, case):
        suffix, text, command = case
        path = tmp_path_factory.getbasetemp() / f"fuzz{suffix}"
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command[0], str(path), *command[1:]])
        assert code in (0, 1, 2, 3), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code in (0, 1):
            payload = json.loads(out.getvalue(), parse_constant=_reject_constant)
            validate_schema(payload)
        else:
            assert out.getvalue() == ""
