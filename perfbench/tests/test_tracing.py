"""Tests for the benchmark's tracer.  Run from the checkout root:

    python3 -m pytest -q perfbench/tests

Each workload runs one untraced and two traced passes (under a minute in
all), so the assertions see the real op lists.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# the workload on which each traced function must fire, as the benchmark's
# layer table assigns them
FIRES_ON = {
    "decompose-sums": [
        "vertex_enum.enumerate_vertex_solutions",
        "vertex_enum.is_vertex_ray",
        "normal.matching_system",
        "normal.check_coordinates",
        "reconstruct.build_complex",
        "reconstruct.reconstruct",
        "pl_area.pl_area",
        "pl_area.verify_diameter_bound",
        "triangulation.skeleton",
        "decomposition.sphere_witnesses",
        "surgery.crush",
        "surgery.cut_and_cap",
        "homology.homology",
        "fileio.parse_tri",
        "triangulation.validate",
        "reports.emit_json",
    ],
    "montecarlo-near": [
        "projection.projected_area",
        "projection.triangle_distances",
        "rng.ball_samples",
        "fileio.parse_patch",
        "reports.emit_json",
    ],
}


def _run_passes(workload: str, monkeypatch):
    """One untraced then two traced passes; returns the bench and, per
    pass, its result and the stdout of each op."""
    bench = run.Bench(workload, seed=0, setup_repeats=1)
    stdouts: list[str] = []
    real_run_op = run.run_op

    def recording_run_op(cli, argv, caches):
        outcome = real_run_op(cli, argv, caches)
        stdouts.append(outcome.stdout)
        return outcome

    monkeypatch.setattr(run, "run_op", recording_run_op)
    passes = []
    for traced in (False, True, True):
        stdouts.clear()
        result = bench.run_pass(traced=traced)
        passes.append((result, list(stdouts)))
    return bench, passes


@pytest.fixture(scope="module")
def recorded():
    patch = pytest.MonkeyPatch()
    try:
        yield {w: _run_passes(w, patch) for w in FIRES_ON}
    finally:
        patch.undo()


def test_every_layer_is_assigned_a_benchmark_workload():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(FIRES_ON) == {w["name"] for w in spec["workloads"]}
    assigned = {name for names in FIRES_ON.values() for name in names}
    assert assigned == {f"{m}.{f}" for m, f in tracing.LAYERS}


def test_wrappers_replace_every_import_site():
    src, _ = workloads.program_paths(run.ROOT)
    cli = workloads.import_kneser(src)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        sites = tracer.sites
        assert {"kneser.vertex_enum.enumerate_vertex_solutions",
                "kneser.decomposition.enumerate_vertex_solutions",
                "kneser.cli.enumerate_vertex_solutions"} <= set(
            sites["vertex_enum.enumerate_vertex_solutions"])
        assert {"kneser.reconstruct.build_complex",
                "kneser.pl_area.build_complex",
                "kneser.surgery.build_complex"} <= set(sites["reconstruct.build_complex"])
        assert cli.enumerate_vertex_solutions is not tracer.originals[
            "vertex_enum.enumerate_vertex_solutions"]
    finally:
        tracer.uninstall()
    assert cli.enumerate_vertex_solutions is tracer.originals[
        "vertex_enum.enumerate_vertex_solutions"]


def test_tracing_leaves_stdout_byte_identical(recorded):
    for workload, (_, passes) in recorded.items():
        (untraced, plain), *traced_passes = passes
        assert untraced.failed == 0, (workload, untraced.problems)
        for result, stdouts in traced_passes:
            assert result.failed == 0, (workload, result.problems)
            assert stdouts == plain, workload


def test_each_span_fires_on_its_workload(recorded):
    for workload, names in FIRES_ON.items():
        bench, _ = recorded[workload]
        summary = bench.tracer.summary(bench.op_ids(1))
        missing = [n for n in names if summary[f"{n}.calls"] < 1]
        assert not missing, (workload, missing)


def test_counts_repeat_exactly_across_traced_passes(recorded):
    for workload, (bench, _) in recorded.items():
        first, second = (bench.tracer.summary(bench.op_ids(p)) for p in (1, 2))
        keys = [k for k in first if k.endswith(".calls") or k in tracing.COUNTS]
        assert {k: first[k] for k in keys} == {k: second[k] for k in keys}, workload


def test_near_workload_is_near(recorded):
    bench, _ = recorded["montecarlo-near"]
    summary = bench.tracer.summary(bench.op_ids(1))
    assert 0.9 < summary["projection.near_tri_ratio"] <= 1.0


def test_self_time_never_exceeds_total(recorded):
    for bench, _ in recorded.values():
        summary = bench.tracer.summary(bench.op_ids(1))
        for module, func in tracing.LAYERS:
            name = f"{module}.{func}"
            assert 0.0 <= summary[f"{name}.self_s"] <= summary[f"{name}.s"] + 1e-12, name
