import sys

import pytest
from hypothesis import HealthCheck, settings

from kneser import corpus, triangulation
from kneser.cli import CORPUS_FILES
from kneser.decomposition import connected_sum
from kneser.fileio import parse_tri

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def bd4():
    return corpus.bd4_simplex()


@pytest.fixture(scope="session")
def small_corpus():
    """All closed corpus triangulations with at most 6 tetrahedra."""
    return {
        "s3_one_tet": corpus.s3_one_tet(),
        "s3_two_tet": corpus.s3_two_tet(),
        "rp3_two_tet": corpus.rp3_two_tet(),
        "l31_two_tet": corpus.l31_two_tet(),
        "s2xs1_two_tet": corpus.s2xs1_two_tet(),
        "bd4_simplex": corpus.bd4_simplex(),
    }


@pytest.fixture(scope="session")
def closed_corpus(small_corpus):
    """All closed corpus triangulations with at most 12 tetrahedra."""
    out = dict(small_corpus)
    out["rp3_octahedral"] = corpus.rp3_octahedral()
    out["sum_bd4_bd4"] = connected_sum(
        corpus.bd4_simplex(), corpus.bd4_simplex()
    )
    out["sum_bd4_rp3"] = connected_sum(
        corpus.bd4_simplex(), corpus.rp3_octahedral()
    )
    out["sum_s3_rp3"] = connected_sum(
        corpus.s3_two_tet(), corpus.rp3_octahedral()
    )
    return out


@pytest.fixture(scope="session")
def benchmark_sums():
    """The inputs of the decompose benchmark: three corpus files as the CLI
    parses them, and rp3#rp3."""
    files = dict(CORPUS_FILES)
    inputs = [
        parse_tri(files[name]())
        for name in ("sum_bd4_bd4.tri", "sum_s3_rp3.tri", "sum_bd4_rp3.tri")
    ]
    rp3 = corpus.rp3_octahedral()
    return inputs + [connected_sum(rp3, rp3)]


@pytest.fixture(scope="session")
def sum_pairs():
    """Summand pairs for the decomposition acceptance runs."""
    return {
        "bd4+bd4": (corpus.bd4_simplex(), corpus.bd4_simplex()),
        "bd4+rp3": (corpus.bd4_simplex(), corpus.rp3_octahedral()),
        "s3+rp3": (corpus.s3_two_tet(), corpus.rp3_octahedral()),
    }


@pytest.fixture
def validated_rows(monkeypatch):
    """Row counts of the tables checked past their structure, call by
    call: `validate`, `validate_arrays` and `split_components` all hand
    the array form of each table they build to
    `triangulation._triangulation`."""
    counted = []
    real = triangulation._triangulation

    def counting(arrays, **kwargs):
        counted.append(len(arrays.tet))
        return real(arrays, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "kneser" and getattr(module, "_triangulation", None) is real:
            monkeypatch.setattr(module, "_triangulation", counting)
    return counted
