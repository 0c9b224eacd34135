"""Benchmark-side checks on each CLI op.

None of them compares against today's output bytes: they check the CLI
contract, determinism within a run, and mathematical invariants that a
correct program keeps whatever its implementation (and, for the `.tri`
inputs, whatever the labelling).
"""
from __future__ import annotations

import json
from pathlib import Path

# H1 of each decompose-sums input as prime-power cyclic factors (0 stands
# for a free Z summand): S3#S3 is a sphere, and RP3 contributes one Z/2.
EXPECTED_H1 = {
    "sum_bd4_bd4.tri": [],
    "sum_s3_rp3.tri": [2],
    "sum_bd4_rp3.tri": [2],
    "rp3_rp3.tri": [2, 2],
}


def _reject_constant(token: str):
    raise ValueError(f"non-JSON constant {token}")


def strict_json(text: str):
    """json.loads that refuses NaN and Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def load_validator(schema_path: Path):
    import jsonschema

    schema = json.loads(schema_path.read_text())
    return jsonschema.Draft7Validator(schema)


def prime_power_factors(h1: dict) -> list[int]:
    """Z^rank + sum Z/d as a sorted list of 0s (one per Z) and prime powers."""
    out = [0] * h1["rank"]
    for d in h1["torsion"]:
        p = 2
        while d > 1:
            if d % p == 0:
                q = 1
                while d % p == 0:
                    d //= p
                    q *= p
                out.append(q)
            p += 1
    return sorted(out)


def _direct_sum(groups: list[dict]) -> list[int]:
    return sorted(f for g in groups for f in prime_power_factors(g))


def check_decompose(name: str, payload: dict) -> list[str]:
    problems = []
    if payload["counters"]["crushes"] > payload["input"]["ntet"]:
        problems.append("more crushes than tetrahedra")
    if any(p["certificate"]["kind"] != "CertifiedWeaklyIrreducible" for p in payload["pieces"]):
        problems.append("a piece is not certified")
    expected = sorted(EXPECTED_H1[name])
    if _direct_sum(payload["ledger"]["input_h1"]) != expected:
        problems.append("input H1 is wrong")
    if _direct_sum([p["h1"] for p in payload["pieces"]]) != expected:
        problems.append("pieces' H1 does not sum to the input's H1")
    return problems


def check_montecarlo(payload: dict) -> list[str]:
    problems = []
    for est in payload["estimates"]:
        if not est["pass"]:
            problems.append(f"estimate at nu={est['nu']} does not pass")
        if not est["estimate"] <= est["bound"]:
            problems.append(f"estimate {est['estimate']} exceeds bound {est['bound']}")
    return problems


class OpChecker:
    """Checks one op's outcome; remembers each op's first stdout so later
    passes of the same run must reproduce it byte for byte."""

    def __init__(self, validator):
        self.validator = validator
        self.first_stdout: dict[int, str] = {}

    def check(self, index: int, argv: list[str], outcome) -> list[str]:
        if outcome.error is not None:
            return [f"raised: {outcome.error.splitlines()[-1]}"]
        if "Traceback" in outcome.stderr:
            return ["traceback on stderr"]
        if outcome.code not in (0, 1):
            return [f"exit code {outcome.code}"]
        seen = self.first_stdout.setdefault(index, outcome.stdout)
        problems = [] if seen == outcome.stdout else ["stdout differs from the first pass"]
        try:
            payload = strict_json(outcome.stdout)
        except ValueError as exc:
            return problems + [f"stdout is not strict JSON: {exc}"]
        errors = list(self.validator.iter_errors(payload))
        if errors:
            return problems + [f"schema: {errors[0].message}"]
        name = Path(argv[1]).name
        if argv[0] == "decompose":
            problems += check_decompose(name, payload)
        else:
            problems += check_montecarlo(payload)
        return problems
