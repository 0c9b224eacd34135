"""Deterministic JSON payloads for the CLI.

All floats are serialized with 17 significant digits (full round-trip for
IEEE doubles) and dictionaries keep their construction order, so identical
inputs always produce byte-identical output.  A non-finite float raises
ValueError, because NaN and infinity are not JSON.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .decomposition import DecompositionReport
from .fileio import format_float, surface_dump_line
from .homology import AbelianInvariants
from .pl_area import LENGTH_MODEL
from .projection import ProjectionEstimate


def emit_json(obj) -> str:
    out: list[str] = []
    _emit(obj, out)
    return "".join(out)


def _emit(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, Fraction):
        if obj.denominator == 1:
            out.append(str(obj.numerator))
        else:
            _emit(float(obj), out)
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"cannot serialize non-finite float {obj!r}")
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(_escape(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(",")
            out.append(_escape(str(k)))
            out.append(":")
            _emit(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _emit(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def _escape(s: str) -> str:
    body = (
        s.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
        .replace("\t", "\\t")
        .replace("\r", "\\r")
    )
    return f'"{body}"'


def h1_dict(h: AbelianInvariants) -> dict:
    return {"rank": h.rank, "torsion": list(h.torsion)}


def decomposition_dict(report: DecompositionReport, input_name: str) -> dict:
    payload = {
        "input": {"name": input_name, "ntet": report.input_size},
        "length_model": LENGTH_MODEL,
        "spheres": [
            {
                "coords": list(s.coordinates),
                "wt": s.area.weight,
                "lg": s.area.length,
                "support": s.support_size,
                "diam": s.diameter,
                "diam_le_wt2": s.diameter_bound_ok,
            }
            for s in report.spheres
        ],
        "pieces": [
            {
                "ntet": p.triangulation.size,
                "certificate": {
                    "kind": p.certificate.kind,
                    "inspected": p.certificate.inspected,
                },
                "h1": h1_dict(p.h1),
            }
            for p in report.pieces
        ],
        "constants": {"C3": report.c3, "C1": report.c1},
        "ledger": {
            "input_h1": [h1_dict(h) for h in report.ledger.input_h1],
            "pieces_h1": [h1_dict(h) for h in report.ledger.pieces_h1],
            "balanced": report.ledger.balanced,
        },
        "counters": {
            "crushes": report.crushes,
            "enumerations": report.enumerations,
        },
    }
    if report.oracle is not None:
        payload["oracle"] = {
            "checked": report.oracle.checked,
            "agreed": report.oracle.agreed,
        }
    return payload


def surface_entry(
    coords,
    wt: int,
    chi: int,
    vertex_linking: bool,
    lg: float | None = None,
    diam: int | None = None,
    diam_ok: bool | None = None,
) -> dict:
    entry = {
        "coords": list(coords),
        "wt": wt,
        "chi": chi,
        "vl": 1 if vertex_linking else 0,
        "dump": surface_dump_line(coords, wt, chi, vertex_linking),
    }
    if lg is not None:
        entry["lg"] = lg
    if diam is not None:
        entry["diam"] = diam
        entry["diam_le_wt2"] = diam_ok
    return entry


def estimate_dict(est: ProjectionEstimate) -> dict:
    return {
        "nu": est.nu,
        "estimate": est.estimate,
        "stderr": est.stderr,
        "bound": est.bound,
        "pass": est.passed,
        "samples": est.samples,
    }


def estimate_csv_rows(estimates) -> str:
    lines = ["nu,estimate,stderr,bound,pass"]
    for est in estimates:
        lines.append(
            ",".join(
                [
                    format_float(est.nu),
                    format_float(est.estimate),
                    format_float(est.stderr),
                    format_float(est.bound),
                    "1" if est.passed else "0",
                ]
            )
        )
    return "\n".join(lines) + "\n"
