"""Text file formats: "tri v1" gluing tables and "patch v1" triangle soups.

Both formats are line oriented; a `#` starts a comment that runs to the end
of the line, and blank lines are ignored.  Parsers reject trailing garbage:
any non-blank content after the expected payload is an error.
"""
from __future__ import annotations

import numpy as np

from .errors import ParseError
from .triangulation import Triangulation, validate


def _payload_lines(text: str) -> list[str]:
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    return lines


def parse_tri(text: str, *, require_closed: bool = True) -> Triangulation:
    """Parse the "tri v1" format and validate the gluing table, which must
    be orientable.

    Format::

        tri 1
        ntet <t>
        <t lines, one per tet, 4 whitespace-separated face tokens>

    A face token is either `b` (boundary) or `<j>:<k>:<p0><p1><p2><p3>`:
    face f of this tet glues to face k of tet j via the permutation sending
    local vertex v to p_v, with p(f) = k.
    """
    lines = _payload_lines(text)
    if not lines or lines[0].split() != ["tri", "1"]:
        raise ParseError("expected header 'tri 1'")
    if len(lines) < 2:
        raise ParseError("missing 'ntet' line")
    ntet_parts = lines[1].split()
    if len(ntet_parts) != 2 or ntet_parts[0] != "ntet":
        raise ParseError(f"expected 'ntet <t>', got {lines[1]!r}")
    try:
        t = int(ntet_parts[1])
    except ValueError as exc:
        raise ParseError(f"bad tet count {ntet_parts[1]!r}") from exc
    if t < 0:
        raise ParseError("tet count must be nonnegative")
    if len(lines) != 2 + t:
        raise ParseError(
            f"expected {t} gluing lines, found {len(lines) - 2} (trailing garbage?)"
        )
    table = []
    for i in range(t):
        tokens = lines[2 + i].split()
        if len(tokens) != 4:
            raise ParseError(f"tet {i}: expected 4 face tokens, got {len(tokens)}")
        row = []
        for f, tok in enumerate(tokens):
            if tok == "b":
                row.append(None)
                continue
            parts = tok.split(":")
            if len(parts) != 3:
                raise ParseError(f"tet {i} face {f}: bad token {tok!r}")
            try:
                j = int(parts[0])
                k = int(parts[1])
            except ValueError as exc:
                raise ParseError(f"tet {i} face {f}: bad token {tok!r}") from exc
            if len(parts[2]) != 4 or not parts[2].isdigit():
                raise ParseError(f"tet {i} face {f}: bad permutation in {tok!r}")
            perm = tuple(int(c) for c in parts[2])
            row.append((j, k, perm))
        table.append(row)
    return validate(table, require_closed=require_closed)


def format_tri(tri: Triangulation) -> str:
    """Serialize to the canonical byte-exact "tri v1" form."""
    out = ["tri 1", f"ntet {tri.size}"]
    for i in range(tri.size):
        tokens = []
        for f in range(4):
            g = tri.gluings[i][f]
            if g is None:
                tokens.append("b")
            else:
                tokens.append(f"{g.tet}:{g.face}:{''.join(map(str, g.perm))}")
        out.append(" ".join(tokens))
    return "\n".join(out) + "\n"


def parse_patch(text: str) -> np.ndarray:
    """Parse the "patch v1" format: header `patch 1`, one triangle per line.

    Each triangle line holds 9 floats (three xyz vertices).  Returns an
    (n, 3, 3) float array.
    """
    lines = _payload_lines(text)
    if not lines or lines[0].split() != ["patch", "1"]:
        raise ParseError("expected header 'patch 1'")
    triangles = []
    for lineno, line in enumerate(lines[1:], start=1):
        parts = line.split()
        if len(parts) != 9:
            raise ParseError(f"triangle {lineno}: expected 9 floats, got {len(parts)}")
        try:
            vals = [float(x) for x in parts]
        except ValueError as exc:
            raise ParseError(f"triangle {lineno}: bad float") from exc
        triangles.append(np.array(vals, dtype=float).reshape(3, 3))
    return np.array(triangles, dtype=float).reshape(len(triangles), 3, 3)


def format_patch(triangles: np.ndarray) -> str:
    out = ["patch 1"]
    for tri in np.asarray(triangles, dtype=float).reshape(-1, 3, 3):
        out.append(" ".join(format_float(x) for x in tri.reshape(9)))
    return "\n".join(out) + "\n"


def format_float(x: float) -> str:
    """17 significant digits: enough to round-trip any IEEE double."""
    return f"{float(x):.17g}"


def surface_dump_line(coords, weight: int, chi: int, vertex_linking: bool) -> str:
    """One solution in the dump format `S <7t ints> # wt=.. chi=.. vl=..`."""
    body = " ".join(str(int(c)) for c in coords)
    return f"S {body} # wt={weight} chi={chi} vl={1 if vertex_linking else 0}"
