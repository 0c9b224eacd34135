import numpy as np
import pytest

from kneser import corpus
from kneser.errors import ParseError
from kneser.fileio import (
    format_float,
    format_patch,
    format_tri,
    parse_patch,
    parse_tri,
    surface_dump_line,
)
from oracles import parse_surface_dump


class TestTriFormat:
    def test_round_trip_whole_corpus(self, closed_corpus):
        for name, tri in closed_corpus.items():
            text = format_tri(tri)
            back = parse_tri(text)
            assert format_tri(back) == text, name

    def test_round_trip_open_chain(self):
        chain = corpus.linear_chain(4)
        text = format_tri(chain)
        assert "b" in text.split()
        back = parse_tri(text, require_closed=False)
        assert format_tri(back) == text

    def test_comments_and_blank_lines(self, bd4):
        text = format_tri(bd4)
        decorated = "# header comment\n\n" + text.replace(
            "ntet 5", "ntet 5 # five tets"
        )
        assert format_tri(parse_tri(decorated)) == text

    def test_trailing_garbage_rejected(self, bd4):
        with pytest.raises(ParseError):
            parse_tri(format_tri(bd4) + "stray\n")

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_tri("tri 2\nntet 0\n")

    def test_wrong_line_count(self, bd4):
        lines = format_tri(bd4).splitlines()
        with pytest.raises(ParseError):
            parse_tri("\n".join(lines[:-1]))

    def test_bad_token(self):
        with pytest.raises(ParseError):
            parse_tri("tri 1\nntet 1\nb b b x\n")


class TestPatchFormat:
    def test_round_trip(self):
        patch = corpus.sphere_patch(0.05, refine=1)
        text = format_patch(patch)
        back = parse_patch(text)
        assert back.shape == patch.shape
        assert np.array_equal(back, patch)  # 17 digits round-trip exactly

    def test_reject_short_line(self):
        with pytest.raises(ParseError):
            parse_patch("patch 1\n1 2 3\n")

    def test_reject_bad_header(self):
        with pytest.raises(ParseError):
            parse_patch("patches 1\n")


class TestSurfaceDump:
    def test_line_and_parse(self):
        line = surface_dump_line([0, 1, 2], 4, 2, True)
        assert line == "S 0 1 2 # wt=4 chi=2 vl=1"
        [(coords, wt, chi, vl)] = parse_surface_dump(line)
        assert coords == [0, 1, 2] and wt == 4 and chi == 2 and vl


class TestFloatFormat:
    def test_round_trip_17_digits(self):
        for x in (0.1, 1 / 3, 2.0 ** -52, 12.549083801430484e-7):
            assert float(format_float(x)) == x
