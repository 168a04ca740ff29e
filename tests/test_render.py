import pytest

from fencetiles.core import validate
from fencetiles.render import FORMATS, render, render_ascii, render_svg


class TestAscii:
    def test_plain_half_squares(self):
        assert render_ascii(validate("hh")) == "hh\n+-+\n"

    def test_bifence_uses_brackets(self):
        out = render_ascii(validate("LLRR"))
        assert out.splitlines()[0] == "[[]]"

    def test_deterministic(self):
        t = validate("hLLRRLhR")
        assert render_ascii(t) == render_ascii(t)


class TestSvg:
    def test_is_svg_document(self):
        out = render_svg(validate("hLhR"))
        assert out.startswith('<?xml version="1.0"')
        assert 'version="1.1"' in out
        assert out.rstrip().endswith("</svg>")

    def test_post_and_half_square_styles_differ(self):
        out = render_svg(validate("hLhR"))
        assert 'fill="white"' in out  # outlined half-squares
        assert 'fill="#555555"' in out  # filled posts

    def test_deterministic(self):
        t = validate("LhRLLRRh")
        assert render_svg(t) == render_svg(t)


class TestRenderSpec:
    """A picture is specified by its format name alone."""

    def test_dispatch(self):
        t = validate("hh")
        assert FORMATS == ("ascii", "svg")
        assert render(t) == render(t, "ascii") == render_ascii(t)
        assert render(t, "svg") == render_svg(t)

    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError, match="unknown format 'png'"):
            render(validate("hh"), "png")
