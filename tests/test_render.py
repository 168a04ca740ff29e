import pytest

from fencetiles.core import validate
from fencetiles.render import FORMATS, render, render_ascii, render_svg


class TestAscii:
    def test_plain_half_squares(self):
        assert render_ascii(validate("hh")) == "hh\n+-+\n"

    def test_bifence_uses_brackets(self):
        out = render_ascii(validate("LLRR"))
        assert out.splitlines()[0] == "[[]]"

    def test_cell_numbers_row(self):
        out = render_ascii(validate("hhhh"), show_cell_numbers=True)
        assert out.splitlines()[2] == "1 2"

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
        assert render_svg(t, 24, True) == render_svg(t, 24, True)

    def test_scales_with_cell_width(self):
        narrow = render_svg(validate("hh"), cell_width_px=20)
        wide = render_svg(validate("hh"), cell_width_px=80)
        assert narrow != wide

    def test_width_one_draws_one_px_half_cells(self):
        out = render_svg(validate("hh"), cell_width_px=1)
        assert 'width="22" height="22"' in out
        assert '<rect x="11" y="10" width="1" height="2"' in out


class TestRenderSpec:
    """A picture is specified by its format name, with the drawing
    arguments of render_ascii and render_svg at their defaults."""

    def test_dispatch(self):
        t = validate("hh")
        assert FORMATS == ("ascii", "svg")
        assert render(t) == render(t, "ascii") == render_ascii(t)
        assert render(t, "svg") == render_svg(t)

    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError, match="unknown format 'png'"):
            render(validate("hh"), "png")

    def test_rejects_bad_width(self):
        # the width is an argument of render_svg alone
        for width in (0, -6):
            with pytest.raises(ValueError, match="cell_width_px must be positive"):
                render_svg(validate("hh"), cell_width_px=width)
