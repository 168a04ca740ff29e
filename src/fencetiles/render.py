"""Deterministic ascii and SVG pictures of tilings.

Rendering is a pure function of the encoding and the drawing arguments:
the same input always produces byte-identical output.  Posts are drawn
filled, half-squares outlined, fence gaps left empty, and cell boundaries
ruled.
"""

from __future__ import annotations

from .core import Tiling

_ASCII_SYMBOLS = str.maketrans("LR", "[]")

FORMATS = ("ascii", "svg")


def render(t: Tiling, fmt: str = "ascii") -> str:
    """The picture of t in fmt, one of FORMATS, with default drawing arguments."""
    if fmt == "ascii":
        return render_ascii(t)
    if fmt == "svg":
        return render_svg(t)
    raise ValueError(f"unknown format {fmt!r}")


def render_ascii(t: Tiling, show_cell_numbers: bool = False) -> str:
    """One column per half-cell: h for half-squares, [ and ] for posts."""
    n = t.board.n
    row = t.encoding.translate(_ASCII_SYMBOLS)
    ruler = "+-" * n + "+"
    lines = [row, ruler]
    if show_cell_numbers:
        lines.append("".join(str(i + 1).ljust(2) for i in range(n)).rstrip())
    return "\n".join(lines) + "\n"


def render_svg(
    t: Tiling, cell_width_px: int = 40, show_cell_numbers: bool = False
) -> str:
    """A minimal SVG 1.1 document; integer coordinates only."""
    if cell_width_px < 1:
        raise ValueError("cell_width_px must be positive")
    n = t.board.n
    enc = t.encoding
    half = max(cell_width_px // 2, 1)
    cell = 2 * half
    margin = 10
    tile_h = cell
    number_h = 16 if show_cell_numbers else 0
    width = cell * n + 2 * margin
    height = tile_h + 2 * margin + number_h
    top = margin
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
    ]
    # tiles
    for p, c in enumerate(enc):
        x = margin + half * p
        if c == "h":
            parts.append(
                f'<rect x="{x}" y="{top}" width="{half}" height="{tile_h}" '
                'fill="white" stroke="black" stroke-width="1"/>'
            )
        else:
            parts.append(
                f'<rect x="{x}" y="{top}" width="{half}" height="{tile_h}" '
                'fill="#555555" stroke="black" stroke-width="1"/>'
            )
    # a thin bar ties the two posts of each fence together across its gap
    bar_h = max(tile_h // 8, 2)
    for p, c in enumerate(enc):
        if c == "L":
            x = margin + half * p
            parts.append(
                f'<rect x="{x}" y="{top - bar_h // 2}" width="{3 * half}" '
                f'height="{bar_h}" fill="#555555"/>'
            )
    # cell boundaries
    for k in range(n + 1):
        x = margin + cell * k
        parts.append(
            f'<line x1="{x}" y1="{top}" x2="{x}" y2="{top + tile_h}" '
            'stroke="black" stroke-width="2"/>'
        )
    if show_cell_numbers:
        y = top + tile_h + number_h - 4
        for k in range(n):
            x = margin + cell * k + half
            parts.append(
                f'<text x="{x}" y="{y}" font-size="12" '
                f'text-anchor="middle">{k + 1}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
