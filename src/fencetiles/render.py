"""Deterministic ascii and SVG pictures of tilings.

Rendering is a pure function of the encoding: the same input always
produces byte-identical output.  Posts are drawn filled, half-squares
outlined, fence gaps left empty, and cell boundaries ruled.
"""

from __future__ import annotations

from .core import Tiling

_ASCII_SYMBOLS = str.maketrans("LR", "[]")

#: The SVG width of one cell, in pixels.
_CELL_PX = 40

FORMATS = ("ascii", "svg")


def render(t: Tiling, fmt: str = "ascii") -> str:
    """The picture of t in fmt, one of FORMATS."""
    if fmt == "ascii":
        return render_ascii(t)
    if fmt == "svg":
        return render_svg(t)
    raise ValueError(f"unknown format {fmt!r}")


def render_ascii(t: Tiling) -> str:
    """One column per half-cell: h for half-squares, [ and ] for posts."""
    ruler = "+-" * (len(t.encoding) // 2) + "+"
    return t.encoding.translate(_ASCII_SYMBOLS) + "\n" + ruler + "\n"


def render_svg(t: Tiling) -> str:
    """A minimal SVG 1.1 document; integer coordinates only."""
    enc = t.encoding
    n = len(enc) // 2
    cell = _CELL_PX
    half = cell // 2
    margin = 10
    tile_h = cell
    width = cell * n + 2 * margin
    height = tile_h + 2 * margin
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
        fill = "white" if c == "h" else "#555555"
        parts.append(
            f'<rect x="{x}" y="{top}" width="{half}" height="{tile_h}" '
            f'fill="{fill}" stroke="black" stroke-width="1"/>'
        )
    # a thin bar ties the two posts of each fence together across its gap
    bar_h = tile_h // 8
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
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
