"""Property tests of the Cassini near-bijection on boards of 13 to 400 cells,
past the exhaustive audit.

Tilings come from a half-cell coin walk, independent of the metatile
grammar: the leftmost uncovered half-cell p takes the left post of a fence
(p, p + 2) on heads when p + 2 is on the board, and a half-square otherwise.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from fencetiles.bijection import (
    TargetCopy,
    _preimage,
    b_inverse,
    b_map,
    cassini_partition,
)
from fencetiles.core import validate


@st.composite
def tilings(draw, min_n=13, max_n=400):
    n = draw(st.integers(min_n, max_n))
    cells = [""] * (2 * n)
    for p in range(2 * n):
        if cells[p]:
            continue
        if p + 2 < 2 * n and draw(st.booleans()):
            cells[p], cells[p + 2] = "L", "R"
        else:
            cells[p] = "h"
    return validate("".join(cells))


@settings(deadline=None)
@given(tilings())
def test_partition_images_and_their_preimage(t):
    ci = cassini_partition(t)
    if ci.exception is not None:
        assert "h" not in t.encoding
        return
    image = ci.image
    assert len(image.encoding) // 2 == len(t.encoding) // 2 - 1
    assert validate(image.encoding) == image
    if ci.target_copy is TargetCopy.THIRD:
        assert image.encoding.endswith("h")
    assert _preimage(ci.target_copy, image.encoding) == t.encoding


@settings(deadline=None)
@given(tilings())
def test_b_inverse_undoes_b_map(t):
    if "h" not in t.encoding:
        return
    if t.encoding.endswith("R"):
        assert b_inverse(b_map(t)) == t
    # t as a companion: placed in the third copy of the board two cells longer
    assert _preimage(TargetCopy.THIRD, b_inverse(t).encoding) == t.encoding
