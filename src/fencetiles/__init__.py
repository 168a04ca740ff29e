"""Tilings of n-boards with half-squares and half-gap fences.

The number of tilings of an n-board is the square of a Fibonacci number;
this package enumerates the tilings, parses them into metatiles, evaluates
the associated integer sequences, verifies the related identities, and
runs the near-bijection behind the alternating-sign identity.
"""

import gc as _gc

from .core import (
    InvalidTilingError,
    Tiling,
    count_tilings,
    decompose,
    enumerate_tilings,
    has_bifence,
    has_even_metatile,
    has_free_bifence,
    is_metatile,
    last_positions,
    metatile_encodings,
    validate,
)
from .identities import IdentityReport, IdentityRow, Mode, verify
from .render import render, render_ascii, render_svg
from .sequences import (
    SequenceTable,
    count_A,
    count_C,
    count_S,
    count_T,
    count_halfsquare_square,
    fib,
)

__version__ = "0.1.0"


def cassini_audit(n: int):
    """bijection.cassini_audit(n), that module imported and the function
    looked up on each call: the one bijection name the package keeps, as
    perfbench/workloads.py calls it from here."""
    from . import bijection

    return bijection.cassini_audit(n)


_gc.collect(1)  # walk the import's young objects now, not in the first call
