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

#: The names the package takes from `bijection`, which loads on first use:
#: no row of the CLI's command table reads it, so only the `bijection`
#: command and identity 7's combinatorial rows pay its import.  Until it
#: loads, __getattr__ resolves them; its import binds them here and drops
#: __getattr__, with which CPython specializes no attribute lookup on the
#: package (`fencetiles.has_bifence` in a loop would stay about 15% slower).
_FROM_BIJECTION = frozenset({
    "AllBifenceException",
    "BijectionDomainError",
    "CassiniAudit",
    "CassiniImage",
    "TargetCopy",
    "b_inverse",
    "b_map",
    "cassini_audit",
    "cassini_partition",
})


def __getattr__(name: str):
    if name in _FROM_BIJECTION:
        from . import bijection  # noqa: F401  its import binds the name here

        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_FROM_BIJECTION})

_gc.collect(1)  # walk the import's young objects now, not in the first call
