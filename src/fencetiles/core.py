"""Tilings of n-boards and their metatiles, on the half-cell grid.

An n-board is a 1 x n row of unit square cells, modelled here as 2n
half-cells indexed 0..2n-1.  Two tile types exist:

* the half-square, covering a single half-cell, and
* the fence, two half-width posts covering half-cells p and p+2 with an
  uncovered gap at p+1 (the gap is filled by some other tile).

A tiling is an exact cover of the half-cells.  Its canonical encoding is a
string of length 2n over {h, L, R}: ``h`` for a half-square, ``L``/``R`` for
a fence's left and right post.  The half-width gap makes pairing
deterministic: an ``L`` at p always pairs with the ``R`` at p+2.

A metatile is a minimal run of tiles covering a whole number of adjacent
cells; every tiling splits uniquely into metatiles at the integer cell
boundaries no fence spans.  A Tiling holds its encoding as those metatiles,
the one representation of a tiling here; validate builds one from an
encoding, Tiling.from_placements from (half-cell, symbol) tile pairs.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable, Iterator
from functools import cached_property
from itertools import accumulate

ALPHABET = frozenset("hLR")

#: The metatile grammar: the free bifence on its own, or a chain of
#: interlocking bifences closed on each side by a half-square or a filled
#: fence.  Every tiling is one unique sequence of these.
_METATILE = re.compile("LLRR|(?:h|LhR)(?:LLRR)*(?:h|LhR)")

#: The same grammar for a whole tiling, a sequence of metatiles: its
#: fullmatch accepts exactly the encodings validate accepts.
_TILING = re.compile(f"(?:{_METATILE.pattern})*")


class InvalidTilingError(ValueError):
    """Raised when an encoding or a placement set is not a valid tiling."""


def _check_length(n: int) -> None:
    if n < 0:
        raise ValueError(f"board length must be non-negative, got {n}")


class _Frozen:
    """A value whose attributes cannot be set or deleted: its constructor
    writes them into __dict__ directly."""

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Tiling(_Frozen):
    """A tiling of an n-board, held as its encoding split into metatiles.

    ``pieces`` are the metatile encodings from left to right and
    ``encoding`` is their concatenation, of length 2n.  The constructor
    trusts its pieces: build tilings from outside input with validate or
    Tiling.from_placements.  Tilings are equal, and hash, by their pieces.
    """

    pieces: tuple[str, ...]

    def __init__(self, pieces: tuple[str, ...]) -> None:
        # frozen: write the field, and prime the encoding, past __setattr__
        d = self.__dict__
        d["pieces"] = pieces
        d["encoding"] = "".join(pieces)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.pieces == other.pieces

    def __hash__(self) -> int:
        return hash((self.pieces,))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(pieces={self.pieces!r})"

    def __str__(self) -> str:
        return self.encoding

    @cached_property
    def encoding(self) -> str:
        return "".join(self.pieces)

    @classmethod
    def from_placements(cls, n: int, placements) -> "Tiling":
        """Build a tiling of an n-board from (half-cell, symbol) pairs,
        checking the exact-cover invariant: "h" covers that half-cell, "L"
        a fence's two posts, that half-cell and the one two to its right."""
        _check_length(n)
        out = ["h"] * (2 * n)
        seen: set[int] = set()
        for p, c in placements:
            if c not in ("h", "L"):
                raise InvalidTilingError(f"unknown tile symbol {c!r} at half-cell {p}")
            if not isinstance(p, int):  # 1.0 == 1 would pass the range check
                raise InvalidTilingError(
                    f"half-cell {p!r} is not an integer: it lies outside the {n}-board"
                )
            for q in (p,) if c == "h" else (p, p + 2):
                if q not in range(2 * n):
                    raise InvalidTilingError(
                        f"half-cell {q} lies outside the {n}-board"
                    )
                if q in seen:
                    raise InvalidTilingError(f"half-cell {q} is covered twice")
                seen.add(q)
            if c == "L":
                out[p], out[p + 2] = "L", "R"
        if len(seen) != 2 * n:
            missing = min(set(range(2 * n)) - seen)
            raise InvalidTilingError(f"half-cell {missing} is uncovered")
        return cls(tuple(_METATILE.findall("".join(out))))


def validate(encoding: str) -> Tiling:
    """Parse a canonical encoding into a Tiling, rejecting anything invalid.

    The parse is deterministic: an L at p always pairs with the R at p+2.
    Valid input is accepted and cut in one step: it is a tiling exactly when
    the metatiles _METATILE finds cover it, and, the metatiles being a
    prefix-free code, those matches are its pieces.  Only rejected input is
    read symbol by symbol, to name the first unpaired post.
    """
    pieces = _METATILE.findall(encoding)
    if "".join(pieces) == encoding:
        return Tiling(tuple(pieces))
    if len(encoding) % 2:
        raise InvalidTilingError(f"encoding length {len(encoding)} is odd")
    unknown = set(encoding) - ALPHABET
    if unknown:
        raise InvalidTilingError(f"unknown symbols {sorted(unknown)!r}")
    for p, c in enumerate(encoding):
        if c == "L":
            if p + 2 >= len(encoding):
                raise InvalidTilingError(f"fence at {p} overhangs the board end")
            if encoding[p + 2] != "R":
                raise InvalidTilingError(f"L at {p} has no matching R at {p + 2}")
        elif c == "R":
            if p < 2 or encoding[p - 2] != "L":
                raise InvalidTilingError(f"R at {p} has no matching L at {p - 2}")
    # every post paired and the length even: a tiling the grammar missed
    raise AssertionError(f"_METATILE rejects the tiling {encoding!r}")


def _metatile(lead: str, length_cells: int) -> str:
    """The metatile of the given length that starts with lead, 'h' or 'LhR':
    interlocking bifences, closed by an 'h' or 'LhR' that fixes the length."""
    rest = 2 * length_cells - len(lead)
    return lead + "LLRR" * (rest // 4) + ("h" if rest % 4 == 1 else "LhR")


def _candidates(cells: int, allowed: Callable[[str], bool] | None) -> Iterator[str]:
    """Every metatile of at most `cells` cells that allowed admits (every
    one when allowed is None), in encoding order: LLRR, then those starting
    LhR, then those starting h, each family from the longest to the
    shortest (a longer bifence chain sorts first)."""
    if cells >= 2 and (allowed is None or allowed("LLRR")):
        yield "LLRR"
    for lead, shortest in (("LhR", 2), ("h", 1)):
        for length in range(cells, shortest - 1, -1):
            piece = _metatile(lead, length)
            if allowed is None or allowed(piece):
                yield piece


#: Boards of at most this many cells are tiled from the walk's memo.
_MEMO_CELLS = 6


def _blocks(
    n: int, allowed: Callable[[str], bool] | None = None
) -> Iterator[tuple[tuple[str, ...], tuple[tuple[str, ...], ...]]]:
    """Yield, in lexicographic encoding order, the tilings of an n-board
    whose metatiles allowed admits (every tiling when it is None) by block:
    (prefix, tails), the pieces placed so far and the walk's own memo tuple
    tails[m] of the tilings of the m <= _MEMO_CELLS cells left.  The
    block's tilings are prefix + t for t in tails, in that order.

    An iterative walk over metatile sequences: a stack holds one candidate
    iterator per metatile placed, and a forbidden metatile is never a
    candidate, so no tiling holding one is built.  Metatiles form a
    prefix-free code, so taking candidates in encoding order yields the
    tilings in encoding order.  When a frame runs through its candidates,
    the walk stores them under the frame's cell count, and later frames
    with that count iterate the stored tuple.  Every completion of a frame
    with m <= _MEMO_CELLS cells left is one of the tilings of an m-board,
    so the walk builds those once, tail-first, into its memo tails[m] and
    hands that very tuple on in place of further frames: every block with
    m cells left shares one tails object.  Store and memo belong to this
    walk; the store holds only counts a frame has already run through and
    the memo at most A_6 = 169 tilings, so the first block costs O(n) time
    and memory plus that constant without allowed; with it, each of O(n)
    frames may reject O(n) candidates of O(n) symbols before its first,
    O(n^3) symbol work at worst.
    """
    _check_length(n)
    tails: list[tuple[tuple[str, ...], ...]] = [((),)]

    def tail(m: int) -> tuple[tuple[str, ...], ...]:
        for k in range(len(tails), m + 1):
            tails.append(tuple(
                (piece, *t)
                for piece in _candidates(k, allowed)
                for t in tails[k - len(piece) // 2]
            ))
        return tails[m]

    if n <= _MEMO_CELLS:
        yield (), tail(n)
        return
    store: dict[int, tuple[str, ...]] = {}
    pieces: list[str] = []
    frames = [_candidates(n, allowed)]
    left = n
    while frames:
        piece = next(frames[-1], None)
        if piece is None:
            frames.pop()
            if left not in store:
                store[left] = tuple(_candidates(left, allowed))
            if pieces:
                left += len(pieces.pop()) // 2
            continue
        rest = left - len(piece) // 2
        if rest > _MEMO_CELLS:
            pieces.append(piece)
            left = rest
            done = store.get(left)
            frames.append(_candidates(left, allowed) if done is None else iter(done))
            continue
        yield (*pieces, piece), tail(rest)


def _censused(blocks: Iterable[tuple], census: Callable) -> Iterator[tuple]:
    """Yield (prefix, head, census(tails)) for each block (prefix, tails) of
    _blocks that holds a tiling, head being the joined prefix: the one
    block driver of the exhaustive checks.  census reads a tail set once;
    its result is reused only for that very tuple object, never for an
    equal one, so a tail set that is not the walk's memo gets its own.
    Each memo entry holds its tails, so no other tuple takes that id."""
    memo: dict[int, tuple] = {}
    for prefix, tails in blocks:
        if tails:
            key = id(tails)
            if key not in memo:
                memo[key] = tails, census(tails)
            yield prefix, "".join(prefix), memo[key][1]


def _walk(
    n: int, allowed: Callable[[str], bool] | None = None
) -> Iterator[tuple[str, ...]]:
    """Yield once, in lexicographic encoding order, the pieces of every
    tiling of an n-board whose metatiles allowed admits (every tiling when
    it is None): the blocks of _blocks, flattened, with their first-block
    cost."""
    for prefix, tails in _blocks(n, allowed):
        yield from map(prefix.__add__, tails)


def enumerate_tilings(
    n: int, allowed: Callable[[str], bool] | None = None
) -> Iterator[Tiling]:
    """Yield once, in lexicographic encoding order, every tiling of an
    n-board whose metatiles allowed admits (every tiling when it is None):
    the tilings of _walk, lazily, with its first-tiling cost."""
    return map(Tiling, _walk(n, allowed))


def count_tilings(
    n: int, tile_filter: Callable[[Tiling], bool] | None = None
) -> int:
    """The number of n-board tilings tile_filter keeps (all when it is None),
    by generating every tiling and discarding the rest: the slow oracle of
    the pruned walk and the sequence tables."""
    return sum(1 for t in enumerate_tilings(n) if tile_filter is None or tile_filter(t))


def metatile_encodings(length_cells: int) -> tuple[str, ...]:
    """All metatile encodings of the given length in cells.

    One metatile of length 1 (hh), three of length 2 (the bifence LLRR and
    the mixed hLhR, LhRh), and exactly two of every length >= 3: a chain of
    interlocking bifences closed on each side by either a half-square or a
    filled fence, the two ends fixing the parity of the length.
    """
    if length_cells < 1:
        raise ValueError("metatile length must be positive")
    if length_cells == 1:
        return ("hh",)
    pair = (_metatile("h", length_cells), _metatile("LhR", length_cells))
    return ("LLRR", *pair) if length_cells == 2 else pair


def is_metatile(encoding: str) -> bool:
    return _METATILE.fullmatch(encoding) is not None


def decompose(t: Tiling) -> list[tuple[int, str]]:
    """The tiling's metatiles as (start cell, encoding) pairs, left to
    right, read off its pieces; start cells are 0-based."""
    starts = accumulate((len(piece) // 2 for piece in t.pieces), initial=0)
    return list(zip(starts, t.pieces))


def last_positions(t: Tiling) -> tuple[int | None, int | None]:
    """(last fence cell, last h half-cell): the 1-based cell holding the
    right post of the last fence and the half-cell index of the rightmost
    half-square, each None when the tiling has no such tile."""
    enc = t.encoding
    q = enc.rfind("R")
    p = enc.rfind("h")
    return (q // 2 + 1 if q >= 0 else None, p if p >= 0 else None)


def has_free_bifence(t: Tiling) -> bool:
    return "LLRR" in t.pieces


def has_bifence(t: Tiling) -> bool:
    return "LL" in t.encoding


def has_even_metatile(t: Tiling) -> bool:
    # a metatile of even length 2j cells has an encoding of 4j symbols
    return any(len(piece) % 4 == 0 for piece in t.pieces)
