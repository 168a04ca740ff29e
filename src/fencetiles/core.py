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
A restriction on metatiles is data, a Rule, which no predicate stands for.
"""

from __future__ import annotations

import re
from collections import namedtuple
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


class Rule(namedtuple("Rule", "bifence families")):
    """A restriction on metatiles as data: bifence, whether it admits LLRR,
    and families, per lead, LhR then h, (lead, the metatiles under 4 cells
    it admits, longest first, the parities of the lengths it admits from 4
    cells on).  A metatile other than LLRR is its lead and length
    (_metatile), so this finite data decides every one.  Called on a
    metatile, a rule tells whether it admits it."""

    __slots__ = ()

    def __call__(self, piece: str) -> bool:
        if piece == "LLRR":
            return self.bifence
        _, short, parities = self.families[piece[0] == "h"]  # by the lead
        cells = len(piece) // 2
        return piece in short if cells < 4 else cells % 2 in parities


#: The rule of a walk without a restriction: every metatile.
_EVERY = Rule(True, (
    ("LhR", ("LhRLhR", "LhRh"), (0, 1)),
    ("h", ("hLLRRh", "hLhR", "hh"), (0, 1)),
))


def _rule(allowed: Rule | None) -> Rule:
    """allowed, or _EVERY when it is None; anything else, a predicate say,
    is a TypeError."""
    if not isinstance(allowed, (Rule, type(None))):
        raise TypeError(f"a restriction is a core.Rule, not {type(allowed).__name__}")
    return _EVERY if allowed is None else allowed


def _candidates(cells: int, rule: Rule) -> Iterator[str]:
    """Every metatile of at most `cells` cells that rule admits, in encoding
    order: LLRR, then those starting LhR, then those starting h, each
    family from the longest to the shortest (a longer bifence chain sorts
    first).  The admitted lengths are stepped through by arithmetic, so no
    rejected metatile is built."""
    bifence, families = rule
    if bifence and cells >= 2:
        yield "LLRR"
    for lead, short, parities in families:
        if parities:  # from the longest of an admitted parity down to 4 cells
            top = cells if cells % 2 in parities else cells - 1
            for length in range(top, 3, -1 if len(parities) == 2 else -2):
                yield _metatile(lead, length)
        for piece in short:
            if len(piece) <= 2 * cells:
                yield piece


#: The depth of the walk's memo when none is given: boards of at most this
#: many cells are tiled from it.  Enumeration keeps it, so its first tiling
#: costs O(n); the exhaustive checks take _memo_depth.
_MEMO_CELLS = 6


def _memo_depth(n: int) -> int:
    """The memo depth the exhaustive checks of an n-board walk with: about
    half the board, so the memo's tails and the blocks that share them both
    number about sqrt(A_n) (meet in the middle, after Horowitz and Sahni,
    JACM 1974), and never less than _MEMO_CELLS.  The Cassini audit walks
    at this depth; the identity rows of one verify call, which share one
    memo, one cell deeper (identities._combinatorial_rows)."""
    return max(_MEMO_CELLS, (n + 1) // 2)


def _blocks(
    n: int, allowed: Rule | None = None, memo: int = _MEMO_CELLS, tails=None
) -> Iterator[tuple[tuple[str, ...], tuple[tuple[str, ...], ...]]]:
    """Yield, in lexicographic encoding order, the tilings of an n-board
    whose metatiles the Rule allowed admits (every tiling when it is None)
    by block: (prefix, tails), the pieces placed so far and the memo tuple
    tails[m] of the tilings of the m <= memo cells left.  The block's
    tilings are prefix + t for t in tails, in that order.  The memo is the
    list tails, the walk's own when it is None; a list handed in, empty or
    from earlier walks of the same rule, is extended in place, so those
    walks hand on the very same tuples.

    An iterative walk over metatile sequences, a frame per metatile placed.
    Candidates come from the rule by arithmetic (_candidates), so no tiling
    holding a forbidden metatile is built, and in encoding order, which
    (metatiles being a prefix-free code) yields the tilings in encoding
    order.  A frame takes its first candidate from a throwaway iterator and
    keeps one only once the walk comes back to it, so a descent holds none;
    a frame that runs through its candidates stores them under its cell
    count, for later frames.  Every completion of a frame with m <= memo
    cells left is an m-board tiling, so the walk builds those once,
    tail-first, into its memo tails[m] (about 1.6 A_memo tuples, 273 at
    the default depth, all built before the first block) and hands that
    very tuple on in place of further frames: every block with m cells
    left shares one tails object.  The candidate store is this walk's.  The
    first block costs O(n) time and memory plus the memo whenever each
    frame's first candidate leads to a tiling, as under every restriction
    of sequences.RESTRICTIONS.
    """
    _check_length(n)
    rule = _rule(allowed)
    tails = [] if tails is None else tails

    def tail(m: int) -> tuple[tuple[str, ...], ...]:
        for k in range(len(tails), m + 1):
            tails.append(tuple(
                (piece, *t)
                for piece in _candidates(k, rule)
                for t in tails[k - len(piece) // 2]
            ) if k else ((),))
        return tails[m]

    if n <= memo:
        yield (), tail(n)
        return
    store: dict[int, tuple[str, ...]] = {}
    pieces: list[str] = []
    frames: list[Iterator[str] | None] = []  # None until the walk is back
    left, later = n, None
    piece = next(_candidates(n, rule), None)
    while True:
        if piece is not None:
            rest = left - len(piece) // 2
            if rest > memo:
                pieces.append(piece)
                frames.append(later)
                left, later = rest, None
                piece = next(iter(store.get(left) or _candidates(left, rule)), None)
                continue
            yield (*pieces, piece), tail(rest)
        else:
            if left not in store:
                store[left] = tuple(_candidates(left, rule))
            if not pieces:
                return
            left += len(pieces.pop()) // 2
            later = frames.pop()
        if later is None:  # back at a frame for its second candidate
            later = iter(store.get(left) or _candidates(left, rule))
            next(later)
        piece = next(later, None)


def _censused(blocks: Iterable[tuple], census: Callable, store=None) -> Iterator[tuple]:
    """Yield (prefix, head, census(tails)) for each block (prefix, tails) of
    _blocks that holds a tiling, head being the joined prefix: the one
    block driver of enumeration and the exhaustive checks.  census reads a
    tail set once per store, the dict of census results by tails id: this
    driver's own when it is None, or one handed in to serve several walks
    with the same census.  A result is reused only for that very tuple
    object, never for an equal one, so a tail set that is not the walks'
    memo gets its own.  Each store entry holds its tails, so no other tuple
    takes that id while the store lives."""
    store = {} if store is None else store
    for prefix, tails in blocks:
        if tails:
            key = id(tails)
            if key not in store:
                store[key] = tails, census(tails)
            yield prefix, "".join(prefix), store[key][1]


def _walk(n: int, allowed: Rule | None = None) -> Iterator[tuple[str, ...]]:
    """Yield once, in lexicographic encoding order, the pieces of every
    tiling of an n-board whose metatiles allowed admits (every tiling when
    it is None): the blocks of _blocks, flattened, with their first-block
    cost."""
    for prefix, tails in _blocks(n, allowed):
        yield from map(prefix.__add__, tails)


def _joined(tails: tuple[tuple[str, ...], ...]) -> tuple[tuple, ...]:
    """Enumeration's census of a tail set: each tail with its encoding."""
    return tuple(zip(tails, map("".join, tails)))


def enumerate_tilings(n: int, allowed: Rule | None = None) -> Iterator[Tiling]:
    """Yield once, in lexicographic encoding order, every tiling of an
    n-board whose metatiles allowed admits (every tiling when it is None):
    the tilings of _walk, lazily, with its first-tiling cost.  A block's
    prefix is joined once per block and a tail once per tail set, so each
    tiling is two concatenations, written into its fields as __init__
    does."""
    new = Tiling.__new__
    for prefix, head, tails in _censused(_blocks(n, allowed), _joined):
        for t, e in tails:
            tiling = new(Tiling)
            d = tiling.__dict__
            d["pieces"] = prefix + t
            d["encoding"] = head + e
            yield tiling


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


#: The even-length metatiles of at most 32 cells, which has_even_metatile
#: finds by one set test; only boards of 34 cells or more hold a longer one.
_SHORT_EVEN = frozenset(
    piece for cells in range(2, 33, 2) for piece in metatile_encodings(cells)
)


def has_free_bifence(t: Tiling) -> bool:
    """Whether t.pieces holds the free bifence LLRR."""
    return "LLRR" in t.pieces


def has_bifence(t: Tiling) -> bool:
    """Whether t.encoding holds a bifence, LL, free or in a longer metatile."""
    return "LL" in t.encoding


def has_even_metatile(t: Tiling) -> bool:
    """Whether t.pieces holds a metatile of even length (4j symbols)."""
    pieces = t.pieces
    return not _SHORT_EVEN.isdisjoint(pieces) or any(
        len(piece) % 4 == 0 for piece in pieces
    )
