"""Machine checks of the Fibonacci-squared identities.

Each identity is one record of data with two modes: numeric (exact integer
evaluation of both sides) and combinatorial (counting tilings).  Identities
1-6 share one proof: condition on the last metatile a restriction, a
core.Rule, forbids (identity 1 forbids them all).  One scan reads the
board by block through core._censused, the block driver it shares with
the Cassini audit, bins every tiling by the end cell and encoding of that
metatile, found by set lookup, and checks every bin against its
predicted count, not just the totals.  Identity 7's proof is the Cassini near-bijection,
so its combinatorial row is bijection.cassini_audit.

Combinatorial mode is exhaustive, so its rows stop at the first n whose
board is longer than MAX_ORACLE_BOARD cells.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator
from enum import Enum
from itertools import accumulate, takewhile

from .core import Rule, _blocks, _candidates, _censused, _memo_depth, metatile_encodings
from .sequences import A, C, FIB, RESTRICTIONS, S, T, Restriction, decimal, sum_form

#: Longest board the combinatorial (exhaustive enumeration) mode will scan:
#: its rows stop at the first n whose board is longer, whatever n_max asks.
MAX_ORACLE_BOARD = 14

#: Largest n_max numeric mode checks: its rows hold every F_i^2 up to
#: about i = 2 n_max, so memory and table text grow as n_max^2.
MAX_NUMERIC_N = 6000


class Mode(Enum):
    NUMERIC = "numeric"
    COMBINATORIAL = "combinatorial"


class IdentityRow(namedtuple("IdentityRow", "n lhs rhs bins_ok", defaults=(True,))):
    """Both sides of an identity at n, and in combinatorial mode whether
    every bin held its predicted count."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs and self.bins_ok


class IdentityReport(namedtuple("IdentityReport", "identity_id n_min n_max mode rows")):
    """One identity checked in one Mode for n = n_min..n_max: a tuple of
    IdentityRow."""

    __slots__ = ()

    @property
    def all_pass(self) -> bool:
        return all(row.passed for row in self.rows)

    def to_json(self) -> str:
        import json  # deferred: most processes print no JSON

        return json.dumps(
            {
                "identity_id": self.identity_id,
                "n_min": self.n_min,
                "n_max": self.n_max,
                "mode": self.mode.value,
                "all_pass": self.all_pass,
                "rows": [
                    {
                        "n": r.n,
                        "lhs": decimal(r.lhs),
                        "rhs": decimal(r.rhs),
                        "pass": r.passed,
                    }
                    for r in self.rows
                ],
            }
        )

    def lines(self) -> Iterator[str]:
        """The lines of table(), each made when it is asked for."""
        yield (
            f"identity {self.identity_id} ({self.mode.value}), "
            f"n = {self.n_min}..{self.n_max}"
        )
        for r in self.rows:
            status = "pass" if r.passed else "FAIL"
            yield f"  n={r.n:<3d} lhs={decimal(r.lhs)} rhs={decimal(r.rhs)} {status}"
        yield "  all pass" if self.all_pass else "  FAILED"

    def table(self) -> str:
        return "\n".join(self.lines())


def _squares(n_max: int) -> tuple[list[int], list[int]]:
    """F_i^2 for i = 0..n_max, and the prefix sums P[m] = sum_{i<m} F_i^2."""
    sq = [f * f for f in FIB.values(n_max)]
    return sq, list(accumulate(sq, initial=0))


class _Identity(namedtuple("_Identity", "n_min numeric board restriction")):
    """An identity as data: the least n it holds for, numeric(n_max), its
    rows for n = n_min..n_max, and board(n), the cells combinatorial mode
    enumerates for row n.

    Combinatorial mode bins the tilings of board(n) by the last metatile
    the restriction forbids (_scan) and checks the bins against _predicted;
    restriction is None for identity 7, whose row is the Cassini audit of
    board(n) = n.
    """

    __slots__ = ()


def _identity_1_rows(n_max: int) -> list[IdentityRow]:
    """F_n^2 = F_{n-1}^2 + 3 F_{n-2}^2 + 2 sum_{i=3..n} F_{n-i}^2."""
    sq, prefix = _squares(n_max)
    return [
        IdentityRow(n, sq[n], sq[n - 1] + 3 * sq[n - 2] + 2 * prefix[n - 2])
        for n in range(2, n_max + 1)
    ]


def _identity_2_rows(n_max: int) -> list[IdentityRow]:
    """F_{n+3}^2 - 1 = sum_{k=0..n} { 3 F_{k+1}^2 + 2 sum_{i=1..k} F_i^2 }."""
    sq, prefix = _squares(n_max + 3)
    rows, rhs = [], 0
    for n in range(n_max + 1):
        rhs += 3 * sq[n + 1] + 2 * prefix[n + 1]
        rows.append(IdentityRow(n, sq[n + 3] - 1, rhs))
    return rows


def _identity_3_rows(n_max: int) -> list[IdentityRow]:
    """F_{2n+2}^2 = F_1^2 + sum_{k=1..n} { F_{2k+1}^2 + 2 sum_{i=1..2k} F_i^2 }."""
    sq, prefix = _squares(2 * n_max + 2)
    rows, rhs = [], 0
    for n in range(n_max + 1):
        # as F_0 = 0, the k = 0 term F_1^2 + 2 P[1] is the F_1^2 of the formula
        rhs += sq[2 * n + 1] + 2 * prefix[2 * n + 1]
        rows.append(IdentityRow(n, sq[2 * n + 2], rhs))
    return rows


def _convolution_rows(n_max, table, weights, sq) -> list[IdentityRow]:
    """Rows of F_{n+1}^2 = X_n + sum_{k=2..n} weights[k] X_{n-k}, with X the
    values of `table` and sq[i] = F_i^2: the last piece X forbids ends on
    cell k, and weights[k] counts the coverings of cells 1..k ending in it.
    The rhs y = u * X, u = (1, 0, weights[2], ...), runs on X's recurrence
    c_1..c_d: Q X = P with Q = 1 - sum c_i x^i and deg P < d, so Q y = u * P
    (Stanley, Enumerative Combinatorics vol. 1, ch. 4), a few products a row."""
    c, x = table._coefficients, table._initial
    p = [x[j] - sum(c[i] * x[j - 1 - i] for i in range(j)) for j in range(len(c))]
    u, y = [1, 0, *weights[2 : n_max + 1]], []
    for n in range(n_max + 1):
        up = sum(pj * u[n - j] for j, pj in enumerate(p[: n + 1]))  # (u * P)_n
        y.append(sum(ci * yi for ci, yi in zip(c, reversed(y))) + up)
    return [IdentityRow(n, sq[n + 1], rhs) for n, rhs in enumerate(y)]


def _identity_4_rows(n_max: int) -> list[IdentityRow]:
    """F_{n+1}^2 = S_n + sum_{k=2..n} F_{k-1}^2 S_{n-k}."""
    sq, _ = _squares(n_max + 1)
    return _convolution_rows(n_max, S, [0] + sq, sq)  # weight F_{k-1}^2


def _identity_5_rows(n_max: int) -> list[IdentityRow]:
    """F_{n+1}^2 = C_n + sum_k F_{k-1}^2 C_{n-k}
    + sum_k sum_{l=3..k} (2 - [l=3]) F_{k-l+1}^2 C_{n-k}."""
    # the weight of C_{n-k} is F_{k-1}^2 from the first sum, F_{k-2}^2 from
    # l = 3 and 2 (F_{k-3}^2 + ... + F_1^2) = 2 P[k-2] from l = 4..k
    sq, prefix = _squares(n_max + 1)
    weights = [0, 0] + [
        sq[k - 1] + sq[k - 2] + 2 * prefix[k - 2] for k in range(2, n_max + 1)
    ]
    return _convolution_rows(n_max, C, weights, sq)


def _identity_6_rows(n_max: int) -> list[IdentityRow]:
    """F_{n+1}^2 = T_n + sum_k sum_j (2 + [j=1]) F_{k-2j+1}^2 T_{n-k}."""
    # the weight of T_{n-k} is sum_j (2 + [j=1]) F_{k-2j+1}^2 = 2 alt[k-1] +
    # F_{k-1}^2, where alt[m] = F_m^2 + F_{m-2}^2 + ... down to F_1^2 or F_0^2
    sq, _ = _squares(n_max + 1)
    alt = sq[:2]
    for m in range(2, n_max + 1):
        alt.append(sq[m] + alt[m - 2])
    weights = [0] + [2 * a + f2 for a, f2 in zip(alt, sq)]
    return _convolution_rows(n_max, T, weights, sq)


def _identity_7_rows(n_max: int) -> list[IdentityRow]:
    """F_{n+1}^2 = 3 F_n^2 - F_{n-1}^2 + 2 (-1)^n.

    Its combinatorial proof is the Cassini near-bijection, which
    bijection.cassini_audit checks exhaustively, one row per audit.
    """
    sq, _ = _squares(n_max + 1)
    return [
        IdentityRow(n, sq[n + 1], 3 * sq[n] - sq[n - 1] + 2 * (-1) ** n)
        for n in range(1, n_max + 1)
    ]


def _only(bifence: bool, h: tuple[str, ...]) -> Restriction:
    """The restriction that admits at most LLRR and the short metatiles h
    that start with h, with its least recurrence from sum_form."""
    rule = Rule(bifence, (("LhR", (), ()), ("h", h, ())))
    return Restriction(sum_form(rule), rule)


_IDENTITIES = {
    # the last metatile, ending on the last cell; X = 1, 0, 0, ...
    1: _Identity(2, _identity_1_rows, lambda n: n - 1, _only(False, ())),
    # the last fence lies in the last metatile other than hh; X = 1
    2: _Identity(0, _identity_2_rows, lambda n: n + 2, _only(False, ("hh",))),
    # the last half-square lies in the last metatile other than a free
    # bifence; X = 1, 0, 1, 0, ...
    3: _Identity(0, _identity_3_rows, lambda n: 2 * n + 1, _only(True, ())),
    # the last free bifence, metatile containing a bifence, even-length metatile
    4: _Identity(0, _identity_4_rows, lambda n: n, RESTRICTIONS["no-free-bifence"]),
    5: _Identity(0, _identity_5_rows, lambda n: n, RESTRICTIONS["no-bifence"]),
    6: _Identity(0, _identity_6_rows, lambda n: n, RESTRICTIONS["odd-metatiles"]),
    # the Cassini near-bijection
    7: _Identity(1, _identity_7_rows, lambda n: n, None),
}


def _predicted(restriction: Restriction, board: int, a: list[int]) -> tuple[dict, int]:
    """The count _scan should find in every bin over the tilings of the
    board, with a = [A_0, ..., A_board], and the number of tilings binned.

    A forbidden piece of l cells ending on cell k comes after any of the
    A_{k-l} tilings of the cells before it and before any of the X_{board-k}
    tilings of the cells after it that the restriction admits, X being its
    table.  A bin with X_{board-k} = 0 cannot occur and is left out.  The
    X_board tilings the restriction admits throughout are left unbinned.
    """
    table, allowed = restriction
    x = table.values(board)
    expected = {
        (k, piece): a[k - l] * x[board - k]
        for l in range(1, board + 1)
        for piece in metatile_encodings(l)
        if not allowed(piece)
        for k in range(l, board + 1)
        if x[board - k]
    }
    return expected, a[board] - x[board]


def _scan(
    blocks: Iterable[tuple[tuple[str, ...], tuple[tuple[str, ...], ...]]],
    allowed: Callable[[str], bool],
    store: dict | None = None,
) -> tuple[dict, int, bool]:
    """Bin tilings, given as the (prefix, tails) blocks of core._blocks, by
    the (end cell, encoding) of their last metatile allowed forbids,
    leaving unbinned those it admits throughout.  Returns the bin counts,
    the number of tilings scanned, and whether their joined encodings came
    in strictly increasing order: over one enumeration, that proves that no
    tiling is counted twice.

    The tiling prefix + t is binned by the last forbidden piece of t, or of
    prefix when t has none.  So core._censused reads each tail set into a
    census that depends on allowed alone, not on the block or the board:
    its size, the number of tails with no forbidden piece, the first and
    last joined tail, whether the joined tails strictly increase, and bins
    keyed by end cell within the tail.  store keeps the censuses for later
    scans with the same allowed (core._censused).  Per block, the scan adds
    the census size to the tilings scanned, checks the census's order and
    that prefix + first tail comes after the previous block's prefix + last
    tail, sends the tails with no forbidden piece to the prefix's last
    forbidden piece, and counts one block for the census's bins at the
    prefix's cell count.  After the walk it folds each census's bins in
    once per cell count, shifted by that count and times the blocks counted
    there: no bin is touched per block, and no tiling is read one by one.
    """
    observed: dict = {}
    shifted: dict = {}  # (cell count, id of bins): [bins, blocks counted]
    prev, scanned, ordered = None, 0, True

    def last_forbidden(pieces: tuple[str, ...], end: int) -> tuple | None:
        # the (end cell, piece) key of the last forbidden piece, the pieces
        # ending on half-cell end; None when allowed admits them all
        for piece in reversed(pieces):
            if not allowed(piece):
                return end // 2, piece
            end -= len(piece)
        return None

    def census(tails: tuple[tuple[str, ...], ...]) -> tuple:
        bins: dict = {}
        free = 0
        joined = ["".join(t) for t in tails]
        for t, e in zip(tails, joined):
            key = last_forbidden(t, len(e))
            if key is None:
                free += 1
            else:
                bins[key] = bins.get(key, 0) + 1
        in_order = all(map(str.__lt__, joined, joined[1:]))
        return len(tails), free, joined[0], joined[-1], in_order, bins

    for prefix, head, counted in _censused(blocks, census, store):
        size, free, first, last, in_order, bins = counted
        scanned += size
        if not in_order or prev is not None and head + first <= prev:
            ordered = False
        prev = head + last
        shifted.setdefault((len(head) // 2, id(bins)), [bins, 0])[1] += 1
        if free:
            key = last_forbidden(prefix, len(head))
            if key is not None:
                observed[key] = observed.get(key, 0) + free
    for (shift, _), (bins, blocks_at) in shifted.items():
        for (k, piece), count in bins.items():
            key = k + shift, piece
            observed[key] = observed.get(key, 0) + count * blocks_at
    return observed, scanned, ordered


def _combinatorial_rows(ident: _Identity, ns: Iterable[int]) -> list[IdentityRow]:
    """Bin every tiling of board(n), for each n of ns.  A row passes when
    every tiling was scanned once, every bin holds its predicted count, no
    other bin occurs, and the bins hold the predicted total.  With no
    restriction (identity 7) a row is the audit's two sides, passing when
    its structure holds.

    The tail sets of the walk and their censuses are the same in every row,
    so the rows share one memo and one census store (the audits one per
    role): each tail set is built and censused once per call.  The memo is
    one cell deeper than core._memo_depth gives the longest board: paid
    once per call, not once per row, the memo side of the meet in the
    middle costs less, so the balance moves deeper, for the audits too (on
    the 13- and 14-boards, two cells deeper gains nothing more).  The
    admitted set is built once, from the longest board: a piece of l cells
    is a candidate on every board of at least l cells exactly when the
    rule admits it.  Each piece is then one lookup.
    """
    ns = list(ns)
    boards = list(map(ident.board, ns))
    top = max(boards)
    memo, tails, store = _memo_depth(top) + 1, [], {}
    if ident.restriction is None:
        from .bijection import _audit  # deferred: only these rows run it

        audits = zip(ns, (_audit(b, memo, tails, store) for b in boards))
        return [IdentityRow(n, x.lhs, x.rhs, x.structure_ok) for n, x in audits]
    a = A.values(top)
    admitted = frozenset(_candidates(top, ident.restriction.allowed)).__contains__
    rows = []
    for n, board in zip(ns, boards):
        expected, relevant = _predicted(ident.restriction, board, a)
        blocks = _blocks(board, None, memo, tails)
        observed, scanned, ordered = _scan(blocks, admitted, store)
        binned = sum(observed.values())
        bins_ok = ordered and scanned == a[board] and (
            observed == expected and binned == relevant
        )
        rows.append(IdentityRow(n, binned, sum(expected.values()), bins_ok))
    return rows


def verify(
    identity_id: int, n_max: int, combinatorial: bool = False
) -> IdentityReport:
    """Check one identity for n = n_min..n_max: numerically, up to n_max =
    MAX_NUMERIC_N, or combinatorially, for as long as board(n) is at most
    MAX_ORACLE_BOARD cells.
    """
    ident = _IDENTITIES.get(identity_id)
    if ident is None:
        choices = ", ".join(map(str, _IDENTITIES))
        raise ValueError(f"unknown identity {identity_id!r}, expected one of {choices}")
    if n_max < ident.n_min:
        raise ValueError(f"identity {identity_id} needs n_max >= {ident.n_min}")
    if combinatorial:
        mode = Mode.COMBINATORIAL
        rows = _combinatorial_rows(ident, takewhile(
            lambda n: ident.board(n) <= MAX_ORACLE_BOARD, range(ident.n_min, n_max + 1)
        ))
    elif n_max > MAX_NUMERIC_N:
        raise ValueError(
            f"numeric mode: n_max must be at most {MAX_NUMERIC_N}, got {n_max}"
        )
    else:
        mode, rows = Mode.NUMERIC, ident.numeric(n_max)
    return IdentityReport(identity_id, rows[0].n, rows[-1].n, mode, tuple(rows))

