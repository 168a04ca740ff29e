"""Machine checks of the Fibonacci-squared identities.

Each identity is one record of data.  It has a numeric mode (exact integer
evaluation of both sides) and, where the proof is a conditioning argument
over tilings, a combinatorial mode: one driver enumerates the boards, bins
the tilings by the record's key (last fence, last half-square, last
metatile of a forbidden kind) and checks every bin against its predicted
count, not just the totals.

Combinatorial mode is exhaustive, so it only runs where the enumerated
board is short enough (MAX_ORACLE_BOARD cells).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from typing import Callable, Hashable, Optional

from .core import Tiling, enumerate_tilings, metatile_encodings
from .sequences import A, FIB, RESTRICTIONS, Restriction

#: Longest board the combinatorial (exhaustive enumeration) mode will scan.
MAX_ORACLE_BOARD = 14

#: Default cap on n for combinatorial verification.
DEFAULT_ORACLE_N = 12


class Mode(Enum):
    NUMERIC = "numeric"
    COMBINATORIAL = "combinatorial"


@dataclass(frozen=True)
class IdentityRow:
    n: int
    lhs: int
    rhs: int
    bins_ok: bool = True

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs and self.bins_ok


@dataclass(frozen=True)
class IdentityReport:
    identity_id: int
    n_min: int
    n_max: int
    mode: Mode
    rows: tuple[IdentityRow, ...]

    @property
    def all_pass(self) -> bool:
        return all(row.passed for row in self.rows)

    def to_json(self) -> str:
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
                        "lhs": str(r.lhs),
                        "rhs": str(r.rhs),
                        "pass": r.passed,
                    }
                    for r in self.rows
                ],
            }
        )

    def table(self) -> str:
        lines = [
            f"identity {self.identity_id} ({self.mode.value}), "
            f"n = {self.n_min}..{self.n_max}"
        ]
        for r in self.rows:
            status = "pass" if r.passed else "FAIL"
            lines.append(f"  n={r.n:<3d} lhs={r.lhs} rhs={r.rhs} {status}")
        lines.append("  all pass" if self.all_pass else "  FAILED")
        return "\n".join(lines)


def _squares(n_max: int) -> tuple[list[int], list[int]]:
    """F_i^2 for i = 0..n_max, and the prefix sums P[m] = sum_{i<m} F_i^2."""
    sq = [f * f for f in FIB.values(n_max)]
    return sq, list(accumulate(sq, initial=0))


@dataclass(frozen=True)
class _Identity:
    """An identity as data: the least n it holds for, and its numeric rows
    for n = n_min..n_max.

    Where the proof conditions on a last feature, combinatorial mode
    enumerates board(n) and bins each tiling by key(t) (None leaves it
    unbinned); bins(n, a), with a = [A_0, ..., A_board], gives the
    predicted count of every bin and the number of tilings binned in all.
    """

    n_min: int
    numeric: Callable[[int], list[IdentityRow]]
    board: Optional[Callable[[int], int]] = None
    key: Optional[Callable[[Tiling], Hashable]] = None
    bins: Optional[Callable[[int, list[int]], tuple[dict, int]]] = None


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


def _last_fence(t: Tiling) -> Optional[int]:
    # k when the last fence's right post sits on cell k+2 (half-cell 2k+2 or
    # 2k+3); the all-h tiling of the (n+2)-board has no fence and is left
    # unbinned
    q = t.encoding.rfind("R")
    return None if q < 0 else q // 2 - 1


def _last_fence_bins(n: int, a: list[int]) -> tuple[dict, int]:
    prefix = list(accumulate(a, initial=0))
    return {k: 3 * a[k] + 2 * prefix[k] for k in range(n + 1)}, a[n + 2] - 1


def _identity_3_rows(n_max: int) -> list[IdentityRow]:
    """F_{2n+2}^2 = F_1^2 + sum_{k=1..n} { F_{2k+1}^2 + 2 sum_{i=1..2k} F_i^2 }."""
    sq, prefix = _squares(2 * n_max + 2)
    rows, rhs = [], 0
    for n in range(n_max + 1):
        # as F_0 = 0, the k = 0 term F_1^2 + 2 P[1] is the F_1^2 of the formula
        rhs += sq[2 * n + 1] + 2 * prefix[2 * n + 1]
        rows.append(IdentityRow(n, sq[2 * n + 2], rhs))
    return rows


def _last_h(t: Tiling) -> Optional[int]:
    # k when the last h sits on the odd cell 2k+1 (half-cell 4k or 4k+1);
    # every tiling of the (2n+1)-board has one, so None marks a fault
    p = t.encoding.rfind("h")
    return None if p < 0 or p // 2 % 2 else p // 4


def _last_h_bins(n: int, a: list[int]) -> tuple[dict, int]:
    prefix = list(accumulate(a, initial=0))
    return {k: a[2 * k] + 2 * prefix[2 * k] for k in range(n + 1)}, a[2 * n + 1]


def _convolution_rows(n_max, table, weights, sq) -> list[IdentityRow]:
    """Rows of F_{n+1}^2 = X_n + sum_{k=2..n} weights[k] X_{n-k}, with X the
    values of `table` and sq[i] = F_i^2: the last piece X forbids ends on
    cell k, and weights[k] counts the coverings of cells 1..k ending in it."""
    x = table.values(n_max)
    rows = []
    for n in range(n_max + 1):
        rhs = x[n] + sum(weights[k] * x[n - k] for k in range(2, n + 1))
        rows.append(IdentityRow(n, sq[n + 1], rhs))
    return rows


def _identity_4_rows(n_max: int, table) -> list[IdentityRow]:
    """F_{n+1}^2 = S_n + sum_{k=2..n} F_{k-1}^2 S_{n-k}."""
    sq, _ = _squares(n_max + 1)
    return _convolution_rows(n_max, table, [0] + sq, sq)  # weight F_{k-1}^2


def _identity_5_rows(n_max: int, table) -> list[IdentityRow]:
    """F_{n+1}^2 = C_n + sum_k F_{k-1}^2 C_{n-k}
    + sum_k sum_{l=3..k} (2 - [l=3]) F_{k-l+1}^2 C_{n-k}."""
    # the weight of C_{n-k} is F_{k-1}^2 from the first sum, F_{k-2}^2 from
    # l = 3 and 2 (F_{k-3}^2 + ... + F_1^2) = 2 P[k-2] from l = 4..k
    sq, prefix = _squares(n_max + 1)
    weights = [0, 0] + [
        sq[k - 1] + sq[k - 2] + 2 * prefix[k - 2] for k in range(2, n_max + 1)
    ]
    return _convolution_rows(n_max, table, weights, sq)


def _identity_6_rows(n_max: int, table) -> list[IdentityRow]:
    """F_{n+1}^2 = T_n + sum_k sum_j (2 + [j=1]) F_{k-2j+1}^2 T_{n-k}."""
    # the weight of T_{n-k} is sum_j (2 + [j=1]) F_{k-2j+1}^2 = 2 alt[k-1] +
    # F_{k-1}^2, where alt[m] = F_m^2 + F_{m-2}^2 + ... down to F_1^2 or F_0^2
    sq, _ = _squares(n_max + 1)
    alt = sq[:2]
    for m in range(2, n_max + 1):
        alt.append(sq[m] + alt[m - 2])
    weights = [0] + [2 * a + f2 for a, f2 in zip(alt, sq)]
    return _convolution_rows(n_max, table, weights, sq)


def _last_metatile(numeric, restriction: Restriction) -> _Identity:
    """Identities 4-6: bin a tiling of the n-board by the end cell k and the
    encoding of its last metatile the restriction forbids.

    A piece of l cells ending on cell k comes after any of the A_{k-l}
    tilings of the cells before it and before a tiling of the last n-k
    cells the restriction admits; its table counts those, X_{n-k}.  The X_n
    tilings the restriction admits are left unbinned.  numeric(n_max,
    table) gives the identity's numeric rows.
    """
    table, allowed = restriction

    def key(t: Tiling) -> Optional[tuple[int, str]]:
        end = len(t.encoding) // 2
        for piece in reversed(t.pieces):
            if not allowed(piece):
                return end, piece
            end -= len(piece) // 2
        return None

    def bins(n: int, a: list[int]) -> tuple[dict, int]:
        x = table.values(n)
        expected = {
            (k, piece): a[k - l] * x[n - k]
            for l in range(1, n + 1)
            for piece in metatile_encodings(l)
            if not allowed(piece)
            for k in range(l, n + 1)
        }
        return expected, a[n] - x[n]

    return _Identity(0, lambda n_max: numeric(n_max, table), lambda n: n, key, bins)


def _identity_7_rows(n_max: int) -> list[IdentityRow]:
    """F_{n+1}^2 = 3 F_n^2 - F_{n-1}^2 + 2 (-1)^n.

    Its combinatorial proof is the Cassini near-bijection, which
    bijection.cassini_audit checks exhaustively.
    """
    sq, _ = _squares(n_max + 1)
    return [
        IdentityRow(n, sq[n + 1], 3 * sq[n] - sq[n - 1] + 2 * (-1) ** n)
        for n in range(1, n_max + 1)
    ]


_IDENTITIES = {
    1: _Identity(2, _identity_1_rows),
    2: _Identity(0, _identity_2_rows, lambda n: n + 2, _last_fence, _last_fence_bins),
    3: _Identity(0, _identity_3_rows, lambda n: 2 * n + 1, _last_h, _last_h_bins),
    # the last free bifence, metatile containing a bifence, even-length metatile
    4: _last_metatile(_identity_4_rows, RESTRICTIONS["no-free-bifence"]),
    5: _last_metatile(_identity_5_rows, RESTRICTIONS["no-bifence"]),
    6: _last_metatile(_identity_6_rows, RESTRICTIONS["odd-metatiles"]),
    7: _Identity(1, _identity_7_rows),
}

#: The identities with a combinatorial mode.
COMBINATORIAL = tuple(i for i, ident in _IDENTITIES.items() if ident.key is not None)


def _combinatorial_row(ident: _Identity, n: int) -> IdentityRow:
    """Bin every tiling of board(n).  The row passes when every tiling was
    scanned once, every bin holds its predicted count, no other bin occurs,
    and the bins hold the predicted total.

    The enumeration yields encodings in strictly increasing order; checking
    that proves, in O(1) memory, that no tiling is counted twice.
    """
    board = ident.board(n)
    a = A.values(board)
    expected, relevant = ident.bins(n, a)
    observed: dict = {}
    prev, scanned, ordered = None, 0, True
    for t in enumerate_tilings(board):
        if prev is not None and t.encoding <= prev:
            ordered = False
        prev = t.encoding
        scanned += 1
        key = ident.key(t)
        if key is not None:
            observed[key] = observed.get(key, 0) + 1
    binned = sum(observed.values())
    bins_ok = (
        ordered and scanned == a[board] and observed == expected and binned == relevant
    )
    return IdentityRow(n, binned, sum(expected.values()), bins_ok)


def verify(
    identity_id: int, n_max: int, combinatorial: bool = False
) -> IdentityReport:
    """Check one identity for n = n_min..n_max.

    Combinatorial mode applies to the identities in COMBINATORIAL, up to
    n = DEFAULT_ORACLE_N and boards of MAX_ORACLE_BOARD cells; any other
    call checks numerically.
    """
    ident = _IDENTITIES[identity_id]
    if n_max < ident.n_min:
        raise ValueError(f"identity {identity_id} needs n_max >= {ident.n_min}")
    if combinatorial and ident.key is not None:
        mode = Mode.COMBINATORIAL
        rows = [
            _combinatorial_row(ident, n)
            for n in range(ident.n_min, min(n_max, DEFAULT_ORACLE_N) + 1)
            if ident.board(n) <= MAX_ORACLE_BOARD
        ]
    else:
        mode, rows = Mode.NUMERIC, ident.numeric(n_max)
    return IdentityReport(identity_id, rows[0].n, rows[-1].n, mode, tuple(rows))


def verify_all(n_max: int, combinatorial: bool = False) -> list[IdentityReport]:
    reports = [verify(i, n_max) for i in _IDENTITIES]
    if combinatorial:
        reports.extend(verify(i, n_max, combinatorial=True) for i in COMBINATORIAL)
    return reports
