"""Machine checks of the Fibonacci-squared identities.

Each identity has a numeric mode (exact integer evaluation of both sides)
and, where the proof is a conditioning argument over tilings, a
combinatorial mode that enumerates the boards, bins the tilings by the
conditioned feature (last fence, last half-square, last free bifence, ...)
and checks every bin against its predicted count, not just the totals.

Combinatorial mode is exhaustive, so it only runs where the enumerated
board is short enough (MAX_ORACLE_BOARD cells).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate

from .core import decompose, enumerate_tilings, last_positions, metatile_encodings
from .sequences import C, FIB, S, T, count_A, count_C, count_S, count_T, fib

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


def _report(identity_id, n_values, mode, rows) -> IdentityReport:
    n_values = list(n_values)
    return IdentityReport(
        identity_id,
        min(n_values) if n_values else 0,
        max(n_values) if n_values else 0,
        mode,
        tuple(rows),
    )


class _Tally:
    """Bin counts over the tilings of one board, taken in enumeration order.

    Each tiling gets at most one bin key, so the bins are disjoint by
    construction.  Checking that every encoding is strictly greater than
    the one before proves, in O(1) memory, that none is counted twice.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.bins: dict = {}
        self.ordered = True

    def __iter__(self):
        prev = None
        for t in enumerate_tilings(self.n):
            if prev is not None and t.encoding <= prev:
                self.ordered = False
            prev = t.encoding
            yield t

    def add(self, key) -> None:
        self.bins[key] = self.bins.get(key, 0) + 1

    @property
    def relevant(self) -> int:
        return sum(self.bins.values())

    def matches(self, expected: dict, relevant: int) -> bool:
        """No tiling counted twice, every bin at its expected count and no
        unexpected bin, and `relevant` tilings binned in all."""
        return (
            self.ordered
            and all(self.bins.get(k, 0) == v for k, v in expected.items())
            and set(self.bins) <= set(expected)
            and self.relevant == relevant
        )


def _squares(n_max: int) -> tuple[list[int], list[int]]:
    """F_i^2 for i = 0..n_max, and the prefix sums P[m] = sum_{i<m} F_i^2."""
    sq = [f * f for f in FIB.values(n_max)]
    return sq, list(accumulate(sq, initial=0))


def _convolution_report(identity_id, n_max, table, weights, sq) -> IdentityReport:
    """Numeric rows of F_{n+1}^2 = X_n + sum_{k=2..n} weights[k] X_{n-k}, with
    X the values of `table` and sq[i] = F_i^2: the last piece X forbids ends
    on cell k, and weights[k] counts the coverings of cells 1..k ending in it."""
    x = table.values(n_max)
    rows = []
    for n in range(n_max + 1):
        rhs = x[n] + sum(weights[k] * x[n - k] for k in range(2, n + 1))
        rows.append(IdentityRow(n, sq[n + 1], rhs))
    return _report(identity_id, range(n_max + 1), Mode.NUMERIC, rows)


def verify_identity_1(n_max: int) -> IdentityReport:
    """F_n^2 = F_{n-1}^2 + 3 F_{n-2}^2 + 2 sum_{i=3..n} F_{n-i}^2."""
    if n_max < 2:
        raise ValueError("identity 1 needs n_max >= 2")
    sq, prefix = _squares(n_max)
    rows = [
        IdentityRow(n, sq[n], sq[n - 1] + 3 * sq[n - 2] + 2 * prefix[n - 2])
        for n in range(2, n_max + 1)
    ]
    return _report(1, range(2, n_max + 1), Mode.NUMERIC, rows)


def _identity_2_combinatorial_row(n: int) -> IdentityRow:
    # Enumerate the (n+2)-board and bin everything but the all-h tiling by
    # the location of the last fence (its posts sit on cells k+1 and k+2).
    board = n + 2
    structure_ok = True
    tally = _Tally(board)
    for t in tally:
        lp = last_positions(t)
        if lp.last_fence_cell is None:
            continue  # the unique all-h tiling
        k = lp.last_fence_cell - 2
        q = t.encoding.rfind("R")
        if (q - 2) // 2 + 1 != k + 1:  # left post in the previous cell
            structure_ok = False
        if not 0 <= k <= n:
            structure_ok = False
        tally.add(k)
    expected = {
        k: 3 * count_A(k) + 2 * sum(count_A(i) for i in range(k))
        for k in range(n + 1)
    }
    bins_ok = structure_ok and tally.matches(expected, count_A(board) - 1)
    return IdentityRow(n, tally.relevant, sum(expected.values()), bins_ok)


def verify_identity_2(
    n_max: int, combinatorial: bool = False, oracle_n: int = DEFAULT_ORACLE_N
) -> IdentityReport:
    """F_{n+3}^2 - 1 = sum_{k=0..n} { 3 F_{k+1}^2 + 2 sum_{i=1..k} F_i^2 }."""
    if n_max < 0:
        raise ValueError("identity 2 needs n_max >= 0")
    if combinatorial:
        n_values = [
            n
            for n in range(min(n_max, oracle_n) + 1)
            if n + 2 <= MAX_ORACLE_BOARD
        ]
        rows = [_identity_2_combinatorial_row(n) for n in n_values]
        return _report(2, n_values, Mode.COMBINATORIAL, rows)
    sq, prefix = _squares(n_max + 3)
    rows, rhs = [], 0
    for n in range(n_max + 1):
        rhs += 3 * sq[n + 1] + 2 * prefix[n + 1]
        rows.append(IdentityRow(n, sq[n + 3] - 1, rhs))
    return _report(2, range(n_max + 1), Mode.NUMERIC, rows)


def _identity_3_combinatorial_row(n: int) -> IdentityRow:
    # Bin the (2n+1)-board tilings by the odd cell 2k+1 holding the last h.
    board = 2 * n + 1
    structure_ok = True
    tally = _Tally(board)
    for t in tally:
        p = last_positions(t).last_h_halfcell
        if p is None:
            structure_ok = False  # an odd board must contain an h
            continue
        cell = p // 2 + 1
        if cell % 2 == 0:
            structure_ok = False
        k = (cell - 1) // 2
        if not 0 <= k <= n:
            structure_ok = False
        tally.add(k)
    expected = {0: count_A(0)}
    for k in range(1, n + 1):
        expected[k] = count_A(2 * k) + 2 * sum(count_A(i) for i in range(2 * k))
    bins_ok = structure_ok and tally.matches(expected, count_A(board))
    return IdentityRow(n, tally.relevant, sum(expected.values()), bins_ok)


def verify_identity_3(
    n_max: int, combinatorial: bool = False, oracle_n: int = DEFAULT_ORACLE_N
) -> IdentityReport:
    """F_{2n+2}^2 = F_1^2 + sum_{k=1..n} { F_{2k+1}^2 + 2 sum_{i=1..2k} F_i^2 }."""
    if n_max < 0:
        raise ValueError("identity 3 needs n_max >= 0")
    if combinatorial:
        n_values = [
            n
            for n in range(min(n_max, oracle_n) + 1)
            if 2 * n + 1 <= MAX_ORACLE_BOARD
        ]
        rows = [_identity_3_combinatorial_row(n) for n in n_values]
        return _report(3, n_values, Mode.COMBINATORIAL, rows)
    sq, prefix = _squares(2 * n_max + 2)
    rows, rhs = [], 0
    for n in range(n_max + 1):
        # as F_0 = 0, the k = 0 term F_1^2 + 2 P[1] is the F_1^2 of the formula
        rhs += sq[2 * n + 1] + 2 * prefix[2 * n + 1]
        rows.append(IdentityRow(n, sq[2 * n + 2], rhs))
    return _report(3, range(n_max + 1), Mode.NUMERIC, rows)


def _identity_4_combinatorial_row(n: int) -> IdentityRow:
    # Bin tilings containing a free bifence by the end cell of the last one.
    tally = _Tally(n)
    for t in tally:
        free = [o for o in decompose(t) if o.metatile.encoding == "LLRR"]
        if not free:
            continue
        k = free[-1].end_cell
        tally.add(k)
    expected = {k: count_A(k - 2) * count_S(n - k) for k in range(2, n + 1)}
    bins_ok = tally.matches(expected, count_A(n) - count_S(n))
    return IdentityRow(n, tally.relevant, sum(expected.values()), bins_ok)


def verify_identity_4(
    n_max: int, combinatorial: bool = False, oracle_n: int = DEFAULT_ORACLE_N
) -> IdentityReport:
    """F_{n+1}^2 = S_n + sum_{k=2..n} F_{k-1}^2 S_{n-k}."""
    if n_max < 0:
        raise ValueError("identity 4 needs n_max >= 0")
    if combinatorial:
        n_values = [
            n for n in range(min(n_max, oracle_n) + 1) if n <= MAX_ORACLE_BOARD
        ]
        rows = [_identity_4_combinatorial_row(n) for n in n_values]
        return _report(4, n_values, Mode.COMBINATORIAL, rows)
    sq, _ = _squares(n_max + 1)
    return _convolution_report(4, n_max, S, [0] + sq, sq)  # weight F_{k-1}^2


def _identity_5_combinatorial_row(n: int) -> IdentityRow:
    # Bin tilings containing a bifence by the end cell k and length l of the
    # last metatile containing one; check the metatile multiplicities too.
    seen_metatiles: dict[tuple[int, int], dict[str, int]] = {}
    tally = _Tally(n)
    for t in tally:
        with_bifence = [o for o in decompose(t) if o.metatile.contains_bifence]
        if not with_bifence:
            continue
        last = with_bifence[-1]
        key = (last.end_cell, last.metatile.length_cells)
        tally.add(key)
        per = seen_metatiles.setdefault(key, {})
        per[last.encoding] = per.get(last.encoding, 0) + 1
    expected: dict[tuple[int, int], int] = {}
    for k in range(2, n + 1):
        expected[(k, 2)] = count_A(k - 2) * count_C(n - k)
    for k in range(3, n + 1):
        for l in range(3, k + 1):
            expected[(k, l)] = (2 - (l == 3)) * count_A(k - l) * count_C(n - k)
    multiplicity_ok = True
    for (k, l), per in seen_metatiles.items():
        grammar = {e for e in metatile_encodings(l) if "LL" in e}
        if set(per) != grammar:
            multiplicity_ok = False
        share = count_A(k - l) * count_C(n - k)
        if any(count != share for count in per.values()):
            multiplicity_ok = False
    bins_ok = multiplicity_ok and tally.matches(expected, count_A(n) - count_C(n))
    return IdentityRow(n, tally.relevant, sum(expected.values()), bins_ok)


def verify_identity_5(
    n_max: int, combinatorial: bool = False, oracle_n: int = DEFAULT_ORACLE_N
) -> IdentityReport:
    """F_{n+1}^2 = C_n + sum_k F_{k-1}^2 C_{n-k}
    + sum_k sum_{l=3..k} (2 - [l=3]) F_{k-l+1}^2 C_{n-k}."""
    if n_max < 0:
        raise ValueError("identity 5 needs n_max >= 0")
    if combinatorial:
        n_values = [
            n for n in range(min(n_max, oracle_n) + 1) if n <= MAX_ORACLE_BOARD
        ]
        rows = [_identity_5_combinatorial_row(n) for n in n_values]
        return _report(5, n_values, Mode.COMBINATORIAL, rows)
    # the weight of C_{n-k} is F_{k-1}^2 from the first sum, F_{k-2}^2 from
    # l = 3 and 2 (F_{k-3}^2 + ... + F_1^2) = 2 P[k-2] from l = 4..k
    sq, prefix = _squares(n_max + 1)
    weights = [0, 0] + [
        sq[k - 1] + sq[k - 2] + 2 * prefix[k - 2] for k in range(2, n_max + 1)
    ]
    return _convolution_report(5, n_max, C, weights, sq)


def _identity_6_combinatorial_row(n: int) -> IdentityRow:
    # Bin tilings containing an even-length metatile by the end cell k and
    # half-length j of the last one.
    seen_metatiles: dict[tuple[int, int], dict[str, int]] = {}
    tally = _Tally(n)
    for t in tally:
        even = [o for o in decompose(t) if o.metatile.length_cells % 2 == 0]
        if not even:
            continue
        last = even[-1]
        key = (last.end_cell, last.metatile.length_cells // 2)
        tally.add(key)
        per = seen_metatiles.setdefault(key, {})
        per[last.encoding] = per.get(last.encoding, 0) + 1
    expected: dict[tuple[int, int], int] = {}
    for k in range(2, n + 1):
        for j in range(1, k // 2 + 1):
            expected[(k, j)] = (
                (2 + (j == 1)) * count_A(k - 2 * j) * count_T(n - k)
            )
    multiplicity_ok = True
    for (k, j), per in seen_metatiles.items():
        if set(per) != set(metatile_encodings(2 * j)):
            multiplicity_ok = False
        share = count_A(k - 2 * j) * count_T(n - k)
        if any(count != share for count in per.values()):
            multiplicity_ok = False
    bins_ok = multiplicity_ok and tally.matches(expected, count_A(n) - count_T(n))
    return IdentityRow(n, tally.relevant, sum(expected.values()), bins_ok)


def verify_identity_6(
    n_max: int, combinatorial: bool = False, oracle_n: int = DEFAULT_ORACLE_N
) -> IdentityReport:
    """F_{n+1}^2 = T_n + sum_k sum_j (2 + [j=1]) F_{k-2j+1}^2 T_{n-k}."""
    if n_max < 0:
        raise ValueError("identity 6 needs n_max >= 0")
    if combinatorial:
        n_values = [
            n for n in range(min(n_max, oracle_n) + 1) if n <= MAX_ORACLE_BOARD
        ]
        rows = [_identity_6_combinatorial_row(n) for n in n_values]
        return _report(6, n_values, Mode.COMBINATORIAL, rows)
    # the weight of T_{n-k} is sum_j (2 + [j=1]) F_{k-2j+1}^2 = 2 alt[k-1] +
    # F_{k-1}^2, where alt[m] = F_m^2 + F_{m-2}^2 + ... down to F_1^2 or F_0^2
    sq, _ = _squares(n_max + 1)
    alt = sq[:2]
    for m in range(2, n_max + 1):
        alt.append(sq[m] + alt[m - 2])
    weights = [0] + [2 * a + f2 for a, f2 in zip(alt, sq)]
    return _convolution_report(6, n_max, T, weights, sq)


def verify_identity_7(n_max: int, oracle_n: int = DEFAULT_ORACLE_N) -> IdentityReport:
    """F_{n+1}^2 = 3 F_n^2 - F_{n-1}^2 + 2 (-1)^n.

    For small n the accounting form A_n + A_{n-2} = 3 A_{n-1} + 2 (-1)^n is
    additionally checked against exhaustive enumeration counts.
    """
    if n_max < 1:
        raise ValueError("identity 7 needs n_max >= 1")
    enum_counts = {
        m: sum(1 for _ in enumerate_tilings(m))
        for m in range(min(n_max, oracle_n) + 1)
    }
    rows = []
    for n in range(1, n_max + 1):
        lhs = fib(n + 1) ** 2
        rhs = 3 * fib(n) ** 2 - fib(n - 1) ** 2 + 2 * (-1) ** n
        bins_ok = True
        if 2 <= n <= oracle_n:
            bins_ok = (
                enum_counts[n] + enum_counts[n - 2]
                == 3 * enum_counts[n - 1] + 2 * (-1) ** n
            )
        rows.append(IdentityRow(n, lhs, rhs, bins_ok))
    return _report(7, range(1, n_max + 1), Mode.NUMERIC, rows)


_VERIFIERS = {
    1: verify_identity_1,
    2: verify_identity_2,
    3: verify_identity_3,
    4: verify_identity_4,
    5: verify_identity_5,
    6: verify_identity_6,
    7: verify_identity_7,
}


def verify(
    identity_id: int, n_max: int, combinatorial: bool = False
) -> IdentityReport:
    """Run one identity verifier; combinatorial mode applies to 2..6."""
    fn = _VERIFIERS[identity_id]
    if identity_id in (2, 3, 4, 5, 6) and combinatorial:
        return fn(n_max, combinatorial=True)
    return fn(n_max)


def verify_all(n_max: int, combinatorial: bool = False) -> list[IdentityReport]:
    reports = [verify(i, n_max) for i in range(1, 8)]
    if combinatorial:
        reports.extend(verify(i, n_max, combinatorial=True) for i in range(2, 7))
    return reports
