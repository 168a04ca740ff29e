"""Exact integer sequences attached to the tilings.

All arithmetic uses Python's unbounded integers; nothing here touches
floating point.  Each sequence lives in a memoized, append-only table:

* fib  -- Fibonacci numbers, F0 = 0, F1 = 1.
* A    -- tilings of an n-board (equals fib(n+1)**2).
* S    -- tilings with no free bifence.
* C    -- tilings with no bifence at all.
* T    -- tilings with no even-length metatile.

Every closed recurrence has an independently computed sum-form twin
(conditioning on the last metatile) used for cross-checking.
"""

from __future__ import annotations

import json
import threading


class SequenceTable:
    """Memoized values of a linear recurrence with constant coefficients.

    ``value(n)`` is 0 for n < 0.  The table only grows; extension is
    serialized by a lock, reads of computed prefixes are safe concurrently.
    """

    def __init__(self, name: str, initial, coefficients):
        self.name = name
        self._values = list(initial)
        self._coefficients = tuple(coefficients)
        self._lock = threading.Lock()

    def value(self, n: int) -> int:
        if n < 0:
            return 0
        if n >= len(self._values):
            with self._lock:
                while len(self._values) <= n:
                    m = len(self._values)
                    self._values.append(
                        sum(
                            c * self._values[m - 1 - i]
                            for i, c in enumerate(self._coefficients)
                        )
                    )
        return self._values[n]

    def values(self, n_max: int) -> list[int]:
        self.value(n_max)
        return self._values[: n_max + 1]


FIB = SequenceTable("fib", (0, 1), (1, 1))
A = SequenceTable("A", (1, 1, 4), (2, 2, -1))
S = SequenceTable("S", (1, 1), (2, 1))
C = SequenceTable("C", (1, 1, 3), (1, 2, 1))
T = SequenceTable("T", (1, 1, 1), (1, 1, 1))

TABLES = {t.name: t for t in (FIB, A, S, C, T)}


def fib(n: int) -> int:
    return FIB.value(n)


def count_A(n: int) -> int:
    """Tilings of an n-board with half-squares and fences; A_n = F_{n+1}^2."""
    return A.value(n)


def count_S(n: int) -> int:
    """Tilings with no free bifence; 1, 1, 3, 7, 17, ... (OEIS A001333)."""
    return S.value(n)


def count_C(n: int) -> int:
    """Tilings with no bifence; 1, 1, 3, 6, 13, ... (OEIS A002478)."""
    return C.value(n)


def count_T(n: int) -> int:
    """Tilings with no even-length metatile; a Tribonacci sequence (A000213)."""
    return T.value(n)


def a_via_sum_form(n: int) -> int:
    """A_n from conditioning on the last metatile: one metatile of length 1,
    three of length 2, two of each longer length."""
    if n < 0:
        return 0
    vals: list[int] = []
    for m in range(n + 1):
        total = 1 if m == 0 else 0
        if m >= 1:
            total += vals[m - 1]
        if m >= 2:
            total += 3 * vals[m - 2]
        total += 2 * sum(vals[: m - 2])
        vals.append(total)
    return vals[n]


def s_via_sum_form(n: int) -> int:
    """S_n from conditioning on the last metatile (any but the bifence)."""
    if n < 0:
        return 0
    vals: list[int] = []
    for m in range(n + 1):
        total = 1 if m == 0 else 0
        if m >= 1:
            total += vals[m - 1]
        total += 2 * sum(vals[: m - 1])
        vals.append(total)
    return vals[n]


def t_via_sum_form(n: int) -> int:
    """T_n from conditioning on the last (odd-length) metatile."""
    if n < 0:
        return 0
    vals: list[int] = []
    for m in range(n + 1):
        total = 1 if m == 0 else 0
        if m >= 1:
            total += vals[m - 1]
        total += 2 * sum(vals[m - 1 - 2 * j] for j in range(1, (m - 1) // 2 + 1))
        vals.append(total)
    return vals[n]


def metatile_census(length_cells: int) -> int:
    """Number of metatiles of a given length in cells: 1, 3, then 2 forever."""
    if length_cells < 1:
        raise ValueError("metatile length must be positive")
    if length_cells == 1:
        return 1
    if length_cells == 2:
        return 3
    return 2


#: Longest board count_halfsquare_square enumerates; its work grows like
#: fib(2n+1), about 3.5 million leaves at the cap.
MAX_HSQ_N = 16


def count_halfsquare_square(n: int) -> int:
    """Brute-force count of n-board tilings by half-squares and unit squares.

    Deliberately an enumeration oracle, not a recurrence; it must come out
    equal to fib(2n+1).  Boards longer than MAX_HSQ_N are rejected.
    """
    if n < 0:
        raise ValueError("board length must be non-negative")
    if n > MAX_HSQ_N:
        raise ValueError(
            f"the hsq oracle is exponential; n must be at most {MAX_HSQ_N}, got {n}"
        )
    half = 2 * n

    def walk(p: int) -> int:
        if p == half:
            return 1
        total = walk(p + 1)  # half-square
        if p + 1 < half:
            total += walk(p + 2)  # unit square covers two half-cells
        return total

    return walk(0)


def sequence_csv(name: str, n_max: int) -> str:
    """CSV export, columns n,value; values are decimal text."""
    table = TABLES[name]
    lines = ["n,value"]
    lines.extend(f"{i},{table.value(i)}" for i in range(n_max + 1))
    return "\n".join(lines) + "\n"


def sequence_jsonl(name: str, n_max: int) -> str:
    """JSON-lines export; values as decimal text to avoid precision loss."""
    table = TABLES[name]
    lines = [
        json.dumps({"name": name, "n": i, "value": str(table.value(i))})
        for i in range(n_max + 1)
    ]
    return "\n".join(lines) + "\n"
