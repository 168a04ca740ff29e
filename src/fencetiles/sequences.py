"""Exact integer sequences attached to the tilings.

All arithmetic uses Python's unbounded integers; nothing here touches
floating point.  Each sequence is an immutable linear-recurrence table:

* fib  -- Fibonacci numbers, F0 = 0, F1 = 1.
* A    -- tilings of an n-board (equals fib(n+1)**2).
* S    -- tilings with no free bifence.
* C    -- tilings with no bifence at all.
* T    -- tilings with no even-length metatile.

A, S, C and T each count the tilings one restriction admits; the
restriction is data, a predicate on metatile encodings (RESTRICTIONS), and
sum_form derives a twin of its table from the metatile alphabet
(conditioning on the last metatile) for cross-checking.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable

from .core import metatile_encodings


class SequenceTable:
    """A linear recurrence a_m = c_1 a_{m-1} + ... + c_d a_{m-d} with
    constant coefficients and initial terms a_0 .. a_{d-1}.

    ``value(n)`` is 0 for n < 0.  A table holds no memo, so it is safe to
    share between threads.
    """

    def __init__(self, name: str, initial, coefficients):
        self.name = name
        self._initial = tuple(initial)
        self._coefficients = tuple(coefficients)
        if not self._coefficients or len(self._initial) != len(self._coefficients):
            raise ValueError(
                f"{name}: needs at least one coefficient and one initial term each"
            )

    def _mulmod(self, p: list[int], q: list[int]) -> list[int]:
        """p * q modulo the characteristic polynomial x^d - c_1 x^{d-1} - ... - c_d."""
        d = len(self._coefficients)
        prod = [0] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                prod[i + j] += a * b
        for k in range(len(prod) - 1, d - 1, -1):
            for i, c in enumerate(self._coefficients, 1):
                prod[k - i] += c * prod[k]
        return prod[:d]

    def value(self, n: int) -> int:
        """a_n in O(log n) products: x^n modulo the characteristic polynomial
        by square-and-multiply, dotted with the initial terms (Fiduccia,
        "An efficient formula for linear recurrences", SIAM J. Comput. 1985)."""
        if n < 0:
            return 0
        power = [1]
        for bit in bin(n)[2:]:
            power = self._mulmod(power, power)
            if bit == "1":
                power = self._mulmod(power, [0, 1])
        return sum(r * a for r, a in zip(power, self._initial))

    def values(self, n_max: int) -> list[int]:
        """[a_0, ..., a_{n_max}], running the recurrence into a fresh list."""
        vals = list(self._initial[: max(n_max + 1, 0)])
        for _ in range(len(vals), n_max + 1):
            vals.append(sum(c * vals[-i] for i, c in enumerate(self._coefficients, 1)))
        return vals


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


class Restriction(namedtuple("Restriction", "table allowed")):
    """A rule on tilings as data: allowed(encoding) tells the metatile
    encodings it admits, and table (a SequenceTable) counts the n-board
    tilings made only of those metatiles."""

    __slots__ = ()


#: The CLI --filter rules.  Identities 4-6 condition on the last metatile
#: one of these forbids; identities 2 and 3 on the last one other than hh,
#: and other than LLRR, restrictions kept out of the filters.
RESTRICTIONS = {
    "none": Restriction(A, lambda e: True),
    "no-free-bifence": Restriction(S, lambda e: e != "LLRR"),
    # two interlocking fences show up exactly as adjacent left posts
    "no-bifence": Restriction(C, lambda e: "LL" not in e),
    # a metatile of even length 2j cells has an encoding of 4j symbols
    "odd-metatiles": Restriction(T, lambda e: len(e) % 4 != 0),
}


def sum_form(allowed: Callable[[str], bool]) -> SequenceTable:
    """The table of tilings made only of metatiles allowed admits, derived
    from the metatile alphabet by conditioning on the last metatile (the
    SEQ construction, Flajolet & Sedgewick, Analytic Combinatorics, I.2):
    X_m = [m=0] + sum_l c_l X_{m-l}, where c_l counts the allowed metatiles
    of l cells.

    From 3 cells up a metatile is (h | LhR), then bifences, then (h | LhR).
    A predicate that reads only that family and the parity of l, as every
    one in RESTRICTIONS and the one-metatile ones of identities 2 and 3
    do, has c_l = c_{l-2} for l >= 6, so
    X_m = X_{m-2} + sum_{l<=5} (c_l - c_{l-2}) X_{m-l}: an order-5
    recurrence whose first five terms come from the direct sum.  A
    predicate with c_l != c_{l-2} for some 6 <= l <= 12 is rejected with a
    ValueError; past 12 cells it is trusted.
    """
    c = [0] + [
        sum(1 for e in metatile_encodings(l) if allowed(e)) for l in range(1, 13)
    ]
    for l in range(6, 13):
        if c[l] != c[l - 2]:
            raise ValueError(
                f"sum_form: the predicate admits {c[l]} metatiles of {l} cells "
                f"but {c[l - 2]} of {l - 2}; the order-5 recurrence needs "
                f"c_l = c_(l-2) from l = 6 on, and fails at l = {l}"
            )
    x: list[int] = []
    for m in range(5):
        x.append((m == 0) + sum(c[l] * x[m - l] for l in range(1, m + 1)))
    return SequenceTable(
        "sum-form", x, [c[1], c[2] + 1] + [c[l] - c[l - 2] for l in range(3, 6)]
    )


def a_via_sum_form(n: int) -> int:
    """A_n from conditioning on the last metatile."""
    return sum_form(RESTRICTIONS["none"].allowed).value(n)


def s_via_sum_form(n: int) -> int:
    """S_n from conditioning on the last metatile (any but the bifence)."""
    return sum_form(RESTRICTIONS["no-free-bifence"].allowed).value(n)


def t_via_sum_form(n: int) -> int:
    """T_n from conditioning on the last (odd-length) metatile."""
    return sum_form(RESTRICTIONS["odd-metatiles"].allowed).value(n)


#: Largest n the CLI count evaluates; A_n has about 0.42 n digits, and
#: n = 10^6 takes a few seconds.
MAX_COUNT_N = 1_000_000

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


def decimal(value: int) -> str:
    """Decimal text of an integer of any size: split by the powers of ten
    10^(256 * 2^i), it calls str() only on pieces under 640 digits, the least
    int_max_str_digits CPython allows, so that limit is neither hit nor changed."""
    if value < 0:
        return "-" + decimal(-value)
    powers = [10**256]
    while powers[-1] <= value:
        powers.append(powers[-1] ** 2)

    def digits(v: int, i: int) -> str:  # v < powers[i]
        if i == 0:
            return str(v)
        high, low = divmod(v, powers[i - 1])
        if not high:
            return digits(low, i - 1)
        return digits(high, i - 1) + digits(low, i - 1).zfill(256 << (i - 1))

    return digits(value, len(powers) - 1)


def _values(name: str, n_max: int) -> list[int]:
    if name not in TABLES:
        choices = ", ".join(TABLES)
        raise ValueError(f"unknown sequence {name!r}, expected one of {choices}")
    return TABLES[name].values(n_max)


def sequence_csv(name: str, n_max: int) -> str:
    """CSV export, columns n,value; values are decimal text."""
    lines = ["n,value"]
    lines.extend(f"{i},{decimal(v)}" for i, v in enumerate(_values(name, n_max)))
    return "\n".join(lines) + "\n"


def sequence_jsonl(name: str, n_max: int) -> str:
    """JSON-lines export; values as decimal text to avoid precision loss."""
    import json  # deferred: most processes print no JSON

    lines = [
        json.dumps({"name": name, "n": i, "value": decimal(v)})
        for i, v in enumerate(_values(name, n_max))
    ]
    return "\n".join(lines) + "\n"
