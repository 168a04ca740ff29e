"""Exact integer sequences attached to the tilings.

All arithmetic uses Python's unbounded integers; nothing here touches
floating point.  Each sequence is an immutable linear-recurrence table:

* fib  -- Fibonacci numbers, F0 = 0, F1 = 1.
* A    -- tilings of an n-board (equals fib(n+1)**2).
* S    -- tilings with no free bifence.
* C    -- tilings with no bifence at all.
* T    -- tilings with no even-length metatile.

A, S, C and T each count the tilings one restriction admits; the
restriction is data, a core.Rule on metatiles (RESTRICTIONS), and
sum_form derives its table, the least recurrence, from the metatile
alphabet by conditioning on the last metatile.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from operator import mul

from .core import _EVERY, Rule, _candidates, _check_length, _rule


class SequenceTable:
    """A linear recurrence a_m = c_1 a_{m-1} + ... + c_d a_{m-d} with
    constant coefficients and initial terms a_0 .. a_{d-1}.

    ``value(n)`` is 0 for n < 0.  A table holds no memo, so it is safe to
    share between threads; it keeps only a_0 .. a_{2d-1}, which value reads.
    """

    def __init__(self, name: str, initial, coefficients):
        self.name = name
        self._initial = tuple(initial)
        self._coefficients = tuple(coefficients)
        if not self._coefficients or len(self._initial) != len(self._coefficients):
            raise ValueError(
                f"{name}: needs at least one coefficient and one initial term each"
            )
        self._terms = tuple(self.values(2 * len(self._coefficients) - 1))

    def value(self, n: int) -> int:
        """a_n in O(log n) products (Fiduccia, "An efficient formula for
        linear recurrences", SIAM J. Comput. 1985): p = x^(n//2) modulo the
        characteristic polynomial chi = x^d - c_1 x^(d-1) - ... - c_d by
        square-and-multiply, each square taking every cross product once.

        The last step never builds x^n (the Hankel form; Bostan & Mori, SOSA
        2021): a_n = sum_i p_i sum_j a_(i+j+n%2) p_j, because the functional
        x^k -> a_k vanishes on every multiple of chi (on x^j chi it is the
        recurrence at a_(j+d)), and x^n = p^2 x^(n%2) modulo chi.  The inner
        sums scale big ints by the small a_0 .. a_(2d-1), so the step makes
        only d big products."""
        if n < 0:
            return 0
        c = self._coefficients
        d = len(c)
        power = [1] + [0] * (d - 1)
        for bit in bin(n >> 1)[2:]:
            square = [0] * (2 * d - 1)
            for i, p in enumerate(power):
                square[2 * i] += p * p
                for j in range(i + 1, d):
                    square[i + j] += (p * power[j]) << 1
            if bit == "1":  # times x, before the one reduction
                square.insert(0, 0)
            for k in range(len(square) - 1, d - 1, -1):
                top = square.pop()
                for i, ci in enumerate(c, 1):
                    square[k - i] += ci * top
            power = square
        a, b = self._terms, n & 1
        return sum(
            p * sum(map(mul, a[i + b : i + b + d], power)) for i, p in enumerate(power)
        )

    def values(self, n_max: int) -> list[int]:
        """[a_0, ..., a_{n_max}], running the recurrence into a fresh list."""
        vals = list(self._initial[: max(n_max + 1, 0)])
        backwards = self._coefficients[::-1]
        d = len(backwards)
        for m in range(len(vals), n_max + 1):
            vals.append(sum(map(mul, backwards, vals[m - d :])))
        return vals


FIB = SequenceTable("fib", (0, 1), (1, 1))


class Restriction(namedtuple("Restriction", "table allowed")):
    """A rule on tilings as data: allowed, a core.Rule, holds the metatiles
    it admits (and, called on one, tells), and table (a SequenceTable)
    counts the n-board tilings made only of those metatiles."""

    __slots__ = ()


def sum_form(allowed: Rule | None, name: str = "sum-form") -> SequenceTable:
    """The least recurrence, named name, of the tilings made only of
    metatiles the Rule allowed admits (every metatile when it is None), by
    conditioning on the last metatile (the SEQ construction, Flajolet &
    Sedgewick, Analytic Combinatorics, I.2): X = 1 / (1 - sum_l c_l x^l),
    where c_l counts the allowed metatiles of l cells.

    c_1..c_5 count the walk's own candidates of at most 5 cells.  From 4
    cells on a rule admits a metatile by the parity of its length, so
    c_l = c_{l-2} for l >= 6 and X = (1 - x^2) / Q, Q = 1 - sum_i q_i x^i,
    q = (c_1, c_2 + 1, c_3 - c_1, c_4 - c_2, c_5 - c_3).  Each factor 1 - r x
    of 1 - x^2 that divides Q (sum_i q_i r^i = 1) is divided out; the least
    order is then max(deg Q, deg numerator + 1) (Stanley, Enumerative
    Combinatorics 1, ch. 4), and the direct sum gives the first terms."""
    c = Counter(len(piece) // 2 for piece in _candidates(5, _rule(allowed)))
    x: list[int] = []
    for m in range(5):
        x.append((m == 0) + sum(c[l] * x[m - l] for l in range(1, m + 1)))
    q = [c[1], c[2] + 1] + [c[l] - c[l - 2] for l in range(3, 6)]
    top = 2  # the numerator's degree
    for r in (1, -1):
        if sum(qi * r**i for i, qi in enumerate(q, 1)) == 1:
            for i in range(5):  # Q = (1 - r x) Q'; q'_5 comes out 0
                q[i] += r * q[i - 1] if i else -r
            top -= 1
    while len(q) > top + 1 and not q[-1]:
        q.pop()
    return SequenceTable(name, x[: len(q)], q)


#: The CLI --filter rules, each with its table from sum_form.  Identities
#: 4-6 condition on the last metatile one of these forbids; identities 2 and
#: 3 on the last one other than hh, and other than LLRR, kept out of them.
RESTRICTIONS = {
    key: Restriction(sum_form(rule, name), rule)
    for key, name, rule in (
        ("none", "A", _EVERY),
        ("no-free-bifence", "S", _EVERY._replace(bifence=False)),
        # no two interlocking fences, so no LLRR in a metatile: none of 4 cells on
        ("no-bifence", "C", Rule(False, (
            ("LhR", ("LhRLhR", "LhRh"), ()),
            ("h", ("hLhR", "hh"), ()),
        ))),
        # the odd lengths: 1 and 3 cells by name, from 4 cells on by parity
        ("odd-metatiles", "T", Rule(False, (
            ("LhR", ("LhRLhR",), (1,)),
            ("h", ("hLLRRh", "hh"), (1,)),
        ))),
    )
}
A, S, C, T = (r.table for r in RESTRICTIONS.values())

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
    """A_n from conditioning on the last metatile (sum_form's table)."""
    return RESTRICTIONS["none"].table.value(n)


def s_via_sum_form(n: int) -> int:
    """S_n from conditioning on the last metatile (any but the bifence)."""
    return RESTRICTIONS["no-free-bifence"].table.value(n)


def t_via_sum_form(n: int) -> int:
    """T_n from conditioning on the last (odd-length) metatile."""
    return RESTRICTIONS["odd-metatiles"].table.value(n)


#: Largest n the CLI count evaluates, and the longest board it enumerates,
#: under any filter, or lists: A_n has about 0.42 n digits, and at n = 10^6
#: value takes 0.3-0.6 s and decimal 2.0-2.4 s (CPython 3.11.7, 2 shared
#: cores); the walk keeps a piece per metatile, about 39 MB at 10^6 cells.
MAX_COUNT_N = 1_000_000

#: Longest board count_halfsquare_square enumerates; its work grows like
#: fib(2n+1), about 3.5 million leaves at the cap.
MAX_HSQ_N = 16


def count_halfsquare_square(n: int) -> int:
    """Brute-force count of n-board tilings by half-squares and unit squares.

    Deliberately an enumeration oracle, not a recurrence; it must come out
    equal to fib(2n+1).  Boards longer than MAX_HSQ_N are rejected.
    """
    _check_length(n)
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
