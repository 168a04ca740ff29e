import random
import sys
import threading
from fractions import Fraction
from operator import mul

import pytest

from fencetiles import core, identities
from fencetiles.core import (
    count_tilings,
    decompose,
    enumerate_tilings,
    has_bifence,
    has_even_metatile,
    has_free_bifence,
    metatile_encodings,
)
from fencetiles.core import Rule
from fencetiles.sequences import (
    RESTRICTIONS,
    TABLES,
    SequenceTable,
    _lagrange,
    a_via_sum_form,
    count_A,
    count_C,
    count_S,
    count_T,
    count_halfsquare_square,
    decimal,
    fib,
    s_via_sum_form,
    sum_form,
    t_via_sum_form,
)

#: (initial terms, coefficients) of each table, written out independently of
#: the module under test.
RECURRENCES = {
    "fib": ((0, 1), (1, 1)),
    "A": ((1, 1, 4), (2, 2, -1)),
    "S": ((1, 1), (2, 1)),
    "C": ((1, 1, 3), (1, 2, 1)),
    "T": ((1, 1, 1), (1, 1, 1)),
}


#: The n at which value is checked against an oracle: every n up to 300, and
#: each side of every power of two up to 2^12, where n // 2 gains a bit.
VALUE_POINTS = sorted(
    {*range(301), *(2**k + step for k in range(13) for step in (-1, 0, 1))}
)


class MemoTable:
    """Oracle for SequenceTable: a memoized table that runs the recurrence
    one term at a time, in linear time."""

    def __init__(self, initial, coefficients):
        self._values = list(initial)
        self._coefficients = tuple(coefficients)

    def value(self, n: int) -> int:
        if n < 0:
            return 0
        while len(self._values) <= n:
            m = len(self._values)
            self._values.append(
                sum(c * self._values[m - 1 - i] for i, c in enumerate(self._coefficients))
            )
        return self._values[n]

    def values(self, n_max: int) -> list[int]:
        self.value(n_max)
        return self._values[: n_max + 1]


def fib_pair(n: int) -> tuple[int, int]:
    """(F_n, F_{n+1}) by fast doubling: F_2k = F_k (2 F_{k+1} - F_k) and
    F_{2k+1} = F_k^2 + F_{k+1}^2."""
    if n == 0:
        return 0, 1
    a, b = fib_pair(n // 2)
    c, d = a * (2 * b - a), a * a + b * b
    return (d, c + d) if n % 2 else (c, d)


#: The whole-tiling test each restriction stands for: the tiling holds a
#: metatile the restriction forbids.
FORBIDS = {
    "none": lambda t: False,
    "no-free-bifence": has_free_bifence,
    "no-bifence": has_bifence,
    "odd-metatiles": has_even_metatile,
}

#: The hand-entered recurrence each restriction's table must equal.
RECURRENCE_OF = {"none": "A", "no-free-bifence": "S", "no-bifence": "C", "odd-metatiles": "T"}


def a_sum_form_running(n: int) -> int:
    """A_n from conditioning on the last metatile: one metatile of length 1,
    three of length 2, two of each longer length."""
    if n < 0:
        return 0
    vals: list[int] = []
    older = 0  # vals[0] + ... + vals[m - 3]
    for m in range(n + 1):
        total = 1 if m == 0 else 0
        if m >= 1:
            total += vals[m - 1]
        if m >= 2:
            total += 3 * vals[m - 2]
        if m >= 3:
            older += vals[m - 3]
        total += 2 * older
        vals.append(total)
    return vals[n]


def s_sum_form_running(n: int) -> int:
    """S_n from conditioning on the last metatile (any but the bifence)."""
    if n < 0:
        return 0
    vals: list[int] = []
    older = 0  # vals[0] + ... + vals[m - 2]
    for m in range(n + 1):
        total = 1 if m == 0 else 0
        if m >= 1:
            total += vals[m - 1]
        if m >= 2:
            older += vals[m - 2]
        total += 2 * older
        vals.append(total)
    return vals[n]


def t_sum_form_running(n: int) -> int:
    """T_n from conditioning on the last (odd-length) metatile."""
    if n < 0:
        return 0
    vals: list[int] = []
    tails = [0, 0]  # tails[m % 2] = vals[m - 3] + vals[m - 5] + ...
    for m in range(n + 1):
        total = 1 if m == 0 else 0
        if m >= 1:
            total += vals[m - 1]
        if m >= 3:
            tails[m % 2] += vals[m - 3]
        total += 2 * tails[m % 2]
        vals.append(total)
    return vals[n]


def a_sum_form_quadratic(n: int) -> list[int]:
    """A_0..A_n, re-summing every earlier value at each step."""
    vals: list[int] = []
    for m in range(n + 1):
        total = 1 if m == 0 else 0
        if m >= 1:
            total += vals[m - 1]
        if m >= 2:
            total += 3 * vals[m - 2]
        total += 2 * sum(vals[: m - 2])
        vals.append(total)
    return vals


def s_sum_form_quadratic(n: int) -> list[int]:
    """S_0..S_n, re-summing every earlier value at each step."""
    vals: list[int] = []
    for m in range(n + 1):
        total = 1 if m == 0 else 0
        if m >= 1:
            total += vals[m - 1]
        total += 2 * sum(vals[: m - 1])
        vals.append(total)
    return vals


def t_sum_form_quadratic(n: int) -> list[int]:
    """T_0..T_n, re-summing every earlier value at each step."""
    vals: list[int] = []
    for m in range(n + 1):
        total = 1 if m == 0 else 0
        if m >= 1:
            total += vals[m - 1]
        total += 2 * sum(vals[m - 1 - 2 * j] for j in range(1, (m - 1) // 2 + 1))
        vals.append(total)
    return vals


class TestFib:
    def test_base_cases(self):
        assert fib(0) == 0
        assert fib(1) == 1
        assert fib(2) == 1

    def test_fib_10(self):
        assert fib(10) == 55

    def test_negative_is_zero(self):
        assert fib(-3) == 0

    def test_unbounded_precision(self):
        assert fib(300) == fib(299) + fib(298)
        assert fib(300) > 10**60


class TestCountA:
    def test_initial_values(self):
        assert [count_A(n) for n in range(3)] == [1, 1, 4]

    def test_recurrence_step(self):
        assert count_A(3) == 2 * 4 + 2 * 1 - 1 == 9

    def test_a5(self):
        assert count_A(5) == 64

    @pytest.mark.parametrize("n", range(0, 201, 25))
    def test_equals_fib_squared(self, n):
        assert count_A(n) == fib(n + 1) ** 2

    def test_matches_sum_form_up_to_200(self):
        # the twin reads count_A's table, so both meet the literal recurrence
        oracle = MemoTable(*RECURRENCES["A"]).values(200)
        assert [count_A(n) for n in range(201)] == oracle
        assert [a_via_sum_form(n) for n in range(201)] == oracle


class TestCountS:
    def test_listed_prefix(self):
        assert [count_S(n) for n in range(10)] == [1, 1, 3, 7, 17, 41, 99, 239, 577, 1393]

    def test_s2(self):
        assert count_S(2) == 2 * 1 + 1

    def test_negative_index(self):
        assert count_S(-1) == 0

    def test_matches_sum_form_up_to_200(self):
        # the twin reads count_S's table, so both meet the literal recurrence
        oracle = MemoTable(*RECURRENCES["S"]).values(200)
        assert [count_S(n) for n in range(201)] == oracle
        assert [s_via_sum_form(n) for n in range(201)] == oracle


class TestCountC:
    def test_listed_prefix(self):
        assert [count_C(n) for n in range(10)] == [1, 1, 3, 6, 13, 28, 60, 129, 277, 595]

    def test_c3(self):
        assert count_C(3) == 3 + 2 * 1 + 1 == 6

    def test_negative_index(self):
        assert count_C(-2) == 0


class TestCountT:
    def test_listed_prefix(self):
        assert [count_T(n) for n in range(10)] == [1, 1, 1, 3, 5, 9, 17, 31, 57, 105]

    def test_t3(self):
        assert count_T(3) == 3

    def test_t6(self):
        assert count_T(6) == 17

    def test_matches_sum_form_up_to_200(self):
        # the twin reads count_T's table, so both meet the literal recurrence
        oracle = MemoTable(*RECURRENCES["T"]).values(200)
        assert [count_T(n) for n in range(201)] == oracle
        assert [t_via_sum_form(n) for n in range(201)] == oracle


#: The rules of the one-metatile restrictions identities 2 and 3 condition
#: on, which RESTRICTIONS leaves out of the CLI filters.
ONE_METATILE = {i: identities._IDENTITIES[i].restriction.allowed for i in (2, 3)}

#: The rule of identity 1, which admits no metatile.
NOTHING = identities._IDENTITIES[1].restriction.allowed

#: Every shipped rule, each a core.Rule that sum_form derives a table for.
RULES = {
    **{name: r.allowed for name, r in RESTRICTIONS.items()},
    "only-hh": ONE_METATILE[2],
    "only-LLRR": ONE_METATILE[3],
    "nothing": NOTHING,
}

#: What each rule means, as a predicate on metatile encodings written out
#: independently of its data: the oracle the rules are checked against.
PREDICATES = {
    "none": lambda e: True,
    "no-free-bifence": lambda e: e != "LLRR",
    # two interlocking fences show up exactly as adjacent left posts
    "no-bifence": lambda e: "LL" not in e,
    # a metatile of even length 2j cells has an encoding of 4j symbols
    "odd-metatiles": lambda e: len(e) % 4 != 0,
    "nothing": lambda e: False,
    "only-hh": lambda e: e == "hh",
    "only-LLRR": lambda e: e == "LLRR",
}


class TestSumFormTwins:
    """a/s/t_via_sum_form read the tables sum_form derives from the
    metatile alphabet; the running-sum bodies they replaced and the
    quadratic re-sums stay as oracles."""

    @pytest.mark.parametrize(
        "twin, oracle",
        [
            (a_via_sum_form, a_sum_form_quadratic),
            (s_via_sum_form, s_sum_form_quadratic),
            (t_via_sum_form, t_sum_form_quadratic),
        ],
    )
    def test_running_sums_match_quadratic_form_up_to_300(self, twin, oracle):
        assert [twin(n) for n in range(-2, 301)] == [0, 0] + oracle(300)

    @pytest.mark.parametrize(
        "twin, running",
        [
            (a_via_sum_form, a_sum_form_running),
            (s_via_sum_form, s_sum_form_running),
            (t_via_sum_form, t_sum_form_running),
        ],
    )
    def test_derived_twin_equals_the_running_sums(self, twin, running):
        assert [twin(n) for n in range(-2, 301)] == [running(n) for n in range(-2, 301)]

    @pytest.mark.parametrize("name", sorted(RESTRICTIONS))
    def test_derived_table_is_the_hand_entered_recurrence(self, name):
        initial, coefficients = RECURRENCES[RECURRENCE_OF[name]]
        oracle = MemoTable(initial, coefficients)
        assert sum_form(RESTRICTIONS[name].allowed).values(300) == [
            oracle.value(n) for n in range(301)
        ]
        table = RESTRICTIONS[name].table
        assert table is TABLES[RECURRENCE_OF[name]]
        # the least recurrence is the hand-entered one, term for term
        assert (table._initial, table._coefficients) == (initial, coefficients)

    @pytest.mark.parametrize(
        "ident, period, coefficients",
        [(2, (1,), (1,)), (3, (1, 0), (0, 1))],
        ids=["only-hh", "only-LLRR"],
    )
    def test_one_metatile_tables(self, ident, period, coefficients):
        # all h, or all free bifences: one tiling of every board, or of the
        # even ones; X_m = X_{m-1}, or X_m = X_{m-2}
        allowed = ONE_METATILE[ident]
        expected = [period[n % len(period)] for n in range(301)]
        assert sum_form(allowed).values(300) == expected
        table = identities._IDENTITIES[ident].restriction.table
        assert [table.value(n) for n in range(301)] == expected
        assert (table._initial, table._coefficients) == (period, coefficients)

    def test_nothing_admitted_table(self):
        # only the empty board is tiled without a metatile: X = 1, 0, 0, ...
        expected = [1] + [0] * 300
        assert sum_form(NOTHING).values(300) == expected
        table = identities._IDENTITIES[1].restriction.table
        assert [table.value(n) for n in range(301)] == expected
        assert (table._initial, table._coefficients) == ((1,), (0,))

    @pytest.mark.parametrize("name", sorted(PREDICATES))
    def test_allowed_count_repeats_with_period_two_from_six_cells(self, name):
        # the premise of sum_form's derivation: c_l = c_{l-2} for l >= 6
        allowed = PREDICATES[name]
        c = [sum(1 for e in metatile_encodings(l) if allowed(e)) for l in range(1, 61)]
        assert all(c[l - 1] == c[l - 3] for l in range(6, 61))

    @pytest.mark.parametrize(
        "allowed, kind",
        [(PREDICATES["none"], "function"), (tuple(RULES["none"]), "tuple")],
        ids=["predicate", "bare-tuple"],
    )
    def test_a_restriction_that_is_no_rule_is_a_type_error(self, allowed, kind):
        # sum_form reads no predicate: it names the type it takes
        with pytest.raises(TypeError, match=rf"^a restriction is a core\.Rule, not {kind}$"):
            sum_form(allowed)

    def test_the_counts_the_unchecked_table_missed(self):
        # the exhaustive counts for metatiles of at most 4 cells, where the
        # unchecked order-5 table read 165, 421, 1100
        counts = [
            count_tilings(n, lambda t: all(len(e) <= 8 for e in t.pieces))
            for n in (6, 7, 8)
        ]
        assert counts == [163, 417, 1080]


def subsets(items):
    """Every subset of items, each in the order of items."""
    return [
        tuple(x for k, x in enumerate(items) if mask >> k & 1)
        for mask in range(2 ** len(items))
    ]


#: The whole finite rule space: whether LLRR is admitted, and per lead the
#: admitted metatiles under 4 cells and the admitted parities from 4 cells
#: on; 2 * (4 * 4) * (8 * 4) = 1,024 rules.
EVERY_RULE = [
    Rule(bifence, (("LhR", lhr, lhr_parities), ("h", h, h_parities)))
    for bifence in (False, True)
    for lhr in subsets(("LhRLhR", "LhRh"))
    for lhr_parities in subsets((0, 1))
    for h in subsets(("hLLRRh", "hLhR", "hh"))
    for h_parities in subsets((0, 1))
]


def order_five(rule):
    """The order-5 recurrence the least one is reduced from, as
    (initial terms, coefficients): c_l = c_{l-2} for l >= 6 folds
    X_m = [m=0] + sum_l c_l X_{m-l} into
    X_m = X_{m-2} + sum_{l<=5} (c_l - c_{l-2}) X_{m-l}, with five initial
    terms from the direct sum.  c_l is counted by calling the rule on every
    metatile of l cells."""
    c = {l: sum(map(rule, metatile_encodings(l))) for l in range(1, 6)}
    x = []
    for m in range(5):
        x.append((m == 0) + sum(c[l] * x[m - l] for l in range(1, m + 1)))
    return x, [c[1], c[2] + 1] + [c[l] - c[l - 2] for l in range(3, 6)]


def berlekamp_massey(terms):
    """The shortest linear recurrence the terms obey, as its coefficients
    c_1..c_L, over the rationals (Massey, IEEE Trans. Inf. Theory 1969).
    On 2L terms or more of a sequence whose least order is L, it is that
    sequence's least recurrence."""
    conn, prev = [Fraction(1)], [Fraction(1)]
    order, gap, prev_delta = 0, 1, Fraction(1)
    for n, term in enumerate(terms):
        delta = term + sum(conn[i] * terms[n - i] for i in range(1, order + 1))
        if not delta:
            gap += 1
            continue
        old = conn[:]
        conn += [Fraction(0)] * (len(prev) + gap - len(conn))
        for i, p in enumerate(prev):
            conn[i + gap] -= delta / prev_delta * p
        if 2 * order <= n:
            order, prev, prev_delta, gap = n + 1 - order, old, delta, 1
        else:
            gap += 1
    conn += [Fraction(0)] * (order + 1 - len(conn))
    return [-k for k in conn[1 : order + 1]]


class TestLeastRecurrence:
    """sum_form returns the least recurrence: the same table as the order-5
    construction, at the order Berlekamp-Massey finds."""

    def test_every_rule_is_its_order_five_construction_at_least_order(self):
        assert len(set(EVERY_RULE)) == 1024
        for rule in EVERY_RULE:
            table = sum_form(rule)
            terms = table.values(59)
            assert terms == MemoTable(*order_five(rule)).values(59), rule
            least = berlekamp_massey(terms[:10])  # the least order is at most 5
            assert list(table._coefficients) == least, rule
            assert len(table._initial) == len(least), rule
            assert all(type(v) is int for v in table._initial + table._coefficients)


def built_and_filtered(cells, allowed):
    """The candidates of a walk frame as the walk once took them: every
    metatile of at most `cells` cells built, in encoding order, and those
    allowed admits kept."""
    if cells >= 2 and allowed("LLRR"):
        yield "LLRR"
    for lead, shortest in (("LhR", 2), ("h", 1)):
        for length in range(cells, shortest - 1, -1):
            piece = core._metatile(lead, length)
            if allowed(piece):
                yield piece


class TestCandidateRule:
    """Each shipped core.Rule, the data both the walk's candidates and
    sum_form take, against the predicate it stands for."""

    @pytest.mark.parametrize("name", sorted(RULES))
    def test_the_rule_is_its_predicate_up_to_60_cells(self, name):
        rule, allowed = RULES[name], PREDICATES[name]
        for l in range(1, 61):
            for e in metatile_encodings(l):
                assert rule(e) is allowed(e), e

    @pytest.mark.parametrize("name", sorted(RULES))
    def test_candidates_are_the_built_and_filtered_ones(self, name):
        allowed = PREDICATES[name]
        for cells in range(61):
            candidates = list(core._candidates(cells, RULES[name]))
            assert candidates == list(built_and_filtered(cells, allowed)), cells
            assert candidates == sorted(
                e for l in range(1, cells + 1) for e in metatile_encodings(l)
                if allowed(e)
            ), cells


class TestFilteredEnumerationOracle:
    """The recurrences must reproduce the exhaustive filtered counts."""

    @pytest.mark.parametrize("n", range(0, 13))
    def test_unrestricted_is_A(self, n):
        assert count_tilings(n) == count_A(n)

    @pytest.mark.parametrize("n", range(0, 11))
    def test_no_free_bifence_is_S(self, n):
        assert count_tilings(n, lambda t: not has_free_bifence(t)) == count_S(n)

    @pytest.mark.parametrize("n", range(0, 11))
    def test_no_bifence_is_C(self, n):
        assert count_tilings(n, lambda t: not has_bifence(t)) == count_C(n)

    @pytest.mark.parametrize("n", range(0, 11))
    def test_no_bifence_means_only_four_metatiles(self, n):
        allowed = {"hh", "LhRh", "hLhR", "LhRLhR"}
        for t in enumerate_tilings(n, RESTRICTIONS["no-bifence"].allowed):
            assert {piece for _, piece in decompose(t)} <= allowed

    @pytest.mark.parametrize("name", sorted(RESTRICTIONS))
    def test_pruned_walk_is_the_filtered_walk(self, name):
        # same tilings, same pieces, same order as generate-then-discard
        for n in range(13):
            pruned = enumerate_tilings(n, RESTRICTIONS[name].allowed)
            kept = (t for t in enumerate_tilings(n) if not FORBIDS[name](t))
            assert [(t.encoding, t.pieces) for t in pruned] == [
                (t.encoding, t.pieces) for t in kept
            ]

    @pytest.mark.parametrize("name", sorted(RESTRICTIONS))
    def test_record_predicate_agrees_with_the_tiling_test(self, name):
        allowed = RESTRICTIONS[name].allowed
        for n in range(11):
            for t in enumerate_tilings(n):
                assert all(map(allowed, t.pieces)) == (not FORBIDS[name](t))

    @pytest.mark.parametrize("n", range(0, 11))
    def test_odd_metatiles_only_is_T(self, n):
        assert count_tilings(n, lambda t: not has_even_metatile(t)) == count_T(n)


class TestMetatileCensus:
    def test_census_values(self):
        assert len(metatile_encodings(1)) == 1
        assert len(metatile_encodings(2)) == 3
        assert len(metatile_encodings(7)) == 2

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            len(metatile_encodings(0))

    @pytest.mark.parametrize("l", range(1, 13))
    def test_census_matches_brute_force(self, l):
        boundary_free = sum(
            1 for t in enumerate_tilings(l) if len(decompose(t)) == 1
        )
        assert boundary_free == len(metatile_encodings(l))


class TestHalfSquareSquare:
    def test_small_boards(self):
        assert count_halfsquare_square(0) == 1
        assert count_halfsquare_square(1) == 2
        assert count_halfsquare_square(4) == 34

    @pytest.mark.parametrize("n", range(0, 9))
    def test_equals_odd_indexed_fibonacci(self, n):
        assert count_halfsquare_square(n) == fib(2 * n + 1)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            count_halfsquare_square(-1)


class TestSequenceTable:
    def test_values_prefix(self):
        table = SequenceTable("fib2", (0, 1), (1, 1))
        assert table.values(6) == [0, 1, 1, 2, 3, 5, 8]

    def test_concurrent_extension_is_consistent(self):
        table = SequenceTable("demo", (1, 1), (1, 1))
        results = []

        def worker():
            results.append(table.value(400))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert len(set(results)) == 1
        assert results[0] == table.value(399) + table.value(398)

    @pytest.mark.parametrize(
        "initial, coefficients",
        [((), ()), ((1,), (1, 1)), ((0, 1, 2), (1, 1)), ((1,), ())],
    )
    def test_rejects_initial_terms_not_one_per_coefficient(self, initial, coefficients):
        with pytest.raises(ValueError):
            SequenceTable("bad", initial, coefficients)

    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_negative_index_is_zero_and_values_empty(self, name):
        table = TABLES[name]
        assert [table.value(n) for n in (-1, -2, -50)] == [0, 0, 0]
        assert table.values(-1) == [] and table.values(-4) == []

    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_values_below_the_order_are_a_prefix_of_the_initial_terms(self, name):
        initial, _ = RECURRENCES[name]
        for k in range(len(initial)):
            assert TABLES[name].values(k) == list(initial[: k + 1])

    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_value_matches_memo_oracle_up_to_500(self, name):
        oracle = MemoTable(*RECURRENCES[name])
        table = TABLES[name]
        assert [table.value(i) for i in range(501)] == [oracle.value(i) for i in range(501)]

    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_values_match_memo_oracle_up_to_500(self, name):
        oracle = MemoTable(*RECURRENCES[name])
        expected = [oracle.value(i) for i in range(501)]
        table = TABLES[name]
        assert all(table.values(n) == expected[: n + 1] for n in range(501))

    def test_order_one_recurrence(self):
        table = SequenceTable("powers", (5,), (3,))
        assert [table.value(n) for n in range(6)] == [5 * 3**n for n in range(6)]
        assert table.values(5) == [5 * 3**n for n in range(6)]

    @pytest.mark.parametrize("order", range(1, 7))
    def test_random_recurrences_match_memo_oracle(self, order):
        # negative coefficients, and a last coefficient of 0 in every other
        # table: the order is that of the table, not of its sequence
        rng = random.Random(order)
        for k in range(6):
            coefficients = [rng.randint(-3, 3) for _ in range(order)]
            if k % 2:
                coefficients[-1] = 0
            initial = [rng.randint(-5, 5) for _ in range(order)]
            table = SequenceTable("random", initial, coefficients)
            oracle = MemoTable(initial, coefficients)
            assert [table.value(n) for n in VALUE_POINTS] == [
                oracle.value(n) for n in VALUE_POINTS
            ], (initial, coefficients)

    @pytest.mark.parametrize("name", sorted(RULES))
    def test_sum_form_value_matches_its_values(self, name):
        table = sum_form(RULES[name])
        expected = table.values(VALUE_POINTS[-1])
        assert [table.value(n) for n in VALUE_POINTS] == [
            expected[n] for n in VALUE_POINTS
        ]

    @pytest.mark.parametrize("n", [29999, 30000, 65537])
    def test_big_values_match_fast_doubling(self, n):
        assert fib(n) == fib_pair(n)[0]
        assert count_A(n) == fib_pair(n + 1)[0] ** 2

    @pytest.mark.parametrize("name", ["S", "C", "T"])
    def test_big_values_match_memo_oracle(self, name):
        assert TABLES[name].value(5000) == MemoTable(*RECURRENCES[name]).value(5000)


def hankel_value(table: SequenceTable, n: int) -> int:
    """Oracle for value at big n: the same p = x^(n//2) modulo chi, each
    square by d squares and a product per cross term, and the Hankel
    finish a_n = sum_i p_i sum_j a_(i+j+n%2) p_j by d products, no squares."""
    if n < 0:
        return 0
    c = table._coefficients
    d = len(c)
    power = [1] + [0] * (d - 1)
    for bit in bin(n >> 1)[2:]:
        square = [0] * (2 * d - 1)
        for i, p in enumerate(power):
            square[2 * i] += p * p
            for j in range(i + 1, d):
                square[i + j] += (p * power[j]) << 1
        if bit == "1":
            square.insert(0, 0)
        for k in range(len(square) - 1, d - 1, -1):
            top = square.pop()
            for i, ci in enumerate(c, 1):
                square[k - i] += ci * top
        power = square
    a, b = table.values(2 * d - 1), n & 1
    return sum(
        p * sum(map(mul, a[i + b : i + b + d], power)) for i, p in enumerate(power)
    )


def hankel(table: SequenceTable, b: int) -> list[list[int]]:
    """H_b = (a_(i+j+b))_(i,j<d), the form of value's last step at n % 2 = b."""
    d = len(table._coefficients)
    a = table.values(2 * d)
    return [a[i + b : i + b + d] for i in range(d)]


#: Tables the reduction must take apart beyond the named ones: "alt"
#: (a_n = n mod 2) has H_0 = [[0, 1], [1, 0]], a zero diagonal, so Lagrange's
#: second case; "zero" is the zero form, which leaves no square at all.
HAND_BUILT = {
    "alt": SequenceTable("alt", (0, 1), (0, 1)),
    "zero": SequenceTable("zero", (0,), (1,)),
}

#: Every named table: the five of TABLES and the identities' own.
NAMED = {
    **TABLES,
    **{
        f"identity-{i}": ident.restriction.table
        for i, ident in identities._IDENTITIES.items()
        if ident.restriction is not None
    },
}


class TestSquaresKernel:
    """value makes only squares: the square step forms each cross product
    from squares, and the finish is the Lagrange-reduced Hankel form.  The
    product-and-Hankel finish it replaced is the big-n oracle."""

    @pytest.mark.parametrize("n", [30000, 30001, 123457])
    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_big_values_match_the_hankel_product_finish(self, name, n):
        assert TABLES[name].value(n) == hankel_value(TABLES[name], n)

    def test_every_rule_table_matches_its_values_and_the_oracle(self):
        # value reads only the table's terms, so each of the 216 distinct
        # tables of the 1,024 rules is checked once
        tables = {}
        for rule in EVERY_RULE:
            table = sum_form(rule)
            tables.setdefault((table._initial, table._coefficients), table)
        assert len(tables) == 216
        for key, table in tables.items():
            assert [table.value(n) for n in range(81)] == table.values(80), key
            for n in (1001, 2000):
                assert table.value(n) == hankel_value(table, n), (key, n)

    @pytest.mark.parametrize("name", sorted({**NAMED, **HAND_BUILT}))
    def test_reduction_is_an_identity_of_forms(self, name):
        # s p^T H p = sum_k e_k (w_k . p)^2 on random integer p, both parities
        table = {**NAMED, **HAND_BUILT}[name]
        rng = random.Random(name)
        for b in (0, 1):
            form = hankel(table, b)
            s, terms = _lagrange(form)
            assert s and len(terms) <= len(form)
            for _ in range(50):
                p = [rng.randint(-10**30, 10**30) for _ in form]
                quadratic = sum(pi * sum(map(mul, row, p)) for pi, row in zip(p, form))
                assert s * quadratic == sum(
                    e * sum(map(mul, w, p)) ** 2 for e, w in terms
                ), (b, p)

    def test_zero_diagonal_takes_the_difference_of_two_squares(self):
        form = hankel(HAND_BUILT["alt"], 0)
        assert form == [[0, 1], [1, 0]]
        s, terms = _lagrange(form)
        # 2h Q = ((H_0 + H_1) . p)^2 - ((H_0 - H_1) . p)^2 with h = 1
        assert (s, terms) == (2, [(1, [1, 1]), (-1, [1, -1])])

    def test_zero_form_leaves_no_square(self):
        assert hankel(HAND_BUILT["zero"], 0) == hankel(HAND_BUILT["zero"], 1) == [[0]]
        assert _lagrange([[0]]) == (1, [])
        assert _lagrange([[0, 0], [0, 0]]) == (1, [])

    @pytest.mark.parametrize("name", sorted(HAND_BUILT))
    def test_hand_built_tables_match_their_values(self, name):
        table = HAND_BUILT[name]
        expected = table.values(VALUE_POINTS[-1])
        assert [table.value(n) for n in VALUE_POINTS] == [
            expected[n] for n in VALUE_POINTS
        ]
        period = {"alt": [0, 1], "zero": [0]}[name]
        assert expected == [period[n % len(period)] for n in range(len(expected))]


#: Integers for the decimal conversion, around the 256-digit pieces it cuts.
VALUES = {
    "0": 0,
    "7": 7,
    "-7": -7,
    "10^256-1": 10**256 - 1,
    "10^256": 10**256,
    "10^512+1": 10**512 + 1,
    "10^5000": 10**5000,
    "3^40000": 3**40000,
    "-7^9000": -(7**9000),
}


class TestDecimal:
    @staticmethod
    def by_limbs(value: int) -> str:
        """Decimal text by repeated division into base-10^9 limbs."""
        sign, value = ("-", -value) if value < 0 else ("", value)
        limbs = []
        while True:
            value, limb = divmod(value, 10**9)
            limbs.append(limb)
            if not value:
                break
        return sign + str(limbs[-1]) + "".join(f"{x:09d}" for x in reversed(limbs[:-1]))

    @pytest.mark.parametrize("label", sorted(VALUES))
    def test_matches_limb_conversion(self, label):
        assert decimal(VALUES[label]) == self.by_limbs(VALUES[label])

    def test_works_under_the_lowest_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            text = decimal(fib(30000))
        finally:
            sys.set_int_max_str_digits(limit)
        assert text == self.by_limbs(fib(30000))
