"""Acceptance suite: one test per criterion, one pass/fail line each.

Every check is exact integer arithmetic; run with ``pytest -s`` to see the
per-criterion lines.
"""

import pytest

from fencetiles.bijection import b_inverse, b_map, cassini_audit
from fencetiles.core import (
    count_tilings,
    decompose,
    enumerate_tilings,
    has_bifence,
    has_even_metatile,
    has_free_bifence,
    metatile_encodings,
)
from fencetiles.identities import verify
from fencetiles.render import FORMATS, render
from fencetiles.sequences import (
    a_via_sum_form,
    count_A,
    count_C,
    count_S,
    count_T,
    count_halfsquare_square,
    fib,
    s_via_sum_form,
    t_via_sum_form,
)

EXPECTED_COUNTS = [
    1, 1, 4, 9, 25, 64, 169, 441, 1156, 3025, 7921, 20736, 54289, 142129, 372100,
]


def report(criterion: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {criterion}")
    assert ok, criterion


def test_criterion_1_oracle_theorem_agreement():
    counts = [count_tilings(n) for n in range(15)]
    ok = counts == EXPECTED_COUNTS and all(
        counts[n] == fib(n + 1) ** 2 for n in range(15)
    )
    report("criterion 1: enumeration count equals fib(n+1)^2 for n=0..14", ok)


def test_criterion_2_metatile_census():
    expected = [1, 3] + [2] * 10
    brute = [
        sum(1 for t in enumerate_tilings(l) if len(decompose(t)) == 1)
        for l in range(1, 13)
    ]
    census = [len(metatile_encodings(l)) for l in range(1, 13)]
    ok = brute == expected and census == expected
    report("criterion 2: metatile census 1,3,2,2,... for lengths 1..12", ok)


def test_criterion_3_restricted_counts():
    s_expected = [1, 1, 3, 7, 17, 41, 99, 239, 577, 1393]
    c_expected = [1, 1, 3, 6, 13, 28, 60, 129, 277, 595]
    t_expected = [1, 1, 1, 3, 5, 9, 17, 31, 57, 105]
    ok = (
        [count_S(n) for n in range(10)] == s_expected
        and [count_C(n) for n in range(10)] == c_expected
        and [count_T(n) for n in range(10)] == t_expected
    )
    for n in range(13):
        ok = ok and count_tilings(n, lambda t: not has_free_bifence(t)) == count_S(n)
        ok = ok and count_tilings(n, lambda t: not has_bifence(t)) == count_C(n)
        ok = ok and count_tilings(n, lambda t: not has_even_metatile(t)) == count_T(n)
    report("criterion 3: filtered enumeration matches S, C, T for n=0..12", ok)


def test_criterion_4_identity_suite():
    ok = all(verify(i, 50).all_pass for i in range(1, 8))
    # each identity's rows stop at its last board of at most 14 cells:
    # n - 1 cells for identity 1, n + 2 for 2, 2n + 1 for 3 and n for 4-7
    last = {1: 15, 2: 12, 3: 6, 4: 14, 5: 14, 6: 14, 7: 14}
    for i, n_max in last.items():
        r = verify(i, 50, combinatorial=True)
        ok = ok and r.all_pass and r.n_max == n_max
    report(
        "criterion 4: identities 1-7 numeric to n=50; 1-6 combinatorial "
        "bin-by-bin and 7 by the Cassini audit, within the oracle range",
        ok,
    )


def test_criterion_5_bijection_audit():
    ok = True
    for n in range(2, 11):
        sources = [
            t
            for t in enumerate_tilings(n)
            if t.encoding.endswith("R") and "h" in t.encoding
        ]
        targets = {
            t.encoding for t in enumerate_tilings(n - 1) if "h" in t.encoding
        }
        images = [b_map(t).encoding for t in sources]
        ok = ok and len(set(images)) == len(images) and set(images) == targets
        ok = ok and all(
            b_inverse(b_map(t)).encoding == t.encoding for t in sources
        )
    for n in range(3, 11):
        audit = cassini_audit(n)
        ok = ok and audit.balanced and audit.exception_count == 2
        ok = ok and audit.exception_side == ("source" if n % 2 == 0 else "target")
    report("criterion 5: b_map bijective for n=2..10; audit balanced for n=3..10", ok)


def test_criterion_6_cross_recurrence_consistency():
    ok = all(count_A(n) == a_via_sum_form(n) for n in range(201))
    ok = ok and all(count_S(n) == s_via_sum_form(n) for n in range(201))
    ok = ok and all(count_T(n) == t_via_sum_form(n) for n in range(201))
    ok = ok and all(
        count_halfsquare_square(n) == fib(2 * n + 1) for n in range(9)
    )
    report("criterion 6: sum forms agree to n=200; half-square+square = F_{2n+1}", ok)


def test_criterion_7_determinism():
    first = [t.encoding for t in enumerate_tilings(6)]
    second = [t.encoding for t in enumerate_tilings(6)]
    ok = first == second
    for enc_source in ("hLhR", "LhRLLRRh"):
        from fencetiles.core import validate

        t = validate(enc_source)
        for fmt in FORMATS:
            ok = ok and render(t, fmt) == render(t, fmt)
    report("criterion 7: enumeration and rendering are byte-deterministic", ok)
