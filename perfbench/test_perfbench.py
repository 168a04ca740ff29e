"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

import pytest

import checks
import tracing
import workloads
from checks import CheckError
from layers import LAYER_MAP
from stats import percentile, summary
from tracing import Span, Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent


# --- stats -------------------------------------------------------------------


def test_percentile_reports_rank_and_sample_count():
    values = list(range(100, 0, -1))
    assert percentile(values, 50) == (50, 100, 50)
    assert percentile(values, 90) == (90, 100, 10)
    assert percentile(values, 100) == (100, 100, 0)
    assert percentile([7.5], 90) == (7.5, 1, 0)


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1, 2], 0)


def test_summary_quartiles():
    assert summary([4, 1, 3, 2, 5]) == {"median": 3, "q1": 1.5, "q3": 4.5, "samples": 5}
    assert summary([2.0]) == {"median": 2.0, "q1": 2.0, "q3": 2.0, "samples": 1}


# --- tracing -----------------------------------------------------------------


def test_self_time_of_nested_spans():
    spans = [
        Span(1, "root", None, "r", 0.0, 10.0, 0.0, 0.5),
        Span(2, "a", 1, "r", 1.0, 4.0, 0.0, 0.0),
        Span(3, "b", 1, "r", 5.0, 9.0, 0.0, 0.0),
        Span(4, "c", 3, "r", 6.0, 7.0, 0.0, 0.0),
    ]
    assert self_times(spans) == {1: 2.5, 2: 3.0, 3: 3.0, 4: 1.0}


def test_self_time_clips_overlapping_children():
    spans = [
        Span(1, "root", None, "r", 0.0, 10.0, 0.0, 0.0),
        Span(2, "a", 1, "r", 2.0, 6.0, 0.0, 0.0),
        Span(3, "b", 1, "r", 4.0, 12.0, 0.0, 0.0),
    ]
    assert self_times(spans)[1] == 2.0


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def work(self, seconds):
        self.now += seconds


def test_tracer_attributes_time_to_spans_and_counters(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(tracing.time, "perf_counter", clock)
    tracer = Tracer("test")

    def leaf(x):
        clock.work(1.0)
        return x

    traced_leaf = tracer.leaf("core.leaf", leaf)

    def middle(x):
        clock.work(2.0)
        return traced_leaf(x) + traced_leaf(x)

    traced_middle = tracer.hot("core.middle", middle)

    def items(n):
        for i in range(n):
            clock.work(0.5)
            yield traced_middle(i)

    traced_items = tracer.hot_iter("core.items", items)

    def outer():
        clock.work(3.0)
        return sum(traced_items(2))

    traced_outer = tracer.span("identities.outer", outer)
    assert traced_outer() == 2

    (span,) = tracer.spans
    assert (span.name, span.end - span.start) == ("identities.outer", 12.0)
    assert self_times(tracer.spans) == {span.id: 3.0}
    calls, total, child, items_seen, _ = tracer.counters["core.items"][span.id]
    assert (calls, total, child, items_seen) == (3, 9.0, 8.0, 2)
    calls, total, child, _, _ = tracer.counters["core.middle"][span.id]
    assert (calls, total, child) == (2, 8.0, 4.0)
    assert tracer.counters["core.leaf"][span.id][:3] == [4, 4.0, 0.0]


def test_patch_replaces_every_binding_and_uninstall_restores():
    class Module:
        pass

    def original():
        return 1

    a, b = Module(), Module()
    a.f = b.g = original
    tracer = Tracer("test")
    tracer.patch([a, b], original, lambda: 2)
    assert (a.f(), b.g()) == (2, 2)
    tracer.uninstall()
    assert a.f is original and b.g is original


# --- independent checks ------------------------------------------------------


def all_tilings(n):
    """Brute force: every string over h, L, R of length 2n that is a tiling."""
    for letters in itertools.product("hLR", repeat=2 * n):
        enc = "".join(letters)
        try:
            checks.check_tiling(enc)
        except CheckError:
            continue
        yield enc


def test_small_exhaustive_counts():
    assert (checks.count_A(4), checks.count_S(4), checks.count_C(4),
            checks.count_T(4)) == (25, 17, 13, 5)
    for n in range(6):
        tilings = list(all_tilings(n))
        assert len(tilings) == checks.count_A(n)
        for name, count in checks.FILTER_COUNTS.items():
            kept = [e for e in tilings if checks.passes_filter(checks.metatiles(e), name)]
            assert len(kept) == count(n), (name, n)


def test_fib_and_matrix_powers_match_naive_recurrences():
    a, b = 0, 1
    for n in range(80):
        assert checks.fib(n) == a
        a, b = b, a + b
    for coefficients, initial in (((2, 1), (1, 1)), ((1, 2, 1), (1, 1, 3)),
                                  ((1, 1, 1), (1, 1, 1))):
        values = list(initial)
        while len(values) < 60:
            values.append(sum(c * values[-1 - i] for i, c in enumerate(coefficients)))
        assert [checks.linear_recurrence(coefficients, initial, n)
                for n in range(60)] == values


def test_metatile_census_and_decomposition():
    for n, census in ((1, 1), (2, 3), (3, 2), (4, 2), (5, 2)):
        assert sum(checks.is_metatile(e) for e in all_tilings(n)) == census
    assert checks.metatiles("hLLRRhLhRhhh") == ["hLLRRh", "LhRh", "hh"]
    checks.check_decomposition("hLLRRhLhRhhh", ["hLLRRh", "LhRh", "hh"])
    with pytest.raises(CheckError):
        checks.check_decomposition("hLLRRhLhRhhh", ["hLLRRh", "LhRhhh"])
    with pytest.raises(CheckError):
        checks.check_decomposition("LhRhhh", ["LhRh", "h"])


def test_tiling_validator_rejects_malformed_encodings():
    for bad in ("h", "LR", "LhhR", "hRhL", "LLRh", "hx"):
        with pytest.raises(CheckError):
            checks.check_tiling(bad)
    assert checks.check_tiling("LhRLLRRh") == 4


def test_enumeration_check():
    lines = sorted(all_tilings(3))
    checks.check_enumeration(lines, 3, "none")
    with pytest.raises(CheckError):
        checks.check_enumeration(lines[::-1], 3, "none")
    with pytest.raises(CheckError):
        checks.check_enumeration(lines[:-1], 3, "none")
    with pytest.raises(CheckError):
        checks.check_enumeration(lines[:3], 3, "no-bifence", limit=3)
    kept = [e for e in lines if "LL" not in e]
    checks.check_enumeration(kept[:3], 3, "no-bifence", limit=3)


def test_pictures():
    assert checks.ascii_picture("LhRh") == "[h]h\n+-+-+\n"
    svg = ('<svg xmlns="http://www.w3.org/2000/svg" width="60">'
           + '<rect/>' * 2 + '<line/>' * 2 + "</svg>")
    checks.check_svg("hh", svg)
    with pytest.raises(CheckError):
        checks.check_svg("LhRh", svg)


def test_identity_left_hand_sides():
    assert [checks.numeric_lhs(1, n) for n in range(2, 6)] == [1, 4, 9, 25]
    assert checks.combinatorial_lhs(2, 0) == 3  # A_2 - 1
    assert checks.combinatorial_lhs(4, 4) == 25 - 17
    assert checks.audit_expectation(4) == {"lhs": 25 + 4, "rhs": 3 * 9 + 2,
                                           "side": "source", "count": 2}


def test_parse_verify():
    out = ("identity 4 (numeric), n = 0..1\n  n=0   lhs=1 rhs=1 pass\n"
           "  n=1   lhs=1 rhs=1 pass\n  all pass\nall pass\n")
    assert workloads.parse_verify(out) == [(4, "numeric", [(0, 1, 1, True),
                                                           (1, 1, 1, True)])]
    with pytest.raises(CheckError):
        workloads.parse_verify(out.replace("all pass\n", "FAIL\n"))


# --- workloads ---------------------------------------------------------------


def test_job_lists_cover_the_stated_tilings():
    assert sum(op.tilings for op in workloads.oracle_ops(None, random.Random(0))) == 394_501
    assert sum(op.tilings for op in workloads.bigint_ops(None, random.Random(0))) == 87_841


def test_seed_sets_order_not_sizes():
    a, b = workloads.build("cli", 1), workloads.build("cli", 2)
    assert [op.name for op in a] == [op.name for op in workloads.build("cli", 1)]
    assert [op.name for op in a] != [op.name for op in b]
    fixed = sorted(op.name for op in a if op.fixed)
    assert fixed == sorted(op.name for op in b if op.fixed)
    assert set(fixed) == set(workloads.load_goldens())
    oracle = sorted(op.name for op in workloads.oracle_ops(None, random.Random(5)))
    assert oracle == sorted(op.name for op in workloads.oracle_ops(None, random.Random(6)))


def test_cli_mix_shape():
    ops = workloads.build("cli", 7)
    assert len(ops) >= 100
    streams = [op for op in ops if op.tilings > 1000 or "--combinatorial" in op.argv]
    assert 0.10 <= len(streams) / len(ops) <= 0.20
    for op in ops:
        if op.argv[0] in ("decompose", "render") and not op.fixed:
            checks.check_tiling(op.argv[1])


def test_benchmark_spec_names_every_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(LAYER_MAP)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "wall_s", "tilings_per_s", "cmd_p50_ms", "cmd_p90_ms", "peak_rss_mb"}
    assert {w["name"] for w in spec["workloads"]} == {"oracle", "bigint", "cli"}


def test_scaling_to_reference_speed():
    from speed import BARE_START_S, REFERENCE_S, scale, scale_process

    assert scale(2.0, 2 * REFERENCE_S, REFERENCE_S) == 1.0
    # a process on a machine twice as slow: bare start 2x, the rest 2x
    slow = scale_process(2 * BARE_START_S + 0.2, 2 * BARE_START_S, 2 * REFERENCE_S)
    assert abs(slow - (BARE_START_S + 0.1)) < 1e-12
    assert scale_process(0.01, BARE_START_S, REFERENCE_S) == BARE_START_S


def test_failed_call_is_recorded_not_raised():
    from runner import run_call

    def boom():
        raise ValueError("no")

    failed = run_call(workloads.Op("boom", lambda result: None, run=boom))
    wrong = run_call(workloads.Op("wrong", workloads.check_equals(2), run=lambda: 1))
    right = run_call(workloads.Op("right", workloads.check_equals(1), run=lambda: 1))
    assert (failed["ok"], wrong["ok"], right["ok"]) == (False, False, True)
    assert failed["error"] == "ValueError: no"
    assert all("scaled_s" in r for r in (failed, wrong, right))
