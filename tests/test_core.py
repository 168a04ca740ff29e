import functools
import importlib
import inspect
import itertools
import re
import time
import tracemalloc

import pytest

from fencetiles import bijection, core, sequences
from fencetiles.core import (
    ALPHABET,
    InvalidTilingError,
    Tiling,
    count_tilings,
    decompose,
    enumerate_tilings,
    has_bifence,
    has_even_metatile,
    has_free_bifence,
    is_metatile,
    last_positions,
    metatile_encodings,
    validate,
)
from fencetiles.sequences import RESTRICTIONS, fib


#: The record rules: a metatile that is not the free bifence LLRR, and one
#: that contains no bifence.
NO_FREE_BIFENCE = RESTRICTIONS["no-free-bifence"].allowed
NO_BIFENCE = RESTRICTIONS["no-bifence"].allowed


def half_cell_tilings(n):
    """Independent oracle: every n-board encoding in lexicographic order, by
    depth-first placement at the lowest uncovered half-cell, a fence with
    its left post there before a half-square there ('L' < 'h')."""
    half = 2 * n
    enc = [""] * half
    out = []

    def walk(p):
        while p < half and enc[p]:
            p += 1
        if p == half:
            out.append("".join(enc))
            return
        if p + 2 < half and not enc[p + 2]:
            enc[p], enc[p + 2] = "L", "R"
            walk(p + 1)
            enc[p] = enc[p + 2] = ""
        enc[p] = "h"
        walk(p + 1)
        enc[p] = ""

    walk(0)
    return out


def symbolwise_validate(encoding: str) -> Tiling:
    """Reference: validate as it read before its one-pass accept, checking
    the posts symbol by symbol and cutting with the test-local cut_scan."""
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
    return Tiling(tuple(cut_scan(encoding)))


def outcome(parse, encoding):
    """The tiling parse gives, or the text of the error it raises."""
    try:
        return parse(encoding)
    except InvalidTilingError as exc:
        return str(exc)


def strings(alphabet, max_len):
    for k in range(max_len + 1):
        for chars in itertools.product(alphabet, repeat=k):
            yield "".join(chars)


def cut_scan(encoding):
    """Independent split: cut after every cell that holds no left post."""
    cuts = [k for k in range(2, len(encoding) + 1, 2) if "L" not in encoding[k - 2 : k]]
    return [encoding[a:b] for a, b in zip([0] + cuts, cuts)]


def placements(t):
    """The tiles of t as (half-cell, symbol) pairs, a fence at its left post."""
    return [(p, c) for p, c in enumerate(t.encoding) if c != "R"]


class TestValidate:
    def test_parses_mixed_tiling(self):
        t = validate("hLhR")
        assert len(t.encoding) // 2 == 2
        assert placements(t) == [(0, "h"), (1, "L"), (2, "h")]
        assert Tiling.from_placements(2, [(0, "h"), (1, "L"), (2, "h")]) == t

    def test_empty_board(self):
        t = validate("")
        assert len(t.encoding) // 2 == 0
        assert t.pieces == ()
        assert Tiling.from_placements(0, ()) == t

    def test_round_trips_encoding(self):
        for enc in ["hh", "LLRR", "LhRh", "hLhRhh", "LhRLLRRh"]:
            assert validate(enc).encoding == enc

    @pytest.mark.parametrize(
        "bad",
        [
            "h",  # odd length
            "hxhh",  # unknown symbol
            "LRhh",  # R at 1 cannot match an L at -1
            "LLRRR1",  # unknown symbol and bad pairing
            "hhL" + "R",  # L at 2 overhangs the board
            "LhLhRR",  # L at 2 expects R at 4
        ],
    )
    def test_rejects_invalid(self, bad):
        with pytest.raises(InvalidTilingError):
            validate(bad)

    def test_equals_symbolwise_reference_exhaustively(self):
        # every string over {h, L, R, x} up to 7 symbols and over {h, L, R}
        # up to 10: the same tiling, or the same error text
        inputs = set(strings("hLRx", 7)) | set(strings("hLR", 10))
        assert len(inputs) == 107_138
        for e in inputs:
            parsed = outcome(validate, e)
            assert parsed == outcome(symbolwise_validate, e), e
            # the whole-tiling pattern accepts exactly what validate accepts
            accepted = core._TILING.fullmatch(e) is not None
            assert accepted == isinstance(parsed, Tiling), e

    def test_one_pass_accept_is_the_symbolwise_accept(self):
        # the metatile pattern covers exactly what the per-symbol loop
        # accepts, with the cut scan's pieces, so valid input never reaches
        # the loop and invalid input always does
        for e in strings("hLR", 10):
            if len(e) % 2 == 0:
                pieces = core._METATILE.findall(e)
                accepted = isinstance(outcome(symbolwise_validate, e), Tiling)
                assert ("".join(pieces) == e) == accepted, e
                if accepted:
                    assert pieces == cut_scan(e), e

    @pytest.mark.parametrize(
        "e", ["h" + "LLRR" * 10_000 + "h", "hh" * 20_000, "LLRR" * 10_000]
    )
    @pytest.mark.parametrize("broken", [False, True])
    def test_long_inputs_stay_fast(self, e, broken):
        # one 20,001-cell metatile, 20,000 one-cell ones, 10,000 bifences:
        # the pattern may neither backtrack quadratically nor recurse per symbol
        if broken:  # a post turned into h, or an h into a lone L
            e = e[:-3] + ("L" if e[-3] == "h" else "h") + e[-2:]
        start = time.perf_counter()
        got = outcome(validate, e)
        assert time.perf_counter() - start < 2.0
        assert got == outcome(symbolwise_validate, e)
        assert isinstance(got, Tiling) != broken

    def test_a_tiling_the_grammar_misses_is_not_passed_over(self, monkeypatch):
        # the symbol loop raises for every rejected input; should the pattern
        # ever reject a tiling, validate says so rather than return nothing
        monkeypatch.setattr(core, "_METATILE", re.compile("hh"))
        assert validate("hhhh").pieces == ("hh", "hh")
        with pytest.raises(AssertionError, match="LLRR"):
            validate("LLRR")

    def test_from_placements_rejects_double_cover(self):
        pl = placements(validate("hhhh"))
        with pytest.raises(InvalidTilingError, match="covered twice"):
            Tiling.from_placements(2, pl + [pl[0]])
        with pytest.raises(InvalidTilingError, match="half-cell 2 is covered twice"):
            Tiling.from_placements(2, [(0, "L"), (1, "h"), (2, "h"), (3, "h")])

    def test_from_placements_rejects_gap(self):
        pl = placements(validate("hhhh"))
        with pytest.raises(InvalidTilingError, match="half-cell 3 is uncovered"):
            Tiling.from_placements(2, pl[:-1])

    @pytest.mark.parametrize(
        "p, symbol", [(4, "h"), (-1, "h"), (2, "L"), (2.5, "h"), ("3", "h")]
    )
    def test_from_placements_rejects_a_tile_outside_the_board(self, p, symbol):
        # a half-cell is an integer in range(4): 2.5 or "3" is none of them
        pl = [(0, "h"), (1, "h"), (3, "h"), (p, symbol)]
        with pytest.raises(InvalidTilingError, match="outside the 2-board"):
            Tiling.from_placements(2, pl)

    @pytest.mark.parametrize(
        "pl, p",
        [
            ([(0, "h"), (1.0, "L"), (2, "h")], "1.0"),
            ([(0, "h"), (1, "h"), (2.0, "h"), (3, "h")], "2.0"),
        ],
    )
    def test_from_placements_rejects_a_half_cell_that_is_not_an_int(self, pl, p):
        # 1.0 == 1 passes a range check: the fence raised a bare TypeError
        # and the h at 2.0 was taken for half-cell 2
        with pytest.raises(InvalidTilingError, match=rf"half-cell {p} is not an integer"):
            Tiling.from_placements(2, pl)

    @pytest.mark.parametrize("p", range(4))
    @pytest.mark.parametrize("symbol", ["R", "x"])
    def test_from_placements_rejects_a_symbol_other_than_h_or_l(self, p, symbol):
        # an R would otherwise cover one half-cell and be written as h
        pl = [(q, "h") for q in range(4) if q != p] + [(p, symbol)]
        with pytest.raises(InvalidTilingError, match=f"unknown tile symbol '{symbol}'"):
            Tiling.from_placements(2, pl)

    @pytest.mark.parametrize("n", range(0, 7))
    def test_from_placements_rebuilds_the_same_tiling(self, n):
        for t in enumerate_tilings(n):
            rebuilt = Tiling.from_placements(n, reversed(placements(t)))
            assert rebuilt == t
            assert rebuilt.pieces == t.pieces


class TestTilingValue:
    def test_pieces_encoding_and_board(self):
        t = validate("hhLLRRhLhR")
        assert t.pieces == ("hh", "LLRR", "hLhR")
        assert t.encoding == str(t) == "hhLLRRhLhR"
        assert len(t.encoding) // 2 == 5

    def test_equal_and_hash_by_encoding(self):
        a, b = validate("LhRh"), Tiling(("LhRh",))
        assert a == b and hash(a) == hash(b)
        assert a != validate("hLhR")
        assert len({a, b, validate("hhhh")}) == 2

    def test_immutable(self):
        t = validate("hh")
        with pytest.raises(AttributeError):
            t.pieces = ("hh",)
        with pytest.raises(AttributeError):
            del t.pieces

    def test_immutable_beyond_its_field(self):
        t = validate("hh")
        for name in ("encoding", "other"):
            with pytest.raises(AttributeError):
                setattr(t, name, "hh")
        with pytest.raises(AttributeError):
            del t.encoding
        assert t.encoding == "hh" and not hasattr(t, "other")

    def test_repr(self):
        assert repr(validate("hhLLRR")) == "Tiling(pieces=('hh', 'LLRR'))"
        assert repr(Tiling(())) == "Tiling(pieces=())"

    def test_hash_is_the_hash_of_its_field(self):
        t = validate("LhRhhh")
        assert hash(t) == hash((("LhRh", "hh"),))

    def test_equal_only_to_a_tiling(self):
        t = validate("hh")
        for other in ("hh", ("hh",), (("hh",),)):
            assert t != other and other != t
        assert t.__eq__(("hh",)) is NotImplemented


class TestEnumerate:
    def test_n0_single_empty_tiling(self):
        assert [t.encoding for t in enumerate_tilings(0)] == [""]

    def test_n1_only_two_half_squares(self):
        assert [t.encoding for t in enumerate_tilings(1)] == ["hh"]

    def test_n2_exact_set(self):
        assert [t.encoding for t in enumerate_tilings(2)] == [
            "LLRR",
            "LhRh",
            "hLhR",
            "hhhh",
        ]

    def test_n3_count_is_nine(self):
        assert count_tilings(3) == 9

    @pytest.mark.parametrize("n", range(0, 11))
    def test_count_matches_fibonacci_squared(self, n):
        assert count_tilings(n) == fib(n + 1) ** 2

    @pytest.mark.parametrize("n", range(0, 9))
    def test_strictly_increasing_lexicographic_no_duplicates(self, n):
        encs = [t.encoding for t in enumerate_tilings(n)]
        assert all(a < b for a, b in zip(encs, encs[1:]))

    @pytest.mark.parametrize("n", range(0, 9))
    def test_every_yielded_tiling_validates(self, n):
        for t in enumerate_tilings(n):
            assert validate(t.encoding) == t

    @pytest.mark.parametrize("n", range(0, 11))
    def test_matches_half_cell_oracle_in_order(self, n):
        assert [t.encoding for t in enumerate_tilings(n)] == half_cell_tilings(n)

    @pytest.mark.parametrize("n", range(0, 9))
    def test_pieces_are_the_cut_scan_split(self, n):
        for t in enumerate_tilings(n):
            assert list(t.pieces) == cut_scan(t.encoding)
            assert validate(t.encoding).pieces == t.pieces

    def test_long_board_needs_no_recursion(self):
        first = next(enumerate_tilings(2001))
        assert first.encoding == "LLRR" * 1000 + "hh"
        assert validate(first.encoding) == first

    def test_first_tiling_of_a_long_board_is_lazy(self):
        # the candidate store holds only what the walk has run through, so
        # the first tiling needs O(n) time and memory
        tracemalloc.start()
        try:
            start = time.perf_counter()
            first = next(enumerate_tilings(20_000))
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert first.encoding == "LLRR" * 10_000
        assert peak < 32 * 2**20
        assert elapsed < 2.0

    @pytest.mark.parametrize("name", RESTRICTIONS)
    def test_first_filtered_tiling_of_a_long_board_is_lazy(self, name):
        # the walk steps through the admitted lengths, so it builds no
        # rejected metatile, and a descent keeps no candidate iterator: the
        # first tiling needs O(n) time and memory under every restriction
        allowed = RESTRICTIONS[name].allowed
        tracemalloc.start()
        try:
            start = time.perf_counter()
            first = next(enumerate_tilings(20_000, allowed))
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert validate(first.encoding) == first
        assert len(first.encoding) == 40_000 and all(map(allowed, first.pieces))
        assert elapsed < 2.0
        assert peak < 2**20

    @pytest.mark.parametrize("name", RESTRICTIONS)
    def test_later_candidates_are_built_lazily(self, name):
        # under no-free-bifence the first tiling is one metatile, and its
        # frame has about n more candidates of O(n) symbols: the next
        # tilings take them one at a time
        allowed = RESTRICTIONS[name].allowed
        tracemalloc.start()
        try:
            tilings = list(itertools.islice(enumerate_tilings(5_000, allowed), 3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(tilings) == 3
        assert [t.encoding for t in tilings] == sorted(t.encoding for t in tilings)
        assert peak < 2**20

    def test_interleaved_walks_are_independent(self):
        def module_state():
            # sizes of core's containers and caches: a store shared between
            # walks would grow one of them
            return {
                name: len(v) if isinstance(v, (dict, list, set)) else v.cache_info()
                for name, v in vars(core).items()
                if isinstance(v, (dict, list, set)) or hasattr(v, "cache_info")
            }

        before = module_state()
        walks = {
            7: enumerate_tilings(7),
            9: enumerate_tilings(9),
            "9 no-bifence": enumerate_tilings(9, NO_BIFENCE),
        }
        seen = {name: [] for name in walks}
        while walks:
            for name, walk in list(walks.items()):
                t = next(walk, None)
                if t is None:
                    del walks[name]
                else:
                    seen[name].append(t.encoding)
        assert seen[7] == half_cell_tilings(7)
        assert seen[9] == half_cell_tilings(9)
        assert seen["9 no-bifence"] == [e for e in half_cell_tilings(9) if "LL" not in e]
        assert module_state() == before

    @pytest.mark.parametrize("name", RESTRICTIONS)
    @pytest.mark.parametrize("n", range(0, 13))
    def test_each_tiling_is_the_value_its_pieces_make(self, n, name):
        # the tilings are written block by block from a joined prefix and
        # joined tails: each must be the Tiling of its walked pieces
        allowed = RESTRICTIONS[name].allowed
        tilings = list(enumerate_tilings(n, allowed))
        assert [t.pieces for t in tilings] == list(core._walk(n, allowed))
        for t in tilings:
            assert t.encoding == "".join(t.pieces)
            built = Tiling(t.pieces)
            assert t == built and hash(t) == hash(built)

    def test_filter_is_applied(self):
        encs = [t.encoding for t in enumerate_tilings(2, NO_FREE_BIFENCE)]
        assert encs == ["LhRh", "hLhR", "hhhh"]

    @pytest.mark.parametrize("walk", [core._blocks, core._walk, enumerate_tilings])
    @pytest.mark.parametrize(
        "allowed, kind",
        [(lambda e: "h" in e, "function"), (tuple(NO_FREE_BIFENCE), "tuple")],
        ids=["predicate", "bare-tuple"],
    )
    def test_a_restriction_that_is_no_rule_is_a_type_error(self, walk, allowed, kind):
        # no predicate is read: the walk names the type it takes
        with pytest.raises(TypeError, match=rf"^a restriction is a core\.Rule, not {kind}$"):
            next(walk(2, allowed))


class TestWalk:
    """The piece-tuple walk under enumerate_tilings, on boards on both sides
    of its memo of short boards (core._MEMO_CELLS cells)."""

    def test_boards_cross_the_memo_boundary(self):
        assert 0 < core._MEMO_CELLS < 10

    @pytest.mark.parametrize("name", RESTRICTIONS)
    @pytest.mark.parametrize("n", range(0, 11))
    def test_equals_the_tilings_and_the_half_cell_oracle(self, n, name):
        allowed = RESTRICTIONS[name].allowed
        walk = list(core._walk(n, allowed))
        assert walk == [t.pieces for t in enumerate_tilings(n, allowed)]
        oracle = [tuple(cut_scan(e)) for e in half_cell_tilings(n)]
        assert walk == [p for p in oracle if all(map(allowed, p))]

    @pytest.mark.parametrize("name", RESTRICTIONS)
    @pytest.mark.parametrize("n", range(0, 11))
    def test_every_tuple_is_the_validated_split(self, n, name):
        for pieces in core._walk(n, RESTRICTIONS[name].allowed):
            assert validate("".join(pieces)).pieces == pieces

    @pytest.mark.parametrize("name", RESTRICTIONS)
    @pytest.mark.parametrize("n", range(0, 11))
    def test_tuple_order_is_encoding_order(self, n, name):
        # metatiles are a prefix-free code, so comparing piece tuples
        # compares encodings: both orders are the walk's, with no ties
        walk = list(core._walk(n, RESTRICTIONS[name].allowed))
        assert sorted(walk) == sorted(walk, key="".join) == walk
        assert len(set(walk)) == len(walk)


    @pytest.mark.parametrize("name", RESTRICTIONS)
    @pytest.mark.parametrize("n", range(0, 11))
    def test_blocks_end_in_the_shared_memo_of_the_cells_left(self, n, name):
        # every block with m cells left carries one tails object, the
        # tilings of the m-board: the identity scans key their census on it
        allowed = RESTRICTIONS[name].allowed
        memo = {}
        for prefix, tails in core._blocks(n, allowed):
            m = n - len("".join(prefix)) // 2
            assert m <= core._MEMO_CELLS
            assert tails == tuple(core._walk(m, allowed))
            assert memo.setdefault(m, tails) is tails

    @pytest.mark.parametrize("name", RESTRICTIONS)
    @pytest.mark.parametrize("n", range(0, 11))
    def test_every_memo_depth_walks_the_same_tilings(self, n, name):
        # a deeper memo makes longer tails and fewer blocks, never other
        # tilings or another order
        allowed = RESTRICTIONS[name].allowed
        walk = list(core._walk(n, allowed))
        for depth in range(0, 12):
            memo, flat = {}, []
            for prefix, tails in core._blocks(n, allowed, depth):
                m = n - len("".join(prefix)) // 2
                assert m <= depth and (prefix == ()) == (n <= depth), (depth, prefix)
                assert memo.setdefault(m, tails) is tails
                flat += [prefix + t for t in tails]
            assert flat == walk, depth

    @pytest.mark.parametrize("name", RESTRICTIONS)
    def test_walks_handed_one_memo_share_its_tuples(self, name):
        # a memo list handed to several walks of one rule is extended in
        # place: each walk is its own walk, and every block with m cells
        # left, in any of them, carries the one tuple tails[m]
        allowed = RESTRICTIONS[name].allowed
        shared = []
        for n in (9, 3, 12, 0, 10):
            flat = []
            for prefix, tails in core._blocks(n, allowed, 7, shared):
                m = n - len("".join(prefix)) // 2
                assert tails is shared[m]
                flat += [prefix + t for t in tails]
            assert flat == list(core._walk(n, allowed)), n
        assert len(shared) == 8
        assert shared == [tuple(core._walk(m, allowed)) for m in range(8)]

    def test_the_depth_rule_deepens_the_memo_from_13_cells(self):
        # the exhaustive checks walk with about half the board, enumeration
        # with the default
        assert [core._memo_depth(n) for n in (0, 6, 11, 12, 13, 14, 18, 20)] == [
            6, 6, 6, 6, 7, 7, 9, 10,
        ]


class TestCensused:
    """The block driver of enumeration, the identity scan and the Cassini
    audit: each block with its joined prefix and the census of its tail
    set, taken once per tails object."""

    @staticmethod
    def counting(calls):
        # a census that records its tails and returns its own call number
        def census(tails):
            calls.append(tails)
            return (len(calls),)

        return census

    def test_one_census_per_tail_set_over_the_12_board(self):
        blocks = list(core._blocks(12))
        calls = []
        driven = list(core._censused(blocks, self.counting(calls)))
        assert len(driven) == len(blocks) > len(calls)
        assert len({id(tails) for _, tails in blocks}) == len(calls)
        for (prefix, tails), (p, head, (call,)) in zip(blocks, driven):
            assert p is prefix
            assert head == "".join(prefix)
            assert calls[call - 1] is tails

    def test_an_equal_copy_of_a_tail_set_gets_its_own_census(self):
        prefix, tails = next(core._blocks(12))
        copy = tuple(list(tails))
        assert copy == tails and copy is not tails
        calls = []
        blocks = [(prefix, tails), (prefix, copy), (prefix, tails)]
        driven = list(core._censused(blocks, self.counting(calls)))
        assert [entry for _, _, entry in driven] == [(1,), (2,), (1,)]
        assert calls[0] is tails and calls[1] is copy

    def test_a_store_handed_in_serves_later_walks(self):
        # the store outlives one driver: a tail set censused once is not
        # censused again by a later driver handed the same store, and it
        # holds every tail set, so no other tuple is handed a stale census
        blocks = list(core._blocks(12))
        calls, store = [], {}
        first = list(core._censused(blocks, self.counting(calls), store))
        again = list(core._censused(blocks, self.counting(calls), store))
        assert again == first
        assert len(calls) == len(store) == len({id(tails) for _, tails in blocks})
        assert all(store[id(tails)][0] is tails for _, tails in blocks)

    def test_a_block_with_no_tails_is_not_yielded(self):
        calls = []
        blocks = [(("hh",), ()), (("LLRR",), (("hh",),))]
        driven = list(core._censused(blocks, self.counting(calls)))
        assert driven == [(("LLRR",), "LLRR", (1,))]
        assert calls == [(("hh",),)]

    def test_a_tail_set_its_caller_drops_keeps_its_id(self):
        # each tail set is a fresh tuple that only the driver still holds
        # once its block is read: were its id free for the next one, that
        # one would be handed the stale census
        def blocks():
            for k in range(100):
                yield (), ((str(k),), ("hh",), ("hh",))

        driven = core._censused(blocks(), lambda tails: tails[0][0])
        assert [entry for _, _, entry in driven] == [str(k) for k in range(100)]


class TestDecompose:
    def test_all_h_cuts_everywhere(self):
        assert decompose(validate("hhhh")) == [(0, "hh"), (1, "hh")]

    def test_bifence_single_segment(self):
        assert decompose(validate("LLRR")) == [(0, "LLRR")]

    def test_empty_board_decomposes_to_nothing(self):
        assert decompose(validate("")) == []

    def test_fig_like_21_board_concatenation(self):
        pieces = [
            "hh",
            "LLRR",
            "hLhR",
            "LhRh",
            "LhRLhR",
            "hLLRRh",
            "hLLRRLhR",
            "LhRLLRRh",
        ]
        t = validate("".join(pieces))
        assert len(t.encoding) // 2 == 21
        segs = decompose(t)
        assert [piece for _, piece in segs] == pieces
        assert "".join(piece for _, piece in segs) == t.encoding

    @pytest.mark.parametrize("n", range(0, 9))
    def test_concat_of_decompose_is_identity(self, n):
        for t in enumerate_tilings(n):
            segs = decompose(t)
            assert "".join(piece for _, piece in segs) == t.encoding
            assert all(is_metatile(piece) for _, piece in segs)

    def test_decompose_of_concat_is_identity(self):
        # every pairing of grammar metatiles glues back apart at the seams
        pool = [e for l in range(1, 6) for e in metatile_encodings(l)]
        for left in pool:
            for right in pool:
                t = validate(left + right)
                assert decompose(t) == [(0, left), (len(left) // 2, right)]

    def test_all_h_pairs_greedily_into_length_one_metatiles(self):
        for n in range(1, 7):
            segs = decompose(validate("h" * (2 * n)))
            assert [piece for _, piece in segs] == ["hh"] * n


class TestMetatileGrammar:
    @pytest.mark.parametrize(
        "l,expected",
        [
            (1, ("hh",)),
            (2, ("LLRR", "hLhR", "LhRh")),
            (3, ("hLLRRh", "LhRLhR")),
            (4, ("hLLRRLhR", "LhRLLRRh")),
            (5, ("hLLRRLLRRh", "LhRLLRRLhR")),
        ],
    )
    def test_known_lengths(self, l, expected):
        assert metatile_encodings(l) == expected

    @pytest.mark.parametrize("l", range(1, 13))
    def test_grammar_matches_boundary_free_enumeration(self, l):
        # the engine enumerates from the grammar, so check it against the
        # independent half-cell oracle and cut scan
        boundary_free = {e for e in half_cell_tilings(l) if len(cut_scan(e)) == 1}
        assert boundary_free == set(metatile_encodings(l))
        engine = {t.encoding for t in enumerate_tilings(l) if len(decompose(t)) == 1}
        assert engine == boundary_free

    def test_is_metatile_is_membership_of_the_grammar(self):
        # the definition is_metatile had before the pattern, kept as oracle
        inputs = itertools.chain(strings("hLR", 12), strings("hLRx", 6))
        for e in inputs:
            member = len(e) % 2 == 0 and len(e) > 0 and e in metatile_encodings(len(e) // 2)
            assert is_metatile(e) == member, e

    def test_grammar_members_are_valid_tilings(self):
        for l in range(1, 13):
            for e in metatile_encodings(l):
                assert len(validate(e).encoding) // 2 == l


class TestClassifiers:
    def test_free_bifence_segment(self):
        segs = decompose(validate("hhLLRR"))
        assert [not NO_FREE_BIFENCE(piece) for _, piece in segs] == [False, True]

    def test_bifence_inside_mixed_metatile_is_not_free(self):
        ((_, piece),) = decompose(validate("hLLRRh"))
        assert NO_FREE_BIFENCE(piece)
        assert not NO_BIFENCE(piece)

    def test_plain_hh_is_not_a_bifence(self):
        ((_, piece),) = decompose(validate("hh"))
        assert NO_FREE_BIFENCE(piece)

    @pytest.mark.parametrize("l", range(1, 31))
    def test_a_metatile_is_even_exactly_when_its_length_is(self, l):
        for e in metatile_encodings(l):
            assert has_even_metatile(Tiling((e,))) == (l % 2 == 0), e

    def test_even_metatile_agrees_with_the_piece_length_rule(self):
        # the rule has_even_metatile had before the odd grammar, kept as
        # oracle: a metatile of even length 2j cells has 4j symbols
        for n in range(13):
            for t in enumerate_tilings(n):
                expected = any(len(piece) % 4 == 0 for piece in t.pieces)
                assert has_even_metatile(t) == expected, t.encoding


class TestLastPositions:
    def test_mixed(self):
        # (last fence cell, last h half-cell)
        assert last_positions(validate("hLhR")) == (2, 2)

    def test_no_fence(self):
        assert last_positions(validate("hhhh")) == (None, 3)

    def test_no_h(self):
        assert last_positions(validate("LLRR")) == (2, None)


class TestStructuralInvariants:
    @pytest.mark.parametrize("n", [1, 3, 5, 7])
    def test_odd_board_has_h_on_odd_cell_last(self, n):
        for t in enumerate_tilings(n):
            _, p = last_positions(t)
            assert p is not None
            assert (p // 2 + 1) % 2 == 1

    @pytest.mark.parametrize("n", range(1, 8))
    def test_tiling_ending_in_lone_free_h_has_another_h(self, n):
        for t in enumerate_tilings(n):
            e = t.encoding
            if e.endswith("h") and not e.endswith("hh"):
                assert e.count("h") >= 2

    @pytest.mark.parametrize("n", range(0, 9))
    def test_piece_predicates_agree_with_the_cut_scan(self, n):
        for t in enumerate_tilings(n):
            segments = cut_scan(t.encoding)
            assert has_free_bifence(t) == ("LLRR" in segments)
            assert has_even_metatile(t) == any(len(s) // 2 % 2 == 0 for s in segments)

    def test_filter_predicates_agree_on_examples(self):
        assert has_free_bifence(validate("hhLLRR"))
        assert not has_free_bifence(validate("hLLRRh"))
        assert has_bifence(validate("hLLRRh"))
        assert not has_bifence(validate("LhRLhR"))
        assert has_even_metatile(validate("hLhR"))
        assert not has_even_metatile(validate("hLLRRh"))


@pytest.mark.parametrize(
    "build",
    [
        lambda: list(enumerate_tilings(-1)),
        lambda: list(bijection.cassini_sources(-1)),
        lambda: Tiling.from_placements(-1, ()),
        lambda: sequences.count_halfsquare_square(-1),
    ],
    ids=["enumerate_tilings", "cassini_sources", "from_placements",
         "count_halfsquare_square"],
)
def test_a_negative_board_length_has_one_message(build):
    with pytest.raises(ValueError, match="must be non-negative, got -1"):
        build()


class TestBenchmarkNameContract:
    def test_traced_names_exist_with_the_expected_kind(self):
        # every library name perfbench/layers.py install() wraps; the traced
        # benchmark breaks when one is deleted or changes kind
        functions = {
            "core": ("enumerate_tilings", "decompose", "last_positions",
                     "has_bifence", "has_free_bifence", "has_even_metatile",
                     "validate", "metatile_encodings", "count_tilings"),
            "sequences": ("a_via_sum_form", "s_via_sum_form", "t_via_sum_form",
                          "count_halfsquare_square"),
            "identities": ("verify",),
            "bijection": ("cassini_audit", "cassini_partition", "b_map",
                          "b_inverse"),
            # the module: the package's `render` attribute is the function
            "render": ("render",),
        }
        for module, names in functions.items():
            mod = importlib.import_module(f"fencetiles.{module}")
            for name in names:
                assert callable(getattr(mod, name, None)), f"{module}.{name}"
        from fencetiles.sequences import SequenceTable

        assert inspect.isfunction(SequenceTable.__dict__["value"])
        from_placements = Tiling.__dict__["from_placements"]
        assert isinstance(from_placements, classmethod)
        assert callable(from_placements.__func__)
        encoding = Tiling.__dict__["encoding"]
        assert isinstance(encoding, functools.cached_property)
        assert callable(encoding.func)
