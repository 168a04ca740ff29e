import json
from collections import Counter
from itertools import accumulate, count, takewhile

import pytest

from fencetiles import bijection, core, identities
from fencetiles.core import (
    count_tilings,
    enumerate_tilings,
    last_positions,
    metatile_encodings,
)
from fencetiles.bijection import cassini_audit
from fencetiles.identities import Mode, verify
from fencetiles.sequences import TABLES, A, count_C, count_S, count_T, fib

#: The identities whose combinatorial rows bin the block scan by a
#: restriction; identity 7's rows are the Cassini audit.
SCANNED = (1, 2, 3, 4, 5, 6)

#: The last n each identity checks combinatorially: its board(n) is the
#: longest of at most MAX_ORACLE_BOARD = 14 cells.
LAST_COMBINATORIAL_N = {1: 15, 2: 12, 3: 6, 4: 14, 5: 14, 6: 14, 7: 14}


def row_for(report, n):
    return next(r for r in report.rows if r.n == n)


class TestNumericIdentity1:
    def test_small_cases(self):
        report = verify(1, 3)
        assert row_for(report, 2).lhs == 1
        assert row_for(report, 2).rhs == 1
        assert row_for(report, 3).lhs == 4
        assert row_for(report, 3).rhs == 1 + 3 + 0

    def test_all_pass_to_50(self):
        assert verify(1, 50).all_pass

    def test_rejects_small_range(self):
        with pytest.raises(ValueError):
            verify(1, 1)


class TestNumericIdentity2:
    def test_n0(self):
        row = row_for(verify(2, 0), 0)
        assert row.lhs == fib(3) ** 2 - 1 == 3
        assert row.rhs == 3

    def test_all_pass_to_40(self):
        assert verify(2, 40).all_pass


class TestNumericIdentity3:
    def test_n0(self):
        row = row_for(verify(3, 0), 0)
        assert row.lhs == 1 and row.rhs == 1

    def test_n1(self):
        row = row_for(verify(3, 1), 1)
        assert row.lhs == 9
        assert row.rhs == 1 + 4 + 2 * (1 + 1)

    def test_all_pass_to_25(self):
        assert verify(3, 25).all_pass


class TestNumericIdentity4:
    def test_n1(self):
        row = row_for(verify(4, 1), 1)
        assert row.lhs == 1 and row.rhs == count_S(1) == 1

    def test_n2(self):
        row = row_for(verify(4, 2), 2)
        assert row.lhs == 4 and row.rhs == 3 + 1

    def test_all_pass_to_50(self):
        assert verify(4, 50).all_pass


class TestNumericIdentity5:
    def test_n2(self):
        row = row_for(verify(5, 2), 2)
        assert row.lhs == 4 and row.rhs == 3 + 1

    def test_n3(self):
        row = row_for(verify(5, 3), 3)
        assert row.lhs == 9 and row.rhs == 6 + 2 + 1

    def test_all_pass_to_50(self):
        assert verify(5, 50).all_pass


class TestNumericIdentity6:
    def test_n2(self):
        row = row_for(verify(6, 2), 2)
        assert row.lhs == 4 and row.rhs == count_T(2) + 3 * 1 * 1

    def test_n3(self):
        row = row_for(verify(6, 3), 3)
        assert row.lhs == 9 and row.rhs == 3 + 3 + 3

    def test_all_pass_to_40(self):
        assert verify(6, 40).all_pass


class TestNumericIdentity7:
    def test_n2(self):
        row = row_for(verify(7, 2), 2)
        assert row.lhs == 4 and row.rhs == 3 * 1 - 1 + 2

    def test_n3(self):
        row = row_for(verify(7, 3), 3)
        assert row.lhs == 9 and row.rhs == 3 * 4 - 1 - 2

    def test_all_pass_to_50_with_enumeration_accounting(self):
        assert verify(7, 50).all_pass
        # the accounting form A_n + A_{n-2} = 3 A_{n-1} + 2 (-1)^n, on the
        # enumerated counts of boards 0..12
        counts = [count_tilings(m) for m in range(13)]
        for n in range(2, 13):
            assert counts[n] + counts[n - 2] == 3 * counts[n - 1] + 2 * (-1) ** n


def nested_sum_rows(identity: int, n_max: int) -> list[tuple]:
    """(n, lhs, rhs, passed) of a numeric report, from the literal nested
    sums of the identity: the oracle for the prefix-sum evaluation."""
    rows = []
    for n in range(2 if identity == 1 else 0, n_max + 1):
        if identity == 1:
            lhs = fib(n) ** 2
            rhs = (
                fib(n - 1) ** 2
                + 3 * fib(n - 2) ** 2
                + 2 * sum(fib(n - i) ** 2 for i in range(3, n + 1))
            )
        elif identity == 2:
            lhs = fib(n + 3) ** 2 - 1
            rhs = sum(
                3 * fib(k + 1) ** 2 + 2 * sum(fib(i) ** 2 for i in range(1, k + 1))
                for k in range(n + 1)
            )
        elif identity == 3:
            lhs = fib(2 * n + 2) ** 2
            rhs = fib(1) ** 2 + sum(
                fib(2 * k + 1) ** 2 + 2 * sum(fib(i) ** 2 for i in range(1, 2 * k + 1))
                for k in range(1, n + 1)
            )
        elif identity == 4:
            lhs = fib(n + 1) ** 2
            rhs = count_S(n) + sum(
                fib(k - 1) ** 2 * count_S(n - k) for k in range(2, n + 1)
            )
        elif identity == 5:
            lhs = fib(n + 1) ** 2
            rhs = count_C(n) + sum(
                fib(k - 1) ** 2 * count_C(n - k) for k in range(2, n + 1)
            )
            rhs += sum(
                (2 - (l == 3)) * fib(k - l + 1) ** 2 * count_C(n - k)
                for k in range(3, n + 1)
                for l in range(3, k + 1)
            )
        else:
            lhs = fib(n + 1) ** 2
            rhs = count_T(n) + sum(
                (2 + (j == 1)) * fib(k - 2 * j + 1) ** 2 * count_T(n - k)
                for k in range(2, n + 1)
                for j in range(1, k // 2 + 1)
            )
        rows.append((n, lhs, rhs, lhs == rhs))
    return rows


class TestNumericOracle:
    @pytest.mark.parametrize("ident", range(1, 7))
    def test_rows_equal_nested_sums_up_to_60(self, ident):
        report = verify(ident, 60)
        assert report.mode is Mode.NUMERIC
        assert [(r.n, r.lhs, r.rhs, r.passed) for r in report.rows] == nested_sum_rows(
            ident, 60
        )

    @pytest.mark.parametrize("ident", range(1, 7))
    def test_smallest_reports_equal_nested_sums(self, ident):
        for n_max in range(2 if ident == 1 else 0, 4):
            rows = verify(ident, n_max).rows
            assert [(r.n, r.lhs, r.rhs, r.passed) for r in rows] == nested_sum_rows(
                ident, n_max
            )


def per_row_convolution(n_max, table, weights, sq):
    """identities._convolution_rows with each rhs X_n + sum_{k>=2} weights[k]
    X_{n-k} summed afresh: the reference for the rows its recurrence builds."""
    x = table.values(n_max)
    return [
        identities.IdentityRow(
            n, sq[n + 1], x[n] + sum(weights[k] * x[n - k] for k in range(2, n + 1))
        )
        for n in range(n_max + 1)
    ]


class TestConvolutionRecurrence:
    @pytest.mark.parametrize("n_max", [0, 1, 2, 3, 60, 300])
    @pytest.mark.parametrize("ident", [4, 5, 6])
    def test_rows_equal_the_per_row_sums(self, monkeypatch, ident, n_max):
        rows = verify(ident, n_max).rows
        monkeypatch.setattr(identities, "_convolution_rows", per_row_convolution)
        assert rows == verify(ident, n_max).rows

    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_any_table_and_weights_equal_the_per_row_sums(self, name):
        # every order and sign of coefficient the tables have, and weights
        # of both signs, with nonzero w_0 and w_1 that the rule must ignore
        weights = [(-1) ** k * (k**3 + 7) for k in range(41)]
        sq = list(range(42))
        for n_max in (0, 1, 2, 3, 40):
            assert identities._convolution_rows(
                n_max, TABLES[name], weights, sq
            ) == per_row_convolution(n_max, TABLES[name], weights, sq)


class TestCombinatorialModes:
    def test_identity_2_bins_at_n0(self):
        report = verify(2, 0, combinatorial=True)
        assert report.mode is Mode.COMBINATORIAL
        # the 2-board has 3 fence-containing tilings, all in bin k=0
        assert row_for(report, 0).lhs == 3
        assert report.all_pass

    def test_identity_3_bins_small(self):
        assert verify(3, 3, combinatorial=True).all_pass

    def test_identity_4_n2_single_free_bifence_tiling(self):
        report = verify(4, 2, combinatorial=True)
        assert row_for(report, 2).lhs == 1  # only LLRR
        assert report.all_pass

    @pytest.mark.parametrize("ident", range(1, 8))
    def test_all_pass_within_oracle_range(self, ident):
        report = verify(ident, 10, combinatorial=True)
        assert report.mode is Mode.COMBINATORIAL
        assert report.all_pass

    def test_identity_3_is_capped_by_board_length(self):
        report = verify(3, 12, combinatorial=True)
        assert report.n_max == 6  # a 13-cell board is the longest scanned

    def test_identity_1_rows_pass_up_to_the_14_board(self):
        # every tiling of the (n-1)-board is binned by its last metatile,
        # which ends on the last cell: one bin per metatile of each length
        report = verify(1, 20, combinatorial=True)
        assert [r.n for r in report.rows] == list(range(2, 16))
        assert report.all_pass
        assert [(r.lhs, r.rhs) for r in report.rows] == [
            (fib(n) ** 2, fib(n) ** 2) for n in range(2, 16)
        ]
        assert report.rows == verify(1, 15).rows

    def test_identity_7_rows_are_the_cassini_audits(self):
        report = verify(7, 20, combinatorial=True)
        assert report.mode is Mode.COMBINATORIAL
        assert [r.n for r in report.rows] == list(range(1, 15))
        for row in report.rows:
            audit = cassini_audit(row.n)
            assert (row.lhs, row.rhs, row.bins_ok) == (
                audit.lhs, audit.rhs, audit.structure_ok
            )
        assert report.all_pass


def as_blocks(tilings):
    """Piece tuples as the blocks _scan reads: each tiling its own block,
    its pieces the prefix of the one empty tail."""
    return [(pieces, ((),)) for pieces in tilings]


def bin_of(ident: int, pieces: tuple[str, ...]):
    """The bin combinatorial mode of the identity puts the tiling with these
    pieces in, or None."""
    allowed = identities._IDENTITIES[ident].restriction.allowed
    observed, scanned, _ = identities._scan(as_blocks([pieces]), allowed)
    assert scanned == 1
    return next(iter(observed), None)


def end_cell(key):
    return None if key is None else key[0]


def _last_fence_bins(n: int, a: list[int]) -> tuple[dict, int]:
    # the bins of identity 2 keyed by k, the last fence ending on cell k+2
    prefix = list(accumulate(a, initial=0))
    return {k: 3 * a[k] + 2 * prefix[k] for k in range(n + 1)}, a[n + 2] - 1


def _last_h_bins(n: int, a: list[int]) -> tuple[dict, int]:
    # the bins of identity 3 keyed by k, the last h on cell 2k+1
    prefix = list(accumulate(a, initial=0))
    return {k: a[2 * k] + 2 * prefix[2 * k] for k in range(n + 1)}, a[2 * n + 1]


class TestLastFeatureKeys:
    """Identities 2 and 3 bin by the last metatile other than hh and other
    than a free bifence; those end on the cell of the last fence and of the
    last half-square, as the paper conditions.  The references read those
    cells through last_positions, and the per-cell bin formulas the two
    identities once had of their own."""

    def test_keys_equal_the_last_positions_reference(self):
        for n in range(13):
            for t in enumerate_tilings(n):
                # None when there is no fence (all h) or no h (all bifences)
                fence_cell, p = last_positions(t)
                assert end_cell(bin_of(2, t.pieces)) == fence_cell
                assert end_cell(bin_of(3, t.pieces)) == (
                    None if p is None else p // 2 + 1
                )

    @pytest.mark.parametrize(
        "ident, reference, cell",
        [(2, _last_fence_bins, lambda k: k + 2), (3, _last_h_bins, lambda k: 2 * k + 1)],
    )
    def test_predictions_summed_per_cell_equal_the_reference(
        self, ident, reference, cell
    ):
        record = identities._IDENTITIES[ident]
        for n in range(31):
            board = record.board(n)
            a = A.values(board)
            expected, relevant = identities._predicted(record.restriction, board, a)
            per_cell = Counter()
            for (end, _), count in expected.items():
                per_cell[end] += count
            bins, total = reference(n, a)
            assert dict(per_cell) == {cell(k): v for k, v in bins.items()}, n
            assert relevant == total


class TestCountedOnce:
    """A tiling yielded twice, or out of order, must fail its row even when
    every bin count still comes out right.  The faults are injected into
    the blocks combinatorial mode reads: the walk's tilings, rewritten,
    each as its own block."""

    @staticmethod
    def patched(monkeypatch, rewrite):
        real = identities._blocks

        def _blocks(n, allowed=None, memo=core._MEMO_CELLS, tails=None):
            walk = real(n, allowed, memo, tails)
            tilings = [p + t for p, ts in walk for t in ts]
            return iter(as_blocks(rewrite(tilings)))

        monkeypatch.setattr(identities, "_blocks", _blocks)

    @staticmethod
    def duplicate_within_a_bin(tilings):
        # two tilings of the 6-board whose last metatile other than hh is
        # the same hLhR on cell 6: count the first twice instead
        encodings = ["".join(pieces) for pieces in tilings]
        if len(encodings[0]) != 12:
            return tilings
        i, j = encodings.index("hhhhhLhRhLhR"), encodings.index("hhhhhhhhhLhR")
        assert bin_of(2, tilings[i]) == bin_of(2, tilings[j]) == (6, "hLhR")
        return tilings[:j] + [tilings[i]] + tilings[j + 1 :]

    def test_duplicate_fails(self, monkeypatch):
        self.patched(monkeypatch, self.duplicate_within_a_bin)
        row = row_for(verify(2, 4, combinatorial=True), 4)
        assert row.lhs == row.rhs
        assert not row.bins_ok

    @pytest.mark.parametrize("ident", [2, 3, 4, 5, 6])
    def test_out_of_order_fails(self, monkeypatch, ident):
        self.patched(monkeypatch, lambda tilings: tilings[::-1])
        row = row_for(verify(ident, 3, combinatorial=True), 3)
        assert row.lhs == row.rhs
        assert not row.bins_ok


class TestDriverFaults:
    """A tiling missing from the enumeration, or an allowed metatile missing
    from the grammar the expected counts are read from, fails its row."""

    @pytest.mark.parametrize("ident", SCANNED)
    @pytest.mark.parametrize("dropped", ["first", "last"])
    def test_dropped_tiling_fails(self, monkeypatch, ident, dropped):
        drop = (lambda ts: ts[1:]) if dropped == "first" else (lambda ts: ts[:-1])
        TestCountedOnce.patched(monkeypatch, drop)
        row = row_for(verify(ident, 3, combinatorial=True), 3)
        assert not row.bins_ok
        # the first tiling starts with a bifence, so every identity bins it;
        # the all-h tiling comes last, and only identities 1 and 3 bin it
        binned = dropped == "first" or ident in (1, 3)
        assert row.lhs == row.rhs - binned

    @pytest.mark.parametrize(
        "ident, piece",
        [
            (2, "hLhR"),
            (3, "hh"),
            (4, "LLRR"),
            (5, "hLLRRh"),
            (5, "LhRLLRRh"),
            (6, "LhRh"),
        ],
    )
    def test_grammar_missing_an_allowed_piece_fails(self, monkeypatch, ident, piece):
        real = identities.metatile_encodings
        monkeypatch.setattr(
            identities,
            "metatile_encodings",
            lambda length: tuple(e for e in real(length) if e != piece),
        )
        row = row_for(verify(ident, 5, combinatorial=True), 5)
        assert not row.bins_ok


class TestLastMetatileCoefficients:
    """The forbidden pieces of each length are the coefficients of the
    paper's formulas, so the combinatorial rows of identities 1-6 check the
    paper's sums and not only the grammar."""

    PAPER = {
        1: lambda l: {1: 1, 2: 3}.get(l, 2),
        2: lambda l: {1: 0, 2: 3}.get(l, 2),
        3: lambda l: 1 if l == 1 else 2,
        4: lambda l: 1 if l == 2 else 0,
        5: lambda l: {1: 0, 2: 1, 3: 1}.get(l, 2),
        6: lambda l: 3 if l == 2 else 2 if l % 2 == 0 else 0,
    }

    @pytest.mark.parametrize("ident", SCANNED)
    def test_allowed_pieces_per_length(self, ident):
        board = 30
        restriction = identities._IDENTITIES[ident].restriction
        expected, _ = identities._predicted(restriction, board, A.values(board))
        ending_last = Counter(len(piece) // 2 for k, piece in expected if k == board)
        keyed = Counter(
            l
            for l in range(1, board + 1)
            for e in metatile_encodings(l)
            if identities._scan(as_blocks([(e,)]), restriction.allowed)[0]
            == {(l, e): 1}
        )
        for l in range(1, board + 1):
            assert ending_last[l] == keyed[l] == self.PAPER[ident](l), l


class TestScanMemo:
    """_scan asks the restriction only about pieces the walk placed (it
    keeps no answers: each tail set is censused once, so a memo of them
    would not pay); the bins are those _predicted expects."""

    @pytest.mark.parametrize("ident", SCANNED)
    def test_each_piece_is_decided_once(self, ident):
        restriction = identities._IDENTITIES[ident].restriction
        calls = Counter()

        def allowed(piece):
            calls[piece] += 1
            return restriction.allowed(piece)

        observed, scanned, ordered = identities._scan(core._blocks(10), allowed)
        pieces = {p for tiling in core._walk(10) for p in tiling}
        assert set(calls) <= pieces
        a = A.values(10)
        expected, _ = identities._predicted(restriction, 10, a)
        assert (observed, scanned, ordered) == (expected, a[10], True)


def reference_scan(tilings, allowed):
    """The per-tiling scan: each tiling, given as its pieces, joined and
    compared with the one before, then read backwards to its last forbidden
    piece.  The oracle of the block scan."""
    observed: dict = {}
    admitted: dict[str, bool] = {}
    prev, scanned, ordered = None, 0, True
    for pieces in tilings:
        encoding = "".join(pieces)
        if prev is not None and encoding <= prev:
            ordered = False
        prev = encoding
        scanned += 1
        end = len(encoding)  # in half-cells
        for piece in reversed(pieces):
            try:
                ok = admitted[piece]
            except KeyError:
                ok = admitted[piece] = allowed(piece)
            if not ok:
                key = (end // 2, piece)
                observed[key] = observed.get(key, 0) + 1
                break
            end -= len(piece)
    return observed, scanned, ordered


class TestBlockScan:
    """_scan reads the walk by block, one census per tail set; the
    per-tiling reference_scan over the flattened walk must give the same
    bins, count and order."""

    @staticmethod
    def boards(ident: int, longest: int) -> list[int]:
        """The boards combinatorial mode scans for the identity, in order,
        up to longest cells."""
        record = identities._IDENTITIES[ident]
        cap = min(longest, identities.MAX_ORACLE_BOARD)
        return list(takewhile(lambda b: b <= cap, map(record.board, count(record.n_min))))

    #: memo depths from the walk's default to beyond the half of a 14-board
    DEPTHS = range(core._MEMO_CELLS, 11)

    @pytest.mark.parametrize("ident", SCANNED)
    def test_equals_the_per_tiling_scan_up_to_13_cells(self, ident):
        allowed = identities._IDENTITIES[ident].restriction.allowed
        boards = self.boards(ident, 13)
        assert boards[-1] >= 12
        for board in boards:
            expected = reference_scan(core._walk(board), allowed)
            for depth in self.DEPTHS:
                blocks = core._blocks(board, None, depth)
                assert identities._scan(blocks, allowed) == expected, (board, depth)

    def test_identity_2_equals_the_per_tiling_scan_on_the_14_board(self):
        allowed = identities._IDENTITIES[2].restriction.allowed
        assert 14 in self.boards(2, 14)
        expected = reference_scan(core._walk(14), allowed)
        assert expected[1:] == (A.values(14)[14], True)
        for depth in self.DEPTHS:
            blocks = core._blocks(14, None, depth)
            assert identities._scan(blocks, allowed) == expected, depth

    @pytest.mark.parametrize("ident", SCANNED)
    def test_one_tail_set_after_prefixes_of_every_length(self, ident):
        # the walk reads a tail set at one cell offset only; a census read at
        # several must have its bins folded in at each of them
        allowed = identities._IDENTITIES[ident].restriction.allowed
        tails = tuple(core._walk(5))
        blocks = [(p, tails) for m in range(5) for p in core._walk(m)]
        expected = reference_scan((p + t for p, ts in blocks for t in ts), allowed)
        assert identities._scan(blocks, allowed) == expected

    @pytest.mark.parametrize("ident", SCANNED)
    def test_unlike_tail_sets_after_prefixes_of_one_length(self, ident):
        # the walk hands one tail set on after every prefix of one length;
        # unlike tail sets there must each have their own bins folded in
        allowed = identities._IDENTITIES[ident].restriction.allowed
        whole = tuple(core._walk(4))
        unlike = (whole, whole[1:], whole[:-1])
        blocks = [(p, tails) for p in core._walk(2) for tails in unlike]
        expected = reference_scan((p + t for p, ts in blocks for t in ts), allowed)
        assert identities._scan(blocks, allowed) == expected

    def test_rows_walk_at_the_depth_rule(self, monkeypatch):
        # the 14-board call: every board is walked with an 8-cell memo
        self.check_one_depth_one_memo(monkeypatch, 14, 8)

    @pytest.mark.parametrize("n_max, depth", [(6, 7), (12, 7), (13, 8)])
    def test_shorter_calls_walk_at_the_depth_rule(self, monkeypatch, n_max, depth):
        self.check_one_depth_one_memo(monkeypatch, n_max, depth)

    @staticmethod
    def check_one_depth_one_memo(monkeypatch, n_max, depth):
        """Every board of one call is walked at one memo depth, one cell
        deeper than core._memo_depth gives its longest board, and every
        walk extends the same memo list."""
        real, walked = identities._blocks, []

        def _blocks(n, allowed=None, memo=core._MEMO_CELLS, tails=None):
            walked.append((n, memo, tails))
            return real(n, allowed, memo, tails)

        monkeypatch.setattr(identities, "_blocks", _blocks)
        assert verify(4, n_max, combinatorial=True).all_pass
        assert depth == core._memo_depth(n_max) + 1
        assert [(n, memo) for n, memo, _ in walked] == [
            (n, depth) for n in range(n_max + 1)
        ]
        shared = walked[0][2]
        assert all(tails is shared for *_, tails in walked)
        assert len(shared) == min(n_max, depth) + 1  # tails[0..depth]

    @pytest.mark.parametrize("ident", SCANNED)
    def test_fresh_copies_of_every_tail_set_pass(self, ident):
        # a census is keyed on the tails object: equal tails in a new
        # tuple get a census of their own, with the same outcome
        allowed = identities._IDENTITIES[ident].restriction.allowed
        blocks = [(p, tuple(list(tails))) for p, tails in core._blocks(9)]
        assert len({id(tails) for _, tails in blocks}) == len(blocks)
        expected = reference_scan(core._walk(9), allowed)
        assert identities._scan(blocks, allowed) == expected


class TestBlockFaults:
    """A fault in the block stream fails its row: a tail duplicated in or
    dropped from a tail set, two blocks swapped, and a block whose tail set
    is a fresh tuple, as long as the memo it replaces, holding one tail
    twice.  The rows read the 9-board, the longest of their call, which the
    walk hands on in blocks with m <= 7 cells left, the depth the call's
    memo takes."""

    ROW = {1: 10, 2: 7, 3: 4, 4: 9, 5: 9, 6: 9}  # n with board(n) = 9

    @staticmethod
    def faulty_row(monkeypatch, ident, rewrite):
        real = identities._blocks

        def _blocks(n, allowed=None, memo=core._MEMO_CELLS, tails=None):
            blocks = list(real(n, allowed, memo, tails))
            return iter(rewrite(blocks) if n == 9 else blocks)

        monkeypatch.setattr(identities, "_blocks", _blocks)
        n = TestBlockFaults.ROW[ident]
        assert identities._IDENTITIES[ident].board(n) == 9
        return row_for(verify(ident, n, combinatorial=True), n)

    @staticmethod
    def rewrite_tails(blocks, i, rewrite):
        prefix, tails = blocks[i]
        return blocks[:i] + [(prefix, rewrite(tails))] + blocks[i + 1 :]

    @pytest.mark.parametrize("ident", SCANNED)
    def test_a_duplicated_tail_fails(self, monkeypatch, ident):
        row = self.faulty_row(
            monkeypatch,
            ident,
            lambda bs: self.rewrite_tails(bs, 0, lambda ts: ts[:1] + ts),
        )
        assert not row.bins_ok

    @pytest.mark.parametrize("ident", SCANNED)
    def test_a_dropped_tail_fails(self, monkeypatch, ident):
        row = self.faulty_row(
            monkeypatch,
            ident,
            lambda bs: self.rewrite_tails(bs, len(bs) // 2, lambda ts: ts[1:]),
        )
        assert not row.bins_ok

    @pytest.mark.parametrize("ident", SCANNED)
    def test_two_swapped_blocks_fail(self, monkeypatch, ident):
        row = self.faulty_row(
            monkeypatch, ident, lambda bs: [bs[1], bs[0], *bs[2:]]
        )
        # every tiling binned once, only the order is wrong
        assert row.lhs == row.rhs
        assert not row.bins_ok

    @pytest.mark.parametrize("ident", SCANNED)
    def test_a_fresh_tail_set_unlike_the_memo_fails(self, monkeypatch, ident):
        def rewrite(blocks):
            # the last block's tails are the memo of an m an earlier block
            # already carried, so a census kept by m alone would pass this
            # tuple of the same length, its last tail replaced by the one
            # before it
            *_, (prefix, tails) = blocks
            assert len(tails) > 1
            assert any(ts is tails for _, ts in blocks[:-1])
            fresh = tails[:-1] + tails[-2:-1]
            assert len(fresh) == len(tails) and fresh != tails
            return blocks[:-1] + [(prefix, fresh)]

        row = self.faulty_row(monkeypatch, ident, rewrite)
        assert not row.bins_ok


def per_row_rows(ident: int, ns) -> list:
    """Combinatorial rows built one at a time, each its own walk, at the
    depth core._memo_depth gives its board, and its own scan, with the
    pieces its board can hold as the admitted set, or for identity 7 its
    own cassini_audit: the oracle of the rows one call builds on one memo
    and one census store (per audit role)."""
    record = identities._IDENTITIES[ident]
    rows = []
    for n in ns:
        board = record.board(n)
        if record.restriction is None:
            x = cassini_audit(board)
            rows.append(identities.IdentityRow(n, x.lhs, x.rhs, x.structure_ok))
            continue
        a = A.values(board)
        expected, relevant = identities._predicted(record.restriction, board, a)
        admitted = frozenset(core._candidates(board, record.restriction.allowed))
        blocks = core._blocks(board, None, core._memo_depth(board))
        observed, scanned, ordered = identities._scan(blocks, admitted.__contains__)
        binned = sum(observed.values())
        bins_ok = ordered and scanned == a[board] and (
            observed == expected and binned == relevant
        )
        rows.append(identities.IdentityRow(n, binned, sum(expected.values()), bins_ok))
    return rows


class TestPerCallRows:
    """One combinatorial verify call walks one memo and censuses each tail
    set once; its rows must be those built one at a time, and a fault in
    one row must fail that row alone."""

    @pytest.mark.parametrize("ident", (*SCANNED, 7))
    def test_equal_the_rows_built_one_at_a_time(self, ident):
        n_min = identities._IDENTITIES[ident].n_min
        last = LAST_COMBINATORIAL_N[ident]
        expected = per_row_rows(ident, range(n_min, last + 1))
        assert all(row.passed for row in expected)
        for n_max in range(n_min, last + 1):
            rows = verify(ident, n_max, combinatorial=True).rows
            assert rows == tuple(expected[: n_max - n_min + 1]), n_max

    def test_each_tail_set_is_censused_once_per_call(self, monkeypatch):
        # built a row at a time, every row censuses its own copy of the
        # same tail sets; one call censuses each of them once
        real, handed, runs = identities._censused, {}, []

        def _censused(blocks, census, store=None):
            def seen():
                for prefix, tails in blocks:
                    handed[id(tails)] = tails
                    yield prefix, tails

            def counted(tails):
                runs.append(tails)
                return census(tails)

            return real(seen(), counted, store)

        monkeypatch.setattr(identities, "_censused", _censused)
        assert verify(4, 14, combinatorial=True).all_pass
        distinct = set(handed.values())  # equal tail sets count once
        assert len(runs) == len(distinct) == len(handed) > 1
        assert set(runs) == distinct

    def test_each_tail_set_is_censused_once_per_audit_role_per_call(
        self, monkeypatch
    ):
        # identity 7's audits, a row at a time, each census their own copy
        # of the same tail sets; one call censuses each of them once for
        # the targets, once for the sources and once for the companions
        real, handed, runs = bijection._censused, {}, {}

        def _censused(blocks, census, store=None):
            role = getattr(census, "args", (census,))[0]  # the place rule

            def seen():
                for prefix, tails in blocks:
                    handed.setdefault(role, {})[id(tails)] = tails
                    yield prefix, tails

            def counted(tails):
                runs.setdefault(role, []).append(tails)
                return census(tails)

            return real(seen(), counted, store)

        monkeypatch.setattr(bijection, "_censused", _censused)
        assert verify(7, 14, combinatorial=True).all_pass
        roles = {bijection._holding_h, bijection._place, bijection._companion}
        assert set(runs) == set(handed) == roles
        for role, censused in runs.items():
            distinct = set(handed[role].values())  # equal tail sets count once
            assert len(censused) == len(distinct) == len(handed[role]) > 1
            assert set(censused) == distinct

    def test_a_fresh_tail_set_in_a_middle_row_fails_that_row_alone(
        self, monkeypatch
    ):
        # the 11-board's last block gets a fresh tuple as long as the memo
        # tuple it replaces, which an earlier row censused, its last tail
        # replaced by the one before it: the call-long store must give it a
        # census of its own, and the later rows their memo's
        real, earlier = identities._blocks, set()

        def _blocks(n, allowed=None, memo=core._MEMO_CELLS, tails=None):
            blocks = list(real(n, allowed, memo, tails))
            if n == 11:
                prefix, last = blocks[-1]
                assert id(last) in earlier
                fresh = last[:-1] + last[-2:-1]
                assert len(fresh) == len(last) and fresh != last
                blocks[-1] = prefix, fresh
            else:
                earlier.update(id(ts) for _, ts in blocks)
            return iter(blocks)

        monkeypatch.setattr(identities, "_blocks", _blocks)
        report = verify(4, 14, combinatorial=True)
        assert [r.n for r in report.rows] == list(range(15))
        assert [r.n for r in report.rows if not r.passed] == [11]


class TestLongBoards:
    """The per-call rows on boards beyond MAX_ORACLE_BOARD, each row its
    own call: identity 4 on the 20-board, about 1.2e8 tilings, and
    identities 2, 5 and 6 on the 16-board."""

    @pytest.mark.parametrize("ident, board", [(4, 20), (2, 16), (5, 16), (6, 16)])
    def test_row_passes(self, ident, board):
        record = identities._IDENTITIES[ident]
        n = next(n for n in count(record.n_min) if record.board(n) == board)
        (row,) = identities._combinatorial_rows(record, [n])
        assert row.passed
        table = record.restriction.table
        # every tiling is binned but those the restriction admits throughout
        assert row.lhs == A.values(board)[board] - table.values(board)[board]


class TestNumericBound:
    """Numeric rows grow as n_max^2 in memory and text, so numeric mode
    stops at MAX_NUMERIC_N; combinatorial mode stops at its board cap."""

    @pytest.mark.parametrize("ident", range(1, 8))
    def test_beyond_the_bound_is_rejected(self, ident):
        with pytest.raises(ValueError, match=r"n_max must be at most 6000, got 6001"):
            verify(ident, identities.MAX_NUMERIC_N + 1)

    def test_the_bound_itself_is_checked(self):
        report = verify(1, identities.MAX_NUMERIC_N)
        assert report.n_max == identities.MAX_NUMERIC_N == 6000
        assert report.all_pass

    def test_combinatorial_mode_is_not_bounded(self):
        # any n_max is accepted: the rows stop at the last board of at most
        # MAX_ORACLE_BOARD cells, for every identity
        for ident, last in LAST_COMBINATORIAL_N.items():
            record = identities._IDENTITIES[ident]
            report = verify(ident, 10**8, combinatorial=True)
            assert report.mode is Mode.COMBINATORIAL
            assert (report.n_min, report.n_max) == (record.n_min, last)
            assert record.board(last) <= identities.MAX_ORACLE_BOARD
            assert record.board(last + 1) > identities.MAX_ORACLE_BOARD
            assert report.all_pass


class TestReportShape:
    def test_json_round_trip(self):
        report = verify(1, 5)
        data = json.loads(report.to_json())
        assert data["identity_id"] == 1
        assert data["mode"] == "numeric"
        assert data["all_pass"] is True
        assert data["rows"][0] == {"n": 2, "lhs": "1", "rhs": "1", "pass": True}
        # big integers survive as decimal text
        big = json.loads(verify(1, 120).to_json())
        assert big["rows"][-1]["lhs"] == str(fib(120) ** 2)

    @pytest.mark.parametrize("ident", [0, 8])
    def test_unknown_identity_names_the_choices(self, ident):
        with pytest.raises(ValueError, match=rf"unknown identity {ident}, expected "
                           r"one of 1, 2, 3, 4, 5, 6, 7"):
            verify(ident, 10)

    def test_table_mentions_every_row(self):
        text = verify(1, 4).table()
        assert "identity 1" in text
        assert "n=2" in text and "n=4" in text
        assert text.endswith("all pass")

    def test_combinatorial_modes(self):
        # every identity has both modes, and the flag picks one
        for ident in range(1, 8):
            for combinatorial, mode in ((False, Mode.NUMERIC), (True, Mode.COMBINATORIAL)):
                report = verify(ident, 5, combinatorial)
                assert report.mode is mode
                assert report.n_min == identities._IDENTITIES[ident].n_min


class TestRecordValues:
    """IdentityRow, IdentityReport and _Identity are frozen values, equal
    and hashed by their fields."""

    def test_row_defaults_to_bins_ok(self):
        row = identities.IdentityRow(3, 4, 4)
        assert row.bins_ok is True and row.passed
        assert not identities.IdentityRow(3, 4, 4, False).passed

    def test_row_equal_and_hash_by_fields(self):
        a, b = identities.IdentityRow(3, 4, 4), identities.IdentityRow(3, 4, 4, True)
        assert a == b and hash(a) == hash(b) == hash((3, 4, 4, True))
        assert a != identities.IdentityRow(3, 4, 4, False)
        assert len({a, b, identities.IdentityRow(4, 4, 4)}) == 2

    def test_row_repr(self):
        assert repr(identities.IdentityRow(3, 4, 5, False)) == (
            "IdentityRow(n=3, lhs=4, rhs=5, bins_ok=False)"
        )

    def test_row_immutable(self):
        row = identities.IdentityRow(3, 4, 4)
        for name in ("n", "bins_ok", "other"):
            with pytest.raises(AttributeError):
                setattr(row, name, 0)
        with pytest.raises(AttributeError):
            del row.lhs
        assert row == identities.IdentityRow(3, 4, 4)

    def test_report_equal_and_hash_by_fields(self):
        a, b = verify(2, 3), verify(2, 3)
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != verify(2, 4)
        assert a != verify(2, 3, combinatorial=True)

    def test_report_repr(self):
        assert repr(verify(1, 3)) == (
            "IdentityReport(identity_id=1, n_min=2, n_max=3, "
            "mode=<Mode.NUMERIC: 'numeric'>, rows=("
            "IdentityRow(n=2, lhs=1, rhs=1, bins_ok=True), "
            "IdentityRow(n=3, lhs=4, rhs=4, bins_ok=True)))"
        )

    def test_report_immutable(self):
        report = verify(1, 3)
        for name in ("rows", "mode", "other"):
            with pytest.raises(AttributeError):
                setattr(report, name, ())
        with pytest.raises(AttributeError):
            del report.identity_id
        assert report == verify(1, 3)

    def test_identity_has_no_defaults(self):
        # every identity states both modes: board and restriction are given
        with pytest.raises(TypeError):
            identities._Identity(2, len)
        record = identities._Identity(2, len, abs, None)
        assert record == identities._Identity(2, len, abs, None)
        assert hash(record) == hash((2, len, abs, None))
        assert record != identities._Identity(1, len, abs, None)
        # identity 7 alone has no restriction: its rows are the audit's
        assert [i for i, r in identities._IDENTITIES.items() if r.restriction is None] == [7]
        one = identities._IDENTITIES[1]
        assert (one.n_min, one.numeric, one.board(5)) == (2, identities._identity_1_rows, 4)
        assert not any(map(one.restriction.allowed, metatile_encodings(3)))

    def test_identity_repr(self):
        assert repr(identities._Identity(2, len, abs, None)) == (
            "_Identity(n_min=2, numeric=<built-in function len>, "
            "board=<built-in function abs>, restriction=None)"
        )

    def test_identity_immutable(self):
        record = identities._IDENTITIES[4]
        for name in ("n_min", "restriction", "other"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            del record.board
        assert record.n_min == 0 and record.restriction is not None
