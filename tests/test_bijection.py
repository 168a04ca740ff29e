import tracemalloc

import pytest

from fencetiles import bijection, core
from fencetiles.bijection import (
    AllBifenceException,
    BijectionDomainError,
    CassiniAudit,
    CassiniImage,
    TargetCopy,
    b_inverse,
    b_map,
    cassini_audit,
    cassini_partition,
    cassini_sources,
)
from fencetiles.cli import main
from fencetiles.core import enumerate_tilings, validate


def fence_ending_with_h(n):
    return [
        t
        for t in enumerate_tilings(n)
        if t.encoding.endswith("R") and "h" in t.encoding
    ]


class TestBMap:
    def test_filled_fence_suffix_becomes_h(self):
        assert b_map(validate("hLhR")).encoding == "hh"

    def test_bifence_suffix_with_free_last_h(self):
        assert b_map(validate("LhRhLLRR")).encoding == "LhRLhR"

    def test_bifence_suffix_with_captured_last_h(self):
        assert b_map(validate("hLhRLLRR")).encoding == "hhLLRR"

    def test_rejects_no_h(self):
        with pytest.raises(BijectionDomainError):
            b_map(validate("LLRR"))

    def test_rejects_not_ending_in_fence(self):
        with pytest.raises(BijectionDomainError):
            b_map(validate("hhhh"))

    def test_malformed_input_rejected_before_rewriting(self):
        with pytest.raises(Exception):
            b_map(validate("hLhRLL"))

    @pytest.mark.parametrize("n", range(2, 11))
    def test_exhaustive_bijectivity(self, n):
        sources = fence_ending_with_h(n)
        targets = {t.encoding for t in enumerate_tilings(n - 1) if "h" in t.encoding}
        images = [b_map(t).encoding for t in sources]
        assert len(set(images)) == len(images)  # injective
        assert set(images) == targets  # surjective onto h-containing tilings

    @pytest.mark.parametrize("n", range(2, 11))
    def test_round_trip_both_ways(self, n):
        for t in fence_ending_with_h(n):
            assert b_inverse(b_map(t)).encoding == t.encoding
        for u in enumerate_tilings(n - 1):
            if "h" in u.encoding:
                assert b_map(b_inverse(u)).encoding == u.encoding

    @pytest.mark.parametrize("n", range(2, 11))
    def test_images_contain_an_h_and_case_shapes(self, n):
        for t in fence_ending_with_h(n):
            image = b_map(t)
            assert "h" in image.encoding
            if t.encoding.endswith("LhR"):
                assert image.encoding.endswith("h")
            else:
                assert image.encoding.endswith("R")

    @pytest.mark.parametrize("n", range(2, 11))
    def test_free_last_h_always_followed_by_a_bifence(self, n):
        # precondition of the free-h rewrite, checked as a theorem
        for t in fence_ending_with_h(n):
            e = t.encoding
            if not e.endswith("LhR"):
                p = e.rfind("h")
                if p == 0 or e[p - 1] != "L":
                    assert e[p + 1 : p + 5] == "LLRR"


class TestBInverse:
    def test_trailing_h_re_expands(self):
        assert b_inverse(validate("hh")).encoding == "hLhR"

    def test_rejects_all_bifence(self):
        with pytest.raises(BijectionDomainError):
            b_inverse(validate("LLRR"))


class TestCassiniPartition:
    def test_first_copy_strips_trailing_h_pair(self):
        ci = cassini_partition(validate("hhhh"))
        assert ci == CassiniImage(TargetCopy.FIRST, validate("hh"))

    def test_second_copy_uses_b_map(self):
        ci = cassini_partition(validate("hLhR"))
        assert ci.target_copy is TargetCopy.SECOND
        assert ci.image.encoding == "hh"

    def test_third_copy_rewrites_second_rightmost_h(self):
        ci = cassini_partition(validate("LhRh"))
        assert ci.target_copy is TargetCopy.THIRD
        assert ci.image.encoding == "hh"

    def test_all_bifence_is_the_source_exception(self):
        ci = cassini_partition(validate("LLRR"))
        assert ci.exception is AllBifenceException.SOURCE
        assert ci.image is None

    def test_h_pair_ending_takes_priority_over_free_h(self):
        # a tiling ending in h^2 also ends in a free h; first copy wins
        ci = cassini_partition(validate("LLRRhh"))
        assert ci.target_copy is TargetCopy.FIRST

    @pytest.mark.parametrize("n", range(3, 11))
    def test_every_image_is_a_valid_short_board_tiling(self, n):
        for t in enumerate_tilings(n):
            ci = cassini_partition(t)
            if ci.exception is None:
                assert len(ci.image.encoding) // 2 == n - 1
                assert validate(ci.image.encoding) == ci.image

    @pytest.mark.parametrize("n", range(3, 11))
    def test_third_copy_images_end_in_a_free_h(self, n):
        for t in enumerate_tilings(n):
            ci = cassini_partition(t)
            if ci.target_copy is TargetCopy.THIRD:
                # a trailing h is never inside a fence gap, so it is free
                assert ci.image.encoding.endswith("h")


class TestCassiniAudit:
    @pytest.mark.parametrize("n", range(3, 11))
    def test_balanced_with_structural_checks(self, n):
        audit = cassini_audit(n)
        assert audit.balanced
        assert audit.structure_ok
        assert audit.exception_count == 2
        assert audit.exception_side == ("source" if n % 2 == 0 else "target")

    def test_n3_accounting(self):
        audit = cassini_audit(3)
        assert (audit.lhs, audit.rhs) == (9 + 1, 3 * 4 - 2)

    def test_n4_accounting(self):
        audit = cassini_audit(4)
        assert (audit.lhs, audit.rhs) == (25 + 4, 3 * 9 + 2)

    def test_rejects_too_small_boards(self):
        with pytest.raises(ValueError):
            cassini_audit(2)


def set_based_audit(n: int) -> CassiniAudit:
    """Reference audit: every target and image encoding held in sets and
    dicts, coverage checked by set equality."""
    if n < 3:
        raise ValueError("audit needs n >= 3")
    target_encodings = {t.encoding for t in enumerate_tilings(n - 1)}
    h_targets = {e for e in target_encodings if "h" in e}

    images: dict[TargetCopy, dict[str, str]] = {c: {} for c in TargetCopy}
    duplicates = 0
    source_exceptions = 0
    n_count = 0
    for t in enumerate_tilings(n):
        n_count += 1
        ci = cassini_partition(t)
        if ci.exception is not None:
            source_exceptions += 1
            continue
        copy_images = images[ci.target_copy]
        e = ci.image.encoding
        if e in copy_images:
            duplicates += 1
        copy_images[e] = t.encoding

    companion: dict[str, str] = {}
    n2_count = 0
    for u in enumerate_tilings(n - 2):
        n2_count += 1
        if "h" not in u.encoding:
            source_exceptions += 1
            continue
        e = b_inverse(u).encoding
        if e in companion:
            duplicates += 1
        companion[e] = u.encoding

    third_overlap = images[TargetCopy.THIRD].keys() & companion.keys()
    third_all = set(images[TargetCopy.THIRD]) | set(companion)

    coverage_ok = (
        set(images[TargetCopy.FIRST]) == target_encodings
        and set(images[TargetCopy.SECOND]) == h_targets
        and third_all == h_targets
        and all(e.endswith("R") for e in companion)
    )

    target_exceptions = 2 * (len(target_encodings) - len(h_targets))
    if n % 2 == 0:
        exceptions_ok = source_exceptions == 2 and target_exceptions == 0
        side = "source"
        count = source_exceptions
    else:
        exceptions_ok = source_exceptions == 0 and target_exceptions == 2
        side = "target"
        count = target_exceptions

    structure_ok = (
        duplicates == 0 and not third_overlap and coverage_ok and exceptions_ok
    )
    lhs = n_count + n2_count
    rhs = 3 * len(target_encodings) + 2 * (-1) ** n
    return CassiniAudit(
        n, lhs, rhs, lhs == rhs and structure_ok, side, count, structure_ok
    )


def per_source_audit(n: int) -> CassiniAudit:
    """Reference audit: one loop over every source on its whole encoding.
    The n-board tilings are placed by bijection._place, the (n-2)-board
    companions go into the third copy through b_inverse's rewrite, and each
    image is checked (length, an h where the copy needs one, the grammar
    pattern, then the left inverse) with the (n-1)-board targets counted
    one tiling at a time."""
    if n < 3:
        raise ValueError("audit needs n >= 3")
    targets = h_targets = 0
    for pieces in core._walk(n - 1):
        targets += 1
        h_targets += "h" in "".join(pieces)

    def sources():
        for pieces in core._walk(n):
            enc = "".join(pieces)
            yield enc, bijection._place(enc)
        for pieces in core._walk(n - 2):
            enc = "".join(pieces)
            p = enc.rfind("h")
            yield enc, (
                (TargetCopy.THIRD, bijection._expand_at_h(enc, p)) if p >= 0 else None
            )

    size = 2 * n - 2
    placed = [0, 0, 0]
    sources_seen = source_exceptions = 0
    images_ok = True
    for enc, placement in sources():
        sources_seen += 1
        if placement is None:
            source_exceptions += 1
            continue
        copy, e = placement
        placed[copy.value - 1] += 1
        images_ok = (
            images_ok
            and len(e) == size
            and (copy is TargetCopy.FIRST or "h" in e)
            and core._TILING.fullmatch(e) is not None
            and bijection._preimage(copy, e) == enc
        )
    covered = placed == [targets, h_targets, h_targets]

    target_exceptions = 2 * (targets - h_targets)
    if n % 2 == 0:
        exceptions_ok = source_exceptions == 2 and target_exceptions == 0
        side, count = "source", source_exceptions
    else:
        exceptions_ok = source_exceptions == 0 and target_exceptions == 2
        side, count = "target", target_exceptions

    structure_ok = images_ok and covered and exceptions_ok
    rhs = 3 * targets + 2 * (-1) ** n
    return CassiniAudit(
        n, sources_seen, rhs, sources_seen == rhs and structure_ok, side, count,
        structure_ok,
    )


class TestAuditOracle:
    @pytest.mark.parametrize("n", range(3, 12))
    def test_equals_set_based_audit(self, n):
        assert cassini_audit(n) == set_based_audit(n)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_equals_per_source_audit(self, n):
        audit = cassini_audit(n)
        assert audit == per_source_audit(n)
        assert audit.failure is None

    @pytest.mark.parametrize("n", range(2, 8))
    def test_sources_in_order(self, n):
        sources = list(cassini_sources(n))
        n_board = [t.encoding for t in enumerate_tilings(n)]
        companions = [u.encoding for u in enumerate_tilings(n - 2)]
        assert [t.encoding for t, _, _ in sources] == n_board + companions
        flags = [companion for _, _, companion in sources]
        assert flags == [False] * len(n_board) + [True] * len(companions)
        for u, ci, companion in sources:
            if not companion:
                assert ci == cassini_partition(u)
            elif "h" in u.encoding:
                assert ci == CassiniImage(TargetCopy.THIRD, b_inverse(u))
            else:
                assert ci.exception is AllBifenceException.SOURCE

    def test_memory_does_not_grow_with_the_board(self):
        cassini_audit(10)
        tracemalloc.start()
        try:
            cassini_audit(10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5e6


class TestLocalityLemma:
    """What the block audit trusts: a tail holding an h is placed, and read
    back, alike alone and after its block's prefix."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_a_tail_holding_an_h_is_placed_alone(self, n):
        for prefix, tails in core._blocks(n):
            head = "".join(prefix)
            assert not head.endswith("L")  # whole metatiles end in h or R
            for t in tails:
                tail = "".join(t)
                if "h" not in tail:
                    continue
                source = head + tail
                copy, image = bijection._place(tail)
                assert bijection._place(source) == (copy, head + image)
                assert bijection._preimage(copy, head + image) == source
                # the same tiling as an (n+2)-board audit's companion
                third, image = bijection._companion(tail)
                assert bijection._companion(source) == (third, head + image)
                assert bijection._preimage(third, head + image) == source


class TestAuditFaults:
    """A broken placement must fail the audit, never pass it or raise, and
    failure must name the check it broke and the source.  The victims sit
    where the block audit reads a source (victims)."""

    @staticmethod
    def victims(n, copy):
        """Sources _place puts in copy, by the way the block audit reads
        them.  "tail": tails of the walk's longest tail set, each placed
        alone in the set's census.  "first": whole tilings, each the first
        of a block with a prefix whose tail holds an h, placed whole as the
        block's cross-check.  "h-free": whole tilings whose tail holds no
        h, placed whole."""
        found = {"tail": [], "first": [], "h-free": []}
        blocks = list(core._blocks(n))
        for tail in map("".join, max((tails for _, tails in blocks), key=len)):
            if "h" in tail and bijection._place(tail)[0] is copy:
                found["tail"].append(tail)
        for prefix, tails in blocks:
            head = "".join(prefix)
            encodings = [head + "".join(t) for t in tails]
            firsts = [e for e in encodings if "h" in e[len(head) :]][:1]
            free = [e for e in encodings if "h" not in e[len(head) :]]
            for kind, sources in (("first", firsts if head else []), ("h-free", free)):
                for enc in sources:
                    placed = bijection._place(enc)
                    if placed is not None and placed[0] is copy:
                        found[kind].append(enc)
        return found

    @staticmethod
    def placed_in(n, copy):
        encodings = (t.encoding for t in enumerate_tilings(n))
        placements = ((enc, bijection._place(enc)) for enc in encodings)
        return [enc for enc, placed in placements if placed and placed[0] is copy]

    @staticmethod
    def fails(monkeypatch, n, victim, rewrite, check):
        """Audit n with _place(victim) rewritten; the audit must fail at
        check, naming victim."""
        real = bijection._place

        def place(enc):
            placed = real(enc)
            return rewrite(placed) if enc == victim else placed

        with monkeypatch.context() as m:
            m.setattr(bijection, "_place", place)
            audit = cassini_audit(n)
        assert not audit.structure_ok
        assert not audit.balanced
        assert audit.failure.startswith(check + ":"), audit.failure
        assert victim in audit.failure

    def test_every_kind_of_victim_occurs(self):
        # a "first" tiling never lands in copy 2, an "h-free" one never in
        # copy 1; at n = 7 every other pair occurs, so no loop below is empty
        found = {
            (kind, copy)
            for copy in TargetCopy
            for kind, encodings in self.victims(7, copy).items()
            if encodings
        }
        assert found == {
            *(("tail", copy) for copy in TargetCopy),
            ("first", TargetCopy.FIRST),
            ("first", TargetCopy.THIRD),
            ("h-free", TargetCopy.SECOND),
            ("h-free", TargetCopy.THIRD),
        }

    @pytest.mark.parametrize("n", [6, 7])
    @pytest.mark.parametrize("copy", list(TargetCopy))
    def test_two_sources_share_one_image(self, monkeypatch, n, copy):
        victims = self.victims(n, copy)
        kept, victim = victims["tail"][:2]
        shared = bijection._place(kept)
        self.fails(monkeypatch, n, victim, lambda placed: shared, "preimage")
        for kind, check in (("first", "locality"), ("h-free", "preimage")):
            for victim in victims[kind][:1]:
                other = next(e for e in self.placed_in(n, copy) if e != victim)
                shared = bijection._place(other)
                self.fails(monkeypatch, n, victim, lambda placed: shared, check)

    @pytest.mark.parametrize("n", [6, 7])
    @pytest.mark.parametrize("copy", list(TargetCopy))
    def test_one_source_in_the_wrong_copy(self, monkeypatch, n, copy):
        other = TargetCopy(copy.value % 3 + 1)
        victims = self.victims(n, copy)
        for kind, check in (
            ("tail", "preimage"), ("first", "locality"), ("h-free", "preimage")
        ):
            for victim in victims[kind][-1:]:
                self.fails(
                    monkeypatch, n, victim, lambda placed: (other, placed[1]), check
                )

    @pytest.mark.parametrize("n", [6, 7])
    @pytest.mark.parametrize("copy", list(TargetCopy))
    def test_one_source_becomes_an_exception(self, monkeypatch, n, copy):
        victims = self.victims(n, copy)
        for kind, check in (
            ("tail", "exceptions"), ("first", "locality"), ("h-free", "exceptions")
        ):
            for victim in victims[kind][:1]:
                self.fails(monkeypatch, n, victim, lambda placed: None, check)

    @pytest.mark.parametrize("n", [6, 7])
    def test_an_image_of_the_wrong_length_fails(self, monkeypatch, n):
        # a third-copy tail sent through b_inverse's rewrite, as a companion
        # is: a tiling two cells too long that _preimage reads back through
        # b_map, so only the length check sees it
        victim = self.victims(n, TargetCopy.THIRD)["tail"][0]
        image = bijection._expand_at_h(victim, victim.rfind("h"))
        self.fails(
            monkeypatch,
            n,
            victim,
            lambda placed: (TargetCopy.THIRD, image),
            "image grammar",
        )

    @pytest.mark.parametrize("n", [6, 7])
    def test_one_source_walked_twice(self, monkeypatch, n):
        # a block walked twice, then a tail dropped from the last block whose
        # tail set an earlier block shares (if none does, the last block): the
        # left inverse gives every source back, so only the per-copy counts
        # see them, and only if the shorter tail set gets its own census
        def duplicated(blocks):
            return [*blocks, blocks[-1]]

        def dropped(blocks):
            ids = [id(tails) for _, tails in blocks]
            shared = [i for i, key in enumerate(ids) if key in ids[:i]]
            i = shared[-1] if shared else len(blocks) - 1
            prefix, tails = blocks[i]
            return [*blocks[:i], (prefix, tails[:-1]), *blocks[i + 1 :]]

        real = bijection._blocks
        for fault in (duplicated, dropped):
            with monkeypatch.context() as m:
                m.setattr(
                    bijection,
                    "_blocks",
                    lambda b: fault(list(real(b))) if b == n else real(b),
                )
                audit = cassini_audit(n)
            assert not audit.structure_ok
            assert not audit.balanced
            assert audit.failure.startswith("coverage: copy 1 "), audit.failure

    @pytest.mark.parametrize("n", [6, 7])
    def test_invalid_image_fails(self, monkeypatch, capsys, n):
        # one third-copy tail (it ends in a lone free h) contracts to its
        # image reversed: a non-tiling ending in a post, which the companion
        # branch of _preimage cannot read
        blocks = core._blocks(n)
        longest = max((tails for _, tails in blocks), key=len)
        victim = next(e for e in map("".join, longest) if e.endswith("Rh"))
        real = bijection._contract_at_h

        def contract(enc, p):
            image = real(enc, p)
            return image[::-1] if enc == victim else image

        monkeypatch.setattr(bijection, "_contract_at_h", contract)
        audit = cassini_audit(n)
        assert not audit.structure_ok
        assert not audit.balanced
        assert audit.failure.startswith("image grammar: ")
        assert victim in audit.failure
        # a failed verification, not an input error: exit 1, and the failed
        # check on stderr
        assert main(["bijection", "--n", str(n), "--audit"]) == 1
        out, err = capsys.readouterr()
        assert out.endswith("UNBALANCED\n")
        assert err == audit.failure + "\n"


class TestRecordValues:
    """CassiniImage and CassiniAudit are frozen values: equal and hashed by
    their fields, except the audit's failure, which neither compares nor
    hashes."""

    def test_image_equal_and_hash_by_fields(self):
        a = CassiniImage(TargetCopy.FIRST, validate("hh"))
        b = CassiniImage(TargetCopy.FIRST, validate("hh"), None)
        assert a == b and hash(a) == hash(b)
        assert a != CassiniImage(TargetCopy.SECOND, validate("hh"))
        assert a != CassiniImage(None, None, AllBifenceException.SOURCE)
        assert len({a, b, CassiniImage(None, None, AllBifenceException.SOURCE)}) == 2

    def test_image_defaults_to_no_exception(self):
        assert CassiniImage(TargetCopy.THIRD, validate("hh")).exception is None

    def test_image_repr(self):
        assert repr(CassiniImage(TargetCopy.FIRST, validate("hh"))) == (
            "CassiniImage(target_copy=<TargetCopy.FIRST: 1>, "
            "image=Tiling(pieces=('hh',)), exception=None)"
        )
        assert repr(CassiniImage(None, None, AllBifenceException.SOURCE)) == (
            "CassiniImage(target_copy=None, image=None, "
            "exception=<AllBifenceException.SOURCE: 'all-bifence-source'>)"
        )

    def test_image_immutable(self):
        ci = cassini_partition(validate("hhhh"))
        for name in ("target_copy", "exception", "other"):
            with pytest.raises(AttributeError):
                setattr(ci, name, None)
        with pytest.raises(AttributeError):
            del ci.image
        assert ci == CassiniImage(TargetCopy.FIRST, validate("hh"))

    def test_audits_differing_only_in_failure_are_equal(self):
        fields = (5, 73, 73, True, "target", 2, True)
        quiet, loud = CassiniAudit(*fields), CassiniAudit(*fields, "coverage: x")
        assert quiet == loud and hash(quiet) == hash(loud)
        assert len({quiet, loud}) == 1
        assert quiet.failure is None and loud.failure == "coverage: x"
        assert quiet != CassiniAudit(5, 73, 73, True, "target", 2, False)
        assert quiet == cassini_audit(5)

    def test_audit_hash_is_the_hash_of_its_compared_fields(self):
        fields = (5, 73, 73, True, "target", 2, True)
        assert hash(CassiniAudit(*fields, "anything")) == hash(fields)

    def test_audit_equal_only_to_an_audit(self):
        fields = (5, 73, 73, True, "target", 2, True)
        audit = CassiniAudit(*fields)
        assert audit != fields and audit != (*fields, None)
        assert audit.__eq__(fields) is NotImplemented

    def test_audit_repr_shows_the_failure(self):
        assert repr(cassini_audit(4)) == (
            "CassiniAudit(n=4, lhs=29, rhs=29, balanced=True, "
            "exception_side='source', exception_count=2, structure_ok=True, "
            "failure=None)"
        )
        assert repr(CassiniAudit(3, 1, 2, False, "target", 0, False, "x")) == (
            "CassiniAudit(n=3, lhs=1, rhs=2, balanced=False, "
            "exception_side='target', exception_count=0, structure_ok=False, "
            "failure='x')"
        )

    def test_audit_immutable(self):
        audit = cassini_audit(3)
        for name in ("n", "failure", "other"):
            with pytest.raises(AttributeError):
                setattr(audit, name, None)
        for name in ("balanced", "failure"):
            with pytest.raises(AttributeError):
                delattr(audit, name)
        assert (audit.n, audit.failure) == (3, None)
