"""The executable near-bijection behind the alternating-sign identity.

The map sends the tilings of an n-board and an (n-2)-board onto three
copies of the (n-1)-board tilings, exactly up to two all-bifence tilings
whose side depends on the parity of n.

All rewrites are splices of the encoding (tiles to the right of the site
translate by two half-cells).  The placement rules, _place for an n-board
source and _companion for an (n-2)-board one, give its copy and image
encoding; b_map and b_inverse are the second-copy and companion rules,
re-validated as every image the public maps return is, so an invalid
rewrite can never slip through as a malformed encoding.  The audit stays on
encodings and checks each image against the whole-tiling grammar pattern
instead, so an invalid image fails it rather than raising.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from enum import Enum
from functools import partial

from .core import (
    _TILING,
    InvalidTilingError,
    Tiling,
    _blocks,
    _censused,
    _memo_depth,
    enumerate_tilings,
    validate,
)


#: Largest n the CLI audits.  With a memo of about half the board
#: (core._memo_depth) each step of 2 in n costs about 3 times more: n = 18
#: takes about 0.2 s, n = 20 about 0.6 s, against 2.7 s and 17 s with the
#: 6-cell memo (CPython 3.11.7, 2 shared cores).  The cap stays where the
#: CLI's usage contract has it: --n 19 is an input error, exit 2.
MAX_AUDIT_N = 18


class BijectionDomainError(ValueError):
    """Input tiling is outside the domain of the requested map."""


class TargetCopy(Enum):
    FIRST = 1
    SECOND = 2
    THIRD = 3


class AllBifenceException(Enum):
    """The all-bifence source tiling the near-bijection cannot place; the
    target-side exceptions are only counted, in CassiniAudit."""

    SOURCE = "all-bifence-source"


class CassiniImage(
    namedtuple("CassiniImage", "target_copy image exception", defaults=(None,))
):
    """Where a source goes: a copy (TargetCopy) and its image (Tiling), or
    neither and the exception (AllBifenceException)."""

    __slots__ = ()


def _contract_at_h(enc: str, p: int) -> str:
    """Board-shortening rewrite at the h at half-cell p.

    Captured h: the filled fence around it collapses to a single h.
    Free h: the bifence immediately to its right merges with it into a
    filled fence.  Either way everything further right closes up by two
    half-cells.  Shared by _place and _preimage.
    """
    if p >= 1 and enc[p - 1] == "L":
        return enc[: p - 1] + "h" + enc[p + 2 :]
    if enc[p + 1 : p + 5] != "LLRR":
        # theorem of the model: right of the last free h there are only
        # interlocking bifences, so this must never trigger on valid input
        raise BijectionDomainError(
            f"free h at {p} is not followed by a bifence in {enc!r}"
        )
    return enc[:p] + "LhR" + enc[p + 5 :]


def _expand_at_h(enc: str, q: int) -> str:
    """Inverse of _contract_at_h at the h it left at half-cell q: a captured
    h re-expands to h plus a bifence, a free h to a filled fence."""
    if q >= 1 and enc[q - 1] == "L":
        return enc[: q - 1] + "hLLRR" + enc[q + 2 :]
    return enc[:q] + "LhR" + enc[q + 1 :]


def b_map(t: Tiling) -> Tiling:
    """Map an n-board tiling ending in a fence (and containing an h) to an
    (n-1)-board tiling containing an h by _place's second-copy rule:
    contract at the rightmost h; when the tiling ends in a filled fence,
    that h is its gap and the fence becomes an h."""
    enc = t.encoding
    if "h" not in enc:
        raise BijectionDomainError("tiling contains no half-square")
    if enc[-1] != "R":
        raise BijectionDomainError("tiling does not end in a fence")
    return validate(_place(enc)[1])


def b_inverse(u: Tiling) -> Tiling:
    """Exact inverse of b_map on (n-1)-board tilings with an h: _companion's rule."""
    enc = u.encoding
    if "h" not in enc:
        raise BijectionDomainError("all-bifence tiling has no preimage")
    return validate(_companion(enc)[1])


def _place(enc: str) -> tuple[TargetCopy, str] | None:
    """The copy and image encoding of the n-board tiling enc, or None for
    the all-bifence tiling, which fits nowhere.

    Ends in two h's on the last cell: strip them (first copy).  Ends in a
    fence: contract at the rightmost h (second copy, b_map's rule).  Ends in
    a lone free h: contract at the second-rightmost h, keeping the final h
    (third copy).  The image is not checked.
    """
    if "h" not in enc:
        return None
    if enc.endswith("hh"):
        return TargetCopy.FIRST, enc[:-2]
    if enc[-1] == "R":
        return TargetCopy.SECOND, _contract_at_h(enc, enc.rfind("h"))
    # ends in a free h that is not part of an h^2 metatile
    p = enc.rfind("h", 0, len(enc) - 1)
    if p < 0:
        # impossible: fences cover an even number of half-cells, so a lone
        # trailing h forces a second h somewhere to its left
        raise InvalidTilingError(f"no second h in {enc!r}")
    return TargetCopy.THIRD, _contract_at_h(enc, p)


def _image(placed: tuple[TargetCopy, str] | None) -> CassiniImage:
    """A placement as the public image, re-validated."""
    if placed is None:
        return CassiniImage(None, None, AllBifenceException.SOURCE)
    copy, image = placed
    return CassiniImage(copy, validate(image))


def cassini_partition(t: Tiling) -> CassiniImage:
    """Place an n-board tiling into one of three (n-1)-board copies by
    _place, re-validating the image.  The all-bifence tiling of an even
    board fits nowhere and is reported as the exception.
    """
    enc = t.encoding
    if len(enc) < 4:
        raise ValueError("partition needs a board of length at least 2")
    return _image(_place(enc))


def _companion(enc: str) -> tuple[TargetCopy, str] | None:
    """The copy and image encoding of the (n-2)-board companion enc: the
    third copy through _expand_at_h at the rightmost h (b_inverse), or None
    for the all-bifence tiling.  The image is not checked."""
    p = enc.rfind("h")
    return (TargetCopy.THIRD, _expand_at_h(enc, p)) if p >= 0 else None


def cassini_sources(n: int) -> Iterator[tuple[Tiling, CassiniImage, bool]]:
    """Every source of the near-bijection at n with its image and whether it
    is a companion.  The n-board tilings are placed by cassini_partition,
    which rejects n < 2 at the first tiling; the companions, the (n-2)-board
    tilings, go into the third copy through b_inverse (so their images end
    in a fence, the others there in an h), except the all-bifence one, a
    source exception.  Every image is re-validated.
    """
    for t in enumerate_tilings(n):
        yield t, cassini_partition(t), False
    for u in enumerate_tilings(n - 2):
        yield u, _image(_companion(u.encoding)), True


def _preimage(copy: TargetCopy, e: str) -> str:
    """The encoding of the source placed on the image encoding e in the given
    copy: a left inverse that reads only the copy and the image, so no two
    sources placed on one image can both be given back.  It is not checked:
    equality with a valid source encoding is the check."""
    if copy is TargetCopy.FIRST:
        return e + "hh"
    if copy is TargetCopy.SECOND:  # b_inverse
        return _expand_at_h(e, e.rfind("h"))
    if e.endswith("h"):  # an n-board source, contracted at its second-last h
        return _expand_at_h(e, e.rfind("h", 0, len(e) - 1))
    return _contract_at_h(e, e.rfind("h"))  # a companion: b_map


class CassiniAudit(
    namedtuple(
        "CassiniAudit",
        "n lhs rhs balanced exception_side exception_count structure_ok failure",
        defaults=(None,),
    )
):
    """The audit's result: lhs = A_n + A_{n-2} by enumeration, rhs = 3
    A_{n-1} + 2 (-1)^n, and the exceptions on exception_side, "source" (n
    even) or "target" (n odd).  failure names the first failing check, with
    one source encoding where it has one; it is neither compared nor
    hashed, so audits are equal by what they counted, and only to audits."""

    __slots__ = ()

    def __eq__(self, other):
        # False, not NotImplemented, for a non-audit: the reflected tuple
        # equality would make the audit equal to the tuple of its fields
        return isinstance(other, CassiniAudit) and self[:-1] == other[:-1]

    def __ne__(self, other):
        return not self == other

    def __hash__(self) -> int:
        return hash(self[:-1])


def _fault(enc: str, placement: tuple[TargetCopy, str] | None, size: int) -> str | None:
    """The audit's checks of one source encoding and its placement: None
    when they pass, else the first failing check with the source.  A source
    holding an h must fit a copy.  Its image must be size long, hold an h
    where the copy needs one and match the whole-tiling grammar
    core._TILING, checked before _preimage reads it, which must give the
    source back."""
    if placement is None:
        return f"exceptions: {enc} holds an h but fits no copy" if "h" in enc else None
    copy, e = placement
    if (
        len(e) != size
        or (copy is not TargetCopy.FIRST and "h" not in e)
        or _TILING.fullmatch(e) is None
    ):
        return f"image grammar: {enc} -> copy {copy.value} {e!r} is not a target"
    back = _preimage(copy, e)
    if back != enc:
        return f"preimage: {enc} -> copy {copy.value} {e} reads back as {back}"
    return None


def _slot(placement: tuple[TargetCopy, str] | None) -> int:
    """A placement's tally slot: copies 1-3 at 0-2, a source exception at 3."""
    return 3 if placement is None else placement[0].value - 1


def _census(place, grow: int, tails: tuple[tuple[str, ...], ...]) -> tuple:
    """Place each tail of one tail set of core._blocks on its own, by place
    (_place or _companion), whose images must be grow half-cells longer than
    their sources.  Returns, over the tails holding an h, the images per
    copy and the source exceptions; the tails holding no h, which the audit
    places whole; and what _block_fault checks: the first tail and the
    first that fails _fault, each with its placement (None when none)."""
    counts = [0, 0, 0, 0]  # by _slot
    free: list[str] = []
    first = bad = None
    for t in tails:
        tail = "".join(t)
        if "h" not in tail:
            free.append(tail)
            continue
        placement = place(tail)
        if first is None:
            first = tail, placement
        counts[_slot(placement)] += 1
        if bad is None and _fault(tail, placement, len(tail) + grow) is not None:
            bad = tail, placement
    return counts, free, (first, bad)


def _shifted(
    head: str, placement: tuple[TargetCopy, str] | None
) -> tuple[TargetCopy, str] | None:
    """A tail's placement as the tiling head + tail gets it by the locality
    lemma."""
    return None if placement is None else (placement[0], head + placement[1])


def _block_fault(head: str, checks: tuple, place, size: int) -> str | None:
    """The audit's checks of the block head + tails from the census of its
    tails: None when they pass, else the first failing check.  Its tails
    hold no fault, and its first tiling whose tail holds an h, placed whole,
    gets head + the census image.  A census fault is named on the whole
    tiling (images size long); one that passes whole breaks locality."""
    first, bad = checks
    if bad is not None:
        source = head + bad[0]
        return _fault(source, _shifted(head, bad[1]), size) or (
            f"locality: {source} fails by its tail alone, not whole"
        )
    if first is not None:
        source = head + first[0]
        if place(source) != _shifted(head, first[1]):
            return f"locality: {source} is placed whole unlike its tail alone"
    return None


def _holding_h(tails) -> tuple[int, int]:  # the targets' census: size, with an h
    return len(tails), sum("h" in "".join(t) for t in tails)


def cassini_audit(n: int) -> CassiniAudit:
    """Exhaustively audit the near-bijection at board length n >= 1.

    The sources are read by block from core._blocks: the n-board tilings,
    placed by _place, then the (n-2)-board companions, placed by
    _companion.  All three walks, the targets' too, share one memo, of the
    depth core._memo_depth gives n, about half the board; each has a census
    store of its own, as the three censuses differ (_audit shares them
    between boards, as a census reads its tails alone).  Every rewrite happens
    at the rightmost or second-rightmost h, and a block's prefix is whole
    metatiles, so it ends in h or R, never in L.  So a tail holding an h is
    placed alike alone and after the prefix, and _preimage reads its image
    alike (the locality lemma).
    core._censused places and checks each tail set once per role, tail by
    tail, into a census; per block the census counts are added and
    _block_fault checks the block.  The tails holding no h (all bifences,
    or empty) have their rewrite site in the prefix, so those tilings are
    placed and checked whole by _fault.

    The map is injective when _preimage gives back every placed source.  It
    is then onto each copy when every image lies in the copy's targets (all
    (n-1)-board tilings for the first copy, those holding an h for the
    second and third, counted by block) and the copy holds as many images
    as it has targets.  Exactly two all-bifence tilings must be left over,
    on the side the parity of n predicts.  failure names the first check
    that fails.  Memory is O(n) plus the walk's memo, about 1.6 A_d tails
    at depth d, and one census per tail set.
    """
    return _audit(n, _memo_depth(n), [], {})


def _audit(n: int, memo: int, tails: list, stores: dict) -> CassiniAudit:
    """cassini_audit(n) on the memo list tails, of depth memo (core._blocks),
    with a census store per role in stores, keyed by its census's rule."""
    if n < 1:
        raise ValueError("audit needs n >= 1")
    role = stores.setdefault  # the census store of a role
    targets = h_targets = 0
    blocks = _blocks(n - 1, None, memo, tails)
    for _, head, (count, with_h) in _censused(blocks, _holding_h, role(_holding_h, {})):
        targets += count
        h_targets += count if "h" in head else with_h

    size = 2 * n - 2
    tally = [0, 0, 0, 0]  # by _slot
    failure: str | None = None
    for place, board in ((_place, n), (_companion, n - 2)):
        if board < 0:  # n = 1: the (-1)-board has no companion to place
            continue
        census = partial(_census, place, size - 2 * board)
        blocks = _censused(_blocks(board, None, memo, tails), census, role(place, {}))
        for _, head, (counts, free, checks) in blocks:
            for k, count in enumerate(counts):
                tally[k] += count
            if failure is None:
                failure = _block_fault(head, checks, place, size)
            for tail in free:  # holding no h: placed whole
                source = head + tail
                placement = place(source)
                tally[_slot(placement)] += 1
                if failure is None:
                    failure = _fault(source, placement, size)

    lhs = sum(tally)
    for k, want in enumerate((targets, h_targets, h_targets)):
        if failure is None and tally[k] != want:
            failure = f"coverage: copy {k + 1} holds {tally[k]} images, expected {want}"

    source_exceptions = tally[3]
    target_exceptions = 2 * (targets - h_targets)
    if n % 2 == 0:
        side, count, expected = "source", source_exceptions, (2, 0)
    else:
        side, count, expected = "target", target_exceptions, (0, 2)
    if failure is None and (source_exceptions, target_exceptions) != expected:
        failure = (
            f"exceptions: {source_exceptions} on the source side and "
            f"{target_exceptions} on the target side, expected "
            f"{expected[0]} and {expected[1]}"
        )

    structure_ok = failure is None
    rhs = 3 * targets + 2 * (-1) ** n
    return CassiniAudit(
        n, lhs, rhs, lhs == rhs and structure_ok, side, count, structure_ok, failure
    )

