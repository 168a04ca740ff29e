"""The executable near-bijection behind the alternating-sign identity.

The map sends the tilings of an n-board and an (n-2)-board onto three
copies of the (n-1)-board tilings, exactly up to two all-bifence tilings
whose side depends on the parity of n.

All rewrites are splices of the encoding (tiles to the right of the site
translate by two half-cells).  One placement rule, _place, sends an n-board
encoding to its copy and image encoding.  The public maps re-validate every
image they return, so an invalid rewrite can never slip through as a
malformed encoding; the audit stays on encodings and checks each image
against the whole-tiling grammar pattern instead, so an invalid image fails
it rather than raising.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional

from .core import _TILING, InvalidTilingError, Tiling, _check_length, _walk, validate


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


@dataclass(frozen=True)
class CassiniImage:
    target_copy: Optional[TargetCopy]
    image: Optional[Tiling]
    exception: Optional[AllBifenceException] = None


def _contract_at_h(enc: str, p: int) -> str:
    """Board-shortening rewrite at the h at half-cell p.

    Captured h: the filled fence around it collapses to a single h.
    Free h: the bifence immediately to its right merges with it into a
    filled fence.  Either way everything further right closes up by two
    half-cells.  Shared by b_map, _place and _preimage.
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
    (n-1)-board tiling containing an h.

    Contract at the rightmost h (see _contract_at_h); when the tiling ends
    in a filled fence, that h is its gap and the fence becomes an h.
    """
    enc = t.encoding
    if "h" not in enc:
        raise BijectionDomainError("tiling contains no half-square")
    if enc[-1] != "R":
        raise BijectionDomainError("tiling does not end in a fence")
    return validate(_contract_at_h(enc, enc.rfind("h")))


def b_inverse(u: Tiling) -> Tiling:
    """Exact inverse of b_map, from (n-1)-board tilings containing an h."""
    enc = u.encoding
    if "h" not in enc:
        raise BijectionDomainError("all-bifence tiling has no preimage")
    return validate(_expand_at_h(enc, enc.rfind("h")))


def _place(enc: str) -> Optional[tuple[TargetCopy, str]]:
    """The copy and image encoding of the n-board tiling enc, or None for
    the all-bifence tiling, which fits nowhere.

    Ends in two h's on the last cell: strip them (first copy).  Ends in a
    fence: contract at the rightmost h, as b_map does (second copy).  Ends
    in a lone free h: contract at the second-rightmost h, keeping the final
    h (third copy).  The image is not checked.
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


def _image(placed: Optional[tuple[TargetCopy, str]]) -> CassiniImage:
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


def _sources(
    n: int,
) -> Iterator[tuple[tuple[str, ...], str, Optional[tuple[TargetCopy, str]], bool]]:
    """Every source of the near-bijection at n as its pieces and encoding,
    with its placement and whether it is a companion: the n-board tilings,
    placed by _place, then the (n-2)-board tilings, which go into the third
    copy through b_inverse's rewrite, except the all-bifence one.  Images
    are not checked.
    """
    if n < 2:
        _check_length(n)  # a negative length is named as such
        raise ValueError("partition needs a board of length at least 2")
    for pieces in _walk(n):
        enc = "".join(pieces)
        yield pieces, enc, _place(enc), False
    third = TargetCopy.THIRD
    for pieces in _walk(n - 2):
        enc = "".join(pieces)
        p = enc.rfind("h")
        yield pieces, enc, (third, _expand_at_h(enc, p)) if p >= 0 else None, True


def cassini_sources(n: int) -> Iterator[tuple[Tiling, CassiniImage, bool]]:
    """Every source of the near-bijection at n with its image and whether it
    is a companion.  The n-board tilings are placed by _place; the
    companions, the (n-2)-board tilings, go into the third copy through
    b_inverse (so their images end in a fence, the others there in an h),
    except the all-bifence one, a source exception.  Every image is
    re-validated.
    """
    for pieces, _, placed, companion in _sources(n):
        yield Tiling(pieces), _image(placed), companion


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


@dataclass(frozen=True)
class CassiniAudit:
    n: int
    lhs: int  # A_n + A_{n-2}, by enumeration
    rhs: int  # 3 A_{n-1} + 2 (-1)^n
    balanced: bool
    exception_side: str  # "source" (n even) or "target" (n odd)
    exception_count: int
    structure_ok: bool


def cassini_audit(n: int) -> CassiniAudit:
    """Exhaustively audit the near-bijection at board length n >= 3.

    One walk over the source encodings of _sources, placed by _place, and
    one count of the (n-1)-board tilings, in O(n) memory.  Every image is
    checked on its encoding: its length, an h where the copy needs one, and
    the whole-tiling grammar pattern core._TILING, before _preimage reads
    it, so an invalid image fails the audit rather than raising.  The map
    is injective when _preimage gives back every placed source.  It is then
    onto each copy when every image lies in the copy's targets (all
    (n-1)-board tilings for the first copy, those holding an h for the
    second and third) and the copy holds as many images as it has targets.
    Exactly two all-bifence tilings must be left over, on the side the
    parity of n predicts.
    """
    if n < 3:
        raise ValueError("audit needs n >= 3")
    targets = h_targets = 0
    for pieces in _walk(n - 1):
        targets += 1
        h_targets += "h" in "".join(pieces)

    first, second = TargetCopy.FIRST, TargetCopy.SECOND
    is_tiling = _TILING.fullmatch
    size = 2 * n - 2
    placed = [0, 0, 0]
    sources = source_exceptions = 0
    images_ok = True
    for _, enc, placement, _ in _sources(n):
        sources += 1
        if placement is None:
            source_exceptions += 1
            continue
        copy, e = placement
        placed[0 if copy is first else 1 if copy is second else 2] += 1
        images_ok = (
            images_ok
            and len(e) == size
            and (copy is first or "h" in e)
            and is_tiling(e) is not None
            and _preimage(copy, e) == enc
        )
    covered = placed == [targets, h_targets, h_targets]

    target_exceptions = 2 * (targets - h_targets)
    if n % 2 == 0:
        exceptions_ok = source_exceptions == 2 and target_exceptions == 0
        side = "source"
        count = source_exceptions
    else:
        exceptions_ok = source_exceptions == 0 and target_exceptions == 2
        side = "target"
        count = target_exceptions

    structure_ok = images_ok and covered and exceptions_ok
    rhs = 3 * targets + 2 * (-1) ** n
    return CassiniAudit(
        n, sources, rhs, sources == rhs and structure_ok, side, count, structure_ok
    )
