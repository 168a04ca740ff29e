"""The executable near-bijection behind the alternating-sign identity.

The map sends the tilings of an n-board and an (n-2)-board onto three
copies of the (n-1)-board tilings, exactly up to two all-bifence tilings
whose side depends on the parity of n.

All rewrites are splices of the encoding (tiles to the right of the site
translate by two half-cells) and the result is re-validated, so an invalid
rewrite can never slip through as a malformed encoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .core import InvalidTilingError, Tiling, enumerate_tilings, validate


class BijectionDomainError(ValueError):
    """Input tiling is outside the domain of the requested map."""


class TargetCopy(Enum):
    FIRST = 1
    SECOND = 2
    THIRD = 3


class AllBifenceException(Enum):
    """Exceptional all-bifence tilings that the near-bijection cannot place."""

    SOURCE = "all-bifence-source"
    TARGET = "all-bifence-target"


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
    half-cells.  Shared by the fence-ending map and the third-copy map.
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


def b_map(t: Tiling) -> Tiling:
    """Map an n-board tiling ending in a fence (and containing an h) to an
    (n-1)-board tiling containing an h.

    Ends in a filled fence: that filled fence becomes an h.  Ends in a
    bifence: contract at the rightmost h (see _contract_at_h).
    """
    enc = t.encoding
    if "h" not in enc:
        raise BijectionDomainError("tiling contains no half-square")
    if enc[-1] != "R":
        raise BijectionDomainError("tiling does not end in a fence")
    if enc.endswith("LhR"):
        return validate(enc[:-3] + "h")
    return validate(_contract_at_h(enc, enc.rfind("h")))  # ends in a bifence


def b_inverse(u: Tiling) -> Tiling:
    """Exact inverse of b_map, from (n-1)-board tilings containing an h."""
    enc = u.encoding
    if "h" not in enc:
        raise BijectionDomainError("all-bifence tiling has no preimage")
    if enc[-1] == "h":
        return validate(enc[:-1] + "LhR")
    q = enc.rfind("h")
    if q >= 1 and enc[q - 1] == "L":
        # captured: the filled fence re-expands to h plus a bifence
        return validate(enc[: q - 1] + "hLLRR" + enc[q + 2 :])
    # free: the h re-expands to a filled fence
    return validate(enc[:q] + "LhR" + enc[q + 1 :])


def cassini_partition(t: Tiling) -> CassiniImage:
    """Place an n-board tiling into one of three (n-1)-board copies.

    Ends in two h's on the last cell: strip them (first copy).  Ends in a
    fence: b_map (second copy).  Ends in a lone free h: contract at the
    second-rightmost h, keeping the final h (third copy).  The all-bifence
    tiling of an even board fits nowhere and is reported as the exception.
    """
    enc = t.encoding
    if len(enc) < 4:
        raise ValueError("partition needs a board of length at least 2")
    if "h" not in enc:
        return CassiniImage(None, None, AllBifenceException.SOURCE)
    if enc.endswith("hh"):
        return CassiniImage(TargetCopy.FIRST, validate(enc[:-2]))
    if enc[-1] == "R":
        return CassiniImage(TargetCopy.SECOND, b_map(t))
    # ends in a free h that is not part of an h^2 metatile
    p = enc.rfind("h", 0, len(enc) - 1)
    if p < 0:
        # impossible: fences cover an even number of half-cells, so a lone
        # trailing h forces a second h somewhere to its left
        raise InvalidTilingError(f"no second h in {enc!r}")
    return CassiniImage(TargetCopy.THIRD, validate(_contract_at_h(enc, p)))


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

    Checks that the maps are injective, that together they cover every
    h-containing target tiling in each copy, and that exactly two
    all-bifence tilings are left over on the side the parity of n predicts.
    """
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
