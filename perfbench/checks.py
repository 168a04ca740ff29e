"""Independent output checks for the benchmark.

Nothing here imports fencetiles: every expected value is derived again from
the definitions (fast-doubling Fibonacci, small matrix powers, a direct
exact-cover parse of the encoding, the metatile "no interior cut" rule), so
a workload is never checked only by the code it times.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import xml.etree.ElementTree as ET


class CheckError(AssertionError):
    """An output of the program disagrees with the independent check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# --- integer sequences -------------------------------------------------------


def fib(n: int) -> int:
    """F_n by fast doubling; F_0 = 0, F_1 = 1."""
    if n < 0:
        raise ValueError("n must be non-negative")

    def pair(k: int) -> tuple[int, int]:  # (F_k, F_{k+1})
        if k == 0:
            return 0, 1
        a, b = pair(k >> 1)
        c = a * (2 * b - a)
        d = a * a + b * b
        return (d, c + d) if k & 1 else (c, d)

    return pair(n)[0]


def _mat_mul(x, y):
    return [
        [sum(x[i][k] * y[k][j] for k in range(len(y))) for j in range(len(y[0]))]
        for i in range(len(x))
    ]


def linear_recurrence(coefficients, initial, n: int) -> int:
    """a_n of a_m = sum_i c_i a_{m-1-i}, by powering the companion matrix."""
    d = len(coefficients)
    if n < d:
        return initial[n]
    companion = [list(coefficients)] + [
        [int(i == j) for j in range(d)] for i in range(d - 1)
    ]
    power = [[int(i == j) for j in range(d)] for i in range(d)]
    e = n - (d - 1)
    while e:
        if e & 1:
            power = _mat_mul(power, companion)
        companion = _mat_mul(companion, companion)
        e >>= 1
    state = [[v] for v in reversed(initial[:d])]  # a_{d-1}, ..., a_0
    return _mat_mul(power, state)[0][0]


def count_A(n: int) -> int:
    """All tilings of an n-board: F_{n+1}^2."""
    return fib(n + 1) ** 2 if n >= 0 else 0


def count_S(n: int) -> int:
    """No free bifence: S_n = 2 S_{n-1} + S_{n-2}."""
    return linear_recurrence((2, 1), (1, 1), n) if n >= 0 else 0


def count_C(n: int) -> int:
    """No bifence: C_n = C_{n-1} + 2 C_{n-2} + C_{n-3}."""
    return linear_recurrence((1, 2, 1), (1, 1, 3), n) if n >= 0 else 0


def count_T(n: int) -> int:
    """No even-length metatile: T_n = T_{n-1} + T_{n-2} + T_{n-3}."""
    return linear_recurrence((1, 1, 1), (1, 1, 1), n) if n >= 0 else 0


SEQUENCES = {"fib": fib, "A": count_A, "S": count_S, "C": count_C, "T": count_T}

#: closed-form count of the tilings each CLI filter keeps
FILTER_COUNTS = {
    "none": count_A,
    "no-bifence": count_C,
    "no-free-bifence": count_S,
    "odd-metatiles": count_T,
}


def decimal(value: int) -> str:
    """str(value) without CPython's int->str digit limit, which the checks
    must not inherit from the program under test."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(old)


# --- tilings -----------------------------------------------------------------


def check_tiling(enc: str) -> int:
    """Check that enc encodes an exact cover; return the board length.

    Each symbol covers its own half-cell; a fence is an L at p and an R at
    p+2, so the cover is exact when every L has its R and every R its L.
    """
    size = len(enc)
    require(size % 2 == 0, f"odd encoding length {size}")
    for p, c in enumerate(enc):
        if c == "L":
            require(p + 2 < size and enc[p + 2] == "R", f"L at {p} unpaired in {enc!r}")
        elif c == "R":
            require(p >= 2 and enc[p - 2] == "L", f"R at {p} unpaired in {enc!r}")
        else:
            require(c == "h", f"unknown symbol {c!r} in {enc!r}")
    return size // 2


def _spanned(enc: str, boundary: int) -> bool:
    """True when a fence crosses the cell boundary at half-cell index boundary
    (its left post sits in the cell just before it)."""
    return enc[boundary - 2] == "L" or enc[boundary - 1] == "L"


@functools.lru_cache(maxsize=None)
def is_metatile(piece: str) -> bool:
    """A metatile is a non-empty tiling with no uncrossed interior cell boundary."""
    try:
        n = check_tiling(piece)
    except CheckError:
        return False
    return n >= 1 and all(_spanned(piece, 2 * k) for k in range(1, n))


def metatiles(enc: str) -> list[str]:
    """The metatile pieces of a valid encoding, cut at every uncrossed boundary."""
    n = check_tiling(enc)
    if n == 0:
        return []
    cuts = [0] + [2 * k for k in range(1, n) if not _spanned(enc, 2 * k)] + [2 * n]
    return [enc[a:b] for a, b in zip(cuts, cuts[1:])]


def check_decomposition(enc: str, pieces: list[str]) -> None:
    require("".join(pieces) == enc, f"pieces do not concatenate to {enc!r}")
    for piece in pieces:
        require(is_metatile(piece), f"{piece!r} is not a metatile")


def passes_filter(pieces: list[str], name: str) -> bool:
    """Whether the tiling made of these metatiles is kept by a CLI filter."""
    if name == "no-bifence":  # two interlocking fences: L at p and p+1
        return not any("LL" in piece for piece in pieces)
    if name == "no-free-bifence":
        return "LLRR" not in pieces
    if name == "odd-metatiles":
        return all(len(piece) % 4 == 2 for piece in pieces)
    require(name == "none", f"unknown filter {name!r}")
    return True


def check_enumeration(lines: list[str], n: int, name: str, limit=None) -> None:
    """Valid n-board tilings, strictly increasing, all kept by the filter, and
    as many as the closed form (or the limit) says."""
    expected = FILTER_COUNTS[name](n)
    if limit is not None:
        expected = min(expected, limit)
    require(len(lines) == expected, f"{len(lines)} tilings, expected {expected}")
    previous = None
    for enc in lines:
        require(len(enc) == 2 * n, f"{enc!r} is not an {n}-board tiling")
        require(previous is None or enc > previous, f"{enc!r} out of order")
        require(passes_filter(metatiles(enc), name), f"{enc!r} fails filter {name}")
        previous = enc


def ascii_picture(enc: str) -> str:
    n = check_tiling(enc)
    return enc.replace("L", "[").replace("R", "]") + "\n" + "+-" * n + "+\n"


def check_svg(enc: str, svg: str) -> None:
    """The SVG parses and shows one rect per half-cell, one bar per fence and
    one rule per cell boundary, on a canvas 40 px per cell plus margins."""
    n = check_tiling(enc)
    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    require(root.tag == ns + "svg", "root element is not svg")
    require(root.get("width") == str(40 * n + 20), "wrong canvas width")
    rects = root.findall(ns + "rect")
    require(len(rects) == 2 * n + enc.count("L"), "wrong number of rects")
    require(len(root.findall(ns + "line")) == n + 1, "wrong number of rules")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# --- reports -----------------------------------------------------------------


def numeric_lhs(identity: int, n: int) -> int:
    """Left-hand side of each identity, as in the paper."""
    if identity == 1:
        return fib(n) ** 2
    if identity == 2:
        return fib(n + 3) ** 2 - 1
    if identity == 3:
        return fib(2 * n + 2) ** 2
    return fib(n + 1) ** 2


def combinatorial_lhs(identity: int, n: int) -> int:
    """Number of tilings each combinatorial row bins."""
    return {
        2: lambda: count_A(n + 2) - 1,
        3: lambda: count_A(2 * n + 1),
        4: lambda: count_A(n) - count_S(n),
        5: lambda: count_A(n) - count_C(n),
        6: lambda: count_A(n) - count_T(n),
    }[identity]()


def numeric_range(identity: int, n_max: int) -> range:
    return range({1: 2, 7: 1}.get(identity, 0), n_max + 1)


def combinatorial_range(identity: int, n_max: int) -> range:
    """Rows the exhaustive mode covers: boards of at most 14 cells."""
    if identity == 2:
        return range(min(n_max, 12) + 1)
    if identity == 3:
        return range(min(n_max, 6) + 1)
    return range(min(n_max, 12) + 1)


def check_rows(identity: int, rows, expected_n: range, lhs_of) -> None:
    """rows are (n, lhs, rhs, passed) tuples."""
    require([r[0] for r in rows] == list(expected_n), f"identity {identity}: rows")
    for n, lhs, rhs, passed in rows:
        require(passed, f"identity {identity} n={n} reported a failure")
        require(lhs == rhs == lhs_of(identity, n), f"identity {identity} n={n}")


def audit_expectation(n: int) -> dict:
    return {
        "lhs": count_A(n) + count_A(n - 2),
        "rhs": 3 * count_A(n - 1) + 2 * (-1) ** n,
        "side": "source" if n % 2 == 0 else "target",
        "count": 2,
    }
