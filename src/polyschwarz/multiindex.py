"""Multi-index arithmetic: degrees, factorials, graded-lex enumeration, and
the rows of a tensor grid.

A multi-index is a tuple of n nonnegative integers.  It indexes both power
series exponents and mixed partial derivative orders.
"""

from __future__ import annotations

import math
import sys
from typing import Iterator, Sequence, Tuple

import numpy as np

MultiIndex = Tuple[int, ...]


def as_index(k: Sequence[int]) -> MultiIndex:
    """Validate a multi-index and normalize it to a tuple of ints."""
    # Refused: a k that is not a sequence (5, None, 1.5), an entry that int() refuses or
    # changes ([1], "x", 1.5), and an infinite float.
    try:
        idx = tuple(map(int, k))
        integral = idx == tuple(k)
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        shown = tuple(k) if np.iterable(k) else k
        raise ValueError(f"multi-index components must be integers, got {shown}")
    if not idx:
        raise ValueError("multi-index must have length >= 1")
    if min(idx) < 0:
        raise ValueError(f"multi-index components must be nonnegative, got {idx}")
    return idx


def check_factorial(alpha: MultiIndex) -> MultiIndex:
    """The rule that alpha! is a double (171! is not), for a validated multi-index
    alpha: alpha, or ValueError.  alpha! <= |alpha|!, so only |alpha| > 170 is tested,
    and log(alpha!) > 710 (above log of the largest double) settles it before a huge
    factorial is taken."""
    if sum(alpha) > 170 and (sum(math.lgamma(a + 1) for a in alpha) > 710.0
                             or factorial(alpha) > sys.float_info.max):
        raise ValueError(f"alpha! exceeds the largest double for the derivative order {alpha}")
    return alpha


def as_order(alpha: Sequence[int]) -> MultiIndex:
    """Validate the derivative order of the polydisk bound: a multi-index with
    every alpha_j >= 1 whose alpha! is a double (check_factorial)."""
    alpha = as_index(alpha)
    if any(a < 1 for a in alpha):
        raise ValueError(f"every derivative order component must be >= 1, got {alpha}")
    return check_factorial(alpha)


def degree(k: Sequence[int]) -> int:
    """Total degree |k| = sum of components."""
    return sum(as_index(k))


def factorial(k: Sequence[int]) -> int:
    """Componentwise factorial product k! = prod_j (k_j!).

    Computed with Python's arbitrary-precision integers, so large orders
    cannot silently wrap around.
    """
    out = 1
    for c in as_index(k):
        out *= math.factorial(c)
    return out


def unit_index(n: int, j: int) -> MultiIndex:
    """The j-th coordinate unit multi-index of length n."""
    if not 0 <= j < n:
        raise ValueError(f"coordinate {j} out of range for dimension {n}")
    return tuple(1 if i == j else 0 for i in range(n))


def grid_rows(axes) -> np.ndarray:
    """The tensor grid of n one-dimensional arrays as rows, shape
    (prod of their lengths, n), the last axis varying fastest (the order of
    np.meshgrid with 'ij' indexing, which numpy limits to 32 axes)."""
    axes = [np.asarray(a) for a in axes]
    sizes = [len(a) for a in axes]
    rows = np.empty((math.prod(sizes), len(axes)), dtype=np.result_type(*axes))
    for j, a in enumerate(axes):
        rows[:, j] = np.tile(np.repeat(a, math.prod(sizes[j + 1:])), math.prod(sizes[:j]))
    return rows


def _compositions(n: int, total: int, low: int) -> Iterator[MultiIndex]:
    """All length-n tuples with components >= low summing to total, in lex order."""
    if n == 1:
        if total >= low:
            yield (total,)
        return
    for first in range(low, total - low * (n - 1) + 1):
        for rest in _compositions(n - 1, total - first, low):
            yield (first,) + rest


def enumerate_indices(n: int, max_degree: int, min_component: int = 0) -> list[MultiIndex]:
    """All multi-indices of length n with components >= min_component and
    degree <= max_degree, in graded lexicographic order (degree first, then
    lex).  The graded-lex order keeps serialized coefficient tables stable.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    out: list[MultiIndex] = []
    for d in range(max(0, n * min_component), max_degree + 1):
        out.extend(_compositions(n, d, min_component))
    return out
