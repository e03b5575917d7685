"""Multi-index arithmetic: degrees, factorials, graded-lex enumeration.

A multi-index is a tuple of n nonnegative integers.  It indexes both power
series exponents and mixed partial derivative orders.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence, Tuple

MultiIndex = Tuple[int, ...]


def as_index(k: Sequence[int]) -> MultiIndex:
    """Validate a multi-index and normalize it to a tuple of ints."""
    idx = tuple(int(c) for c in k)
    if len(idx) < 1:
        raise ValueError("multi-index must have length >= 1")
    if any(c != o for c, o in zip(idx, k)):
        raise ValueError(f"multi-index components must be integers, got {tuple(k)}")
    if any(c < 0 for c in idx):
        raise ValueError(f"multi-index components must be nonnegative, got {idx}")
    return idx


def as_order(alpha: Sequence[int]) -> MultiIndex:
    """Validate the derivative order of the polydisk bound: a multi-index
    with every alpha_j >= 1."""
    alpha = as_index(alpha)
    if any(a < 1 for a in alpha):
        raise ValueError(f"every derivative order component must be >= 1, got {alpha}")
    return alpha


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
