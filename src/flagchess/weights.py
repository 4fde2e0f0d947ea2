"""Type-A weight arithmetic and Borel-Weil-Bott regularization.

Weights live in fundamental-weight coordinates: a length-(N-1) tuple of exact
integers describes a character of the maximal torus of GL(N) up to det-twists,
and the flag threefold machinery below only ever needs N >= 3 so that the
partial flag variety F(1,2,N) of (line in plane in C^N) exists.

The regularization loop is the dotted Weyl action: add rho, then repeatedly
reflect the smallest-index negative coordinate.  A zero coordinate anywhere
means the weight is singular and the line bundle has no cohomology; otherwise
the number of reflections is the unique cohomological degree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

Weight = tuple[int, ...]

# degree -> multiplicity; the empty dict is the zero graded vector space.
GradedDims = dict[int, int]


def rho(N: int) -> Weight:
    """Sum of fundamental weights of GL(N): the all-ones vector of length N-1."""
    if N < 3:
        raise ValueError(f"need N >= 3, got {N}")
    return (1,) * (N - 1)


def simple_reflection(w: Weight, i: int) -> Weight:
    """Reflect w at the i-th simple root (1-indexed), in fundamental coordinates.

    Coordinate i is negated and its old value is added to the neighbours i-1
    and i+1 where they exist; everything else is untouched.
    """
    if not 1 <= i <= len(w):
        raise ValueError(f"reflection index {i} out of range 1..{len(w)}")
    c = list(w)
    v = c[i - 1]
    c[i - 1] = -v
    if i >= 2:
        c[i - 2] += v
    if i <= len(w) - 1:
        c[i] += v
    return tuple(c)


@dataclass(frozen=True)
class Regularization:
    """Outcome of the dotted-Weyl regularization of a lambda+rho weight.

    ``weight`` is the strictly dominant representative (still in lambda+rho
    form) when regular, ``length`` the number of reflections applied, and
    ``trace`` the (index, weight-after) chain for reproducible logs.
    """

    singular: bool
    length: int
    weight: Weight | None
    trace: tuple[tuple[int, Weight], ...] = field(default=())


def bwb_regularize(w_plus_rho: Weight) -> Regularization:
    """Regularize lambda+rho: reflect the smallest negative index until dominant.

    Returns a singular outcome as soon as any coordinate hits zero.  Always
    terminates in type A (equivalently: suffix sums either repeat, or sorting
    them counts inversions).
    """
    w = tuple(w_plus_rho)
    steps: list[tuple[int, Weight]] = []
    while True:
        if any(c == 0 for c in w):
            return Regularization(True, len(steps), None, tuple(steps))
        neg = next((k for k, c in enumerate(w) if c < 0), None)
        if neg is None:
            return Regularization(False, len(steps), w, tuple(steps))
        w = simple_reflection(w, neg + 1)
        steps.append((neg + 1, w))


def weyl_dim(dominant: Weight) -> int:
    """Dimension of the GL(N) irrep with the given dominant fundamental weight.

    Works in partition coordinates lambda_i = suffix sums (lambda_N = 0) and
    takes the product of (lambda_i - lambda_j + j - i)/(j - i) over i < j with
    exact rational intermediates.
    """
    if any(c < 0 for c in dominant):
        raise ValueError(f"weight {dominant} is not dominant")
    lam = _suffix_sums(dominant)
    acc = Fraction(1)
    for i in range(len(lam)):
        for j in range(i + 1, len(lam)):
            acc *= Fraction(lam[i] - lam[j] + j - i, j - i)
    assert acc.denominator == 1
    return int(acc)


def _suffix_sums(w: Weight) -> tuple[int, ...]:
    """Partition-coordinate view (lambda_1..lambda_N) of a fundamental weight."""
    out = [0]
    for c in reversed(w):
        out.append(out[-1] + c)
    return tuple(reversed(out))


@dataclass(frozen=True)
class CohomResult:
    """Cohomology of one line bundle: either vanishing or a single H^degree.

    ``degree is None`` encodes the vanishing variant; otherwise ``dominant``
    is the dominant weight of the resulting irrep and ``dim`` its dimension.
    """

    degree: int | None
    dominant: Weight | None
    dim: int
    trace: tuple[tuple[int, Weight], ...] = field(default=())

    @property
    def vanishes(self) -> bool:
        return self.degree is None

    def graded(self) -> GradedDims:
        if self.degree is None:
            return {}
        return {self.degree: self.dim}


@lru_cache(maxsize=None)
def line_bundle_cohomology(N: int, x: int, y: int) -> CohomResult:
    """Cohomology of O(x*h1 + y*h2) on F(1,2,N), i.e. of the weight (x,y,0,..,0)."""
    return _line_bundle(N, x, y)


def _line_bundle(N: int, x: int, y: int) -> CohomResult:
    """Uncached BWB for the weight (x, y, 0, .., 0) in fundamental coordinates."""
    if N < 3:
        raise ValueError(f"need N >= 3, got {N}")
    w = (x, y) + (0,) * (N - 3)
    reg = bwb_regularize(tuple(a + b for a, b in zip(w, rho(N))))
    if reg.singular:
        return CohomResult(None, None, 0, reg.trace)
    assert reg.weight is not None
    dom = tuple(a - 1 for a in reg.weight)
    return CohomResult(reg.length, dom, weyl_dim(dom), reg.trace)


def canonical_fiber(N: int) -> tuple[int, int]:
    """(x, y) twist of the canonical line bundle of the fiber F(1,2,N)."""
    if N < 3:
        raise ValueError(f"need N >= 3, got {N}")
    return (-2, -(N - 1))


def graded_add(a: GradedDims, b: GradedDims) -> GradedDims:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in sorted(out.items()) if v}


def graded_shift(g: GradedDims, d: int) -> GradedDims:
    """Shift every degree by d."""
    return {k + d: v for k, v in sorted(g.items())}


def euler_char(g: GradedDims) -> int:
    return sum(v if k % 2 == 0 else -v for k, v in g.items())
