"""Type-A weight arithmetic and Borel-Weil-Bott on F(1,2,N).

Weights live in fundamental-weight coordinates: a length-(N-1) tuple of exact
integers describes a character of the maximal torus of GL(N) up to det-twists,
and the flag threefold machinery below only ever needs N >= 3 so that the
partial flag variety F(1,2,N) of (line in plane in C^N) exists.

Line-bundle cohomology uses Bott's theorem in its sorting form (Demazure,
"A very simple proof of Bott's theorem", Invent. Math. 33, 1976).  In
partition coordinates the Weyl group permutes the entries of lambda+rho, so
the weight is singular exactly when two entries agree, the cohomological
degree is the number of inversions.  For O(x, y) only the first two of the
N entries vary, so the degree costs a few comparisons and the Weyl
dimension two binomials and one exact division by N-1, with no sort; a miss
of the Bott cache returns one shared vanishing answer or builds its
``CohomResult`` as a plain tuple.
``_game_N`` is the one (n, eps) rule and ``_flag_N`` the one N rule, each
with its bound; the Bott evaluator refuses a twist past the reach that
checked input can give it, derived in ``_line_bundle``.

``GradedDims`` is the one form of a cohomology or Ext answer in every
layer, record and document.

``bwb_regularize`` is the dotted Weyl action done by reflections: add rho,
then repeatedly reflect the smallest-index negative coordinate.  It gives the
reflection trace that the ``bwb`` command prints, and the dominant weight
where that trace ends; it also serves as an independent cross-check of the
sorting form.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import NamedTuple

from . import _MAX_N, _MAX_n, _MAX_reach, _shown, _sized

Weight = tuple[int, ...]

# (degree, dim) pairs, degrees increasing and every dim >= 1; () is zero.
GradedDims = tuple[tuple[int, int], ...]


def rho(N: int) -> Weight:
    """Sum of fundamental weights of GL(N): the all-ones vector of length N-1."""
    return (1,) * (_flag_N(N) - 1)


def _flag_N(N: int) -> int:
    """N itself, an int from 3 (so that F(1,2,N) exists) to ``cli.MAX_N``."""
    return _sized(N, "N", 3, _MAX_N)


def _game_N(n: int, eps: int) -> int:
    """N = 2n + eps: the one (n, eps) rule, bound included.  It refuses an n
    that is not an int from 2 to ``cli.MAX_n`` first, then an eps not 0 or 1."""
    return 2 * _sized(n, "n", 2, _MAX_n) + _sized(eps, "eps", 0, 1)


def _weight(w: object) -> Weight:
    """``w`` as a tuple, refusing with ``ValueError`` anything but a tuple or list of ints."""
    if type(w) not in (tuple, list) or any(type(c) is not int for c in w):
        raise ValueError(f"a weight must be a tuple or list of ints, got {_shown(w)}")
    return tuple(w)


def simple_reflection(w: Weight, i: int) -> Weight:
    """Reflect w at the i-th simple root (1-indexed), in fundamental coordinates.

    Coordinate i is negated and its old value is added to the neighbours i-1
    and i+1 where they exist; everything else is untouched.
    """
    c = list(_weight(w))
    _sized(i, "reflection index", 1, len(c))
    v = c[i - 1]
    c[i - 1] = -v
    if i >= 2:
        c[i - 2] += v
    if i <= len(w) - 1:
        c[i] += v
    return tuple(c)


class Regularization(NamedTuple):
    """Outcome of the dotted-Weyl regularization of a lambda+rho weight.

    ``weight`` is the strictly dominant representative (still in lambda+rho
    form) when regular, ``length`` the number of reflections applied, and
    ``trace`` the (index, weight-after) chain for reproducible logs.
    """

    singular: bool
    length: int
    weight: Weight | None
    trace: tuple[tuple[int, Weight], ...] = ()


def bwb_regularize(w_plus_rho: Weight) -> Regularization:
    """Regularize lambda+rho: reflect the smallest negative index until dominant.

    Returns a singular outcome as soon as any coordinate hits zero.  Always
    terminates in type A (equivalently: suffix sums either repeat, or sorting
    them counts inversions).
    """
    w = _weight(w_plus_rho)
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
    takes the product of (lambda_i - lambda_j + j - i)/(j - i) over i < j as
    one integer numerator over one integer denominator, divided once.
    """
    if any(c < 0 for c in _weight(dominant)):
        raise ValueError(f"weight {_shown(dominant)} is not dominant")
    lam = _suffix_sums(dominant)
    num = den = 1
    for i in range(len(lam)):
        for j in range(i + 1, len(lam)):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    dim, rem = divmod(num, den)
    if rem:
        raise AssertionError(f"Weyl product of {dominant} is not an integer")
    return dim


def _suffix_sums(w: Weight) -> tuple[int, ...]:
    """Partition-coordinate view (lambda_1..lambda_N) of a fundamental weight."""
    out = [0]
    for c in reversed(w):
        out.append(out[-1] + c)
    return tuple(reversed(out))


class CohomResult(NamedTuple):
    """Cohomology of one line bundle: either vanishing or a single H^degree.

    ``degree is None`` encodes the vanishing variant; otherwise ``dim`` is
    the dimension of the resulting irrep.
    """

    degree: int | None
    dim: int

    @property
    def vanishes(self) -> bool:
        return self.degree is None

    def graded(self) -> GradedDims:
        return () if self.degree is None else ((self.degree, self.dim),)


@lru_cache(maxsize=None)
def line_bundle_cohomology(N: int, x: int, y: int) -> CohomResult:
    """Cohomology of O(x*h1 + y*h2) on F(1,2,N), i.e. of the weight (x,y,0,..,0)."""
    return _line_bundle(N, x, y)


# The one vanishing answer, shared by every singular weight.
_VANISHES = CohomResult(None, 0)


def _line_bundle(N: int, x: int, y: int) -> CohomResult:
    """Uncached BWB for the weight (x, y, 0, .., 0) in fundamental coordinates.

    In partition coordinates lambda+rho is (a, b, N-3, .., 1, 0) with
    a = x+y+N-1 and b = y+N-2: only a and b vary, and the fixed tail is
    already strictly descending.  Weyl's product over pairs of entries
    leaves |a-b| C(a', N-2) C(b', N-2) / (N-1), with a' = a for a above the
    tail and N-3-a below it: the product of |a-k| over the tail's k is
    (N-2)! C(a', N-2), and the pairs inside the tail cancel against all but
    (N-2)! (N-1)! of the denominator.  N is checked first, then a non-int
    x or y is refused, and then an |x| or |y| past ``flagchess._MAX_reach``,
    so that no lookup's binomials grow without bound.

    That reach is the most the oracle asks of checked input, T = ``MAX_twist``
    and M = ``MAX_m``.  A Hom summand of two descriptors, the target perhaps
    twisted by (-1, -1), is Sym^p U2v(X, Y) with p <= 2M, |X| <= 2T+1 and
    -2T-1-M <= Y <= 2T.  Its filtration pieces (X-p+2k, Y+p-k) stay within
    2T+2M+1.  The pushforward asks O(p', q+j) with p' <= 2M+2T+1 and
    q+j <= 2T+2M, where q = Y or q = X+Y+1 >= -4T-M-1.  So 4T+2M+1 bounds
    both coordinates of both routes.
    """
    _sized(N, "N", 3, _MAX_N)  # _flag_N's rule, in one call
    if type(x) is not int or type(y) is not int:
        raise ValueError(f"x and y must be ints, got {_shown((x, y))}")
    if abs(x) > _MAX_reach or abs(y) > _MAX_reach:
        raise ValueError(f"{_shown((x, y))} is past the Bott evaluator's reach {_MAX_reach}")
    a, b = x + y + N - 1, y + N - 2
    if a == b or 0 <= a <= N - 3 or 0 <= b <= N - 3:
        return _VANISHES
    # a and b each sit above or below the whole tail; below it they invert
    # with all N-2 of its entries.
    degree = (a < b) + (N - 2) * ((a < 0) + (b < 0))
    dim, rem = divmod(abs(a - b) * comb(a if a > 0 else N - 3 - a, N - 2)
                      * comb(b if b > 0 else N - 3 - b, N - 2), N - 1)
    if rem:
        raise AssertionError(f"Weyl product of O({x},{y}) on F(1,2,{N}) is not an integer")
    return tuple.__new__(CohomResult, (degree, dim))


def canonical_fiber(N: int) -> tuple[int, int]:
    """(x, y) twist of the canonical line bundle of the fiber F(1,2,N)."""
    return (-2, -(_flag_N(N) - 1))


def euler_char(g: GradedDims) -> int:
    """The alternating sum of the dims; an Indeterminate answer has none."""
    if isinstance(g, str):
        raise ValueError(f"an {g!r} answer has no Euler characteristic")
    if type(g) not in (tuple, list) or not all(
            type(p) in (tuple, list) and len(p) == 2 and type(p[0]) is type(p[1]) is int
            for p in g):
        raise ValueError(f"graded dims must be (degree, dim) pairs of ints, got {_shown(g)}")
    return sum(v if k % 2 == 0 else -v for k, v in g)
