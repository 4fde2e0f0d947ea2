"""Symmetric powers of the rank-2 tautological bundle on F(1,2,N).

A ``BundleDescriptor`` (m, x, y, N) stands for Sym^m U2v(x*h1 + y*h2) where
U2v is the dual of the rank-2 tautological subbundle; it is a named tuple,
so the oracle's cache keys hash and compare in C.  Two evaluators reduce
its cohomology to line bundles:

* ``sym_cohomology`` filters Sym^m U2v by the m+1 line bundles coming from the
  tautological sequence 0 -> O(h2-h1) -> U2v -> O(h1) -> 0.  Vanishing
  conclusions are always sound; when surviving pieces sit in adjacent degrees
  the long exact sequences could cancel them, so the result is INDETERMINATE.
  That rule lives in ``sym_cohomology`` alone, as one test on the summed
  degrees.  It maps the cached Bott lookup over the pieces' two coordinate
  ranges, built in place in the order ``sym_filtration`` lists the pieces,
  skips by identity the one vanishing answer every Bott miss shares
  (``weights._VANISHES``, most of the pieces), reads each other answer as
  (degree, dim), and returns at once when fewer than two degrees survive.
* ``sym_cohomology_via_pushforward`` pushes down the P^1-bundle
  F(1,2,N) -> G(2,N) (exact: the pushforward is concentrated in one degree),
  expands by ``clebsch_gordan_rank2``, and finishes with Bott on G(2,N) through
  the uncached ``weights._line_bundle``.  Always determinate; agrees with
  the filtration route whenever that is determinate.  When m = 0 or the
  pushed-down power is 0 there is one piece, sent to ``_line_bundle`` at once.

``clebsch_gordan_rank2`` also expands Hom for ``oracle.hom_bundle``, the
``ext`` command's explanation; the oracle's miss path walks the same pieces
in place.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import repeat

from . import _MAX_m, _MAX_twist, _Record, _shown, _sized
from .weights import _VANISHES, GradedDims, _flag_N, _line_bundle, line_bundle_cohomology


class BundleDescriptor(_Record, namedtuple("BundleDescriptor", "m x y N")):
    """Sym^m U2v(x*h1 + y*h2) on F(1,2,N), m = 0 the line bundle O(x,y); it refuses,
    field by field, an m not in 0..``cli.MAX_m``, |x| or |y| > ``cli.MAX_twist`` and N."""

    __slots__ = ()

    def __new__(cls, m: int, x: int, y: int, N: int) -> BundleDescriptor:
        T = _MAX_twist
        return tuple.__new__(cls, (_sized(m, "m", 0, _MAX_m), _sized(x, "x", -T, T),
                                   _sized(y, "y", -T, T), _flag_N(N)))

    def twist(self, dx: int, dy: int) -> BundleDescriptor:
        """The same bundle twisted by O(dx, dy), checked as the constructor
        checks it, so a twist past ``cli.MAX_twist`` is refused in its words."""
        m, x, y, N = self
        return BundleDescriptor(m, x + dx, y + dy, N)


# The verdict when the filtration's long exact sequences might cancel; it is
# truthy, so test it with ``is`` (or ``==`` on a parsed value), never ``not``.
INDETERMINATE = "indeterminate"


def _descriptor(d: object) -> BundleDescriptor:
    """``d`` itself, refusing with ``ValueError`` anything that is not a ``BundleDescriptor``."""
    if type(d) is not BundleDescriptor:
        raise ValueError(f"d must be a BundleDescriptor, got {type(d).__name__}")
    return d


def sym_filtration(d: BundleDescriptor) -> list[tuple[int, int]]:
    """Line-bundle graded pieces of d, sub-most first: (x+m-2j, y+j), j=m..0."""
    m, x, y, _ = _descriptor(d)
    if m < 0:
        raise ValueError("symmetric powers must be >= 0")
    return list(zip(range(x - m, x + m + 1, 2), range(y + m, y - 1, -1)))


def sym_resolution_step(k: int, N: int) -> tuple[BundleDescriptor, BundleDescriptor, BundleDescriptor]:
    """The short exact sequence 0 -> Sym^{k-1}U2v(-1,1) -> Sym^k U2v -> O(k,0) -> 0."""
    _sized(k, "k", 1)
    return (
        BundleDescriptor(k - 1, -1, 1, N),
        BundleDescriptor(k, 0, 0, N),
        BundleDescriptor(0, k, 0, N),
    )


def clebsch_gordan_rank2(a: int, b: int) -> list[tuple[int, int]]:
    """Sym^a V x Sym^b V = sum_j Sym^{a+b-2j} V x det(V)^j, V of rank 2, min(a, b) <= 2 MAX_m."""
    if not (type(a) is type(b) is int and 0 <= min(a, b) <= 2 * _MAX_m):
        raise ValueError(f"need int powers >= 0, the lesser <= {2 * _MAX_m}, "
                         f"got {_shown((a, b))}")
    return [(a + b - 2 * j, j) for j in range(min(a, b) + 1)]


def dualize(d: BundleDescriptor) -> BundleDescriptor:
    """Dual descriptor, fields unchecked; det U2 = O(0,-1), so Sym^m U2 = Sym^m U2v(0,-m)."""
    m, x, y, N = _descriptor(d)
    return tuple.__new__(BundleDescriptor, (m, -x, -y - m, N))


def sym_cohomology(d: BundleDescriptor) -> GradedDims | str:
    """Cohomology of d via the line-bundle filtration.

    Sums the surviving pieces by degree in one pass, a vanishing piece
    being the shared ``weights._VANISHES`` and so skipped by identity; when
    two surviving degrees are adjacent the filtration's long exact sequences
    could connect them, so the result is INDETERMINATE.  Total vanishing is
    always sound.
    """
    m, x, y, N = d
    if m < 0:
        raise ValueError("symmetric powers must be >= 0")
    out: dict[int, int] = {}
    for answer in map(line_bundle_cohomology, repeat(N),
                      range(x - m, x + m + 1, 2), range(y + m, y - 1, -1)):
        if answer is not _VANISHES:
            degree, dim = answer
            out[degree] = out.get(degree, 0) + dim
    if len(out) < 2:
        return tuple(out.items())
    for degree in out:
        if degree + 1 in out:
            return INDETERMINATE
    return tuple(sorted(out.items()))


def sym_cohomology_via_pushforward(d: BundleDescriptor) -> GradedDims:
    """Exact cohomology of d via the projection F(1,2,N) -> G(2,N).

    Along the P^1-bundle P(U2), O(x*h1) pushes to Sym^x U2v (x >= 0), to zero
    (x = -1), or to Sym^{-x-2}U2 x det U2 in degree one (x <= -2); tensoring
    with Sym^m U2v and det-powers of U2v and expanding by Clebsch-Gordan leaves
    a direct sum of G(2,N) bundles Sym^p U2v(0, q), p >= 0, whose Bott answer
    is that of O(p, q) on F.
    """
    m, x, y, N = d
    if m < 0:
        raise ValueError("symmetric powers must be >= 0")
    if x == -1:
        return ()
    s, q, shift = (x, y, 0) if x >= 0 else (-x - 2, y + x + 1, 1)
    if not m or not s:  # one piece, Sym^(m+s) U2v(0, q)
        degree, dim = _line_bundle(N, m + s, q)
        return () if degree is None else ((degree + shift, dim),)
    total: dict[int, int] = {}
    for p, j in clebsch_gordan_rank2(m, s):
        degree, dim = _line_bundle(N, p, q + j)
        if degree is not None:
            total[degree + shift] = total.get(degree + shift, 0) + dim
    return tuple(sorted(total.items()))
