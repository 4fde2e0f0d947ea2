"""Ext oracles on F(1,2,N) and on the (1,1)-divisor M, plus lemma sweeps.

Everything is fiberwise: twists by objects of the base never enter, and Hom is
twist-invariant, so a query between two descriptors only depends on their
relative twist.  Ext on M is computed through the Koszul two-term complex of
the divisor (O(-1,-1) -> O), i.e. from the two flag-level groups
Ext(src, tgt(-1,-1)) and Ext(src, tgt); no derived pushforward machinery.
The flag-level groups are cached on the (source, target) descriptor pair,
whose tuple hash and equality run in C; the twisted target(-1,-1) is built
once per target, so a repeated query's keys are the cached ones.  Every
answer is a tuple of sorted (degree, dim) pairs (``weights.GradedDims``) or
``INDETERMINATE``, the form that records and documents hold too, so the
cached answer itself is handed out: ``ext_on_flag`` is the memoized
evaluator itself, and ``_ext_on_flag_cached`` names the same object.  A miss
walks the Clebsch-Gordan pieces of Hom in place, with no call to
``hom_bundle`` (which lists the same summands for the ``ext`` command's
explanation), taking each summand from ``sym_cohomology`` or, where that is
indeterminate, the pushforward.  A single summand's answer is the answer
(every A4 and A5 point has one), returned before any sum is set up; several
are summed in one dict, sorted once.
Lemma A4 is stated once, in :func:`lemma_a4`, for the A4 and A5 sweeps and
the board's moves.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from . import _shown
from .schur import (
    INDETERMINATE,
    BundleDescriptor,
    clebsch_gordan_rank2,
    dualize,
    sym_cohomology,
    sym_cohomology_via_pushforward,
)
from .weights import GradedDims, _game_N


def hom_bundle(source: BundleDescriptor, target: BundleDescriptor) -> list[BundleDescriptor]:
    """Expand Hom(source, target) = source^v x target by rank-2 Clebsch-Gordan.

    Twists add componentwise, and each det-power j adds (0, j).  Past the one
    N check each summand is built with ``tuple.__new__``: its power a+b-2j is
    >= 0, and at most 2 ``cli.MAX_m`` for two checked descriptors.
    """
    if type(source) is not BundleDescriptor or type(target) is not BundleDescriptor:
        raise ValueError("source and target must be BundleDescriptors, got "
                         f"{type(source).__name__} and {type(target).__name__}")
    dm, dx, dy, N = dualize(source)
    m, x, y, target_N = target
    if N != target_N:
        raise ValueError("source and target must live on the same F(1,2,N)")
    return [tuple.__new__(BundleDescriptor, (s, dx + x, dy + y + j, N))
            for s, j in clebsch_gordan_rank2(dm, m)]


@lru_cache(maxsize=None)
def ext_on_flag(source: BundleDescriptor, target: BundleDescriptor) -> GradedDims:
    """Ext^*_{F(1,2,N)}(source, target) as sorted (degree, dim) pairs.

    The filtration decides each summand of :func:`hom_bundle` it can, and the
    exact pushforward settles those it leaves indeterminate (the two agree on
    all determinate inputs, which is property-tested).  A miss walks the
    Clebsch-Gordan pieces j = 0..min(m_s, m_t) in place, the summand
    Sym^(m_s+m_t-2j) U2v twisted by (x_t-x_s, y_t-y_s-m_s+j), as
    ``hom_bundle`` lists them, and when min(m_s, m_t) = 0 returns the one
    summand's answer without a loop; it refuses a plain tuple, mixed N and
    a negative power.
    """
    if type(source) is not BundleDescriptor or type(target) is not BundleDescriptor:
        raise ValueError("source and target must be BundleDescriptors, got "
                         f"{type(source).__name__} and {type(target).__name__}")
    ms, xs, ys, N = source
    mt, xt, yt, target_N = target
    if N != target_N:
        raise ValueError("source and target must live on the same F(1,2,N)")
    if ms < 0 or mt < 0:
        raise ValueError("symmetric powers must be >= 0")
    x, y, last = xt - xs, yt - ys - ms, ms if ms < mt else mt
    if not last:  # one summand, whose answer is the answer: both evaluators sort
        summand = tuple.__new__(BundleDescriptor, (ms + mt, x, y, N))
        answer = sym_cohomology(summand)
        return sym_cohomology_via_pushforward(summand) if answer is INDETERMINATE else answer
    total: dict[int, int] = {}
    for j in range(last + 1):
        summand = tuple.__new__(BundleDescriptor, (ms + mt - 2 * j, x, y + j, N))
        answer = sym_cohomology(summand)
        if answer is INDETERMINATE:
            answer = sym_cohomology_via_pushforward(summand)
        for degree, dim in answer:
            total[degree] = total.get(degree, 0) + dim
    return tuple(sorted(total.items()))


# The name through which the cache's counts are read.
_ext_on_flag_cached = ext_on_flag


@lru_cache(maxsize=None)
def _divisor_twist(target: BundleDescriptor) -> BundleDescriptor:
    """target(-1,-1), built once per target value and shared by every query."""
    if type(target) is not BundleDescriptor:
        raise ValueError("source and target must be BundleDescriptors, got a "
                         f"{type(target).__name__} target")
    m, x, y, N = target
    return tuple.__new__(BundleDescriptor, (m, x - 1, y - 1, N))


def koszul_terms(source: BundleDescriptor,
                 target: BundleDescriptor) -> tuple[GradedDims, GradedDims]:
    """The two flag-level groups feeding Ext on M: (A, B) with

    A = Ext_F(source, target(-1,-1)) and B = Ext_F(source, target).  The
    twisted target comes from a per-target memo, so repeated queries hand
    ``ext_on_flag`` one object, the one its cache already holds as a key.
    """
    return ext_on_flag(source, _divisor_twist(target)), ext_on_flag(source, target)


def ext_on_M(source: BundleDescriptor, target: BundleDescriptor) -> GradedDims | str:
    """Ext^*_M(source, target) from the Koszul two-term complex.

    With A, B as in :func:`koszul_terms` the long exact sequence gives
    Ext^k_M = coker(s_k) + ker(s_{k+1}), where s_k: A_k -> B_k is the
    multiplication by the divisor's section.  The s_k are the only maps the
    code does not know, and they keep the degree: when A and B share no
    degree every s_k is zero and Ext^k_M = B_k + A_{k+1}, else the answer is
    INDETERMINATE.
    """
    # koszul_terms' two lookups, written out: calling it would add about a
    # sixth to each validated move's check
    A = ext_on_flag(source, _divisor_twist(target))
    B = ext_on_flag(source, target)
    if not A:
        return B
    total = dict(B)
    if any(a in total for a, _ in A):
        return INDETERMINATE
    for a, dim in A:
        total[a - 1] = total.get(a - 1, 0) + dim
    return tuple(sorted(total.items()))


class LemmaPoint(NamedTuple):
    """One grid point of a lemma sweep."""

    params: tuple[tuple[str, int], ...]
    expected: GradedDims
    computed: GradedDims | str
    verdict: str  # "match" | "mismatch" | "indeterminate"


class LemmaReport(NamedTuple):
    """Sweep result over a lemma's full stated parameter grid."""

    lemma: str
    n: int
    eps: int
    points: tuple[LemmaPoint, ...] = ()

    @property
    def total(self) -> int:
        return len(self.points)

    @property
    def mismatches(self) -> int:
        return sum(p.verdict == "mismatch" for p in self.points)

    @property
    def indeterminates(self) -> int:
        return sum(p.verdict == "indeterminate" for p in self.points)

    @property
    def passed(self) -> bool:
        return self.mismatches == 0 and self.indeterminates == 0


def lemma_a4(t: int, r: int, N: int) -> tuple[BundleDescriptor, BundleDescriptor, GradedDims]:
    """Lemma A4 at one point, for 0 <= r <= t-1: Ext_M(O(t,0), Sym^r U2v(-1,1))
    as (source, target, expected), expected C[-1] at r = t-1 and zero below.
    Unchecked: the caller has checked N (and r >= 0)."""
    return (tuple.__new__(BundleDescriptor, (0, t, 0, N)),
            tuple.__new__(BundleDescriptor, (r, -1, 1, N)), ((1, 1),) if r == t - 1 else ())


def _sweep_point(params: tuple[tuple[str, int], ...], source: BundleDescriptor,
                 target: BundleDescriptor, expected: GradedDims) -> LemmaPoint:
    computed = ext_on_M(source, target)
    verdict = ("indeterminate" if computed is INDETERMINATE
               else "match" if computed == expected else "mismatch")
    return tuple.__new__(LemmaPoint, (params, expected, computed, verdict))


def check_lemma(lemma: str, n: int, eps: int) -> LemmaReport:
    """Sweep one of the vanishing lemmas A4 / A5 / A6 over its full grid.

    A4: Ext_M(O(t,0), Sym^r U2v(-1,1)) is C[-1] at r = t-1 and zero for
        0 <= r <= min(t-2, n-1), over 1 <= t <= 2n-3+eps.
    A5: Ext_M(Sym^r U2v(-1,1), O(t,0)) = 0 for the same t range and
        0 <= r <= min(t-1, n-1).
    A6: Ext_M(Sym^m U2v, Sym^r U2v(-1,1)) = 0 for 0 <= m <= r <= n-2.

    N is checked once, by ``_game_N``; every grade on the grids is >= 0, so
    the descriptors are built unchecked.
    """
    N = _game_N(n, eps)
    new = tuple.__new__
    points: list[LemmaPoint] = []
    if lemma == "A4":
        for t in range(1, N - 2):
            for r in (t - 1, *range(min(t - 2, n - 1) + 1)):
                points.append(_sweep_point((("t", t), ("r", r)), *lemma_a4(t, r, N)))
    elif lemma == "A5":
        for t in range(1, N - 2):
            for r in range(0, min(t - 1, n - 1) + 1):
                source, target, _ = lemma_a4(t, r, N)
                points.append(_sweep_point((("t", t), ("r", r)), target, source, ()))
    elif lemma == "A6":
        for r in range(0, n - 1):
            for m in range(0, r + 1):
                points.append(_sweep_point(
                    (("m", m), ("r", r)),
                    new(BundleDescriptor, (m, 0, 0, N)), new(BundleDescriptor, (r, -1, 1, N)), (),
                ))
    else:
        raise ValueError(f"unknown lemma {_shown(lemma)}; expected A4, A5 or A6")
    return LemmaReport(lemma, n, eps, tuple(points))
