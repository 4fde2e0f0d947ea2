"""Symmetric-power bundles: filtrations, duals, and their cohomology.

The exact pushforward evaluator serves as the independent cross-check for the
filtration-based evaluator: wherever the filtration gives a determinate
answer, the two must agree, and Euler characteristics must match always.
"""
from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from flagchess import oracle, schur
from flagchess import (
    INDETERMINATE,
    BundleDescriptor,
    clebsch_gordan_rank2,
    dualize,
    euler_char,
    ext_on_flag,
    line_bundle_cohomology,
    sym_cohomology,
    sym_cohomology_via_pushforward,
    sym_filtration,
    sym_resolution_step,
)
from flagchess.cli import MAX_m

descriptor_st = st.builds(
    BundleDescriptor,
    st.integers(0, 3),
    st.integers(-5, 5),
    st.integers(-5, 5),
    st.integers(3, 6),
)


def pieces_euler(d: BundleDescriptor) -> int:
    return sum(
        euler_char(line_bundle_cohomology(d.N, a, b).graded())
        for a, b in sym_filtration(d)
    )


class TestBundleDescriptor:
    def test_twist_adds(self):
        assert BundleDescriptor(2, 1, -1, 5).twist(-1, 3) == BundleDescriptor(2, 0, 2, 5)

    def test_validation(self):
        with pytest.raises(ValueError, match="m must be >= 0, got -1"):
            BundleDescriptor(-1, 0, 0, 5)
        with pytest.raises(ValueError, match="N must be >= 3, got 2"):
            BundleDescriptor(0, 0, 0, 2)

    def test_repr(self):
        assert repr(BundleDescriptor(2, 1, -1, 5)) == "BundleDescriptor(m=2, x=1, y=-1, N=5)"

    @pytest.mark.parametrize("make, refusal", [
        (lambda: BundleDescriptor(1, 0, 0, 5)._replace(m=-1), "m must be >= 0"),
        (lambda: BundleDescriptor(1, 0, 0, 5)._replace(x=0.5), "x must be an int"),
        (lambda: BundleDescriptor._make([0, 0, 0, 2]), "N must be >= 3, got 2"),
        (lambda: BundleDescriptor._make([-2, 0, 0, 5]), "m must be >= 0"),
    ], ids=["replace-m", "replace-x", "make-N", "make-m"])
    def test_make_and_replace_check_too(self, make, refusal):
        with pytest.raises(ValueError, match=refusal):
            make()
        replaced = BundleDescriptor(1, 0, 0, 5)._replace(m=2, y=-1)
        assert type(replaced) is BundleDescriptor and replaced == (2, 0, -1, 5)
        assert BundleDescriptor._make([2, 0, -1, 5]) == replaced

    @pytest.mark.parametrize("name", ["m", "x", "y", "N", "other"])
    def test_attributes_cannot_be_assigned(self, name):
        d = BundleDescriptor(2, 1, -1, 5)
        with pytest.raises(AttributeError):
            setattr(d, name, 3)
        assert d == BundleDescriptor(2, 1, -1, 5)

    @given(descriptor_st, st.integers(-9, 9), st.integers(-9, 9))
    def test_twist_keeps_m_and_N(self, d, dx, dy):
        twisted = d.twist(dx, dy)
        assert type(twisted) is BundleDescriptor
        assert (twisted.m, twisted.x, twisted.y, twisted.N) == (d.m, d.x + dx, d.y + dy, d.N)

    def test_equal_descriptors_share_one_oracle_cache_entry(self):
        cached = oracle._ext_on_flag_cached
        first = cached(BundleDescriptor(1, 4, -3, 11), BundleDescriptor(2, -5, 2, 11))
        before = cached.cache_info()
        source, target = BundleDescriptor(1, 4, -3, 11), BundleDescriptor(2, -2, 0, 11).twist(-3, 2)
        assert cached(source, target) is first
        after = cached.cache_info()
        assert (after.hits, after.misses, after.currsize) == (
            before.hits + 1, before.misses, before.currsize)


class TestIndeterminate:
    def test_is_the_recorded_string(self):
        # the form a document records; truthy, so never taken for zero
        assert INDETERMINATE == "indeterminate"
        assert INDETERMINATE and INDETERMINATE != ()


class TestSymFiltration:
    def test_tautological_sequence(self):
        assert sym_filtration(BundleDescriptor(1, 0, 0, 5)) == [(-1, 1), (1, 0)]

    def test_rank_one(self):
        assert sym_filtration(BundleDescriptor(0, 3, -2, 5)) == [(3, -2)]

    def test_square_with_twist(self):
        assert sym_filtration(BundleDescriptor(2, -1, 1, 5)) == [(-3, 3), (-1, 2), (1, 1)]

    @given(descriptor_st)
    def test_length_and_endpoints(self, d):
        pieces = sym_filtration(d)
        assert len(pieces) == d.m + 1
        assert pieces[0] == (d.x - d.m, d.y + d.m)
        assert pieces[-1] == (d.x + d.m, d.y)


class TestSymResolutionStep:
    def test_small_k(self):
        for k in (1, 2, 3):
            sub, mid, quot = sym_resolution_step(k, 6)
            assert sub == BundleDescriptor(k - 1, -1, 1, 6)
            assert mid == BundleDescriptor(k, 0, 0, 6)
            assert quot == BundleDescriptor(0, k, 0, 6)

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            sym_resolution_step(0, 5)

    def test_euler_additivity_across_the_sequence(self):
        for N in range(3, 8):
            for k in range(1, 9):
                sub, mid, quot = sym_resolution_step(k, N)
                assert pieces_euler(mid) == pieces_euler(sub) + pieces_euler(quot)


class TestClebschGordan:
    def test_square_of_standard(self):
        assert clebsch_gordan_rank2(1, 1) == [(2, 0), (0, 1)]

    def test_trivial_factor(self):
        for a in range(5):
            assert clebsch_gordan_rank2(a, 0) == [(a, 0)]

    def test_two_by_two(self):
        assert clebsch_gordan_rank2(2, 2) == [(4, 0), (2, 1), (0, 2)]

    def test_a_negative_power_raises(self):
        with pytest.raises(ValueError):
            clebsch_gordan_rank2(-1, 0)
        with pytest.raises(ValueError):
            clebsch_gordan_rank2(0, -1)

    def test_the_lesser_power_is_bounded_by_twice_MAX_m(self):
        assert clebsch_gordan_rank2(10**12, 1) == [(10**12 + 1, 0), (10**12 - 1, 1)]
        assert len(clebsch_gordan_rank2(2 * MAX_m, 10**12)) == 2 * MAX_m + 1
        for a, b in [(2 * MAX_m + 1, 2 * MAX_m + 1), (10**12, 10**12)]:
            with pytest.raises(ValueError, match=rf"^need int powers >= 0, the lesser <= "
                                                 rf"{2 * MAX_m}, got \({a}, {b}\)$"):
                clebsch_gordan_rank2(a, b)

    def test_a_hom_summand_of_two_descriptors_at_the_bound_is_expanded(self):
        # Hom(Sym^200, Sym^200(-900, -200)) on F(1,2,3) has the summand
        # Sym^400(-900, -400); the filtration leaves it indeterminate and the
        # pushforward expands Sym^400 x Sym^898: a lesser power of 2 MAX_m
        summand = tuple.__new__(BundleDescriptor, (2 * MAX_m, -900, -2 * MAX_m, 3))
        assert sym_cohomology(summand) is INDETERMINATE
        assert sym_cohomology_via_pushforward(summand) == ((2, 843051), (3, 32139689400))
        source, target = BundleDescriptor(MAX_m, 0, 0, 3), BundleDescriptor(MAX_m, -900, -200, 3)
        assert ext_on_flag(source, target) == ((2, 843051), (3, 3601214639400))

    def test_a_zero_power_gives_the_general_expansion(self):
        # Sym^a x Sym^0 and Sym^0 x Sym^b are the general expansion's one piece
        for a in range(13):
            for b in range(13):
                general = [(a + b - 2 * j, j) for j in range(min(a, b) + 1)]
                assert clebsch_gordan_rank2(a, b) == general, (a, b)

    @given(st.integers(0, 12), st.integers(0, 12))
    def test_dimension_identity(self, a, b):
        terms = clebsch_gordan_rank2(a, b)
        assert sum(s + 1 for s, _ in terms) == (a + 1) * (b + 1)
        assert all(j >= 0 and s >= 0 for s, j in terms)


class TestDualize:
    def test_line_bundle(self):
        assert dualize(BundleDescriptor(0, 3, -2, 5)) == BundleDescriptor(0, -3, 2, 5)

    def test_rank_two(self):
        assert dualize(BundleDescriptor(1, 0, 0, 5)) == BundleDescriptor(1, 0, -1, 5)

    @given(descriptor_st)
    def test_involution(self, d):
        assert dualize(dualize(d)) == d


class TestSymCohomology:
    def test_structure_sheaf(self):
        assert sym_cohomology(BundleDescriptor(0, 0, 0, 5)) == ((0, 1),)

    def test_vanishing_strip(self):
        # vanishing window of the twisted symmetric powers: degree m, twist
        # (-t-1, 1) with t <= N-3 and m <= min(t-2, N//2-1); the lemma
        # sweeps cover the same window point by point
        for N in (5, 7, 9):
            for t in range(2, N - 2):
                for m in range(0, min(t - 2, N // 2 - 1) + 1):
                    d = BundleDescriptor(m, -t - 1, 1, N)
                    assert sym_cohomology(d) == (), d

    def test_single_survivor(self):
        assert sym_cohomology(BundleDescriptor(2, -4, 1, 9)) == ((1, 1),)

    def test_indeterminate_adjacent_degrees(self):
        verdict = sym_cohomology(BundleDescriptor(1, -1, 1, 3))
        assert verdict is INDETERMINATE
        # ...while the exact evaluator settles the same bundle to zero
        assert sym_cohomology_via_pushforward(BundleDescriptor(1, -1, 1, 3)) == ()

    @pytest.mark.parametrize("d", [(-1, 0, 0, 5), tuple.__new__(BundleDescriptor, (-1, 0, 0, 5)),
                                   tuple.__new__(BundleDescriptor, (-2, 3, 1, 5))])
    def test_the_pushforward_refuses_a_negative_power(self, d):
        with pytest.raises(ValueError, match="^symmetric powers must be >= 0$"):
            sym_cohomology_via_pushforward(d)

    @pytest.mark.parametrize("evaluate", [sym_cohomology, sym_filtration])
    @pytest.mark.parametrize("d", [tuple.__new__(BundleDescriptor, (-1, 0, 0, 5)),
                                   tuple.__new__(BundleDescriptor, (-2, 3, 1, 5))])
    def test_the_filtration_refuses_a_negative_power(self, evaluate, d):
        with pytest.raises(ValueError, match="^symmetric powers must be >= 0$"):
            evaluate(d)

    @given(descriptor_st)
    def test_agrees_with_exact_pushforward_when_determinate(self, d):
        filtered = sym_cohomology(d)
        exact = sym_cohomology_via_pushforward(d)
        if filtered is not INDETERMINATE:
            assert filtered == exact

    @given(descriptor_st)
    def test_euler_characteristic_is_filtration_additive(self, d):
        assert euler_char(sym_cohomology_via_pushforward(d)) == pieces_euler(d)

    def test_exhaustive_small_window_agreement(self):
        # y runs below -2N, where pieces land in the top degrees; every N
        # must reach a nonzero answer that only the pushforward decides
        for N in (3, 4, 5, 13, 29):
            undecided_nonzero = 0
            for m in range(4):
                for x in range(-5, 4):
                    for y in range(-2 * N - 4, 4):
                        d = BundleDescriptor(m, x, y, N)
                        filtered = sym_cohomology(d)
                        exact = sym_cohomology_via_pushforward(d)
                        # a single Hom summand's answer reaches callers as is
                        assert list(exact) == sorted(exact), d
                        if filtered is not INDETERMINATE:
                            assert filtered == exact, d
                        else:
                            assert euler_char(exact) == pieces_euler(d)
                            undecided_nonzero += bool(exact)
            assert undecided_nonzero, N


def pairwise_sym_cohomology(d: BundleDescriptor):
    """The filtration rule written pairwise: collect the surviving pieces,
    refuse when any two of them sit in adjacent degrees, else sum by degree."""
    surviving = [(res.degree, res.dim)
                 for res in (line_bundle_cohomology(d.N, px, py) for px, py in sym_filtration(d))
                 if not res.vanishes]
    for i, (a, _) in enumerate(surviving):
        for b, _ in surviving[i + 1:]:
            if abs(a - b) == 1:
                return INDETERMINATE
    out: dict[int, int] = {}
    for deg, dim in surviving:
        out[deg] = out.get(deg, 0) + dim
    return tuple(sorted(out.items()))


def per_piece_sym_cohomology(d: BundleDescriptor):
    """The filtration's sum written piece by piece: every answer unpacked and
    its degree tested, as the evaluator did before it skipped the shared
    vanishing answer by identity."""
    out: dict[int, int] = {}
    for px, py in sym_filtration(d):
        degree, dim = line_bundle_cohomology(d.N, px, py)
        if degree is not None:
            out[degree] = out.get(degree, 0) + dim
    if any(degree + 1 in out for degree in out):
        return INDETERMINATE
    return tuple(sorted(out.items()))


class TestSymCohomologyAgainstPerPieceSum:
    def test_grid_of_every_kind_of_answer(self):
        kinds = {"vanishing": 0, "one degree": 0, "several degrees": 0, "indeterminate": 0}
        for N in (3, 4, 5, 7, 13):
            for m in range(7):
                for x in range(-2 * N - 4, 6):
                    for y in range(-2 * N - 4, 6):
                        d = BundleDescriptor(m, x, y, N)
                        got = sym_cohomology(d)
                        assert got == per_piece_sym_cohomology(d), d
                        kinds["indeterminate" if got is INDETERMINATE else "vanishing"
                              if not got else "one degree" if len(got) == 1
                              else "several degrees"] += 1
        assert all(kinds.values()), kinds


class TestSymCohomologyAgainstPairwiseRule:
    def test_grid(self):
        indeterminate = 0
        for N in range(3, 8):
            for m in range(6):
                for x in range(-9, 8):
                    for y in range(-7, 8):
                        d = BundleDescriptor(m, x, y, N)
                        got = sym_cohomology(d)
                        assert got == pairwise_sym_cohomology(d), d
                        assert got is INDETERMINATE or list(got) == sorted(got), d
                        indeterminate += got is INDETERMINATE
        assert indeterminate > 0

    @given(st.builds(BundleDescriptor, st.integers(0, 8), st.integers(-15, 15),
                     st.integers(-15, 15), st.integers(3, 12)))
    def test_random_descriptors(self, d):
        assert sym_cohomology(d) == pairwise_sym_cohomology(d)

    def test_one_line_bundle_query_per_piece_in_filtration_order(self, monkeypatch):
        calls = []

        def recording(N, x, y):
            calls.append((N, x, y))
            return line_bundle_cohomology(N, x, y)
        monkeypatch.setattr(schur, "line_bundle_cohomology", recording)
        for d in (BundleDescriptor(1, -1, 1, 3), BundleDescriptor(4, -6, 2, 9),
                  BundleDescriptor(3, 2, -1, 5)):
            calls.clear()
            sym_cohomology(d)
            assert calls == [(d.N, px, py) for px, py in sym_filtration(d)]
