"""Integer-coefficient truncated polynomials and the enumerative counts."""
from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from flagchess import (
    TruncPoly,
    binom,
    condition3_bound,
    cover_degree,
    h0_twisted_quotient,
    poly_inv_unit,
    poly_mul,
    poly_pow,
    section_count_ld,
    section_count_syzygy,
)
from flagchess.weights import bwb_regularize, rho

poly_st = st.builds(
    lambda mod, coeffs: TruncPoly.from_list(mod, coeffs),
    st.integers(1, 6),
    st.lists(st.integers(-9, 9), max_size=6),
)


class TestBinom:
    @given(st.integers(0, 60), st.integers(0, 60))
    def test_matches_stdlib(self, n, k):
        assert binom(n, k) == math.comb(n, k)

    def test_out_of_range_is_zero(self):
        assert binom(3, 5) == 0
        assert binom(3, -1) == 0
        assert binom(-2, 1) == 0


class TestTruncPoly:
    def test_square_of_linear(self):
        p = TruncPoly.from_list(2, [1, 2])
        assert poly_mul(p, p) == TruncPoly(2, (1, 4))

    def test_from_list_pads_and_truncates(self):
        assert TruncPoly.from_list(4, [1, 2]) == TruncPoly(4, (1, 2, 0, 0))
        assert TruncPoly.from_list(2, [1, 2, 99]) == TruncPoly(2, (1, 2))

    def test_getitem(self):
        p = TruncPoly.from_list(3, [7, 0, -2])
        assert (p[0], p[1], p[2]) == (7, 0, -2)

    def test_length_validation(self):
        with pytest.raises(ValueError):
            TruncPoly(3, (1, 2))

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError):
            poly_mul(TruncPoly.from_list(2, [1]), TruncPoly.from_list(3, [1]))

    @given(poly_st)
    def test_inverse_of_units(self, p):
        if p[0] not in (1, -1):
            with pytest.raises(ValueError):
                poly_inv_unit(p)
        else:
            one = TruncPoly.from_list(p.modulus, [1])
            assert poly_mul(p, poly_inv_unit(p)) == one

    @given(poly_st, st.integers(0, 6))
    def test_pow_matches_repeated_mul(self, p, e):
        expected = TruncPoly.from_list(p.modulus, [1])
        for _ in range(e):
            expected = poly_mul(expected, p)
        assert poly_pow(p, e) == expected

    def test_geometric_series(self):
        # (1+3H)^-1 = 1 - 3H + 9H^2 - 27H^3 + ...
        inv = poly_inv_unit(TruncPoly.from_list(5, [1, 3]))
        assert inv == TruncPoly(5, (1, -3, 9, -27, 81))


class TestCoverDegree:
    def test_known_values(self):
        for (n, eps), want in [((2, 0), 5), ((2, 1), 11), ((3, 0), 21), ((3, 1), 43)]:
            series, closed, agree = cover_degree(n, eps)
            assert agree
            assert series == closed == want

    def test_both_paths_agree_up_to_ten(self):
        for n in range(2, 11):
            for eps in (0, 1):
                series, closed, agree = cover_degree(n, eps)
                assert agree and series == closed

    def test_independent_closed_evaluation(self):
        # summing the binomial series telescopes to (2^d - (-1)^d)/3, a third
        # evaluation independent of both implemented paths
        for N in range(4, 24):
            got = cover_degree(N // 2, N % 2)[0]
            assert got == (2**N - (-1) ** N) // 3

    def test_domain(self):
        with pytest.raises(ValueError):
            cover_degree(1, 0)
        with pytest.raises(ValueError):
            cover_degree(2, 2)


class TestSectionCounts:
    def test_twisted_quotient_sections(self):
        assert h0_twisted_quotient(5) == 40
        assert h0_twisted_quotient(4) == 20

    def test_correction_term_has_no_higher_cohomology(self):
        # The Euler-sequence count in h0_twisted_quotient is the answer only
        # because the twists of the weight (2, 0, ..., 0) by -e_j carry no
        # cohomology for 2 <= j < N and only H^0 at j = N.
        for N in range(3, 41):
            for j in range(2, N + 1):
                partition = [2] + [0] * (N - 1)
                partition[j - 1] -= 1
                fundamental = tuple(partition[i] - partition[i + 1] for i in range(N - 1))
                reg = bwb_regularize(tuple(a + b for a, b in zip(fundamental, rho(N))))
                if j < N:
                    assert reg.singular, (N, j)
                else:
                    assert not reg.singular and reg.length == 0, N

    def test_closed_formula(self):
        for N in range(3, 12):
            want = N * math.comb(N + 1, 2) - math.comb(N + 2, 3)
            assert h0_twisted_quotient(N) == want

    def test_parameter_counts_at_five(self):
        assert section_count_ld(5) == 30
        assert section_count_syzygy(5) == 14
        assert condition3_bound(5) == 10

    def test_determinantal_never_cheaper(self):
        for N in range(3, 41):
            assert section_count_ld(N) >= section_count_syzygy(N)
