"""The cover degree's two routes and the enumerative counts."""
from __future__ import annotations

import math

import pytest

from flagchess import (
    condition3_bound,
    cover_degree,
    h0_twisted_quotient,
    section_count_ld,
    section_count_syzygy,
)
from flagchess.cli import MAX_n
from flagchess.weights import bwb_regularize, rho


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
        # evaluation independent of both implemented paths, over every N the
        # CLI accepts
        for N in range(4, 2 * MAX_n + 2):
            want = (2**N - (-1) ** N) // 3
            assert cover_degree(N // 2, N % 2) == (want, want, True), N

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
