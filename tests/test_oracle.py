"""Ext computations on the flag and on the (1,1)-divisor, plus lemma sweeps."""
from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from flagchess import (
    INDETERMINATE,
    BundleDescriptor,
    canonical_fiber,
    sym_cohomology,
    sym_cohomology_via_pushforward,
    check_lemma,
    ext_on_M,
    ext_on_flag,
    hom_bundle,
    koszul_terms,
)
from flagchess import oracle as oracle_module
from flagchess.board import Board, Box, SymBlock, move_absorb
from flagchess.cli import MAX_m, MAX_twist
from flagchess.oracle import lemma_a4


def BD(m, x, y, N):
    return BundleDescriptor(m, x, y, N)


class TestHomBundle:
    def test_line_source(self):
        for t, r in [(2, 1), (3, 2), (5, 0)]:
            assert hom_bundle(BD(0, t, 0, 9), BD(r, -1, 1, 9)) == [BD(r, -1 - t, 1, 9)]

    def test_endomorphisms_of_rank_two(self):
        assert hom_bundle(BD(1, 0, 0, 5), BD(1, 0, 0, 5)) == [
            BD(2, 0, -1, 5),
            BD(0, 0, 0, 5),
        ]

    def test_grade_two_square(self):
        assert hom_bundle(BD(2, 0, 0, 5), BD(2, 0, 0, 5)) == [
            BD(4, 0, -2, 5),
            BD(2, 0, -1, 5),
            BD(0, 0, 0, 5),
        ]

    def test_rank_product(self):
        src, tgt = BD(2, 1, -1, 6), BD(3, 0, 2, 6)
        total = sum(s + 1 for s in (d.m for d in hom_bundle(src, tgt)))
        assert total == (src.m + 1) * (tgt.m + 1)

    def test_mixed_N_rejected(self):
        with pytest.raises(ValueError):
            hom_bundle(BD(0, 0, 0, 4), BD(0, 0, 0, 5))


class TestExtOnFlag:
    def test_is_the_cached_evaluator_itself(self):
        # the cache's counts are read through the private name
        assert ext_on_flag is oracle_module._ext_on_flag_cached
        assert ext_on_flag.cache_info().maxsize is None

    def test_identity(self):
        assert ext_on_flag(BD(0, 0, 0, 5), BD(0, 0, 0, 5)) == ((0, 1),)

    def test_single_survivor(self):
        assert ext_on_flag(BD(0, 3, 0, 9), BD(2, -1, 1, 9)) == ((1, 1),)

    def test_vanishing_strip(self):
        for t in range(2, 7):
            for r in range(0, min(t - 2, 3) + 1):
                assert ext_on_flag(BD(0, t, 0, 9), BD(r, -1, 1, 9)) == ()

    @given(
        st.integers(0, 2), st.integers(-2, 2), st.integers(-2, 2),
        st.integers(0, 2), st.integers(-2, 2), st.integers(-2, 2),
        st.integers(-3, 3), st.integers(-3, 3), st.integers(4, 6),
    )
    def test_shift_covariance(self, m1, x1, y1, m2, x2, y2, a, b, N):
        src, tgt = BD(m1, x1, y1, N), BD(m2, x2, y2, N)
        plain = ext_on_flag(src, tgt)
        shifted = ext_on_flag(src.twist(a, b), tgt.twist(a, b))
        if plain is INDETERMINATE or shifted is INDETERMINATE:
            assert plain is shifted
        else:
            assert plain == shifted

    def test_serre_duality_random_sample(self):
        rng = random.Random(20260814)
        checked = 0
        while checked < 150:
            N = rng.randint(3, 6)
            top = 2 * N - 3
            wx, wy = canonical_fiber(N)
            e = BD(rng.randint(0, 2), rng.randint(-3, 3), rng.randint(-3, 3), N)
            f = BD(rng.randint(0, 2), rng.randint(-3, 3), rng.randint(-3, 3), N)
            fwd = ext_on_flag(e, f)
            bwd = ext_on_flag(f, e.twist(wx, wy))
            if fwd is INDETERMINATE or bwd is INDETERMINATE:
                continue
            assert fwd == tuple((top - i, dim) for i, dim in reversed(bwd)), (e, f)
            checked += 1


    @pytest.mark.parametrize("query", [ext_on_flag, ext_on_M, koszul_terms])
    @pytest.mark.parametrize("source, target", [
        ((0, 0, 0, 17), (0, 41, -43, 17)),
        ((0, 0, 0, 17), BD(1, 39, -44, 17)),
        (BD(0, 0, 0, 17), (2, 37, -45, 17)),
        ((0, 0, 0, 5), (-1, 0, 0, 5)),
    ])
    def test_a_miss_refuses_a_plain_tuple(self, query, source, target):
        # a plain tuple hashes and compares as the descriptor does, so these
        # unusual twists keep the query a miss
        with pytest.raises(ValueError, match="^source and target must be BundleDescriptors, got "):
            query(source, target)

    @pytest.mark.parametrize("source, target", [
        (BD(0, 0, 0, 5), tuple.__new__(BundleDescriptor, (-1, 0, 0, 5))),
        (tuple.__new__(BundleDescriptor, (-1, 0, 0, 5)), BD(0, 0, 0, 5)),
        (BD(2, 0, 0, 5), tuple.__new__(BundleDescriptor, (-1, 3, 0, 5))),
    ])
    def test_a_negative_power_is_refused(self, source, target):
        with pytest.raises(ValueError, match="^symmetric powers must be >= 0$"):
            ext_on_flag(source, target)


class TestOneSummand:
    """When either power is 0, Hom has one Clebsch-Gordan summand, and a miss
    of ``ext_on_flag`` answers with that summand's own answer."""

    def test_the_answer_is_the_summands(self):
        routes = {"filtration": 0, "pushforward": 0}
        for N in (3, 5, 7):
            for m in range(4):
                for x in range(-N - 3, 4):
                    for y in range(-N - 3, 4):
                        for source, target in ((BD(0, 0, 0, N), BD(m, x, y, N)),
                                               (BD(m, -x, -y, N), BD(0, 0, 0, N))):
                            [summand] = hom_bundle(source, target)
                            filtered = sym_cohomology(summand)
                            route = "pushforward" if filtered is INDETERMINATE else "filtration"
                            wanted = (sym_cohomology_via_pushforward(summand)
                                      if filtered is INDETERMINATE else filtered)
                            assert ext_on_flag.__wrapped__(source, target) == wanted
                            assert ext_on_flag(source, target) == wanted
                            routes[route] += 1
        assert all(routes.values()), routes


class TestExtOnM:
    def test_the_extreme_checked_descriptors_are_answered(self):
        # every Bott lookup their Hom summands make lies within the evaluator's
        # reach; pairs of two m = 200 descriptors are left out for time
        T = MAX_twist
        ends = [BD(m, x, y, 5) for m in (0, 1, MAX_m) for x in (T, -T) for y in (T, -T)]
        answered = 0
        for source in ends:
            for target in ends:
                if min(source.m, target.m) <= 1:
                    answer = ext_on_M(source, target)
                    assert answer is INDETERMINATE or type(answer) is tuple
                    answered += 1
        assert answered == 128

    def test_koszul_terms_are_the_two_flag_groups(self):
        src, tgt = BD(0, 2, 0, 5), BD(1, -1, 1, 5)
        twisted, plain = koszul_terms(src, tgt)
        assert twisted == ext_on_flag(src, tgt.twist(-1, -1))
        assert plain == ext_on_flag(src, tgt)

    @pytest.mark.parametrize("query", [koszul_terms, ext_on_M])
    def test_repeated_queries_ask_about_one_twisted_target(self, monkeypatch, query):
        asked = []

        def recording(source, target):
            asked.append((source, target))
            return ()

        monkeypatch.setattr(oracle_module, "ext_on_flag", recording)
        src = BD(0, 4, 0, 11)
        for _ in range(3):
            query(src, BD(2, -1, 1, 11))  # an equal, new target each time
        assert all(source is src for source, _ in asked)
        twisted, plain = [t for _, t in asked[0::2]], [t for _, t in asked[1::2]]
        assert len(asked) == 6 and twisted[0] == BD(2, -2, 0, 11)
        assert type(twisted[0]) is BundleDescriptor
        assert all(t is twisted[0] for t in twisted)
        assert plain == [BD(2, -1, 1, 11)] * 3
        assert len({id(t) for t in plain}) == 3  # the plain target is passed as given

    @pytest.mark.parametrize("query", [koszul_terms, ext_on_M])
    @pytest.mark.parametrize("target", [None, "x", 1.5])
    def test_a_target_that_is_not_a_descriptor_is_refused(self, query, target):
        with pytest.raises(ValueError, match="^source and target must be BundleDescriptors, "
                                             f"got a {type(target).__name__} target$"):
            query(BD(0, 0, 0, 5), target)

    def test_forced_extension_class(self):
        # the off-by-one pairing that feeds the absorb move: a single ext
        # class one degree up
        assert ext_on_M(BD(0, 2, 0, 5), BD(1, -1, 1, 5)) == ((1, 1),)
        for N, t in [(7, 2), (7, 3), (9, 4)]:
            assert ext_on_M(BD(0, t, 0, N), BD(t - 1, -1, 1, N)) == ((1, 1),)

    def test_vanishing_points(self):
        assert ext_on_M(BD(0, 2, 0, 5), BD(0, -1, 1, 5)) == ()
        assert ext_on_M(BD(0, 0, 0, 5), BD(0, 0, 0, 5)) == ((0, 1),)
        # reversed-argument family vanishes too
        assert ext_on_M(BD(0, -1, 1, 5), BD(0, 2, 0, 5)) == ()
        # global sections restrict: h^0(Sym^2 of the dual rank-2) = C(8,2)
        assert ext_on_M(BD(0, 0, 0, 7), BD(2, 0, 0, 7)) == ((0, 28),)

    def test_plain_term_only(self):
        # twisted term drops out, answer is the plain flag group in place
        assert ext_on_M(BD(0, 3, 0, 5), BD(0, -1, 1, 5)) == ((3, 1),)

    def test_combined_when_degrees_are_separated(self):
        assert ext_on_M(BD(0, 3, 0, 5), BD(2, -1, 1, 5)) == ((1, 1), (3, 15))

    def test_a_twisted_class_one_degree_up_joins_the_plain_one(self):
        # A = Ext_F(O, O(-3,0)) sits in degree 2 and B = Ext_F(O, O(-2,1)) in
        # degree 1; the maps s_k: A_k -> B_k keep the degree, so every one is
        # zero and Ext^1_M = B_1 + A_2
        src, tgt = BD(0, 0, 0, 3), BD(0, -2, 1, 3)
        assert koszul_terms(src, tgt) == (((2, 1),), ((1, 1),))
        assert ext_on_M(src, tgt) == ((1, 2),)


class TestFreshAnswers:
    """No caller can change an answer, so none can reach the cached groups
    behind the next one: each answer is a tuple, and ``ext_on_flag`` hands
    out the cached tuple itself."""

    @pytest.mark.parametrize("source, target, wanted", [
        (BD(0, 0, 0, 5), BD(0, 0, 0, 5), ((0, 1),)),
        (BD(2, 0, 0, 7), BD(2, -6, 3, 7), ((1, 1),)),
        (BD(2, 0, 0, 7), BD(2, -7, 2, 7), ((6, 210),)),
    ])
    def test_ext_on_flag(self, source, target, wanted):
        answer = ext_on_flag(source, target)
        assert type(answer) is tuple and answer == wanted
        with pytest.raises(TypeError):
            answer[0] = (99, 1)
        assert ext_on_flag(source, target) is answer

    @pytest.mark.parametrize("source, target, wanted", [
        (BD(0, 0, 0, 7), BD(0, -5, 4, 7), ((1, 84),)),  # only the plain term, as is
        (BD(0, 0, 0, 7), BD(0, -6, 1, 7), ((5, 1),)),  # only the twisted term, shifted
        (BD(2, 0, 0, 7), BD(2, -6, 3, 7), ((1, 1), (5, 210))),  # both, degrees apart
    ])
    def test_ext_on_M(self, source, target, wanted):
        for _ in range(2):
            answer = ext_on_M(source, target)
            assert type(answer) is tuple and answer == wanted
            with pytest.raises(TypeError):
                answer[0] = (99, 1)


class TestCheckLemma:
    def test_a4_small_grids(self):
        for (n, eps), total in [((2, 0), 1), ((2, 1), 3), ((3, 0), 6), ((3, 1), 10)]:
            report = check_lemma("A4", n, eps)
            assert report.total == total
            assert report.mismatches == 0
            assert report.indeterminates == 0
            assert report.passed

    @pytest.mark.parametrize("lemma, shown", [
        ("A7", "'A7'"), (None, "None"), (10**5000, "an int of 5,001 digits")],
        ids=["A7", "None", "5001-digits"])
    def test_an_unknown_lemma_raises_value_error_in_its_own_words(self, lemma, shown):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"^unknown lemma {shown}; expected A4, A5 or A6$"):
            check_lemma(lemma, 2, 1)
        assert time.perf_counter() - start < 1

    def test_a4_point_structure(self):
        report = check_lemma("A4", 3, 1)
        for point in report.points:
            params = dict(point.params)
            t, r = params["t"], params["r"]
            assert 1 <= t <= 2 * 3 - 3 + 1
            if r == t - 1:
                assert point.expected == ((1, 1),)
            else:
                assert 0 <= r <= min(t - 2, 2)
                assert point.expected == ()
            assert point.verdict == "match"
            assert point.computed == point.expected

    def test_a5_small_grids(self):
        for (n, eps), total in [((2, 0), 1), ((2, 1), 3), ((3, 0), 6), ((3, 1), 9)]:
            report = check_lemma("A5", n, eps)
            assert (report.total, report.passed) == (total, True)

    def test_a6_small_grids(self):
        for (n, eps), total in [((2, 0), 1), ((2, 1), 1), ((3, 0), 3), ((3, 1), 3)]:
            report = check_lemma("A6", n, eps)
            assert (report.total, report.passed) == (total, True)
            assert all(p.expected == () for p in report.points)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            check_lemma("A4", 1, 0)
        with pytest.raises(ValueError):
            check_lemma("A4", 2, 2)
        with pytest.raises(ValueError):
            check_lemma("A7", 2, 0)

    def test_report_counters_are_consistent(self):
        report = check_lemma("A5", 4, 1)
        by_verdict = {"match": 0, "mismatch": 0, "indeterminate": 0}
        for point in report.points:
            by_verdict[point.verdict] += 1
        assert report.total == len(report.points)
        assert report.mismatches == by_verdict["mismatch"]
        assert report.indeterminates == by_verdict["indeterminate"]
        assert report.passed == (by_verdict["match"] == report.total)

    @pytest.mark.parametrize("answer, verdicts", [
        (((1, 1),), ("match", "match", "mismatch")),
        (((0, 2), (3, 1)), ("mismatch",) * 3),
        (INDETERMINATE, ("indeterminate",) * 3),
    ])
    def test_verdicts_follow_a_replaced_oracle(self, monkeypatch, answer, verdicts):
        # A4 at n = 2, eps = 1 expects C[-1], C[-1] and zero at its three points
        monkeypatch.setattr(oracle_module, "ext_on_M", lambda source, target: answer)
        report = check_lemma("A4", 2, 1)
        assert [p.params for p in report.points] == [
            (("t", 1), ("r", 0)), (("t", 2), ("r", 1)), (("t", 2), ("r", 0))]
        for point in report.points:
            (_, t), (_, r) = point.params
            assert point.expected == lemma_a4(t, r, 5)[2]
            assert point.computed is answer
        assert tuple(p.verdict for p in report.points) == verdicts
        assert report.mismatches == verdicts.count("mismatch")
        assert report.indeterminates == verdicts.count("indeterminate")
        assert not report.passed

    @pytest.mark.parametrize("lemma, params", [
        ("A5", [(("t", t), ("r", r)) for t in range(1, 5) for r in range(min(t - 1, 2) + 1)]),
        ("A6", [(("m", m), ("r", r)) for r in range(2) for m in range(r + 1)]),
    ])
    def test_a_wrong_oracle_fails_the_vanishing_lemmas(self, monkeypatch, lemma, params):
        monkeypatch.setattr(oracle_module, "ext_on_M", lambda source, target: ((2, 1),))
        report = check_lemma(lemma, 3, 1)
        assert [p.params for p in report.points] == params
        assert all((p.expected, p.computed, p.verdict) == ((), ((2, 1),), "mismatch")
                   for p in report.points)
        assert (report.mismatches, report.indeterminates, report.passed) == (len(params), 0, False)
        monkeypatch.setattr(oracle_module, "ext_on_M", lambda source, target: INDETERMINATE)
        report = check_lemma(lemma, 3, 1)
        assert all((p.expected, p.computed, p.verdict) == ((), "indeterminate", "indeterminate")
                   for p in report.points)
        assert (report.mismatches, report.indeterminates, report.passed) == (0, len(params), False)

    def test_the_full_sweep_does_pinned_work_from_cold_caches(self):
        # A4-A6 at n = 2..14, both parities, in a fresh interpreter, so that
        # every point is a cold miss of the Ext-on-F cache; the two summand
        # evaluators are counted where the oracle calls them
        script = (
            "import json\n"
            "from flagchess import check_lemma, oracle, weights\n"
            "calls = {'sym': 0, 'pushforward': 0}\n"
            "def counted(key, fn):\n"
            "    def call(d):\n"
            "        calls[key] += 1\n"
            "        return fn(d)\n"
            "    return call\n"
            "oracle.sym_cohomology = counted('sym', oracle.sym_cohomology)\n"
            "oracle.sym_cohomology_via_pushforward = counted(\n"
            "    'pushforward', oracle.sym_cohomology_via_pushforward)\n"
            "reports = [check_lemma(lemma, n, eps) for n in range(2, 15)\n"
            "           for eps in (0, 1) for lemma in ('A4', 'A5', 'A6')]\n"
            "print(json.dumps({'points': sum(r.total for r in reports),\n"
            "                  'passed': all(r.passed for r in reports),\n"
            "                  'ext_flag': oracle._ext_on_flag_cached.cache_info()[:2],\n"
            "                  'bwb': weights.line_bundle_cohomology.cache_info()[:2],\n"
            "                  'calls': calls}))\n"
        )
        src = str(Path(oracle_module.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, check=True)
        assert json.loads(proc.stdout) == {"points": 6306, "passed": True,
                                           "ext_flag": [0, 12612], "bwb": [111165, 8855],
                                           "calls": {"sym": 18072, "pushforward": 5460}}


class TestLemmaA4:
    def test_statement(self):
        assert lemma_a4(3, 2, 7) == (BD(0, 3, 0, 7), BD(2, -1, 1, 7), ((1, 1),))
        assert lemma_a4(3, 1, 7) == (BD(0, 3, 0, 7), BD(1, -1, 1, 7), ())

    @pytest.mark.parametrize("n, eps", [(2, 0), (3, 1), (5, 0), (6, 1)])
    def test_sweep_points_are_the_statement(self, n, eps):
        for point in check_lemma("A4", n, eps).points:
            params = dict(point.params)
            source, target, expected = lemma_a4(params["t"], params["r"], 2 * n + eps)
            assert point.expected == expected
            assert point.computed == ext_on_M(source, target)

    def test_absorb_checks_the_statement_at_r_equal_t_minus_1(self):
        for t in (1, 2, 4):
            board = Board(3, 1, (Box(t, 0, SymBlock(0)), Box(-1, 1, SymBlock(t - 1))))
            _, rec = move_absorb(board, (t, 0), (-1, 1))
            source, target, expected = lemma_a4(t, t - 1, board.N)
            (check,) = rec.oracle
            assert check.source == (source.m, source.x, source.y)
            assert check.target == (target.m, target.x, target.y)
            assert check.expected == expected == ((1, 1),)

    @pytest.mark.parametrize("mode", ["fibration", "flip"])
    @pytest.mark.parametrize("n, eps", [(n, eps) for n in range(2, 7) for eps in (0, 1)])
    def test_game_checks_of_a4_shape_are_sweep_points(self, game, n, eps, mode):
        """Every A4-shaped requirement a validated game makes, source O(t,0)
        against target Sym^r U2v(-1,1), is a point of the A4 sweep, with the
        sweep's expected and computed values."""
        sweep = {tuple(v for _, v in p.params): p for p in check_lemma("A4", n, eps).points}
        seen = 0
        for rec in game(n, eps, mode, True).log:
            for check in rec.oracle:
                (sm, t, sy), (r, tx, ty) = check.source, check.target
                if (sm, sy, tx, ty) != (0, 0, -1, 1):
                    continue
                point = sweep.get((t, r))
                assert point is not None, (rec.kind, check)
                assert (check.expected, check.got) == (point.expected, point.computed)
                seen += 1
        assert seen > 0
