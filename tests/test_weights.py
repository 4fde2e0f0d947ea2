"""Line-bundle cohomology core, checked against independent oracles.

``line_bundle_cohomology`` uses Bott's theorem in its sorting form, so it is
checked against the reflection route: ``bwb_regularize`` by iterated simple
reflections, then Weyl's product formula in ``weyl_dim``.  The reflection
loop in turn is checked against a brute-force sort oracle over all suffix
sums, where the group acts by permutation, so singularity is a repeated
entry, the length is an inversion count, and the dominant form is a
descending sort.
"""
from __future__ import annotations

import json
import math
import re
import signal
import time
from contextlib import contextmanager
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, strategies as st

from flagchess import (
    INDETERMINATE,
    Board,
    BundleDescriptor,
    CohomResult,
    bwb_regularize,
    canonical_fiber,
    check_lemma,
    clebsch_gordan_rank2,
    condition3_bound,
    corrected_flip_board,
    cover_degree,
    euler_char,
    ext_on_flag,
    ext_on_M,
    extract_gr2,
    h0_twisted_quotient,
    initial_board_fibration,
    line_bundle_cohomology,
    reference_residual_count,
    rho,
    run_game,
    section_count_ld,
    section_count_syzygy,
    simple_reflection,
    sym_cohomology,
    sym_filtration,
    sym_resolution_step,
    weyl_dim,
)
from flagchess.cli import MAX_N, MAX_m, MAX_n, MAX_twist
from flagchess.render import game_result_to_json, parse_game_result
from flagchess import _MAX_reach, _shown
from flagchess.weights import _VANISHES, _flag_N, _game_N, _line_bundle


def sort_regularize(w_plus_rho):
    """Sort-based dotted-action oracle: None if singular, else (length, weight)."""
    tail = list(w_plus_rho) + [0]
    sums = [sum(tail[i:]) for i in range(len(tail))]
    if len(set(sums)) < len(sums):
        return None
    inversions = sum(
        1
        for i in range(len(sums))
        for j in range(i + 1, len(sums))
        if sums[i] < sums[j]
    )
    desc = sorted(sums, reverse=True)
    fund = tuple(desc[i] - desc[i + 1] for i in range(len(desc) - 1))
    return inversions, fund


def reflection_route(N: int, x: int, y: int):
    """(degree, dim) of O(x, y) by reflections and Weyl's product, asserting
    on the way that the reflections end where ``sort_regularize`` does."""
    start = tuple(a + b for a, b in zip((x, y) + (0,) * (N - 3), rho(N)))
    reg = bwb_regularize(start)
    if reg.singular:
        assert sort_regularize(start) is None
        return None, 0
    assert sort_regularize(start) == (reg.length, reg.weight)
    return reg.length, weyl_dim(tuple(c - 1 for c in reg.weight))


def monomial_count(N: int, k: int) -> int:
    """Count degree-k monomials in N variables by brute enumeration."""
    return sum(1 for _ in combinations_with_replacement(range(N), k))


weights_st = st.lists(st.integers(-9, 9), min_size=2, max_size=6).map(tuple)


# Every entry point that takes N, each refusing a bad N in _flag_N's words.
N_ENTRY_POINTS = {
    "rho": rho, "canonical_fiber": canonical_fiber, "h0_twisted_quotient": h0_twisted_quotient,
    "condition3_bound": condition3_bound, "_line_bundle": lambda N: _line_bundle(N, 0, 0),
    "BundleDescriptor": lambda N: BundleDescriptor(0, 0, 0, N),
    "line_bundle_cohomology": lambda N: line_bundle_cohomology(N, 0, 0),
    "section_count_ld": section_count_ld, "section_count_syzygy": section_count_syzygy,
    "sym_resolution_step": lambda N: sym_resolution_step(1, N),
}


class TestRho:
    def test_examples(self):
        assert rho(5) == (1, 1, 1, 1)
        assert rho(3) == (1, 1)
        assert rho(12) == (1,) * 11

    def test_domain(self):
        with pytest.raises(ValueError):
            rho(2)

    @pytest.mark.parametrize("refuse", N_ENTRY_POINTS.values(), ids=N_ENTRY_POINTS)
    @pytest.mark.parametrize("N", (2, 0, -1))
    def test_every_caller_refuses_N_below_3_in_the_same_words(self, refuse, N):
        with pytest.raises(ValueError, match=f"^need N >= 3, got {N}$"):
            refuse(N)


class TestSizesMustBeInts:
    """A size that is not an int, a bool included, is refused with
    ``ValueError`` before any arithmetic is done on it."""

    @pytest.mark.parametrize("call, message", [
        (lambda: _game_N(2.5, 1), "n must be an int, got 2.5"),
        (lambda: _game_N(True, 1), "n must be an int, got True"),
        (lambda: _game_N(3, 1.0), "eps must be 0 or 1, got 1.0"),
        (lambda: _game_N(2, True), "eps must be 0 or 1, got True"),
        (lambda: _game_N(2, False), "eps must be 0 or 1, got False"),
        (lambda: run_game(2, True), "eps must be 0 or 1, got True"),
        (lambda: run_game(2.5, 1), "n must be an int, got 2.5"),
        (lambda: run_game(3, 1.0), "eps must be 0 or 1, got 1.0"),
        (lambda: check_lemma("A4", 3.0, 1), "n must be an int, got 3.0"),
        (lambda: cover_degree(2.5, 1), "n must be an int, got 2.5"),
        (lambda: _flag_N(5.0), "N must be an int, got 5.0"),
        (lambda: _flag_N(True), "N must be an int, got True"),
        (lambda: rho(4.0), "N must be an int, got 4.0"),
        (lambda: BundleDescriptor(1.5, 0, 0, 5), r"m, x and y must be ints, got \(1.5, 0, 0\)"),
        (lambda: BundleDescriptor(0, 0.0, 0, 5), r"m, x and y must be ints, got \(0, 0.0, 0\)"),
        (lambda: BundleDescriptor(0, 0, True, 5), r"m, x and y must be ints, got \(0, 0, True\)"),
        (lambda: BundleDescriptor(0, 0, 0, 5.0), "N must be an int, got 5.0"),
        (lambda: BundleDescriptor(0, 0, 0, True), "N must be an int, got True"),
        (lambda: reference_residual_count(2.5, 1), "n must be an int, got 2.5"),
        (lambda: reference_residual_count(True, 1), "n must be an int, got True"),
        (lambda: extract_gr2(Board(2, 1, ()), 2.5, 1), "n must be an int, got 2.5"),
        (lambda: extract_gr2(Board(2, 1, ()), 2, True), "eps must be 0 or 1, got True"),
        (lambda: condition3_bound(True), "N must be an int, got True"),
        (lambda: condition3_bound(5.0), "N must be an int, got 5.0"),
        (lambda: line_bundle_cohomology(5, 1.5, 0), r"x and y must be ints, got \(1.5, 0\)"),
        (lambda: line_bundle_cohomology(5, "1", 0), r"x and y must be ints, got \('1', 0\)"),
        (lambda: (_line_bundle(5, 0, 0), _line_bundle(5.0, 0, 0)), "N must be an int, got 5.0"),
        (lambda: simple_reflection((1, 2), True), r"reflection index True out of range 1\.\.2"),
        (lambda: simple_reflection((1, 2), 1.0), r"reflection index 1\.0 out of range 1\.\.2"),
        (lambda: sym_resolution_step(None, 5), "need k >= 1, got None"),
        (lambda: sym_resolution_step(True, 5), "need k >= 1, got True"),
        (lambda: clebsch_gordan_rank2(1, 1.5),
         rf"need int powers >= 0, the lesser <= {2 * MAX_m}, got \(1, 1\.5\)"),
        (lambda: clebsch_gordan_rank2(True, 1),
         rf"need int powers >= 0, the lesser <= {2 * MAX_m}, got \(True, 1\)"),
    ], ids=["game_N-n-float", "game_N-n-bool", "game_N-eps-float", "game_N-eps-True",
            "game_N-eps-False", "run_game-eps-bool", "run_game-n-float", "run_game-eps-float",
            "check_lemma-n-float", "cover_degree-n-float", "flag_N-float", "flag_N-bool",
            "rho-float", "descriptor-m-float", "descriptor-x-float", "descriptor-y-bool",
            "descriptor-N-float", "descriptor-N-bool", "reference_residual_count-n-float",
            "reference_residual_count-n-bool", "extract_gr2-n-float", "extract_gr2-eps-bool",
            "condition3_bound-bool", "condition3_bound-float",
            "line_bundle_cohomology-x-float", "line_bundle_cohomology-x-str",
            "_line_bundle-N-float-after-int", "simple_reflection-i-bool",
            "simple_reflection-i-float", "sym_resolution_step-k-None",
            "sym_resolution_step-k-bool", "clebsch_gordan_rank2-b-float",
            "clebsch_gordan_rank2-a-bool"])
    def test_refused(self, call, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


@contextmanager
def deadline(seconds: float):
    """Fail the test once its body has run ``seconds`` of wall time, so that
    a call that runs on unbounded fails in place of hanging."""
    def expire(signum, frame):
        raise TimeoutError
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except TimeoutError:
        pytest.fail(f"still running after {seconds} s", pytrace=False)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestSizesAreBounded:
    """Every public (n, eps) entry point refuses an n past ``cli.MAX_n``
    with ``ValueError`` at once: the rule is ``_game_N``'s, bound included,
    and a document's ``params.n`` meets it through the game runner.  So does
    every N entry point an N past ``cli.MAX_N``, by ``_flag_N``, and every
    ``BundleDescriptor`` an m past ``cli.MAX_m`` or a twist past
    ``cli.MAX_twist``, so that no oracle call runs unbounded."""

    @staticmethod
    def document(n: int) -> str:
        doc = json.loads(game_result_to_json(run_game(2, 1, validate=False)))
        doc["params"]["n"] = n
        return json.dumps(doc)

    @pytest.mark.parametrize("n", [MAX_n + 1, 10**12])
    @pytest.mark.parametrize("call, prefix", [
        (lambda n: run_game(n, 1), ""),
        (lambda n: run_game(n, 0, mode="flip", validate=False), ""),
        (lambda n: check_lemma("A4", n, 1), ""),
        (lambda n: check_lemma("A6", n, 0), ""),
        (lambda n: cover_degree(n, 1), ""),
        (lambda n: initial_board_fibration(n, 1), ""),
        (lambda n: corrected_flip_board(n, 1), ""),
        (lambda n: Board(n, 1, ()), ""),
        (lambda n: extract_gr2(Board(2, 1, ()), n, 1), ""),
        (lambda n: reference_residual_count(n, 1), ""),
        (lambda n: parse_game_result(TestSizesAreBounded.document(n)), r"params\."),
    ], ids=["run_game", "run_game-flip", "check_lemma-A4", "check_lemma-A6", "cover_degree",
            "initial_board_fibration", "corrected_flip_board", "Board", "extract_gr2",
            "reference_residual_count", "parse_game_result"])
    def test_refused_at_once(self, call, prefix, n):
        start = time.perf_counter()
        with deadline(1), pytest.raises(ValueError, match=f"^{prefix}n must be <= {MAX_n}, "
                                                          f"got {n}$"):
            call(n)
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("refuse", N_ENTRY_POINTS.values(), ids=N_ENTRY_POINTS)
    @pytest.mark.parametrize("N", [MAX_N + 1, 10**12])
    def test_an_N_past_MAX_N_is_refused_at_once_in_the_same_words(self, refuse, N):
        with deadline(1), pytest.raises(ValueError, match=f"^need N <= {MAX_N}, got {N}$"):
            refuse(N)

    @pytest.mark.parametrize("m, x, y", [
        (MAX_m + 1, 0, 0), (10**12, 0, 0), (0, MAX_twist + 1, 0), (0, -MAX_twist - 1, 0),
        (0, 10**12, 0), (0, -(10**12), 0), (0, 0, MAX_twist + 1), (0, 0, -MAX_twist - 1),
        (0, 0, 10**12), (0, 0, -(10**12))])
    def test_a_descriptor_past_the_oracle_bounds_is_refused_at_once(self, m, x, y):
        with deadline(1), pytest.raises(ValueError, match=re.escape(
                f"{(m, x, y)} is past the oracle's bounds MAX_m, MAX_twist")):
            BundleDescriptor(m, x, y, 5)

    def test_a_descriptor_at_the_oracle_bounds_is_built(self):
        for m, x, y in [(MAX_m, MAX_twist, -MAX_twist), (0, -MAX_twist, MAX_twist)]:
            assert BundleDescriptor(m, x, y, MAX_N) == (m, x, y, MAX_N)

    @pytest.mark.parametrize("call", [
        lambda: rho(10**12),
        lambda: line_bundle_cohomology(10**7, 10**7, 0),
        lambda: sym_filtration(BundleDescriptor(10**9, 0, 0, 5)),
        lambda: sym_cohomology(BundleDescriptor(10**12, 0, 0, 5)),
        lambda: ext_on_flag(BundleDescriptor(10**9, 0, 0, 5), BundleDescriptor(10**9, 1, 0, 5)),
        lambda: ext_on_M(BundleDescriptor(10**9, 0, 0, 5), BundleDescriptor(10**9, 1, 0, 5)),
        lambda: clebsch_gordan_rank2(10**12, 10**12),
        lambda: clebsch_gordan_rank2(2 * MAX_m + 1, 2 * MAX_m + 1),
        lambda: sym_resolution_step(10**12, 5),
    ], ids=["rho", "line_bundle_cohomology", "sym_filtration", "sym_cohomology", "ext_on_flag",
            "ext_on_M", "clebsch_gordan_rank2", "clebsch_gordan_rank2-past-by-one",
            "sym_resolution_step"])
    def test_an_oracle_call_past_the_bounds_is_refused_at_once(self, call):
        start = time.perf_counter()
        with deadline(1), pytest.raises(ValueError):
            call()
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("evaluate", [line_bundle_cohomology, _line_bundle])
    @pytest.mark.parametrize("x, y, shown", [
        (10**10000, 0, "(an int of 10,001 digits, 0)"),
        (0, 10**10000, "(0, an int of 10,001 digits)"),
        (-(10**100000), 0, "(an int of 100,001 digits, 0)"),
        (4_000_000_402, 0, "(4000000402, 0)"), (0, -4_000_000_402, "(0, -4000000402)"),
        (10**12, 10**12, "(1000000000000, 1000000000000)"),
    ], ids=["x-10^10000", "y-10^10000", "x-minus-10^100000", "x-past-by-one",
            "y-past-by-one", "both-10^12"])
    def test_a_twist_past_the_Bott_evaluators_reach_is_refused_at_once(self, evaluate, x, y,
                                                                       shown):
        start = time.perf_counter()
        with deadline(1), pytest.raises(ValueError, match=re.escape(
                f"{shown} is past the Bott evaluator's reach 4000000401")):
            evaluate(MAX_N, x, y)
        assert time.perf_counter() - start < 1

    def test_the_reach_is_four_twists_two_powers_and_one(self):
        assert _MAX_reach == 4 * MAX_twist + 2 * MAX_m + 1 == 4_000_000_401
        for x, y in [(_MAX_reach, 0), (0, -_MAX_reach), (-_MAX_reach, _MAX_reach)]:
            with deadline(1):
                assert _line_bundle(MAX_N, x, y) == line_bundle_cohomology(MAX_N, x, y)

    @pytest.mark.parametrize("dx, dy, shown", [
        (1, 0, "(3, 1000000001, -1000000000)"), (0, -1, "(3, 1000000000, -1000000001)"),
        (10**5000, 0, "(3, an int of 5,001 digits, -1000000000)")],
        ids=["x-past-by-one", "y-past-by-one", "x-10^5000"])
    def test_a_twist_past_MAX_twist_is_refused_in_the_constructors_words(self, dx, dy, shown):
        d = BundleDescriptor(3, MAX_twist, -MAX_twist, 5)
        with deadline(1), pytest.raises(ValueError, match=re.escape(
                f"{shown} is past the oracle's bounds MAX_m, MAX_twist")):
            d.twist(dx, dy)
        assert d.twist(-1, 1) == (3, MAX_twist - 1, 1 - MAX_twist, 5)

    @pytest.mark.parametrize("call, message", [
        (lambda: rho(10**5000), "need N <= 201, got an int of 5,001 digits"),
        (lambda: rho(-(10**5000)), "need N >= 3, got an int of 5,001 digits"),
        (lambda: BundleDescriptor(0, 10**5000, 0, 5),
         "(0, an int of 5,001 digits, 0) is past the oracle's bounds MAX_m, MAX_twist"),
        (lambda: BundleDescriptor(10**5000, 0, 0, 5),
         "(an int of 5,001 digits, 0, 0) is past the oracle's bounds MAX_m, MAX_twist"),
        (lambda: BundleDescriptor(-(10**5000), 0, 0, 5),
         "symmetric power must be >= 0, got an int of 5,001 digits"),
        (lambda: BundleDescriptor(0.5, 10**5000, 0, 5),
         "m, x and y must be ints, got (0.5, an int of 5,001 digits, 0)"),
        (lambda: run_game(10**5000, 1), "n must be <= 100, got an int of 5,001 digits"),
        (lambda: check_lemma("A4", 10**5000, 1), "n must be <= 100, got an int of 5,001 digits"),
        (lambda: check_lemma("A4", -(10**5000), 1), "n must be >= 2, got an int of 5,001 digits"),
        (lambda: clebsch_gordan_rank2(10**5000, 10**5000),
         "need int powers >= 0, the lesser <= 400, got "
         "(an int of 5,001 digits, an int of 5,001 digits)"),
        (lambda: line_bundle_cohomology(5, 10**4299, 0),
         "(an int of 4,300 digits, 0) is past the Bott evaluator's reach 4000000401"),
        (lambda: simple_reflection((1, 2), 10**5000),
         r"reflection index an int of 5,001 digits out of range 1..2"),
        (lambda: sym_resolution_step(-(10**5000), 5), "need k >= 1, got an int of 5,001 digits"),
    ], ids=["rho", "rho-negative", "descriptor-x", "descriptor-m", "descriptor-m-negative",
            "descriptor-type", "run_game", "check_lemma", "check_lemma-negative",
            "clebsch_gordan_rank2", "line_bundle_cohomology", "simple_reflection",
            "sym_resolution_step"])
    def test_an_int_past_the_digit_limit_is_shown_by_its_size(self, call, message):
        with deadline(1), pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    @pytest.mark.parametrize("value", [0, -1, 10**12, 2**2000 - 1, -(2**2000) + 1, True, 1.5,
                                       "1", None, (), (1, 2.5, "x"), ((1, 2), 3)])
    def test_an_ordinary_value_is_shown_as_its_repr(self, value):
        assert _shown(value) == repr(value)

    def test_a_long_int_is_shown_by_its_exact_digit_count(self):
        for digits in (604, 605, 1000, 4300, 4301, 5001, 20000):
            for value in (10**(digits - 1), 10**digits - 1, -(10**(digits - 1))):
                assert _shown(value) == f"an int of {digits:,} digits"
        assert _shown(2**2000) == "an int of 603 digits"

    @pytest.mark.parametrize("n", [1, 0, -(10**12)])
    def test_below_two_is_refused_in_the_same_words(self, n):
        for call in (lambda: _game_N(n, 1), lambda: run_game(n, 1), lambda: Board(n, 0, ())):
            with pytest.raises(ValueError, match=f"^n must be >= 2, got {n}$"):
                call()


class TestVanishingAnswerIsShared:
    """Every vanishing answer of the Bott evaluator is the one object
    ``weights._VANISHES``, which the filtration skips by identity."""

    @pytest.mark.parametrize("N", [3, 4, 5, 7, 13])
    def test_every_vanishing_answer_is_the_shared_one(self, N):
        vanishing = 0
        for x in range(-3 * N, 3 * N + 1):
            for y in range(-3 * N, 3 * N + 1):
                for answer in (line_bundle_cohomology(N, x, y), _line_bundle(N, x, y)):
                    assert (answer is _VANISHES) == answer.vanishes, (N, x, y)
                    vanishing += answer.vanishes
        assert 0 < vanishing < 2 * (6 * N + 1) ** 2


class TestSimpleReflection:
    def test_first_coordinate(self):
        assert simple_reflection((-1, 2, 1, 1), 1) == (1, 1, 1, 1)

    def test_middle_coordinate(self):
        assert simple_reflection((3, -1, 2, 1), 2) == (2, 1, 1, 1)

    def test_last_coordinate(self):
        assert simple_reflection((1, 1, -2), 3) == (1, -1, 2)

    def test_index_out_of_range(self):
        for i in (0, 3, -1):
            with pytest.raises(ValueError):
                simple_reflection((1, 1), i)

    @given(weights_st, st.data())
    def test_involution(self, w, data):
        i = data.draw(st.integers(1, len(w)))
        assert simple_reflection(simple_reflection(w, i), i) == w


class TestRegularize:
    def test_already_dominant(self):
        reg = bwb_regularize((1, 1, 1, 1))
        assert not reg.singular
        assert reg.length == 0
        assert reg.weight == (1, 1, 1, 1)
        assert reg.trace == ()

    def test_singular(self):
        assert bwb_regularize((0, 1, 1, 1)).singular

    def test_one_reflection(self):
        reg = bwb_regularize((-1, 2, 1, 1))
        assert (reg.singular, reg.length, reg.weight) == (False, 1, (1, 1, 1, 1))
        assert reg.trace == ((1, (1, 1, 1, 1)),)

    def test_trace_replays_the_reflections(self):
        reg = bwb_regularize((-1, -2, 4))
        assert not reg.singular and reg.length == 3
        w = (-1, -2, 4)
        for i, after in reg.trace:
            w = simple_reflection(w, i)
            assert w == after
        assert w == reg.weight

    @given(weights_st)
    def test_trace_replays_for_any_input(self, w):
        reg = bwb_regularize(w)
        for i, after in reg.trace:
            w = simple_reflection(w, i)
            assert w == after
        if reg.singular:
            assert reg.weight is None
        else:
            assert w == reg.weight
            assert len(reg.trace) == reg.length
            assert all(c > 0 for c in reg.weight)

    @given(weights_st)
    def test_agrees_with_sort_oracle(self, w):
        reg = bwb_regularize(w)
        oracle = sort_regularize(w)
        if oracle is None:
            assert reg.singular
        else:
            assert not reg.singular
            assert (reg.length, reg.weight) == oracle


class TestWeylDim:
    def test_trivial_rep(self):
        assert weyl_dim((0, 0, 0, 0)) == 1

    def test_standard_rep(self):
        assert weyl_dim((1, 0, 0, 0, 0, 0)) == 7

    def test_sym_cube(self):
        assert weyl_dim((3, 0, 0, 0)) == math.comb(7, 3) == 35

    def test_hook_content_oracle(self):
        # dim of the (k, 0, ..., 0) irrep is the monomial count in N variables
        for N in range(3, 7):
            for k in range(5):
                w = (k,) + (0,) * (N - 2)
                assert weyl_dim(w) == monomial_count(N, k)

    def test_nondominant_rejected(self):
        with pytest.raises(ValueError):
            weyl_dim((-1, 2))


class TestLineBundleCohomology:
    def test_structure_sheaf(self):
        r = line_bundle_cohomology(5, 0, 0)
        assert (r.degree, r.dim) == (0, 1)
        assert not r.vanishes
        assert r.graded() == ((0, 1),)

    def test_every_answer_is_a_cohom_result(self):
        # vanishing or not, through the cache or the uncached evaluator
        for N in (3, 4, 7, 12):
            for x in range(-2 * N, 2 * N + 1):
                for y in range(-2 * N, 2 * N + 1):
                    for answer in (line_bundle_cohomology(N, x, y), _line_bundle(N, x, y)):
                        assert type(answer) is CohomResult, (N, x, y, answer)
                        assert answer.vanishes == (answer == (None, 0)), (N, x, y, answer)

    def test_singular_vanishes(self):
        r = line_bundle_cohomology(5, -1, 0)
        assert r.vanishes
        assert r.degree is None
        assert r.graded() == ()

    def test_positive_line_bundles_match_projective_space(self):
        for k in (1, 2, 3):
            r = line_bundle_cohomology(5, k, 0)
            assert r.degree == 0
            assert r.dim == math.comb(4 + k, 4)

    def test_h0_against_monomial_oracle(self):
        for N in range(3, 9):
            for k in range(7):
                r = line_bundle_cohomology(N, k, 0)
                assert r.degree == 0
                assert r.dim == monomial_count(N, k) == math.comb(N - 1 + k, k)

    def test_dominant_twists_live_in_degree_zero(self):
        for x in range(4):
            for y in range(4):
                assert line_bundle_cohomology(4, x, y).degree == 0

    def test_top_degree_of_canonical(self):
        for N in (3, 4, 5, 6):
            x, y = canonical_fiber(N)
            r = line_bundle_cohomology(N, x, y)
            assert (r.degree, r.dim) == (2 * N - 3, 1)

    @given(st.integers(3, 7), st.integers(-8, 8), st.integers(-8, 8))
    def test_degree_bound(self, N, x, y):
        r = line_bundle_cohomology(N, x, y)
        if not r.vanishes:
            assert 0 <= r.degree <= 2 * N - 3
            assert r.dim >= 1

    @given(st.data())
    def test_agrees_with_the_reflection_route(self, data):
        N = data.draw(st.integers(3, 40), label="N")
        x = data.draw(st.integers(-3 * N, 3 * N), label="x")
        y = data.draw(st.integers(-3 * N, 3 * N), label="y")
        r = line_bundle_cohomology(N, x, y)
        assert (r.degree, r.dim) == reflection_route(N, x, y)

    @pytest.mark.parametrize("N", [3, 4, 5, 7])
    def test_agrees_with_the_reflection_route_on_a_full_grid(self, N):
        for x in range(-3 * N, 3 * N + 1):
            for y in range(-3 * N, 3 * N + 1):
                r = line_bundle_cohomology(N, x, y)
                assert (r.degree, r.dim) == reflection_route(N, x, y), (N, x, y)

    @pytest.mark.parametrize("N", [20, 40, 80])
    def test_agrees_with_the_reflection_route_at_large_N(self, N):
        step = N // 2 + 1
        degrees = set()
        for x in range(-3 * N, 3 * N + 1, step):
            for y in range(-3 * N, 3 * N + 1, step):
                r = line_bundle_cohomology(N, x, y)
                assert (r.degree, r.dim) == reflection_route(N, x, y)
                degrees.add(r.degree)
        # every kind of answer occurs: vanishing, and a, b above or below the tail
        assert {None, 0, 1, N - 2, N - 1, 2 * N - 4, 2 * N - 3} <= degrees

    def test_serre_duality_full_window(self):
        for N in range(3, 8):
            top = 2 * N - 3
            wx, wy = canonical_fiber(N)
            for x in range(-6, 7):
                for y in range(-6, 7):
                    a = line_bundle_cohomology(N, x, y)
                    b = line_bundle_cohomology(N, wx - x, wy - y)
                    if a.vanishes:
                        assert b.vanishes
                    else:
                        assert b.degree == top - a.degree
                        assert b.dim == a.dim


class TestCanonicalFiber:
    def test_examples(self):
        assert canonical_fiber(5) == (-2, -4)
        assert canonical_fiber(3) == (-2, -2)
        assert canonical_fiber(12) == (-2, -11)


class TestGradedHelpers:
    def test_euler_char(self):
        assert euler_char(()) == 0
        assert euler_char(((0, 5), (1, 3), (2, 1))) == 3

    def test_euler_char_refuses_an_indeterminate_answer(self):
        with pytest.raises(ValueError, match="^an 'indeterminate' answer has no Euler characteristic$"):
            euler_char(INDETERMINATE)

    def test_vanishing_result_graded_is_empty(self):
        assert CohomResult(None, 0).graded() == ()
