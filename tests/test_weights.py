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
import time
from functools import lru_cache
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, strategies as st

from flagchess import (
    INDETERMINATE,
    Board,
    BundleDescriptor,
    CohomResult,
    Opaque,
    SymBlock,
    bwb_regularize,
    canonical_fiber,
    check_lemma,
    clebsch_gordan_rank2,
    condition3_bound,
    corrected_flip_board,
    cover_degree,
    dualize,
    euler_char,
    ext_on_flag,
    ext_on_M,
    h0_twisted_quotient,
    hom_bundle,
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
from conftest import deadline
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


@lru_cache(maxsize=None)
def _game_document() -> str:
    return game_result_to_json(run_game(2, 1, validate=False))


def _parsed_with(key: str, value) -> object:
    """Parse the n = 2, eps = 1 game's document with ``params.n``,
    ``params.eps`` or ``residual_f_count`` set to ``value``."""
    doc = json.loads(_game_document())
    (doc if key == "residual_f_count" else doc["params"])[key] = value
    return parse_game_result(json.dumps(doc))


# Every size refused by the one rule, flagchess._sized: the callable with the
# size put in, the size's name in the refusal, and its bounds, None where
# there is none above.
SIZES = {
    "_flag_N": (_flag_N, "N", 3, MAX_N),
    "rho": (rho, "N", 3, MAX_N),
    "canonical_fiber": (canonical_fiber, "N", 3, MAX_N),
    "h0_twisted_quotient": (h0_twisted_quotient, "N", 3, MAX_N),
    "condition3_bound": (condition3_bound, "N", 3, MAX_N),
    "section_count_ld": (section_count_ld, "N", 3, MAX_N),
    "section_count_syzygy": (section_count_syzygy, "N", 3, MAX_N),
    "line_bundle_cohomology-N": (lambda N: line_bundle_cohomology(N, 0, 0), "N", 3, MAX_N),
    # after a good call, so that nothing is cached past the check
    "_line_bundle-N": (lambda N: (_line_bundle(5, 0, 0), _line_bundle(N, 0, 0)), "N", 3, MAX_N),
    "sym_resolution_step-N": (lambda N: sym_resolution_step(1, N), "N", 3, MAX_N),
    "sym_resolution_step-k": (lambda k: sym_resolution_step(k, 5), "k", 1, None),
    "BundleDescriptor-m": (lambda m: BundleDescriptor(m, 0, 0, 5), "m", 0, MAX_m),
    "BundleDescriptor-x": (lambda x: BundleDescriptor(0, x, 0, 5), "x", -MAX_twist, MAX_twist),
    "BundleDescriptor-y": (lambda y: BundleDescriptor(0, 0, y, 5), "y", -MAX_twist, MAX_twist),
    "BundleDescriptor-N": (lambda N: BundleDescriptor(0, 0, 0, N), "N", 3, MAX_N),
    "simple_reflection": (lambda i: simple_reflection((1, 2), i), "reflection index", 1, 2),
    "SymBlock": (SymBlock, "block grade", 0, None),
    "Opaque": (Opaque, "opaque copies", 1, None),
    "_game_N-n": (lambda n: _game_N(n, 1), "n", 2, MAX_n),
    "_game_N-eps": (lambda eps: _game_N(2, eps), "eps", 0, 1),
    "run_game-n": (lambda n: run_game(n, 1), "n", 2, MAX_n),
    "run_game-flip-n": (lambda n: run_game(n, 0, mode="flip", validate=False), "n", 2, MAX_n),
    "run_game-eps": (lambda eps: run_game(3, eps), "eps", 0, 1),
    "check_lemma-A4-n": (lambda n: check_lemma("A4", n, 1), "n", 2, MAX_n),
    "check_lemma-A6-n": (lambda n: check_lemma("A6", n, 0), "n", 2, MAX_n),
    "check_lemma-eps": (lambda eps: check_lemma("A5", 2, eps), "eps", 0, 1),
    "cover_degree-n": (lambda n: cover_degree(n, 1), "n", 2, MAX_n),
    "cover_degree-eps": (lambda eps: cover_degree(2, eps), "eps", 0, 1),
    "initial_board_fibration-n": (lambda n: initial_board_fibration(n, 1), "n", 2, MAX_n),
    "initial_board_fibration-eps": (lambda eps: initial_board_fibration(2, eps), "eps", 0, 1),
    "corrected_flip_board-n": (lambda n: corrected_flip_board(n, 1), "n", 2, MAX_n),
    "corrected_flip_board-eps": (lambda eps: corrected_flip_board(2, eps), "eps", 0, 1),
    "Board-n": (lambda n: Board(n, 0, ()), "n", 2, MAX_n),
    "Board-eps": (lambda eps: Board(2, eps, ()), "eps", 0, 1),
    "reference_residual_count-n": (lambda n: reference_residual_count(n, 1), "n", 2, MAX_n),
    "reference_residual_count-eps": (lambda eps: reference_residual_count(2, eps), "eps", 0, 1),
    "parse_game_result-n": (lambda n: _parsed_with("n", n), "params.n", 2, MAX_n),
    "parse_game_result-eps": (lambda eps: _parsed_with("eps", eps), "params.eps", 0, 1),
    "parse_game_result-residual_f_count": (lambda count: _parsed_with("residual_f_count", count),
                                           "residual_f_count", 0, None),
}

# The values each size is probed with, besides one past each of its bounds,
# with the text a refusal shows for each of them.
PROBES = {"0": (0, "0"), "-1": (-1, "-1"),
          "10**12": (10**12, "1000000000000"), "-10**12": (-(10**12), "-1000000000000"),
          "10**5000": (10**5000, "an int of 5,001 digits"),
          "-10**5000": (-(10**5000), "an int of 5,001 digits"),
          **{repr(f): (f, repr(f)) for f in (0.5, 1.5, 2.5, 0.0, 1.0, 3.0, 4.0, 5.0)},
          "True": (True, "True"), "False": (False, "False"), "None": (None, "None"),
          "str": ("1", "'1'")}


def _size_refusals():
    """(call, value, refusal) for every size of SIZES and every probe it
    refuses: one past each bound and each of PROBES outside the bounds.  A
    JSON document cannot hold an int past Python's digit limit, so the
    parser's sizes are not probed with one."""
    for case, (call, name, low, high) in SIZES.items():
        probes = {"low-1": (low - 1, str(low - 1)), **PROBES}
        if high is not None:
            probes["high+1"] = (high + 1, str(high + 1))
        seen = set()
        for label, (value, shown) in probes.items():
            if (type(value), value) in seen or (case.startswith("parse_game_result")
                                               and "5000" in label):
                continue
            seen.add((type(value), value))
            if case == "line_bundle_cohomology-N" and value in range(low, high + 1):
                continue  # a float equal to an N the Bott cache holds hits it, unchecked (open)
            if type(value) is not int:
                refusal = f"{name} must be an int, got {shown}"
            elif low <= value and (high is None or value <= high):
                continue
            elif high == -low:
                refusal = f"|{name}| must be <= {high}, got {shown}"
            elif value < low:
                refusal = f"{name} must be >= {low}, got {shown}"
            else:
                refusal = f"{name} must be <= {high}, got {shown}"
            yield pytest.param(call, value, refusal, id=f"{case}-{label}")


class TestRho:
    def test_examples(self):
        assert rho(5) == (1, 1, 1, 1)
        assert rho(3) == (1, 1)
        assert rho(12) == (1,) * 11

    def test_domain(self):
        with pytest.raises(ValueError):
            rho(2)


_D = BundleDescriptor(1, 0, 0, 5)


class TestSizesAreBounded:
    """Every size the library takes is refused by one rule, in one set of
    words, with ``ValueError`` at once: a size that is not an int (a bool
    is not one), or one past a bound.  The n of every (n, eps) entry point
    is bounded by ``cli.MAX_n``, through ``_game_N``, and a document's
    ``params.n`` meets it through the game runner; every N by ``cli.MAX_N``,
    through ``_flag_N``; and every ``BundleDescriptor`` by ``cli.MAX_m`` and
    ``cli.MAX_twist``, so that no oracle call runs unbounded."""

    @pytest.mark.parametrize("call, value, refusal", _size_refusals())
    def test_refused_by_the_one_rule(self, call, value, refusal):
        with deadline(1), pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
            call(value)

    @pytest.mark.parametrize("call, message", [
        (lambda: line_bundle_cohomology(5, 1.5, 0), r"x and y must be ints, got \(1.5, 0\)"),
        (lambda: line_bundle_cohomology(5, "1", 0), r"x and y must be ints, got \('1', 0\)"),
        (lambda: clebsch_gordan_rank2(1, 1.5),
         rf"need int powers >= 0, the lesser <= {2 * MAX_m}, got \(1, 1\.5\)"),
        (lambda: clebsch_gordan_rank2(True, 1),
         rf"need int powers >= 0, the lesser <= {2 * MAX_m}, got \(True, 1\)"),
        (lambda: hom_bundle(None, _D), "source and target must be BundleDescriptors, got "
                                        "NoneType and BundleDescriptor"),
        (lambda: hom_bundle(_D, 1.5), "source and target must be BundleDescriptors, got "
                                      "BundleDescriptor and float"),
        (lambda: dualize(None), "d must be a BundleDescriptor, got NoneType"),
        (lambda: sym_filtration(None), "d must be a BundleDescriptor, got NoneType"),
        (lambda: bwb_regularize(None), r"a weight must be a tuple or list of ints, got None"),
        (lambda: bwb_regularize((1, "x")),
         r"a weight must be a tuple or list of ints, got \(1, 'x'\)"),
        (lambda: simple_reflection(None, 1), r"a weight must be a tuple or list of ints, got None"),
        (lambda: weyl_dim(None), r"a weight must be a tuple or list of ints, got None"),
        (lambda: weyl_dim((1, "x")), r"a weight must be a tuple or list of ints, got \(1, 'x'\)"),
        (lambda: euler_char(None), r"graded dims must be \(degree, dim\) pairs of ints, got None"),
        (lambda: euler_char(1.5), r"graded dims must be \(degree, dim\) pairs of ints, got 1\.5"),
    ], ids=["line_bundle_cohomology-x-float", "line_bundle_cohomology-x-str",
            "clebsch_gordan_rank2-b-float", "clebsch_gordan_rank2-a-bool",
            "hom_bundle-source-None", "hom_bundle-target-float", "dualize-None",
            "sym_filtration-None", "bwb_regularize-None", "bwb_regularize-str",
            "simple_reflection-None", "weyl_dim-None", "weyl_dim-str", "euler_char-None",
            "euler_char-float"])
    def test_a_check_in_its_own_words_refuses_a_non_int(self, call, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()

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

    @pytest.mark.parametrize("dx, dy, refusal", [
        (1, 0, "|x| must be <= 1000000000, got 1000000001"),
        (0, -1, "|y| must be <= 1000000000, got -1000000001"),
        (10**5000, 0, "|x| must be <= 1000000000, got an int of 5,001 digits")],
        ids=["x-past-by-one", "y-past-by-one", "x-10^5000"])
    def test_a_twist_past_MAX_twist_is_refused_in_the_constructors_words(self, dx, dy, refusal):
        d = BundleDescriptor(3, MAX_twist, -MAX_twist, 5)
        with deadline(1), pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
            d.twist(dx, dy)
        assert d.twist(-1, 1) == (3, MAX_twist - 1, 1 - MAX_twist, 5)

    @pytest.mark.parametrize("call, message", [
        # a descriptor checks its fields in order, m first
        (lambda: BundleDescriptor(0.5, 10**5000, 0, 5), "m must be an int, got 0.5"),
        (lambda: clebsch_gordan_rank2(10**5000, 10**5000),
         "need int powers >= 0, the lesser <= 400, got "
         "(an int of 5,001 digits, an int of 5,001 digits)"),
        (lambda: line_bundle_cohomology(5, 10**4299, 0),
         "(an int of 4,300 digits, 0) is past the Bott evaluator's reach 4000000401"),
        (lambda: weyl_dim((-1, 10**5000)), "weight (-1, an int of 5,001 digits) is not dominant"),
    ], ids=["descriptor-type", "clebsch_gordan_rank2", "line_bundle_cohomology", "weyl_dim"])
    def test_an_int_past_the_digit_limit_is_shown_by_its_size(self, call, message):
        with deadline(1), pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    @pytest.mark.parametrize("value", [0, -1, 10**12, 2**2000 - 1, -(2**2000) + 1, True, 1.5,
                                       "1", None, (), (1,), (1, 2.5, "x"), ((1, 2), 3), [],
                                       [(1, 2)], [1, (2,), "x"]])
    def test_an_ordinary_value_is_shown_as_its_repr(self, value):
        assert _shown(value) == repr(value)

    def test_a_long_int_in_a_tuple_or_a_list_is_shown_by_its_size(self):
        assert _shown([(10**5000, 0)]) == "[(an int of 5,001 digits, 0)]"
        assert _shown((10**5000,)) == "(an int of 5,001 digits,)"

    def test_a_long_int_is_shown_by_its_exact_digit_count(self):
        for digits in (604, 605, 1000, 4300, 4301, 5001, 20000):
            for value in (10**(digits - 1), 10**digits - 1, -(10**(digits - 1))):
                assert _shown(value) == f"an int of {digits:,} digits"
        assert _shown(2**2000) == "an int of 603 digits"


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
