"""End-to-end acceptance checks, one test per shipped guarantee.

Each test computes its verdict first, records a one-line summary (printed
by the conftest terminal hook), and only then asserts — so the acceptance
table is complete even when an individual check fails.
"""
from __future__ import annotations

import math
import time
from itertools import combinations_with_replacement

import pytest
from conftest import cached_game, record_acceptance

from flagchess import (
    check_lemma,
    condition3_bound,
    cover_degree,
    line_bundle_cohomology,
    replay,
)
from flagchess.cli import EXIT_FLAGGED, EXIT_OK, main


def test_01_cover_degree_two_ways(capsys):
    start = time.perf_counter()
    series, closed, agree = cover_degree(2, 1)
    point_ok = series == 11 and closed == 11 and agree
    sweep_ok = all(cover_degree(n, eps)[2]
                   for n in range(2, 11) for eps in (0, 1))
    cli_ok = main(["degree", "--n", "2", "--eps", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    cli_ok = cli_ok and "series expansion: 11" in out and "closed form: 11" in out
    elapsed = time.perf_counter() - start
    ok = point_ok and sweep_ok and cli_ok and elapsed < 1.0
    record_acceptance(
        1, ok,
        f"degree(2,1) = {series}/{closed} both ways; "
        f"paths agree for n <= 10, both parities; {elapsed:.2f}s")
    assert point_ok and sweep_ok and cli_ok
    assert elapsed < 1.0


def test_02_condition3_threshold():
    value = condition3_bound(5)
    ok = value == 10
    record_acceptance(2, ok, f"condition3_bound(5) = {value}, expected 10")
    assert ok


def test_03_a4_sweep_exact():
    start = time.perf_counter()
    total = mismatches = indeterminates = 0
    shape_ok = True
    for n in range(2, 7):
        for eps in (0, 1):
            report = check_lemma("A4", n, eps)
            total += len(report.points)
            mismatches += report.mismatches
            indeterminates += report.indeterminates
            for point in report.points:
                params = dict(point.params)
                want = ((1, 1),) if params["r"] == params["t"] - 1 else ()
                if point.expected != want or point.computed != want:
                    shape_ok = False
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and indeterminates == 0 and shape_ok and elapsed < 30.0
    record_acceptance(
        3, ok,
        f"A4 sweep n <= 6: {total} points, {mismatches} mismatches, "
        f"{indeterminates} indeterminate; C[-1] exactly at r = t-1; "
        f"{elapsed:.2f}s")
    assert mismatches == 0 and indeterminates == 0
    assert shape_ok
    assert elapsed < 30.0


def test_04_a5_a6_sweeps_vanish():
    total = mismatches = indeterminates = 0
    all_vanish = True
    for which in ("A5", "A6"):
        for n in range(2, 7):
            for eps in (0, 1):
                report = check_lemma(which, n, eps)
                total += len(report.points)
                mismatches += report.mismatches
                indeterminates += report.indeterminates
                if any(p.expected != () or p.computed != ()
                       for p in report.points):
                    all_vanish = False
    ok = mismatches == 0 and indeterminates == 0 and all_vanish
    record_acceptance(
        4, ok,
        f"A5+A6 sweeps n <= 6: {total} points all vanish, "
        f"{mismatches} mismatches, {indeterminates} indeterminate")
    assert ok


def test_05_serre_duality_window():
    checked = 0
    failures = []
    for N in range(3, 8):
        top = 2 * N - 3
        for x in range(-6, 7):
            for y in range(-6, 7):
                fwd = line_bundle_cohomology(N, x, y)
                dual = line_bundle_cohomology(N, -2 - x, -(N - 1) - y)
                checked += 1
                if fwd.degree is None:
                    if dual.degree is not None:
                        failures.append((N, x, y))
                elif dual.degree != top - fwd.degree or dual.dim != fwd.dim:
                    failures.append((N, x, y))
    ok = not failures
    record_acceptance(
        5, ok,
        f"Serre duality vs omega = O(-2,-(N-1)): {checked} line bundles, "
        f"N <= 7, |x|,|y| <= 6, {len(failures)} failures")
    assert failures == []


def test_06_h0_monomial_crosscheck():
    checked = 0
    failures = []
    for N in range(3, 9):
        for k in range(0, 7):
            got = line_bundle_cohomology(N, k, 0)
            monomials = sum(
                1 for _ in combinations_with_replacement(range(N), k))
            checked += 1
            if got.degree != 0 or got.dim != monomials:
                failures.append((N, k))
            if monomials != math.comb(N - 1 + k, k):
                failures.append(("binom", N, k))
    ok = not failures
    record_acceptance(
        6, ok,
        f"h^0(O(k,0)) = C(N-1+k,k) against monomial counts: "
        f"{checked} points, N <= 8, k <= 6, {len(failures)} failures")
    assert failures == []


def test_07_fibration_games_complete():
    start = time.perf_counter()
    conserved = validated = True
    runs = 0
    for n in range(2, 9):
        for eps in (0, 1):
            result = cached_game(n, eps)
            runs += 1
            copies = result.initial.copies
            for rec in result.log:
                if not (rec.copies_before == rec.copies_after == copies):
                    conserved = False
            if result.final.copies != copies:
                conserved = False
            checks = [c for rec in result.log for c in rec.oracle]
            if not checks or not all(c.ok for c in checks):
                validated = False
    elapsed = time.perf_counter() - start
    ok = conserved and validated and elapsed < 120.0
    record_acceptance(
        7, ok,
        f"fibration games n in [2,8], both parities: {runs} runs, copy "
        f"conservation after every move, oracle checks pass; "
        f"{elapsed:.1f}s")
    assert conserved
    assert validated
    assert elapsed < 120.0


def test_08_residual_counts(capsys):
    even = {n: cached_game(n, 0).residual_f_count for n in range(2, 7)}
    odd = {n: cached_game(n, 1).residual_f_count for n in range(2, 7)}

    odd_ok = all(odd[n] == 2 * n * n - n - 1 for n in odd)
    odd_clean = all(not cached_game(n, 1).flags for n in odd)

    pair = cached_game(2, 1)
    series = cover_degree(2, 1)[0]
    sixteen_ok = pair.residual_f_count == 5 and series + pair.residual_f_count == 16

    # the even-parity residual is forced by conservation: the start board
    # carries N(N-2) copies, the column C(N,2), and no move changes the
    # total, so N(N-2) - C(N,2) = N(N-3)/2 = 2n^2-3n copies stay behind
    start_ok = all(cached_game(n, 0).initial.copies == 2 * n * (2 * n - 2)
                   for n in even)
    column_ok = all(
        sum(b.copies for b in cached_game(n, 0).gr2_boxes) == math.comb(2 * n, 2)
        for n in even)
    forced = {n: 2 * n * (2 * n - 2) - math.comb(2 * n, 2) for n in even}
    even_ok = all(even[n] == forced[n] == 2 * n * n - 3 * n for n in even)

    # every even-parity run must surface the discrepancy rather than hide it
    flagged_ok = all(
        cached_game(n, 0).flags == (
            f"residual count {forced[n]} differs from the reference value "
            f"{2 * n * n - n}",)
        for n in even)
    exit_flagged = main(["game", "--n", "2", "--eps", "0"]) == EXIT_FLAGGED
    exit_clean = main(["game", "--n", "2", "--eps", "1"]) == EXIT_OK
    capsys.readouterr()

    ok = odd_ok and odd_clean and sixteen_ok and start_ok and column_ok \
        and even_ok and flagged_ok and exit_flagged and exit_clean
    record_acceptance(
        8, ok,
        f"odd-parity residuals match 2n^2-n-1 for n <= 6; (2,1) leaves 5 and "
        f"11+5=16; even-parity residuals {even} = N(N-2) - C(N,2) = 2n^2-3n, "
        f"forced by conservation, differ from the 2n^2-n reference, are "
        f"flagged and exit 1")
    assert odd_ok and odd_clean
    assert sixteen_ok
    assert start_ok and column_ok, (
        "even-parity start board must carry N(N-2) copies and the column C(N,2)")
    assert even_ok, (
        "even-parity residual must be N(N-2) - C(N,2) = 2n^2-3n, as copy "
        "conservation forces")
    assert flagged_ok and exit_flagged and exit_clean


def test_09_flip_games_complete():
    start = time.perf_counter()
    found = conserved = validated = True
    runs = 0
    for n in range(2, 6):
        for eps in (0, 1):
            result = cached_game(n, eps, mode="flip")
            runs += 1
            if not result.gr2_found:
                found = False
            copies = result.initial.copies
            if result.final.copies != copies or any(
                    rec.copies_after != copies for rec in result.log):
                conserved = False
            checks = [c for rec in result.log for c in rec.oracle]
            if not checks or not all(c.ok for c in checks):
                validated = False
    elapsed = time.perf_counter() - start
    ok = found and conserved and validated and elapsed < 60.0
    record_acceptance(
        9, ok,
        f"flip games n in [2,5], both parities: {runs} runs, column "
        f"extractable, copies conserved, fully validated; "
        f"{elapsed:.1f}s")
    assert found and conserved and validated
    assert elapsed < 60.0


def test_10_determinism_and_replay(capsys):
    reruns_ok = True
    for argv in (["game", "--n", "3", "--eps", "1", "--emit", "json"],
                 ["game", "--n", "2", "--eps", "0", "--emit", "json-lines"],
                 ["lemma", "--which", "A4", "--n", "3", "--eps", "0"],
                 ["degree", "--n", "4", "--eps", "1"]):
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        if first.encode() != second.encode() or not first:
            reruns_ok = False

    replay_ok = True
    for n, eps, mode in ((2, 0, "fibration"), (3, 1, "fibration"),
                         (4, 0, "fibration"), (3, 0, "flip")):
        result = cached_game(n, eps, mode=mode)
        if replay(result.initial, result.log) != result.final:
            replay_ok = False

    ok = reruns_ok and replay_ok
    record_acceptance(
        10, ok,
        "byte-identical stdout on reruns across subcommands; log replay "
        "reproduces every final board exactly")
    assert reruns_ok
    assert replay_ok


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
