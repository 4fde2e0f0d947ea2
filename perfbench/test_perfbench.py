"""Pinned work counts and gates of the benchmark.

Run with ``python -m pytest perfbench``.  The counts are deterministic, so a
change in the work flagchess does fails here loudly even where timing noise
would hide it.  Every traced run happens in a fresh process, as in the
benchmark, so the lru caches start cold.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import checks  # noqa: E402
import run  # noqa: E402


def traced_cli(*game: str) -> tuple[subprocess.CompletedProcess, dict]:
    proc = subprocess.run([sys.executable, run.WORKER, "cli", "game", *game],
                          cwd=SRC, env=run.child_env(), capture_output=True)
    line = [x for x in proc.stderr.decode().splitlines() if x.startswith(run.TRACE_MARK)][-1]
    return proc, json.loads(line[len(run.TRACE_MARK):])


def traced_worker(mode: str, ops: list) -> tuple[list, dict]:
    proc = subprocess.run([sys.executable, run.WORKER, mode, json.dumps(ops), "--trace"],
                          cwd=ROOT, env=run.child_env(), capture_output=True)
    _, records, end = run.read_worker(proc.stdout.decode(), proc.returncode,
                                      proc.stderr.decode(), len(ops))
    return records, end["trace"]


def work(report: dict) -> tuple:
    """Everything in a trace report that must repeat exactly."""
    return report["spans"], report["counts"], report["caches"]


def test_validated_n8_even_game_counts_are_pinned_and_repeat():
    argv = ("--n", "8", "--eps", "0", "--mode", "fibration", "--validate", "--emit", "json")
    proc, first = traced_cli(*argv)
    _, second = traced_cli(*argv)
    assert work(first) == work(second)
    counts, caches = first["counts"], first["caches"]
    assert counts["board.moves"] == 128
    assert counts["board.oracle_checks"] == 3297
    assert counts["oracle.ext_m_calls"] == 3297
    assert counts["oracle.ext_flag_calls"] == 2 * 3297
    assert caches["bwb"]["misses"] == 125
    assert caches["ext_flag"] == {"hits": 2 * 3297 - 140, "misses": 140}
    assert counts.get("board.moves_refused", 0) == 0
    assert counts.get("oracle.indeterminate", 0) == 0
    assert first["flagchess_file"].startswith(SRC + os.sep)
    # The acceptance-8 discrepancy, as it stands: exit 1 and the flag.
    assert proc.returncode == 1
    result = checks.parse_game_output(proc.stdout.decode(), "json")
    assert checks.check_game(result, 8, 0, validated=True) is True
    assert result.residual_f_count == 2 * 8 * 8 - 3 * 8


def test_lemma_sweep_counts_are_pinned_and_order_free():
    grid = list(run.LEMMA_GRID)
    records, first = traced_worker("lemma", grid)
    for (rec, payload), args in zip(records, grid):
        checks.check_lemma_output(payload, rec["exit"], *args)
    random.Random(7).shuffle(grid)
    _, second = traced_worker("lemma", grid)
    assert work(first) == work(second)
    assert first["counts"]["oracle.lemma_points"] == 6306
    assert first["counts"]["oracle.ext_m_calls"] == 6306
    assert first["caches"]["ext_flag"] == {"hits": 0, "misses": 12612}
    assert first["caches"]["bwb"] == {"hits": 111165, "misses": 8855}
    assert "board.moves" not in first["counts"]


def test_unvalidated_game_consults_no_oracle():
    records, report = traced_worker("games", [[12, 1]])
    (rec, payload), = records
    assert rec["replay_equal"]
    result = checks.parse_game_output(payload, "json")
    assert checks.check_game(result, 12, 1, validated=False, replayed_equal=True) is False
    assert report["counts"]["board.moves"] == 2 * len(result.log) == 2 * 315
    assert report["caches"]["bwb"] == {"hits": 0, "misses": 0}
    assert report["caches"]["ext_flag"] == {"hits": 0, "misses": 0}


def test_gate_rejects_a_wrong_residual():
    proc = subprocess.run([sys.executable, "-m", "flagchess.cli", "game", "--n", "3", "--eps", "1",
                           "--emit", "json"], cwd=SRC, env=run.child_env(), capture_output=True)
    result = checks.parse_game_output(proc.stdout.decode(), "json")
    checks.check_game(result, 3, 1, validated=True)
    doc = json.loads(proc.stdout)
    doc["residual_f_count"] += 1
    tampered = checks.parse_game_output(json.dumps(doc), "json")
    try:
        checks.check_game(tampered, 3, 1, validated=True)
    except checks.GateFailure:
        return
    raise AssertionError("gate accepted a wrong residual count")


def test_expected_lemma_points_total():
    assert sum(checks.expected_points(*op) for op in run.LEMMA_GRID) == 6306


def test_tail_percentile_leaves_ten_samples_beyond():
    xs = [float(i) for i in range(100)]
    assert run.tail(xs) == (89.0, "p90.0 of 100, 10 beyond")
    # 78 lemma ops: p87.2, the eleventh slowest.
    assert run.tail(xs[:78])[0] == 67.0
    assert run.tail(xs[:12]) == (11.0, "max of 12: too few for a percentile with 10 beyond")


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "lemma-sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, timeout=180)
    assert proc.returncode != 0
    assert b"correct" not in proc.stdout


def test_plan_draws_one_order_sequence_per_seed_with_lemma_groups_intact():
    def orders(seed):
        rng = random.Random(seed)
        return [run.plan("lemma-sweep", rng) for _ in range(3)]

    first = orders(5)
    assert first == orders(5)
    assert first[0] != first[1]
    for order in first:
        assert sorted(order) == sorted(run.LEMMA_GRID)
        # A4, A5, A6 of one (n, eps) share cache entries, so they stay together
        # and in that order: each op meets the same cache state in every pass.
        for i in range(0, len(order), 3):
            (a, n, eps), (b, n2, eps2), (c, n3, eps3) = order[i:i + 3]
            assert (a, b, c) == ("A4", "A5", "A6") and n == n2 == n3 and eps == eps2 == eps3


def test_times_are_scaled_to_the_reference_host_speed():
    # A host at half the reference speed: the loop and the op both take
    # twice as long, and the figures read as on the quiet host.
    speed = run.host_speed(2 * run.REFERENCE_S, 2 * run.REFERENCE_S)
    assert speed == 0.5
    passes = [run.Pass(ops=[run.Op(True, (8, 1, "json"), 0.6, 10, speed),
                            run.Op(True, (12, 1, "json"), 1.4, 10, speed)],
                       busy_s=2.0, speed=speed)]
    metrics, _ = run.end_to_end(passes, 0.07, 1024)
    assert metrics["latency_p50_ms"][0] == pytest.approx(500.0)
    assert metrics["throughput_ops_s"][0] == pytest.approx(2.0)
