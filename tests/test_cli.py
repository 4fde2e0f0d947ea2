"""Command-line surface: exit codes, emit formats, and the wire schema."""
from __future__ import annotations

import copy
import errno
import functools
import gc
import io
import itertools
import json
import operator
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

import pytest
from hypothesis import given, strategies as st

from conftest import deadline
from flagchess import (INDETERMINATE, MOVES, Board, BundleDescriptor, Box, GameResult,
                       LemmaPoint, LemmaReport, MoveRefused, Opaque, OracleCheck, SymBlock,
                       check_lemma, cli, cover_degree, line_bundle_cohomology, play, render,
                       replay, rho, run_game)
from flagchess import board as board_module, games as games_module
from flagchess.cli import (
    EXIT_FLAGGED,
    EXIT_OK,
    EXIT_REFUSED,
    EXIT_USAGE,
    MAX_GAME_n,
    MAX_N,
    MAX_m,
    MAX_n,
    MAX_twist,
    main,
)
from flagchess.render import (
    SCHEMA_VERSION,
    dumps,
    emit_json_lines,
    game_result_to_dict,
    game_result_to_json,
    move_to_dict,
    parse_game_result,
    render_ascii,
    render_latex,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rebuilt_document(stream: str) -> dict:
    """The JSON document a json-lines stream stands for, phases left out."""
    records = [json.loads(line) for line in stream.splitlines()]
    by_kind = {r["record"]: r for r in records}

    def body(kind):
        return {k: v for k, v in by_kind[kind].items() if k != "record"}
    return {"schema_version": by_kind["header"]["schema_version"],
            "params": by_kind["header"]["params"],
            "initial": by_kind["initial"]["board"],
            "moves": [{k: v for k, v in r.items() if k not in ("record", "index")}
                      for r in records if r["record"] == "move"],
            "final": by_kind["final"]["board"],
            "gr2": body("gr2"),
            **body("summary")}


def written(result, version: int = SCHEMA_VERSION) -> str:
    """``result``'s document as the writer of schema ``version`` writes it."""
    return dumps(render._document(result, version))


def is_check(entry) -> bool:
    """Whether a transcript entry writes a check: version 3's object, the
    ``[source, target, expected]`` of versions 4 to 7 or version 8's flat list
    of six or more ints, never a ``[first, count]`` run."""
    return type(entry) is dict or type(entry) is list and len(entry) != 2


def check_fields(entry: list) -> tuple[tuple, tuple, tuple]:
    """A written check's source, target and expected answer: a version 4 to 7
    triple, or version 8's ``[m, x, y, m', x', y']`` followed by the answer's
    (degree, dim) pairs, flattened."""
    if len(entry) == 3:
        source, target, expected = entry
        return tuple(source), tuple(target), tuple(map(tuple, expected))
    assert len(entry) >= 6 and len(entry) % 2 == 0
    return tuple(entry[:3]), tuple(entry[3:6]), tuple(zip(entry[6::2], entry[7::2]))


# The path of a lone move's oracle or a run's list of oracles: ``moves[i].oracle``
# up to version 6, ``moves[i].<kind>[2]`` from version 7.
AT_ORACLE = r"moves\[\d+\]\.(oracle|\w+\[2\])"


def entry_fields(move: dict) -> tuple[str, list, dict, int | list, int | None]:
    """A version 2 to 8 move entry's kind, positions (as pairs), params (by
    name), oracle and run count (None for a lone move), read as ``render``'s
    docstring states them, with no code of the writer's: version 7 keys the
    entry by its kind and lists the params' values in ``MOVES`` order, and
    version 8 writes the positions as one flat list of coordinates."""
    if "kind" in move:
        return move["kind"], move["positions"], move["params"], move["oracle"], move.get("count")
    ((kind, value),) = move.items()
    assert len(value) in (3, 4)
    positions, values, oracle, *count = value
    if positions and type(positions[0]) is int:
        assert len(positions) % 2 == 0
        positions = [positions[k:k + 2] for k in range(0, len(positions), 2)]
    names = list(MOVES[kind].params)
    assert len(names) - len(MOVES[kind].optional) <= len(values) <= len(names)
    return kind, positions, dict(zip(names, values)), oracle, (count or [None])[0]


def entry_count(move: dict) -> int:
    """How many logged moves a version 2 to 8 entry writes."""
    return entry_fields(move)[4] or 1


def oracle_sites(moves: list) -> list[tuple[str, dict | list, str | int]]:
    """Where each logged move's oracle is written in a version 2 to 8
    document's moves, in log order: its path, and the object or list that
    holds it and its key there.  A version 6 to 8 run lists its moves' oracles."""
    sites: list[tuple[str, dict | list, str | int]] = []
    for i, move in enumerate(moves):
        if "kind" not in move:  # from version 7: {kind: [positions, params, oracle, count?]}
            ((kind, value),) = move.items()
            if len(value) == 4:
                sites += [(f"moves[{i}].{kind}[2][{k}]", value[2], k) for k in range(value[3])]
            else:
                sites.append((f"moves[{i}].{kind}[2]", value, 2))
        elif "count" in move:
            sites += [(f"moves[{i}].oracle[{k}]", move["oracle"], k)
                      for k in range(move["count"])]
        else:
            sites.append((f"moves[{i}].oracle", move, "oracle"))
    return sites


def written_checks(moves: list) -> list:
    """The checks a version 3 to 8 document writes, in their numbering."""
    return [e for _, holder, key in oracle_sites(moves) if type(holder[key]) is list
            for e in holder[key] if is_check(e)]


def spelt_out_moves(moves: list) -> list[dict]:
    """A version 6 to 8 document's moves, one per logged move in version 5's
    form, each run spelt out as ``render``'s docstring states it, with no
    code of the writer's: the k-th move of a run has the run's kind and
    params, its positions moved k columns right, and the k-th oracle, each
    check in it written as version 5's ``[source, target, expected]``."""
    def triples(oracle):
        if type(oracle) is int:
            return oracle
        return [[list(part) if k < 2 else [*map(list, part)]
                 for k, part in enumerate(check_fields(e))] if is_check(e) else e
                for e in oracle]

    log = []
    for move in moves:
        kind, positions, params, oracle, count = entry_fields(move)
        if count is None:
            log.append({"kind": kind, "positions": positions, "params": params,
                        "oracle": triples(oracle)})
            continue
        assert type(count) is int and count >= 2
        assert len(oracle) == count and positions
        log += [{"kind": kind, "positions": [[x + k, y] for x, y in positions],
                 "params": params, "oracle": triples(move_oracle)}
                for k, move_oracle in enumerate(oracle)]
    return log


def read_transcripts(moves: list) -> list[tuple[OracleCheck, ...]]:
    """Each logged move's transcript, read from a version 4 to 8 document's
    entries as ``render``'s docstring states them, with no code of the writer's."""
    checks, transcripts = [], []
    for _, holder, key in oracle_sites(moves):
        oracle = holder[key]
        if type(oracle) is int:
            transcripts.append(transcripts[oracle])
            continue
        transcript = []
        for entry in oracle:
            if type(entry) is int:
                transcript.append(checks[entry])
            elif len(entry) == 2:
                first, count = entry
                assert count >= 3 and first + count <= len(checks)
                transcript += checks[first:first + count]
            else:
                source, target, expected = check_fields(entry)
                checks.append(OracleCheck(source, target, "M", expected, expected))
                transcript.append(checks[-1])
        transcripts.append(tuple(transcript))
    return transcripts


def regrouped(oracle: list) -> list:
    """A version 4 to 8 transcript's entries grouped afresh: the run entries
    spelt out, then each maximal stretch of three or more consecutive check
    numbers (consecutive entries whose index minus number is the same)
    made ``[first, count]``."""
    spelt = [n for e in oracle for n in (range(e[0], e[0] + e[1]) if type(e) is list
                                          and len(e) == 2 else [e])]
    entries = []
    for _, stretch in itertools.groupby(enumerate(spelt), lambda p: p[0] - p[1]
                                          if type(p[1]) is int else (p[0], "new")):
        values = [v for _, v in stretch]
        entries += [[values[0], len(values)]] if len(values) >= 3 else values
    return entries


# A valid argv for each command, and one past each end of every size in it.
VALID_ARGV = {"game": "--n 2 --eps 0", "lemma": "--which A4 --n 2 --eps 1",
              "degree": "--n 2 --eps 0", "conditions": "--n 2 --eps 1",
              "bwb": "--N 5 --x 0 --y 0", "cohom": "--N 5 --m 0 --x 0 --y 0",
              "ext": "--N 5 --space M --src 0,0,0 --tgt 0,0,0"}
PAST_EITHER_END = {
    "N": ((2, "N must be >= 3, got 2"), (MAX_N + 1, f"N must be <= {MAX_N}, got {MAX_N + 1}")),
    "n": ((1, "n must be >= 2, got 1"), (MAX_n + 1, f"n must be <= {MAX_n}, got {MAX_n + 1}")),
    "game n": ((1, "n must be >= 2, got 1"),
               (MAX_GAME_n + 1, f"n must be <= {MAX_GAME_n}, got {MAX_GAME_n + 1}")),
    "m": ((-1, "m must be >= 0, got -1"), (MAX_m + 1, f"m must be <= {MAX_m}, got {MAX_m + 1}")),
    "eps": ((-1, "eps must be >= 0, got -1"), (2, "eps must be <= 1, got 2")),
    **{axis: ((-MAX_twist - 1, f"|{axis}| must be <= {MAX_twist}, got {-MAX_twist - 1}"),
              (MAX_twist + 1, f"|{axis}| must be <= {MAX_twist}, got {MAX_twist + 1}"))
       for axis in "xy"},
}


def _sizes_past_either_end():
    """(case, end, argv, refusal) for one past each end of every bounded argument,
    a triple's m, x and y each, in every command that takes it."""
    for command, valid in VALID_ARGV.items():
        argv = valid.split()
        for i in range(0, len(argv), 2):
            flag = argv[i]
            triple = flag in ("--src", "--tgt")
            for k, name in enumerate("mxy" if triple else [flag[2:]]):
                key = "game n" if (command, name) == ("game", "n") else name
                if key not in PAST_EITHER_END:
                    continue
                for end, (value, refusal) in zip(("below", "above"), PAST_EITHER_END[key]):
                    text = (",".join(str(value) if j == k else "0" for j in range(3)) if triple
                            else str(value))
                    case = f"{command}-{flag[2:]}" + (f"-{name}" if triple else "")
                    yield case, end, (command, *argv[:i], f"{flag}={text}", *argv[i + 2:]), \
                        f"argument {flag}: {refusal}"


SIZES_PAST_EITHER_END = list(_sizes_past_either_end())


def stop_every_command(monkeypatch):
    """Make every command, and the lemma sweep, fail the test if it runs."""
    def ran(*args, **kwargs):
        raise AssertionError("a command ran")
    for name in dir(cli):
        if name.startswith("cmd_"):
            monkeypatch.setattr(cli, name, ran)
    monkeypatch.setattr(cli, "check_lemma", ran)


class TestExitCodes:
    def test_bwb_trivial(self, capsys):
        code, out, _ = run_cli(capsys, "bwb", "--N", "5", "--x", "0", "--y", "0")
        assert code == EXIT_OK
        assert "H^0 of dimension 1" in out
        assert "reflect" not in out  # zero reflections, empty trace

    def test_bwb_prints_the_reflection_trace(self, capsys):
        code, out, _ = run_cli(capsys, "bwb", "--N", "4", "--x", "1", "--y", "-5")
        assert code == EXIT_OK
        assert out == (
            "line bundle O(1,-5) on F(1,2,4)\n"
            "shifted weight: (2, -4, 1)\n"
            "  reflect 2: (-2, 4, -3)\n"
            "  reflect 1: (2, 2, -3)\n"
            "  reflect 3: (2, -1, 3)\n"
            "  reflect 2: (1, 1, 2)\n"
            "result: H^4 of dimension 4, dominant weight (0, 0, 1)\n")

    def test_bwb_vanishing(self, capsys):
        code, out, _ = run_cli(capsys, "bwb", "--N", "5", "--x", "-1", "--y", "0")
        assert code == EXIT_OK
        assert "result: 0" in out
        assert "singular" in out

    def test_cohom_indeterminate_exits_two(self, capsys):
        code, out, _ = run_cli(
            capsys, "cohom", "--N", "3", "--m", "1", "--x", "-1", "--y", "1")
        assert code == EXIT_REFUSED
        assert "indeterminate" in out

    def test_ext_on_M_sums_a_twisted_and_a_plain_class(self, capsys):
        code, out, _ = run_cli(capsys, "ext", "--N", "3", "--space", "M",
                               "--src", "0,0,0", "--tgt", "0,-2,1")
        assert code == EXIT_OK
        assert out.endswith("  twisted term (target twisted by (-1,-1)): h^2 = 1\n"
                            "  plain term: h^1 = 1\n"
                            "result: h^1 = 2\n")

    def test_ext_ok(self, capsys):
        code, out, _ = run_cli(
            capsys, "ext", "--N", "5", "--space", "M",
            "--src", "0,2,0", "--tgt", "1,-1,1")
        assert code == EXIT_OK
        assert "h^1 = 1" in out

    def test_lemma_ok(self, capsys):
        code, out, _ = run_cli(capsys, "lemma", "--which", "A4",
                               "--n", "3", "--eps", "1")
        assert code == EXIT_OK
        assert "10 points" in out
        assert "mismatches 0" in out

    def test_game_flagged_even(self, capsys):
        code, out, _ = run_cli(capsys, "game", "--n", "2", "--eps", "0")
        assert code == EXIT_FLAGGED
        assert "flag: residual count 2 differs from the reference value 6" in out

    def test_game_clean_odd(self, capsys):
        code, out, _ = run_cli(capsys, "game", "--n", "2", "--eps", "1")
        assert code == EXIT_OK
        assert "column found: yes" in out
        assert "flag:" not in out

    def test_game_help_states_the_validation_default(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["game", "--help"])
        assert exc.value.code == 0
        words = " ".join(capsys.readouterr().out.split())
        start = words.index("--validate, --no-validate")
        line = words[start:words.index("--emit {", start)]
        assert line == ("--validate, --no-validate check every windowed move with the "
                        "oracle (default: on) ")

    @pytest.mark.parametrize("command", ["game", "lemma", "degree", "conditions"])
    def test_help_shows_the_two_values_of_eps(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert " --eps {0,1}" in capsys.readouterr().out

    def test_game_flip_clean(self, capsys):
        code, _, _ = run_cli(capsys, "game", "--n", "2", "--eps", "0",
                             "--mode", "flip")
        assert code == EXIT_OK

    def test_degree(self, capsys):
        code, out, _ = run_cli(capsys, "degree", "--n", "2", "--eps", "1")
        assert code == EXIT_OK
        assert "series expansion: 11" in out
        assert "closed form: 11" in out

    def test_conditions(self, capsys):
        code, out, _ = run_cli(capsys, "conditions", "--n", "2", "--eps", "1")
        assert code == EXIT_OK
        for needle in ("40", "30", "14", "10"):
            assert needle in out

    def test_missing_argument_is_usage(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["game", "--n", "2"])
        assert err.value.code == EXIT_USAGE

    def test_unknown_subcommand_is_usage(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == EXIT_USAGE

    def test_domain_usage_errors_return_three(self, capsys):
        # argparse refuses a size past its bound, and an unknown --emit, itself and exits
        for argv, needle in ((("game", "--n", "1", "--eps", "0"), "n must be >= 2"),
                             (("bwb", "--N", "2", "--x", "0", "--y", "0"), "N must be >= 3"),
                             (("game", "--n", "2", "--eps", "0", "--emit", "yaml"), "emit")):
            with pytest.raises(SystemExit) as exc:
                main(list(argv))
            assert exc.value.code == EXIT_USAGE
            assert needle in capsys.readouterr().err

    def test_bad_triple_is_usage(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["ext", "--N", "5", "--space", "M",
                  "--src", "0,2", "--tgt", "1,-1,1"])
        assert err.value.code == EXIT_USAGE

    def test_a_triple_of_non_integers_is_usage(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["ext", "--N", "5", "--space", "M", "--src", "1,a,2", "--tgt", "0,0,0"])
        out, stderr = capsys.readouterr()
        assert err.value.code == EXIT_USAGE and out == ""
        assert stderr.endswith("flagchess: error: argument --src: expected integers m,x,y; "
                               "got '1,a,2'\n")

    @staticmethod
    def lemma_report(verdict):
        points = (LemmaPoint((("t", 1),), ((1, 1),), ((1, 1),), "match"),
                  LemmaPoint((("t", 2), ("r", 0)), (), ((0, 1),) if verdict == "mismatch"
                             else "indeterminate", verdict))
        return LemmaReport("A4", 2, 1, points)

    def test_a_lemma_mismatch_exits_one_and_is_itemized(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "check_lemma", lambda which, n, eps: self.lemma_report("mismatch"))
        code, out, _ = run_cli(capsys, "lemma", "--which", "A4", "--n", "2", "--eps", "1")
        assert code == EXIT_FLAGGED
        assert out == ("A4 sweep at n=2, eps=1 (N=5): 2 points\n"
                       "matches 1, mismatches 1, indeterminates 0\n"
                       "  mismatch at t=2, r=0: expected [], got ((0, 1),)\n")

    def test_an_indeterminate_lemma_point_exits_two(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "check_lemma",
                            lambda which, n, eps: self.lemma_report("indeterminate"))
        code, out, _ = run_cli(capsys, "lemma", "--which", "A4", "--n", "2", "--eps", "1")
        assert code == EXIT_REFUSED
        assert "  indeterminate at t=2, r=0: expected [], got indeterminate\n" in out

    def test_an_indeterminate_oracle_refuses_a_validated_game(self, capsys, monkeypatch):
        monkeypatch.setattr(board_module, "ext_on_M", lambda source, target: INDETERMINATE)
        code, out, err = run_cli(capsys, "game", "--n", "2", "--eps", "1", "--validate")
        assert (code, out) == (EXIT_REFUSED, "")
        assert err == "flagchess: refused: rule1: oracle indeterminate for (0, 2, 0) vs (0, -1, 1)\n"

    @pytest.mark.parametrize("argv, m", [
        (("cohom", "--N", "5", "--m", "-1", "--x", "0", "--y", "0"), -1),
        (("ext", "--N", "5", "--space", "M", "--src=-1,0,0", "--tgt=0,0,0"), -1),
        (("ext", "--N", "5", "--space", "flag", "--src=0,0,0", "--tgt=-2,1,0"), -2),
    ], ids=["cohom", "ext-src", "ext-tgt"])
    def test_negative_symmetric_power_is_usage(self, capsys, argv, m):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("flagchess: error: ")
        assert err.endswith(f"m must be >= 0, got {m}\n")

    @pytest.mark.parametrize("argv, refusal", [
        (("game", "--n", str(MAX_GAME_n + 1), "--eps", "0", "--validate", "--emit", "json"),
         f"argument --n: n must be <= {MAX_GAME_n}, got {MAX_GAME_n + 1}"),
        (("lemma", "--which", "A6", "--n", str(MAX_n + 1), "--eps", "1"),
         f"argument --n: n must be <= {MAX_n}, got {MAX_n + 1}"),
        (("degree", "--n", str(MAX_n + 1), "--eps", "0"),
         f"argument --n: n must be <= {MAX_n}, got {MAX_n + 1}"),
        (("conditions", "--n", str(MAX_n + 1), "--eps", "1"),
         f"argument --n: n must be <= {MAX_n}, got {MAX_n + 1}"),
        (("bwb", "--N", str(MAX_N + 1), "--x", "0", "--y", "0"),
         f"argument --N: N must be <= {MAX_N}, got {MAX_N + 1}"),
        (("cohom", "--N", str(MAX_N + 1), "--m", "0", "--x", "0", "--y", "0"),
         f"argument --N: N must be <= {MAX_N}, got {MAX_N + 1}"),
        (("cohom", "--N", "5", "--m", str(MAX_m + 1), "--x", "0", "--y", "0"),
         f"argument --m: m must be <= {MAX_m}, got {MAX_m + 1}"),
        (("ext", "--N", str(MAX_N + 1), "--space", "M", "--src=0,0,0", "--tgt=0,0,0"),
         f"argument --N: N must be <= {MAX_N}, got {MAX_N + 1}"),
        (("ext", "--N", "5", "--space", "M", f"--src={MAX_m + 1},0,0", "--tgt=0,0,0"),
         f"argument --src: m must be <= {MAX_m}, got {MAX_m + 1}"),
        (("ext", "--N", "5", "--space", "flag", "--src=0,0,0", f"--tgt={MAX_m + 1},1,0"),
         f"argument --tgt: m must be <= {MAX_m}, got {MAX_m + 1}"),
        (("bwb", "--N", str(MAX_N), "--x", str(MAX_twist + 1), "--y", "0"),
         f"argument --x: |x| must be <= {MAX_twist}, got {MAX_twist + 1}"),
        (("cohom", "--N", str(MAX_N), "--m", "0", "--x", "0", "--y", str(-MAX_twist - 1)),
         f"argument --y: |y| must be <= {MAX_twist}, got {-MAX_twist - 1}"),
        (("ext", "--N", str(MAX_N), "--space", "M", f"--src=0,{-MAX_twist - 1},0",
          "--tgt=0,0,0"), f"argument --src: |x| must be <= {MAX_twist}, got {-MAX_twist - 1}"),
        (("ext", "--N", str(MAX_N), "--space", "flag", "--src=0,0,0", f"--tgt=0,0,{10**24}"),
         f"argument --tgt: |y| must be <= {MAX_twist}, got {10**24}"),
        *((argv, refusal) for _, _, argv, refusal in SIZES_PAST_EITHER_END),
    ], ids=["game-n", "lemma-n", "degree-n", "conditions-n", "bwb-N", "cohom-N", "cohom-m",
            "ext-N", "ext-src-m", "ext-tgt-m", "bwb-x", "cohom-y", "ext-src-x", "ext-tgt-y"]
        + [f"{case}-{end}" for case, end, _, _ in SIZES_PAST_EITHER_END])
    def test_sizes_past_their_bound_are_usage(self, capsys, monkeypatch, argv, refusal):
        stop_every_command(monkeypatch)
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        out, err = capsys.readouterr()
        assert exc.value.code == EXIT_USAGE and out == ""
        assert err == f"flagchess: error: {refusal}\n"

    @pytest.mark.parametrize("argv, refusal", [
        (("bwb", "--N", "1" + "0" * 5000, "--x", "0", "--y", "0"),
         f"argument --N: N must be <= {MAX_N}, got an int of 5,001 digits"),
        (("lemma", "--which", "A4", "--n", "-" + "9" * 5000, "--eps", "1"),
         "argument --n: n must be >= 2, got an int of 5,000 digits"),
        (("bwb", "--N", "5", "--x", "-" + "1" * 100_000, "--y", "0"),
         f"argument --x: |x| must be <= {MAX_twist}, got an int of 100,000 digits"),
        (("ext", "--N", "5", "--space", "M", f"--src=0,{'1' + '0' * 5000},0", "--tgt=0,0,0"),
         f"argument --src: |x| must be <= {MAX_twist}, got an int of 5,001 digits"),
        (("game", "--n", "2", "--eps", "1" + "0" * 5000),
         "argument --eps: eps must be <= 1, got an int of 5,001 digits"),
    ], ids=["N", "n", "x", "src", "eps"])
    def test_an_int_past_the_digit_limit_is_refused_by_its_size(self, capsys, monkeypatch,
                                                                argv, refusal):
        # one short line, the text not echoed, and Python's digit limit as it was
        stop_every_command(monkeypatch)
        limit = sys.get_int_max_str_digits()
        with deadline(1), pytest.raises(SystemExit) as exc:
            main(list(argv))
        out, err = capsys.readouterr()
        assert exc.value.code == EXIT_USAGE and out == ""
        assert err == f"flagchess: error: {refusal}\n" and len(err.encode()) < 200
        assert sys.get_int_max_str_digits() == limit

    @pytest.mark.parametrize("flag, argv, call", [
        ("--N", ("bwb", "--N", str(MAX_N + 1), "--x", "0", "--y", "0"), lambda: rho(MAX_N + 1)),
        ("--N", ("bwb", "--N", "2", "--x", "0", "--y", "0"),
         lambda: line_bundle_cohomology(2, 0, 0)),
        ("--N", ("bwb", "--N", "1" + "0" * 5000, "--x", "0", "--y", "0"), lambda: rho(10**5000)),
        ("--n", ("lemma", "--which", "A4", "--n", str(MAX_n + 1), "--eps", "1"),
         lambda: check_lemma("A4", MAX_n + 1, 1)),
        ("--n", ("degree", "--n", "1", "--eps", "0"), lambda: cover_degree(1, 0)),
        ("--m", ("cohom", "--N", "5", "--m", str(MAX_m + 1), "--x", "0", "--y", "0"),
         lambda: BundleDescriptor(MAX_m + 1, 0, 0, 5)),
        ("--src", ("ext", "--N", "5", "--space", "M", "--src=-1,0,0", "--tgt=0,0,0"),
         lambda: BundleDescriptor(-1, 0, 0, 5)),
        ("--x", ("bwb", "--N", "5", "--x", str(MAX_twist + 1), "--y", "0"),
         lambda: BundleDescriptor(0, MAX_twist + 1, 0, 5)),
        ("--tgt", ("ext", "--N", "5", "--space", "M", "--src=0,0,0", f"--tgt=0,{-MAX_twist - 1},0"),
         lambda: BundleDescriptor(0, -MAX_twist - 1, 0, 5)),
        ("--eps", ("degree", "--n", "2", "--eps", "2"), lambda: cover_degree(2, 2)),
        ("--eps", ("game", "--n", "2", "--eps", "-1"), lambda: run_game(2, -1)),
    ], ids=["N-above", "N-below", "N-digits", "n-above", "n-below", "m-above", "m-below",
            "x-above", "x-below", "eps-above", "eps-below"])
    def test_the_cli_and_the_library_refuse_a_size_in_the_same_words(self, capsys, monkeypatch,
                                                                      flag, argv, call):
        stop_every_command(monkeypatch)
        with pytest.raises(ValueError) as library:
            call()
        with pytest.raises(SystemExit):
            main(list(argv))
        assert capsys.readouterr().err == f"flagchess: error: argument {flag}: {library.value}\n"

    @pytest.mark.parametrize("argv", [[command, *valid.split()]
                                      for command, valid in VALID_ARGV.items()],
                             ids=list(VALID_ARGV))
    def test_text_that_is_not_an_int_is_refused_by_its_flag(self, capsys, monkeypatch, argv):
        stop_every_command(monkeypatch)
        for i in range(1, len(argv), 2):
            flag = argv[i]
            if flag[2:] not in ("N", "n", "m", "x", "y", "eps"):
                continue
            for text in ("x", "1.5", ""):
                with pytest.raises(SystemExit) as exc:
                    main([*argv[:i + 1], text, *argv[i + 2:]])
                out, err = capsys.readouterr()
                assert exc.value.code == EXIT_USAGE and out == ""
                assert err == f"flagchess: error: argument {flag}: invalid int value: {text!r}\n"

    @pytest.mark.parametrize("argv, flag", [
        (("bwb", f"--y={MAX_twist + 1}", "--N", "2", "--x", "zz"), "--y"),
        (("bwb", "--x", "zz", f"--y={MAX_twist + 1}", "--N", "2"), "--x"),
        (("ext", f"--tgt=0,0,{MAX_twist + 1}", "--N", "1", "--space", "flag", "--src=-1,0,0"),
         "--tgt"),
        (("game", "--eps", "0", "--n", "1", "--emit", "yaml"), "--n"),
        (("game", "--eps", "5", "--n", "1"), "--eps"),
    ], ids=["bwb-y", "bwb-x", "ext-tgt", "game-n", "game-eps"])
    def test_the_first_bad_argument_in_argv_is_refused(self, capsys, monkeypatch, argv, flag):
        stop_every_command(monkeypatch)
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        out, err = capsys.readouterr()
        assert exc.value.code == EXIT_USAGE and out == ""
        assert err.startswith(f"flagchess: error: argument {flag}: ") and err.count("\n") == 1

    def test_sizes_at_their_bound_are_accepted(self, capsys):
        for argv in (("degree", "--n", str(MAX_n), "--eps", "1"),
                     ("bwb", "--N", str(MAX_N), "--x", "3", "--y", "-2"),
                     ("cohom", "--N", "5", "--m", str(MAX_m), "--x", "0", "--y", "0"),
                     ("ext", "--N", "5", "--space", "flag", f"--src={MAX_m},0,0",
                      "--tgt=0,0,0")):
            code, out, err = run_cli(capsys, *argv)
            assert code in (EXIT_OK, EXIT_REFUSED) and out and "error" not in err

    def test_twists_at_their_bound_are_accepted(self, capsys):
        # the widest twists print dimensions of about 3,000 digits, under the 4,300 limit
        t, digits = MAX_twist, []
        for argv in (("bwb", "--N", str(MAX_N), "--x", str(-t), "--y", str(t)),
                     ("cohom", "--N", str(MAX_N), "--m", str(MAX_m), "--x", str(-t),
                      "--y", str(-t)),
                     ("ext", "--N", str(MAX_N), "--space", "flag", f"--src={MAX_m},{-t},{-t}",
                      f"--tgt={MAX_m},{t},{t}"),
                     ("ext", "--N", str(MAX_N), "--space", "M", f"--src=0,{-t},{-t}",
                      f"--tgt={MAX_m},{t},{t}")):
            code, out, err = run_cli(capsys, *argv)
            assert code in (EXIT_OK, EXIT_REFUSED) and out and err == ""
            digits += [len(w) for w in re.findall(r"\d+", out)]
        assert 3_000 < max(digits) < 4_300

    def test_output_into_a_missing_directory_is_usage(self, capsys, tmp_path):
        target = tmp_path / "missing" / "out.txt"
        code, out, err = run_cli(capsys, "bwb", "--N", "5", "--x", "0", "--y", "0",
                                 "--output", str(target))
        assert code == EXIT_USAGE and out == ""
        assert err == f"flagchess: error: cannot write {target}: No such file or directory\n"
        assert not target.parent.exists()

    @pytest.mark.parametrize("failing", ["write", "flush"])
    @pytest.mark.parametrize("argv", [("degree", "--n", "2", "--eps", "1"),
                                      ("game", "--n", "2", "--eps", "0", "--emit", "json")])
    def test_a_failed_write_to_stdout_is_usage(self, capsys, monkeypatch, argv, failing):
        class FullStdout(io.StringIO):
            def write(self, text):
                if failing == "write":
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return super().write(text)

            def flush(self):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(sys, "stdout", FullStdout())
        code = main(list(argv))
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"flagchess: error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n")


class TestEmitFormats:
    def test_text_shows_phases(self, capsys):
        _, out, _ = run_cli(capsys, "game", "--n", "2", "--eps", "1")
        for phase in ("initial", "align", "phase1", "serre",
                      "phase2", "endgame", "final"):
            assert f"== {phase} (after" in out
        assert "moves applied: 15" in out

    def test_latex_stream(self, capsys):
        _, out, _ = run_cli(capsys, "game", "--n", "2", "--eps", "0",
                            "--emit", "latex")
        assert out.count("\\begin{ytableau}") == 7
        assert "% phase: final" in out
        assert "% flag: residual count" in out

    def test_json_round_trip(self, capsys):
        _, out, _ = run_cli(capsys, "game", "--n", "2", "--eps", "1",
                            "--emit", "json")
        result = parse_game_result(out)
        assert (result.n, result.eps, result.mode) == (2, 1, "fibration")
        assert game_result_to_json(result) == out.strip()

    def test_json_lines_record_walk(self, capsys):
        _, out, _ = run_cli(capsys, "game", "--n", "2", "--eps", "1",
                            "--emit", "json-lines")
        records = [json.loads(line) for line in out.splitlines()]
        kinds = [r["record"] for r in records]
        assert kinds[0] == "header"
        assert kinds[1] == "initial"
        assert kinds[-2] == "gr2"
        assert kinds[-1] == "summary"
        # 15 moves in 14 entries, a run of two rule1 feeds among them, numbered by
        # entry, each keyed by its kind after the record's own two keys
        moves = [r for r in records if r["record"] == "move"]
        assert [m["index"] for m in moves] == list(range(14))
        entries = [{k: v for k, v in m.items() if k not in ("record", "index")} for m in moves]
        assert all(len(e) == 1 and set(e) <= set(MOVES) for e in entries)
        assert sum(map(entry_count, entries)) == 15
        assert [entry_fields(e)[:5:4] for e in entries if entry_count(e) > 1] == [("rule1", 2)]
        phase_names = [r["name"] for r in records if r["record"] == "phase"]
        assert phase_names == ["align", "phase1", "serre", "phase2", "endgame"]
        assert records[0]["schema_version"] == SCHEMA_VERSION
        assert records[-1]["residual_f_count"] == 5

    def test_emit_env_var_is_ignored(self, capsys, monkeypatch):
        # only --emit chooses the format; the default is text
        _, plain, _ = run_cli(capsys, "game", "--n", "2", "--eps", "1")
        monkeypatch.setenv("FLAGCHESS_EMIT", "json")
        _, out, _ = run_cli(capsys, "game", "--n", "2", "--eps", "1")
        assert out == plain and "moves applied" in out
        _, out, _ = run_cli(capsys, "game", "--n", "2", "--eps", "1",
                            "--emit", "text")
        assert out == plain

    def test_output_writes_a_file(self, capsys, tmp_path):
        target = tmp_path / "run.json"
        code, out, _ = run_cli(capsys, "game", "--n", "2", "--eps", "1",
                               "--emit", "json", "--output", str(target))
        assert code == EXIT_OK
        assert out == ""
        assert json.loads(target.read_text())["params"] == {
            "n": 2, "eps": 1, "mode": "fibration"}

    @pytest.mark.parametrize("fmt, name", [
        ("text", "emit_text"), ("latex", "emit_latex"),
        ("json", "game_result_to_json"), ("json-lines", "emit_json_lines")])
    def test_the_emitter_is_looked_up_when_called(self, capsys, monkeypatch, fmt, name):
        # a tracer rebinds render's attributes after import; the CLI must reach the rebound one
        monkeypatch.setattr(render, name, lambda result: "stub" if fmt == "json" else ["stub"])
        assert run_cli(capsys, "game", "--n", "2", "--eps", "1", "--emit", fmt) == (
            EXIT_OK, "stub\n", "")

    def test_an_unknown_format_raises_value_error(self, game):
        with pytest.raises(ValueError, match="unknown emit format 'yaml'"):
            render.emit(game(2, 1), "yaml")

    def test_an_unknown_format_past_the_digit_limit_is_shown_by_its_size(self, game):
        result = game(2, 1)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="^unknown emit format an int of 5,001 digits$"):
            render.emit(result, 10**5000)
        assert time.perf_counter() - start < 1

    def test_a_parsed_result_renders_without_phases(self, game):
        result = game(2, 0)
        parsed = parse_game_result(game_result_to_json(result))
        phases = len(result.phases)
        assert render.emit_text(parsed) == render.emit_text(result)[3 * phases:]
        assert render.emit_latex(parsed) == render.emit_latex(result)[2 * phases:] == [
            f"% flag: {result.flags[0]}"]
        assert emit_json_lines(parsed) == [
            line for line in emit_json_lines(result)
            if json.loads(line)["record"] != "phase"]

    def test_reruns_are_byte_identical(self, capsys):
        _, first, _ = run_cli(capsys, "game", "--n", "3", "--eps", "0",
                              "--emit", "json")
        _, second, _ = run_cli(capsys, "game", "--n", "3", "--eps", "0",
                               "--emit", "json")
        assert first == second


class TestWireSchema:
    def test_game_result_round_trips_exactly(self, game):
        for key in [(2, 0), (3, 1)]:
            result = game(*key)
            assert parse_game_result(game_result_to_json(result)) == result

    def test_schema_version_is_checked(self, game):
        # only the ints 1 to 8 are versions: a bool or a float that equals one is not
        doc = json.loads(game_result_to_json(game(2, 1)))
        for version in (99, 0, 9, True, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, "1"):
            doc["schema_version"] = version
            with pytest.raises(ValueError, match=f"unsupported schema version {version!r}$"):
                parse_game_result(json.dumps(doc))

    @pytest.mark.parametrize("text", ['{"schema_version":1}', "[]",
                                      pytest.param("[" * 100000, id="deeply-nested")])
    def test_malformed_documents_raise_value_error(self, text):
        with pytest.raises(ValueError):
            parse_game_result(text)

    @pytest.mark.parametrize("name, value", [
        ("n", 2.5), ("n", True), ("eps", True), ("eps", 1.0)])
    def test_bad_params_raise_value_error(self, game, name, value):
        doc = json.loads(game_result_to_json(game(2, 1)))
        doc["params"][name] = value
        with pytest.raises(ValueError, match=f"params.{name} must be"):
            parse_game_result(json.dumps(doc))

    @pytest.mark.parametrize("name, value, message", [
        ("n", 1, "params.n must be >= 2, got 1"),
        ("n", MAX_n + 1, f"params.n must be <= {MAX_n}, got {MAX_n + 1}"),
        ("n", 2.5, "params.n must be an int, got 2.5"),
        ("mode", "x", "params.mode must be fibration or flip, got 'x'")])
    def test_bad_params_are_refused_before_any_board(self, game, monkeypatch, name, value,
                                                     message):
        def built(n, eps, boxes):
            raise AssertionError("a start board was built")
        doc = json.loads(game_result_to_json(game(2, 1)))
        doc["params"][name] = value
        monkeypatch.setattr(games_module, "Board", built)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_game_result(json.dumps(doc))

    @pytest.mark.parametrize("board, value", [
        ("initial", 999), ("final", 14), ("final", 15.0)])
    def test_false_copy_totals_raise_value_error(self, game, board, value):
        doc = json.loads(game_result_to_json(game(2, 1)))
        assert doc["initial"]["copies"] == doc["final"]["copies"] == 15
        doc[board]["copies"] = value
        with pytest.raises(ValueError, match=f"{board}.copies is"):
            parse_game_result(json.dumps(doc))

    @staticmethod
    def edited(game, edit, version: int = SCHEMA_VERSION):
        doc = json.loads(written(game(2, 1), version))
        edit(doc)
        return json.dumps(doc)

    @pytest.mark.parametrize("version", [2, 3])
    @pytest.mark.parametrize("board", ["initial", "final"])
    @pytest.mark.parametrize("axis, value", [("x", "0"), ("y", "0"), ("x", True),
                                             ("y", 1.0)])
    def test_box_positions_must_be_ints(self, game, board, axis, value, version):
        # both boards are what the game, started and replayed, writes
        key = axis if version == 2 else "xy".index(axis)

        def edit(doc):
            doc[board]["boxes"][0][key] = value
        path = rf"\.{axis}" if version == 2 else rf"\[{key}\]"
        with pytest.raises(ValueError, match=rf"^{board}\.boxes\[0\]{path} is {value!r} but "
                                             "the replayed game writes"):
            parse_game_result(self.edited(game, edit, version))

    @pytest.mark.parametrize("version", [2, 3])
    @pytest.mark.parametrize("value", ["1", True, 1.0, -1, None])
    def test_sym_grades_must_be_ints_at_least_zero(self, game, value, version):
        def edit(doc):
            box = doc["initial"]["boxes"][0]
            assert box in ({"x": -2, "y": 1, "content": {"kind": "sym", "m": 0}}, [-2, 1, 0])
            if version == 2:
                box["content"]["m"] = value
            else:
                box[2] = value
        path = r"\.content\.m" if version == 2 else r"\[2\]"
        with pytest.raises(ValueError, match=rf"^initial\.boxes\[0\]{path} is {value!r} "
                                             "but the replayed game writes 0$"):
            parse_game_result(self.edited(game, edit, version))

    @pytest.mark.parametrize("version", [2, 3])
    @pytest.mark.parametrize("value", [0, -1, True, 1.0, "1"])
    def test_opaque_copies_must_be_ints_at_least_one(self, game, value, version):
        def edit(doc):
            if version == 2:
                box = next(b for b in doc["final"]["boxes"] if b["content"]["kind"] == "opaque")
                box, key = box["content"], "copies"
            else:
                box, key = next(b for b in doc["final"]["boxes"] if len(b) == 4), 3
            doc["final"]["copies"] += (value if type(value) is int else 0) - box[key]
            box[key] = value
        path = r"\.content\.copies" if version == 2 else r"\[3\]"
        with pytest.raises(ValueError, match=rf"^final\.boxes\[\d+\]{path} is "
                                             r".* but the replayed game writes 1$"):
            parse_game_result(self.edited(game, edit, version))

    @pytest.mark.parametrize("box, refusal", [
        # a bool and a float that equal the written ints
        ([-2, True, 0], r"\[1\] is True but the replayed game writes 1"),
        ([-2, 1, 0.0], r"\[2\] is 0\.0 but the replayed game writes 0"),
        # arrays of the wrong length
        ([-2, 1], " has 2 entries but the replayed game writes 3"),
        ([-2, 1, 0, 1], " has 4 entries but the replayed game writes 3"),
        # an unknown content tag, and the tag of the other kind of content
        ([-2, 1, "sym", 0], r"\[2\] is 'sym' but the replayed game writes 0"),
        ([-2, 1, "opaque", 1], r"\[2\] is 'opaque' but the replayed game writes 0"),
        # the fields reordered, and the box as versions 1 and 2 write it
        ([1, -2, 0], r"\[0\] is 1 but the replayed game writes -2"),
        ({"x": -2, "y": 1, "content": {"kind": "sym", "m": 0}},
         r" is \{'x': -2, 'y': 1, 'content': \{.*\}\} but the replayed game writes "
         r"\[-2, 1, 0\]")])
    def test_a_box_must_be_written_as_its_array(self, game, box, refusal):
        # version 4 is the last to write a board's boxes one by one
        def edit(doc):
            assert doc["initial"]["boxes"][0] == [-2, 1, 0]
            doc["initial"]["boxes"][0] = box
        with pytest.raises(ValueError, match=rf"^initial\.boxes\[0\]{refusal}$"):
            parse_game_result(self.edited(game, edit, 4))

    @pytest.mark.parametrize("tag", ["zzz", "sym", None, 1])
    def test_an_unknown_opaque_tag_is_refused(self, game, tag):
        # version 4 writes an opaque box in 4 entries, version 5 an opaque run in 5
        for version, key, size in ((4, "boxes", 4), (5, "runs", 5)):
            def edit(doc):
                next(b for b in doc["final"][key] if len(b) == size)[2] = tag
            with pytest.raises(ValueError, match=rf"^final\.{key}\[\d+\]\[2\] is {tag!r} but "
                                                 "the replayed game writes 'opaque'$"):
                parse_game_result(self.edited(game, edit, version))

    def test_a_version_3_box_in_a_version_2_document_is_refused(self, game):
        def edit(doc):
            doc["initial"]["boxes"][0] = [-2, 1, 0]
        with pytest.raises(ValueError, match=r"^initial\.boxes\[0\] is \[-2, 1, 0\] but the "
                                             r"replayed game writes \{'x': -2, "):
            parse_game_result(self.edited(game, edit, 2))

    def test_an_unknown_content_kind_raises_value_error(self, game):
        def edit(doc):
            doc["initial"]["boxes"][0]["content"]["kind"] = "zzz"
        with pytest.raises(ValueError, match=r"^initial\.boxes\[0\]\.content\.kind is 'zzz' but "
                                             "the replayed game writes 'sym'$"):
            parse_game_result(self.edited(game, edit, 2))

    @pytest.mark.parametrize("value", ["zzz", "", None, ["fibration"]])
    def test_mode_must_be_fibration_or_flip(self, game, value):
        def edit(doc):
            doc["params"]["mode"] = value
        with pytest.raises(ValueError, match="params.mode must be fibration or flip"):
            parse_game_result(self.edited(game, edit))

    @pytest.mark.parametrize("value", ["ab", None, [1], ["a", None], {"a": 1}])
    def test_flags_must_be_a_list_of_strings(self, game, value):
        def edit(doc):
            doc["flags"] = value
        with pytest.raises(ValueError, match=r"^flags (is|has) .* but the replayed game writes"):
            parse_game_result(self.edited(game, edit))

    @pytest.mark.parametrize("version, path", [(2, r"\.(x|content\.m)"), (3, r"\[(0|2)\]")])
    def test_gr2_boxes_must_be_on_the_final_board(self, game, version, path):
        def off_board(doc):
            box = doc["gr2"]["boxes"][0]
            if version == 2:
                box.update(x=99, y=99)
            else:
                box[:2] = [99, 99]

        def wrong_content(doc):
            box = doc["gr2"]["boxes"][0]
            if version == 2:
                box["content"]["m"] += 1
            else:
                box[2] += 1
        for edit in (off_board, wrong_content):
            with pytest.raises(ValueError, match=rf"^gr2\.boxes\[0\]{path} is \d+ but "
                                                 r"the replayed game writes \d+$"):
                parse_game_result(self.edited(game, edit, version))

    def test_gr2_boxes_must_not_repeat(self, game):
        # a repeated box would count its copies twice in the column
        def repeated(doc):
            doc["gr2"]["boxes"].append(doc["gr2"]["boxes"][0])
        with pytest.raises(ValueError, match="^gr2.boxes has 6 entries but the replayed game "
                                             "writes 5$"):
            parse_game_result(self.edited(game, repeated))

    @staticmethod
    def first_check(doc):
        return next(c for _, holder, key in oracle_sites(doc["moves"])
                    if type(holder[key]) is list for c in holder[key])

    @pytest.mark.parametrize("value", ["refused", "", None, 7])
    def test_move_verdicts_must_be_applied(self, game, value):
        def edit(doc):
            doc["moves"][0]["verdict"] = value
        with pytest.raises(ValueError, match=rf"^moves\[0\]\.verdict is {value!r} but the "
                                             "replayed game writes 'applied'$"):
            parse_game_result(self.edited(game, edit, 2))

    @pytest.mark.parametrize("key", ["copies_before", "copies_after"])
    @pytest.mark.parametrize("value", [14, 16, 15.0, "15"])
    def test_move_copy_totals_must_match_the_boards(self, game, key, value):
        def edit(doc):
            doc["moves"][-1][key] = value
        with pytest.raises(ValueError, match=rf"^moves\[\d+\]\.{key} is {value!r} but the "
                                             "replayed game writes 15$"):
            parse_game_result(self.edited(game, edit, 2))

    @pytest.mark.parametrize("key, value", [
        ("verdict", "applied"), ("copies_before", 15), ("copies_after", 15)])
    def test_a_move_carrying_a_field_the_replay_derives_is_refused(self, game, key, value):
        # version 3 drops each of these, with its right value too; version 7 (tested
        # in TestKeyedMoves) refuses an entry of more than one key before the replay
        def edit(doc):
            doc["moves"][0][key] = value
        with pytest.raises(ValueError, match=rf"^moves\[0\] has keys \['kind', 'positions', "
                                             rf"'params', 'oracle', '{key}'\] but the replayed "
                                             r"game writes \['kind', 'positions', 'params', "
                                             r"'oracle'\]$"):
            parse_game_result(self.edited(game, edit, 6))

    @pytest.mark.parametrize("value", ["flag", "m", None])
    def test_oracle_space_must_be_m(self, game, value):
        def edit(doc):
            self.first_check(doc)["space"] = value
        with pytest.raises(ValueError, match=rf"\.oracle\[\d+\]\.space is {value!r} but the "
                                             "replayed game writes 'M'$"):
            parse_game_result(self.edited(game, edit, 3))

    @pytest.mark.parametrize("end", ["source", "target"])
    @pytest.mark.parametrize("value", [[0, 1], [0, 1, 2, 3], [0, 1, 2.0], [0, True, 2],
                                       "0,1,2", None])
    def test_oracle_ends_must_be_three_ints(self, game, end, value):
        # version 3 names a check's ends by key, version 4 by their place in its triple
        for version, key in ((3, end), (4, ("source", "target").index(end))):
            def edit(doc):
                self.first_check(doc)[key] = value
            path = rf"\.{end}" if version == 3 else rf"\[{key}\]"
            with pytest.raises(ValueError, match=rf"^moves\[\d+\]\.oracle\[\d+\]{path}(\[\d\])? "
                                                 "(is|has) .* but the replayed game writes"):
                parse_game_result(self.edited(game, edit, version))

    @pytest.mark.parametrize("field, value", [
        ("ok", False), ("ok", 1), ("ok", None), ("got", [[9, 9]]), ("got", "indeterminate"),
        ("expected", [[9, 9]])])
    def test_oracle_ok_must_agree_with_got_and_expected(self, game, field, value):
        def edit(doc):
            check = self.first_check(doc)
            assert check["ok"] is True and check["got"] == check["expected"]
            check[field] = value
        # each is what the writer writes for the check the replay asks
        match = (rf"\.ok is {value!r} but the replayed game writes True$" if field == "ok"
                 else rf"^moves\[\d+\]\.oracle\[\d+\]\.{field} (is|has) .* but the replayed "
                      "game writes")
        with pytest.raises(ValueError, match=match):
            parse_game_result(self.edited(game, edit, 3))

    @pytest.mark.parametrize("got", [[[0, 7]], "zzz", "indeterminate"])
    def test_applied_moves_hold_no_failed_check(self, game, got):
        def edit(doc):
            check = self.first_check(doc)
            check["got"], check["ok"] = got, False
        with pytest.raises(ValueError, match=r"^moves\[\d+\]\.oracle\[\d+\]\.got (is|has) .* but "
                                             r"the replayed game writes (\[\]|0)$"):
            parse_game_result(self.edited(game, edit, 3))

    @pytest.mark.parametrize("expected, got, field", [
        *((v, v, "expected") for v in ([["x", "y"]], [[1]], [[2, 1], [1, 1]], [[1, 0]],
                                       [[1, True]], [[0, 1], [0, 1]])),
        ([[1, 1]], [[1, True]], "got")])
    def test_oracle_answers_must_be_recorded_pairs(self, game, expected, got, field):
        # ok agrees with got == expected in every case, True == 1 in the last;
        # the replay's check expects nothing, and expected is written first
        def edit(doc):
            self.first_check(doc).update(expected=expected, got=got)
        with pytest.raises(ValueError, match=r"^moves\[\d+\]\.oracle\[\d+\]\.expected has \d+ "
                                             "entries but the replayed game writes 0$"):
            parse_game_result(self.edited(game, edit, 3))

    @pytest.mark.parametrize("expected", [[["x", "y"]], [[1]], [[2, 1], [1, 1]], [[1, 0]],
                                          [[1, True]], [[0, 1], [0, 1]], {}, "indeterminate"])
    def test_a_triple_holds_the_recorded_answer(self, game, expected):
        # the first check the replay asks expects nothing; its version 7 triple
        # writes that third (version 8's flat checks are in TestFlatChecks)
        def edit(doc):
            triple = self.first_check(doc)
            assert triple[2] == []
            triple[2] = expected
        with pytest.raises(ValueError, match=rf"^{AT_ORACLE}\[\d+\]\[2\] (is|has) .* "
                                             r"but the replayed game writes (0|\[\])$"):
            parse_game_result(self.edited(game, edit, 7))

    @pytest.mark.parametrize("version", [2, 3])
    @pytest.mark.parametrize("field", ["moves", "initial.boxes", "final.boxes", "gr2.boxes",
                                       "move positions", "oracle expected", "oracle got"])
    def test_lists_must_not_be_objects(self, game, field, version):
        # an empty object iterates like an empty list: the two lists the
        # parser reads are refused by their form, the rest by the writer
        def edit(doc):
            if field == "move positions":
                doc["moves"][0]["positions"] = {}
            elif field.startswith("oracle "):
                check = self.first_check(doc)
                assert check["expected"] == check["got"] == []
                check[field.split()[1]] = {}
            else:
                *path, key = field.split(".")
                (doc[path[0]] if path else doc)[key] = {}
        match = (f"^{field} must be a list, got {{}}$" if field in ("moves", "move positions")
                 else rf"^moves\[\d+\]\.oracle\[\d+\]\.{field.split()[1]} is {{}} but the "
                      r"replayed game writes \[\]$" if field.startswith("oracle ")
                 else rf"^{field} is {{}} but the replayed game writes \[{{'x': " if version == 2
                 else rf"^{field} is {{}} but the replayed game writes \[\[-?\d")
        with pytest.raises(ValueError, match=match):
            parse_game_result(self.edited(game, edit, version))

    @pytest.mark.parametrize("value, bound", [
        ("abc", "an int"), (True, "an int"), (-4, ">= 0"), (None, "an int"), (1.5, "an int")])
    def test_residual_count_must_be_an_int_at_least_zero(self, game, value, bound):
        def edit(doc):
            doc["residual_f_count"] = value
        with pytest.raises(ValueError, match=f"^residual_f_count must be {bound}, got "):
            parse_game_result(self.edited(game, edit))

    def test_a_number_past_the_digit_limit_is_a_malformed_document(self, game):
        # json reads an int through int(), which refuses more than 4,300 digits
        text = game_result_to_json(game(2, 1))
        assert text.count('"residual_f_count":5,') == 1
        text = text.replace('"residual_f_count":5,', f'"residual_f_count":{"9" * 5001},')
        start = time.perf_counter()
        with pytest.raises(ValueError, match="^malformed game document: ValueError\\('Exceeds "
                                             "the limit \\(4300 digits\\)"):
            parse_game_result(text)
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("old, new, key", [
        # the forgery that json would read past, keeping the last value
        ('"residual_f_count":', '"residual_f_count":"forged","residual_f_count":',
         "residual_f_count"),
        ('{"serre_translate":', '{"serre_translate":[],"serre_translate":', "serre_translate"),
        ('{"kind":', '{"kind":"push_right","kind":', "kind"),
        ('"steps":1}', '"steps":2,"steps":1}', "steps")],
        ids=["top-level", "move", "version-6-move", "move-params"])
    def test_a_repeated_key_is_refused(self, game, old, new, key):
        # version 6 writes a move as an object with its params by name
        text = written(game(2, 1), 6 if old in ('{"kind":', '"steps":1}') else SCHEMA_VERSION)
        assert old in text
        found = ValueError(f"the key {key!r} is repeated in an object")
        refusal = f"malformed game document: {found!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
            parse_game_result(text.replace(old, new, 1))

    @pytest.mark.parametrize("found, boxes", [
        ("zzz", None), (1, None), (None, None), (False, None), (True, [])])
    def test_gr2_found_must_be_a_bool_that_matches_the_boxes(self, game, found, boxes):
        # the column is the one the replayed game finds, so an emptied one differs
        def edit(doc):
            doc["gr2"]["found"] = found
            if boxes is not None:
                doc["gr2"]["boxes"] = boxes
        match = ("^gr2.boxes has 0 entries but the replayed game writes 5$" if found is True
                 else "^gr2.found is")
        with pytest.raises(ValueError, match=match):
            parse_game_result(self.edited(game, edit))

    @pytest.mark.parametrize("version, path", [(2, r"\.content\.m"), (3, r"\[2\]")])
    def test_initial_and_final_copies_must_agree(self, game, version, path):
        # the final board is the replayed one, so its totals cannot drift
        def edit(doc):
            column = doc["gr2"]["boxes"]
            if version == 2:
                next(b for b in doc["final"]["boxes"] if b["content"]["kind"] == "sym"
                     and b not in column)["content"]["m"] += 1
            else:
                next(b for b in doc["final"]["boxes"] if len(b) == 3 and b not in column)[2] += 1
            doc["final"]["copies"] += 1
        with pytest.raises(ValueError, match=rf"^final\.boxes\[\d+\]{path} is \d+ but "
                                             r"the replayed game writes \d+$"):
            parse_game_result(self.edited(game, edit, version))

    def test_residual_boxes_follow_the_final_board_and_column(self, game):
        result = game(2, 1)
        assert result.residual_boxes == tuple(
            b for b in result.final.boxes if b not in result.gr2_boxes)
        assert result._replace(gr2_boxes=()).residual_boxes == result.final.boxes

    @pytest.mark.parametrize("n, eps, mode", [
        pytest.param(n, eps, mode, id=f"{n}-{eps}" + ("-flip" if mode == "flip" else ""))
        for mode in ("fibration", "flip") for n in (2, 3, 5) for eps in (0, 1)])
    def test_rebuilt_json_lines_parse(self, capsys, n, eps, mode):
        argv = ("game", "--n", str(n), "--eps", str(eps), "--mode", mode,
                "--validate", "--emit")
        _, text, _ = run_cli(capsys, *argv, "json")
        _, stream, _ = run_cli(capsys, *argv, "json-lines")
        doc = rebuilt_document(stream)
        assert parse_game_result(json.dumps(doc)) == parse_game_result(text)
        assert dumps(doc) + "\n" == text

    @pytest.mark.parametrize("indent", [None, 1], ids=["default-separators", "indent-1"])
    def test_a_document_that_differs_only_in_whitespace_is_not_walked(self, game, monkeypatch,
                                                                      indent):
        result = game(3, 1, validate=True)
        text = json.dumps(json.loads(game_result_to_json(result)), indent=indent)
        assert text != game_result_to_json(result)

        def walked(*args):
            raise AssertionError("the document was walked")
        monkeypatch.setattr(render, "_refuse_difference", walked)
        assert parse_game_result(text) == result

    @pytest.mark.parametrize("indent", [None, 1], ids=["default-separators", "indent-1"])
    @pytest.mark.parametrize("keys, path", [
        (("final", "runs", 0, 2), r"final\.runs\[0\]\[2\]"),
        (("moves", 5, "rule1", 2, 0, 1), r"moves\[5\]\.rule1\[2\]\[0\]\[1\]")],
        ids=["final-box", "first-check"])
    def test_a_changed_leaf_in_other_whitespace_is_refused_by_its_path(self, game, indent,
                                                                       keys, path):
        doc = json.loads(game_result_to_json(game(3, 1, validate=True)))
        *parents, last = keys
        node = functools.reduce(operator.getitem, parents, doc)
        right = node[last]
        node[last] += 1
        with pytest.raises(ValueError, match=rf"^{path} is {right + 1} but the replayed game "
                                             rf"writes {right}$"):
            parse_game_result(json.dumps(doc, indent=indent))

    def test_replay_rejects_mistyped_move_parameters(self, game):
        doc = json.loads(game_result_to_json(game(2, 1)))
        assert doc["moves"][0] == {"serre_translate": [[], [2, "left", 1], []]}
        for name, value in (("steps", "1"), ("steps", True), ("y", [2])):
            bad = copy.deepcopy(doc)
            bad["moves"][0]["serre_translate"][1][("y", "direction", "steps").index(name)] = value
            # the parser replays the log, so the refusal comes from parsing
            with pytest.raises(ValueError, match="^the moves do not replay from the initial "
                                                 f"board: .*parameter {name} must be an int"):
                parse_game_result(json.dumps(bad))

    def test_moves_that_do_not_lead_to_the_final_board_are_refused(self, game):
        doc = json.loads(game_result_to_json(game(2, 1)))
        for moves in ([], doc["moves"][:-1]):
            bad = copy.deepcopy(doc)
            bad["moves"] = moves
            with pytest.raises(ValueError, match=r"^final\.runs\[\d+\]\[\d\] is .* but the "
                                                 "replayed game writes"):
                parse_game_result(json.dumps(bad))

    def test_a_move_refused_on_replay_is_refused(self, game):
        # without the first move, the second does not apply to the initial board
        doc = json.loads(game_result_to_json(game(2, 1)))
        doc["moves"] = doc["moves"][1:]
        with pytest.raises(ValueError, match="^the moves do not replay from the initial "
                                             "board: rule1: window bound") as info:
            parse_game_result(json.dumps(doc))
        assert type(info.value.__cause__) is MoveRefused

    def test_a_move_refused_on_replay_is_named_by_its_path(self, game):
        # without moves[3], eight more moves (seven entries) replay before rule2
        # finds a zero too many; the path counts entries, not moves
        doc = json.loads(game_result_to_json(game(2, 1)))
        del doc["moves"][3]
        with pytest.raises(ValueError, match=r"^the moves do not replay from the initial "
                                             r"board: rule2: expected 2 zeros before the "
                                             r"block, found 3 at moves\[10\]$"):
            parse_game_result(json.dumps(doc))

    @pytest.mark.parametrize("where", ["top level", "move"])
    def test_an_unknown_key_is_refused(self, game, where):
        # into a version 6 move, which is an object of named fields
        def edit(doc):
            (doc if where == "top level" else doc["moves"][0])["note"] = "x"
        path, last = (("the document", "flags") if where == "top level"
                      else (r"moves\[0\]", "oracle"))
        with pytest.raises(ValueError, match=rf"^{path} has keys \[.*'{last}', 'note'\] but the "
                                             rf"replayed game writes \[.*'{last}'\]$"):
            parse_game_result(self.edited(game, edit, 6 if where == "move" else SCHEMA_VERSION))

    def test_reordered_box_keys_are_refused(self, game):
        def edit(doc):
            box = doc["initial"]["boxes"][0]
            doc["initial"]["boxes"][0] = {"y": box["y"], "x": box["x"], "content": box["content"]}
        with pytest.raises(ValueError, match=r"^initial\.boxes\[0\] has keys \['y', 'x', "
                                             r"'content'\] but the replayed game writes "
                                             r"\['x', 'y', 'content'\]$"):
            parse_game_result(self.edited(game, edit, 2))

    @pytest.mark.parametrize("version, path", [(2, r"\.x"), (3, r"\[0\]")])
    def test_a_moved_initial_box_is_refused(self, version, path):
        # every move still replays with the box at (1, 1) moved to (2, 1),
        # but the start board is derived from the params, never read
        game = run_game(2, 0, validate=False)
        start = game.initial
        assert start.boxes[3].pos == (1, 1) and start.at((2, 1)) is None
        moved = Board(2, 0, (*start.boxes[:3], Box(2, 1, start.boxes[3].content),
                             *start.boxes[4:]))
        replay(moved, game.log)
        text = written(game._replace(initial=moved), version)
        with pytest.raises(ValueError, match=rf"^initial\.boxes\[3\]{path} is 2 but the "
                                             "replayed game writes 1$"):
            parse_game_result(text)

    def test_json_lines_matches_the_log_length(self, game):
        result = game(2, 0)
        lines = emit_json_lines(result)
        records = [json.loads(line) for line in lines]
        moves = [r for r in records if r["record"] == "move"]
        assert len(moves) == len(result.log)
        assert [key for m in moves for key in m if key not in ("record", "index")] == [
            r.kind for r in result.log]


class TestOracleReferences:
    """Versions 2 to 7 write each distinct oracle check and transcript once,
    and versions 4 to 7 each run of three or more earlier checks as one pair."""

    # what versions 1 to 7 wrote for ``game --n 3 --eps 1 --emit json``
    FIXTURES = {version: Path(__file__).with_name(f"game_n3_eps1_v{version}.json")
                for version in (1, 2, 3, 4, 5, 6, 7)}
    V1 = FIXTURES[1]
    ARGV = ("game", "--n", "3", "--eps", "1", "--validate", "--emit")

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6, 7])
    def test_an_older_document_parses_as_its_current_form(self, capsys, version):
        older = self.FIXTURES[version].read_text()
        _, current, _ = run_cli(capsys, *self.ARGV, "json")
        _, stream, _ = run_cli(capsys, *self.ARGV, "json-lines")
        assert json.loads(older)["schema_version"] == version
        assert json.loads(current)["schema_version"] == SCHEMA_VERSION == 8
        expected = parse_game_result(older)
        assert parse_game_result(current) == expected
        assert parse_game_result(json.dumps(rebuilt_document(stream))) == expected
        assert len(current) < len(older) * {1: 0.5, 2: 0.5, 3: 0.85, 4: 0.95, 5: 0.9,
                                            6: 0.7, 7: 0.95}[version]

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6, 7])
    def test_an_older_document_is_rewritten_byte_for_byte_by_its_writer(self, version):
        older = self.FIXTURES[version].read_text()
        assert written(parse_game_result(older), version) + "\n" == older

    def test_the_version_1_writer_gives_the_recorded_moves(self):
        moves = [json.loads(dumps(move_to_dict(m))) for m in run_game(3, 1, validate=True).log]
        assert len(moves) == 27
        assert moves == json.loads(self.V1.read_text())["moves"]

    def test_a_version_1_check_with_reordered_keys_is_refused(self):
        doc = json.loads(self.V1.read_text())
        i = next(i for i, move in enumerate(doc["moves"]) if move["oracle"])
        check = doc["moves"][i]["oracle"][0]
        doc["moves"][i]["oracle"][0] = dict(reversed(check.items()))
        with pytest.raises(ValueError, match=rf"^moves\[{i}\]\.oracle\[0\] has keys "
                                             r"\['ok', 'got', .* but the replayed game writes "
                                             r"\['source', 'target', "):
            parse_game_result(json.dumps(doc))

    def test_a_check_written_where_the_writer_refers_to_it_is_refused(self, game):
        for version, shown in ((3, r"\{'source': \["), (4, r"\[\[")):
            doc = json.loads(written(game(3, 1, validate=True), version))
            checks = written_checks(doc["moves"])
            m, j, _ = next(site for site in self.reference_sites(doc["moves"])
                           if site[1] is not None)
            path, holder, key = oracle_sites(doc["moves"])[m]
            oracle = holder[key]
            number = oracle[j]
            oracle[j] = checks[number]
            with pytest.raises(ValueError, match=rf"^{re.escape(path)}\[{j}\] is {shown}"
                                                 rf".* but the replayed game writes {number}$"):
                parse_game_result(json.dumps(doc))

    def test_version_1_holds_no_references(self):
        doc = json.loads(self.V1.read_text())
        for i, move in enumerate(doc["moves"]):
            if move["oracle"]:
                break
        for oracle in (i, [0], [*doc["moves"][i]["oracle"], 0]):
            bad = copy.deepcopy(doc)
            bad["moves"][i + 1]["oracle"] = oracle
            with pytest.raises(ValueError, match=rf"^moves\[{i + 1}\]\.oracle(\[\d+\])? (is|has) "
                                                 ".* but the replayed game writes"):
                parse_game_result(json.dumps(bad))

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("eps", [0, 1])
    def test_round_trip_is_byte_identical(self, game, n, eps):
        result = game(n, eps, validate=True)
        text = game_result_to_json(result)
        parsed = parse_game_result(text)
        assert parsed == result
        assert game_result_to_json(parsed) == text

    def test_each_distinct_check_and_transcript_is_written_once(self, game):
        result = game(3, 1, validate=True)
        for version in (3, 4, 6, 7):
            moves = json.loads(written(result, version))["moves"]
            assert len(written_checks(moves)) == len({c for r in result.log for c in r.oracle})
            oracles = [holder[key] for _, holder, key in oracle_sites(moves)]
            assert len(oracles) == len(result.log)
            listed = [r.oracle for r, o in zip(result.log, oracles) if r.oracle and type(o) is list]
            assert len(listed) == len(set(listed)) == len({r.oracle for r in result.log} - {()})
            for record, oracle in zip(result.log, oracles):
                if type(oracle) is int:
                    assert result.log[oracle].oracle == record.oracle

    @staticmethod
    def reference_sites(moves: list) -> list[tuple[int, int | None, int]]:
        """Each int reference as (logged move, entry or None for a transcript
        reference, checks defined before it); runs of checks are left out.
        The move's oracle is where ``oracle_sites`` puts it."""
        sites, defined = [], 0
        for m, (_, holder, key) in enumerate(oracle_sites(moves)):
            if type(holder[key]) is int:
                sites.append((m, None, defined))
                continue
            for j, entry in enumerate(holder[key]):
                if type(entry) is int:
                    sites.append((m, j, defined))
                elif is_check(entry):
                    defined += 1
        return sites

    @pytest.mark.parametrize("mode", ["fibration", "flip"])
    @pytest.mark.parametrize("eps", [0, 1])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_every_small_game_round_trips_and_reads_as_its_log(self, game, n, eps, mode):
        # byte for byte through the parser, the same document from json-lines,
        # each transcript read back as logged and each run maximal
        result = game(n, eps, mode)
        text = game_result_to_json(result)
        parsed = parse_game_result(text)
        assert parsed == result and game_result_to_json(parsed) == text
        assert dumps(rebuilt_document("\n".join(emit_json_lines(result)))) == text
        moves = json.loads(text)["moves"]
        assert read_transcripts(moves) == [r.oracle for r in result.log]
        for _, holder, key in oracle_sites(moves):
            if type(holder[key]) is list:
                assert regrouped(holder[key]) == holder[key]

    @staticmethod
    def entry_site(doc: dict, wanted: Callable[[list, int], bool]) -> tuple[list, str, int]:
        """The transcript, its path and the index of the first entry that
        ``wanted`` accepts."""
        return next((oracle, path, j) for path, holder, key in oracle_sites(doc["moves"])
                    if type(oracle := holder[key]) is list
                    for j in range(len(oracle)) if wanted(oracle, j))

    @staticmethod
    def refused(doc: dict, path: str, j: int, rest: str) -> None:
        with pytest.raises(ValueError, match=rf"^{re.escape(path)}\[{j}\]{rest}$"):
            parse_game_result(json.dumps(doc))

    @pytest.mark.parametrize("size", [2, 4])
    def test_a_triple_of_another_size_is_refused(self, game, size):
        doc = json.loads(written(game(4, 1), 7))
        oracle, path, j = self.entry_site(doc, lambda o, j: is_check(o[j]))
        oracle[j] = [*oracle[j], [[0, 1]]][:size]
        self.refused(doc, path, j, f" has {size} entries but the replayed game writes 3")

    @pytest.mark.parametrize("version, other, shown, writes", [
        (4, 3, r"\{'source': \[.*\}", r"\[\[.*\]\]"),
        (3, 4, r"\[\[.*\]\]", r"\{'source': \[.*\}")])
    def test_a_check_in_the_form_of_another_version_is_refused(self, game, version, other,
                                                              shown, writes):
        # the first check each version writes is the same check
        doc = json.loads(written(game(4, 1), version))
        oracle, path, j = self.entry_site(doc, lambda o, j: is_check(o[j]))
        oracle[j] = written_checks(json.loads(written(game(4, 1), other))["moves"])[0]
        self.refused(doc, path, j, f" is {shown} but the replayed game writes {writes}")

    @pytest.mark.parametrize("field, change", [(0, 1), (0, -1), (1, 1), (1, -1)],
                             ids=["first-after", "first-before", "longer", "shorter"])
    def test_a_run_that_names_other_checks_is_refused(self, game, field, change):
        doc = json.loads(game_result_to_json(game(4, 1)))
        oracle, path, j = self.entry_site(doc, lambda o, j: type(o[j]) is list and len(o[j]) == 2)
        right = oracle[j][field]
        oracle[j][field] += change
        self.refused(doc, path, j, rf"\[{field}\] is {right + change} but the replayed game "
                                f"writes {right}")

    def test_a_run_of_two_is_refused_where_the_writer_writes_ints(self, game):
        doc = json.loads(game_result_to_json(game(4, 1)))
        oracle, path, j = self.entry_site(doc, lambda o, j: type(o[j]) is int and j + 1 < len(o)
                                       and o[j + 1] == o[j] + 1)
        first = oracle[j]
        oracle[j:j + 2] = [[first, 2]]
        self.refused(doc, path, j, rf" is \[{first}, 2\] but the replayed game writes {first}")

    def test_a_run_spelt_as_ints_is_refused(self, game):
        doc = json.loads(game_result_to_json(game(4, 1)))
        oracle, path, j = self.entry_site(doc, lambda o, j: type(o[j]) is list and len(o[j]) == 2)
        first, count = oracle[j]
        oracle[j:j + 1] = range(first, first + count)
        self.refused(doc, path, j, rf" is {first} but the replayed game writes "
                                rf"\[{first}, {count}\]")

    @given(st.data())
    def test_bad_references_raise_value_error(self, game, data):
        text = game_result_to_json(game(3, 1, validate=True))
        doc = json.loads(text)
        oracles = oracle_sites(doc["moves"])
        m, j, defined = data.draw(st.sampled_from(self.reference_sites(doc["moves"])))
        bad_forms = {
            "not an int": st.sampled_from([True, False, 1.0, "0", None]),
            "negative": st.integers(-50, -1),
        }
        if j is None:
            bad_forms["this or a later move"] = st.just(m) | st.integers(m, len(oracles) + 50)
            bad_forms["a move that refers"] = st.sampled_from(
                [k for k, (_, holder, key) in enumerate(oracles[:m])
                 if type(holder[key]) is int] or [None])
        else:
            bad_forms["not yet defined"] = st.just(defined) | st.integers(defined, defined + 50)
        value = data.draw(st.sampled_from(sorted(bad_forms)).flatmap(bad_forms.__getitem__))
        _, holder, key = oracles[m]
        if j is None:
            holder[key] = value
        else:
            holder[key][j] = value
        with pytest.raises(ValueError, match=rf"^{AT_ORACLE}(\[\d+\]){{0,2}} is .* but "
                                             "the replayed game writes"):
            parse_game_result(json.dumps(doc))


def spelt_out(runs: list) -> tuple[Box, ...]:
    """The boxes, in SOD order, of a version 5 board's runs, read as
    ``render``'s docstring states them, with no code of the writer's."""
    boxes = []
    for *first, k in runs:
        assert type(k) is int and k >= 1
        content = Opaque(first[3]) if first[2] == "opaque" else SymBlock(first[2])
        boxes += [Box(first[0] + i, first[1], content) for i in range(k)]
    return tuple(boxes)


class TestBoardRuns:
    """Version 5 writes each board as its runs: boxes of one content in
    consecutive SOD slots, one step apart along a row."""

    @pytest.mark.parametrize("mode", ["fibration", "flip"])
    @pytest.mark.parametrize("eps", [0, 1])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_every_board_spells_out_as_its_boxes(self, game, n, eps, mode):
        # the initial board, each phase board and the final board, in stream order
        result = game(n, eps, mode)
        boards = [json.loads(line).get("board") for line in emit_json_lines(result)]
        boards = [board for board in boards if board is not None]
        assert [name for name, _, _ in result.phases][::len(result.phases) - 1] == [
            "initial", "final"]
        assert [spelt_out(board["runs"]) for board in boards] == [
            board.boxes for _, board, _ in result.phases]
        assert {board["copies"] for board in boards} == {result.initial.copies}
        doc = json.loads(game_result_to_json(result))
        assert [doc["initial"], doc["final"]] == boards[::len(boards) - 1]
        for board in boards:
            # each run maximal: the next run does not carry it on
            for (*left, k), (*right, _) in zip(board["runs"], board["runs"][1:]):
                assert right != [left[0] + k, *left[1:]]
        if mode == "fibration":
            # a start board is N - 2 rows of N zeros
            assert doc["initial"]["runs"] == [[-n + row, row + 1, 0, 2 * n + eps]
                                              for row in range(2 * n + eps - 2)]

    @pytest.mark.parametrize("board, start, stop, runs, refusal", [
        ("initial", 0, 1, [[-2, 1, 0, 2], [0, 1, 0, 3]], r"runs\[0\]\[3\] is 2 .* writes 5"),
        ("initial", 0, 2, [[-2, 1, 0, 10]], r"runs\[0\]\[3\] is 10 .* writes 5"),
        ("initial", 0, 0, [[-3, 1, 0, 0]], r"runs\[0\]\[0\] is -3 .* writes -2"),
        ("initial", 0, 1, [[-2, 1, 0, 5.0]], r"runs\[0\]\[3\] is 5\.0 .* writes 5"),
        ("initial", 0, 1, [[-2, 1, 0]], r"runs\[0\] has 3 entries .* writes 4"),
        ("initial", 0, 1, [[-2, 1, 0]] * 5, r"runs\[0\] has 3 entries .* writes 4"),
        ("final", 3, 4, [[1, 1, 0, 1], [2, 1, 0, 1]], r"runs\[3\]\[3\] is 1 .* writes 2"),
        ("final", 5, 7, [[0, 2, 1, 2]], r"runs\[5\]\[3\] is 2 .* writes 1")],
        ids=["split", "merged", "empty", "float-length", "box", "boxes", "final-split",
             "final-merged"])
    def test_a_run_split_or_merged_by_hand_is_refused_by_its_path(self, game, board, start,
                                                                   stop, runs, refusal):
        doc = json.loads(game_result_to_json(game(2, 1)))
        assert doc["initial"]["runs"] == [[-2, 1, 0, 5], [-1, 2, 0, 5], [0, 3, 0, 5]]
        assert doc["final"]["runs"][3:7] == [[1, 1, 0, 2], [-2, 2, "opaque", 1, 1],
                                             [0, 2, 1, 1], [0, 3, 1, 1]]
        doc[board]["runs"][start:stop] = runs
        with pytest.raises(ValueError, match=rf"^{board}\.{refusal}$"):
            parse_game_result(json.dumps(doc))

    def test_a_board_written_as_its_boxes_is_refused(self, game):
        doc = json.loads(game_result_to_json(game(2, 1)))
        doc["initial"] = json.loads(written(game(2, 1), 4))["initial"]
        with pytest.raises(ValueError, match=r"^initial has keys \['boxes', 'copies'\] but the "
                                             r"replayed game writes \['runs', 'copies'\]$"):
            parse_game_result(json.dumps(doc))


class TestMoveRuns:
    """Version 6 writes each maximal run of two or more moves of one kind and
    params, each position one column right of the move before's, as one entry."""

    @pytest.mark.parametrize("validate", [True, False], ids=["validated", "unvalidated"])
    @pytest.mark.parametrize("mode", ["fibration", "flip"])
    @pytest.mark.parametrize("eps", [0, 1])
    @pytest.mark.parametrize("n", range(2, 13))
    def test_every_game_round_trips_and_spells_out_as_its_log(self, game, n, eps, mode,
                                                              validate):
        result = game(n, eps, mode, validate)
        text = game_result_to_json(result)
        parsed = parse_game_result(text)
        assert parsed == result and game_result_to_json(parsed) == text
        assert dumps(rebuilt_document("\n".join(emit_json_lines(result)))) == text
        moves = json.loads(text)["moves"]
        # spelt out, the entries are the moves version 5 writes, one per logged move
        assert spelt_out_moves(moves) == json.loads(written(result, 5))["moves"]
        if (n, eps) != (2, 0):  # the one game that feeds no row of two or more blocks
            assert len(moves) < len(result.log)
        for move, following in zip(moves, moves[1:]):
            # each run maximal: the next entry does not carry it on
            kind, positions, params, _, _ = entry_fields(move)
            step = entry_count(move)
            assert not (positions and entry_fields(following)[:3] == (
                kind, [[x + step, y] for x, y in positions], params))

    @pytest.mark.parametrize("mode", ["fibration", "flip"])
    @pytest.mark.parametrize("eps", [0, 1])
    @pytest.mark.parametrize("n", [*range(2, 17), 28])
    def test_no_phase_snapshot_falls_inside_a_run(self, game, n, eps, mode):
        # json-lines puts each snapshot between two entries; the log is the
        # same with validation off
        result = game(n, eps, mode, validate=False)
        starts = list(itertools.accumulate(map(entry_count, game_result_to_dict(result)["moves"]),
                                           initial=0))
        assert starts[-1] == len(result.log)
        assert {count for _, _, count in result.phases} <= set(starts)
        records = [json.loads(line)["record"] for line in emit_json_lines(result)]
        assert records.count("phase") == len(result.phases) - 2

    def test_a_snapshot_inside_a_run_is_refused_rather_than_dropped(self, game):
        result = game(3, 1)
        inside = next(i for i, (record, following) in enumerate(zip(result.log, result.log[1:]))
                      if record.kind == following.kind == "rule1"
                      and following.positions[0] == (record.positions[0][0] + 1,
                                                     record.positions[0][1])) + 1
        moved = GameResult(*result, phases=(("inside", result.initial, inside),))
        with pytest.raises(AssertionError, match=rf"^phase snapshots inside a run of moves, "
                                                 rf"after \[{inside}\]$"):
            emit_json_lines(moved)

    @pytest.mark.parametrize("case", ["split-first", "split-last", "merged"])
    def test_a_run_split_or_merged_by_hand_is_refused_by_its_path(self, game, case):
        # in version 6's form; version 7's is in TestKeyedMoves
        doc = json.loads(written(game(3, 1), 6))
        run, following = doc["moves"][13:15]
        assert (run["kind"], run["positions"], run["count"]) == ("rule1", [[-1, 5], [-2, 6]], 3)
        assert (following["kind"], following["positions"], following["count"]) == (
            "rule1", [[0, 4], [-1, 5]], 2)
        lone = {key: value for key, value in run.items() if key != "count"}
        shifted = [[x + 1, y] for x, y in run["positions"]]
        if case == "split-first":  # a lone move, then a run of two
            entries = [{**lone, "oracle": run["oracle"][0]},
                       {**run, "positions": shifted, "oracle": run["oracle"][1:], "count": 2}]
            refusal = r"moves\[13\] has keys \[.*'oracle'\] but the replayed game writes \[.*'count'\]"
        elif case == "split-last":  # a run of two, then a lone move
            entries = [{**run, "oracle": run["oracle"][:2], "count": 2},
                       {**lone, "positions": [[x + 1, y] for x, y in shifted],
                        "oracle": run["oracle"][2]}]
            refusal = r"moves\[13\]\.oracle has 2 entries but the replayed game writes 3"
        else:  # with the run that follows it, which starts a row below
            entries = [{**run, "oracle": run["oracle"] + following["oracle"], "count": 5}]
            refusal = (r"the moves do not replay from the initial board: rule1: .* "
                       r"at moves\[13\]")
        doc["moves"][13:15] = entries + ([following] if case != "merged" else [])
        with pytest.raises(ValueError, match=f"^{refusal}$"):
            parse_game_result(json.dumps(doc))

    @pytest.mark.parametrize("count, oracle, refusal", [
        (0, None, "moves[13].count must be >= 2, got 0"),
        (1, None, "moves[13].count must be >= 2, got 1"),
        (True, None, "moves[13].count must be an int, got True"),
        ("2", None, "moves[13].count must be an int, got '2'"),
        (10**12, None, "moves[13].oracle has 3 entries but moves[13].count is 1000000000000"),
        (3, 2, "moves[13].oracle has 2 entries but moves[13].count is 3"),
        (3, 4, "moves[13].oracle has 4 entries but moves[13].count is 3"),
        (3, 5, "moves[13].oracle must be a list, got 5")],
        ids=["zero", "one", "bool", "str", "10**12", "oracle-short", "oracle-long",
             "oracle-int"])
    def test_a_bad_count_is_refused_before_any_move_is_played(self, game, monkeypatch, count,
                                                              oracle, refusal):
        # in version 6's form; version 7's is in TestKeyedMoves
        doc = json.loads(written(game(3, 1), 6))
        run = doc["moves"][13]
        run["count"] = count
        if type(oracle) is int and oracle < 5:
            run["oracle"] = (run["oracle"] * 2)[:oracle]
        elif oracle is not None:
            run["oracle"] = oracle

        def played(*args):
            raise AssertionError("a move was played")
        monkeypatch.setattr(games_module, "play", played)
        with deadline(1), pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
            parse_game_result(json.dumps(doc))


class TestKeyedMoves:
    """Version 7 writes each move entry as an object of one key, its kind,
    holding ``[positions, params, oracle]``, a run's oracles listed and its
    count last, and the params as values in ``MOVES[kind].params`` order."""

    @pytest.mark.parametrize("mode", ["fibration", "flip"])
    @pytest.mark.parametrize("eps", [0, 1])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_each_entry_holds_what_version_6_writes(self, game, n, eps, mode):
        result = game(n, eps, mode)
        keyed = json.loads(written(result, 7))["moves"]
        named = json.loads(written(result, 6))["moves"]
        assert all(type(e) is dict and len(e) == 1 and set(e) <= set(MOVES) for e in keyed)
        assert [entry_fields(e) for e in keyed] == [entry_fields(e) for e in named]
        assert len(written(result, 7)) < len(written(result, 6))

    def test_an_optional_param_left_out_is_read_as_absent(self, game):
        # the flip game opens with a twist that writes its note; left out, the
        # twist is played without one, as version 6 reads params without "note"
        doc = json.loads(game_result_to_json(game(3, 1, "flip")))
        assert doc["moves"][0] == {"global_twist": [[], [2, 6, "normalize-flip-start"], []]}
        doc["moves"][0]["global_twist"][1].pop()
        parsed = parse_game_result(json.dumps(doc))
        assert parsed.log[0].params == (("dx", 2), ("dy", 6))
        assert game_result_to_json(parsed) == dumps(doc)

    @pytest.mark.parametrize("i, entry, refusal", [
        (3, [[], [5, "left", 4], []],
         "moves[3] must be an object of one key, a move kind, got [[], [5, 'left', 4], []]"),
        (3, {}, "moves[3] must be an object of one key, a move kind, got {}"),
        (3, {"serre_translate": [[], [5, "left", 4], []], "rule1": [[], [], []]},
         "moves[3] must be an object of one key, a move kind, got {'serre_translate': "
         "[[], [5, 'left', 4], []], 'rule1': [[], [], []]}"),
        (3, {"kind": "serre_translate", "positions": [], "params": {"y": 5}, "oracle": []},
         "moves[3] must be an object of one key, a move kind, got {'kind': 'serre_translate', "
         "'positions': [], 'params': {'y': 5}, 'oracle': []}"),
        (3, {"serre_translates": [[], [5, "left", 4], []]},
         "moves[3] must be an object of one key, a move kind, got {'serre_translates': "
         "[[], [5, 'left', 4], []]}"),
        (3, {"serre_translate": {}}, "moves[3].serre_translate must be a list, got {}"),
        (3, {"serre_translate": [[], [5, "left", 4]]},
         "moves[3].serre_translate must have 3 or 4 entries, got 2"),
        (3, {"serre_translate": [[], [5, "left", 4], [], 2, 0]},
         "moves[3].serre_translate must have 3 or 4 entries, got 5"),
        (3, {"serre_translate": [[], [5, "left", 4, 1], []]},
         "moves[3].serre_translate[1] has 4 values but serre_translate takes "
         "['y', 'direction', 'steps']"),
        (3, {"serre_translate": [[], [5, "left"], []]},
         "moves[3].serre_translate[1] has 2 values but serre_translate takes "
         "['y', 'direction', 'steps']"),
        (5, {"rule1": [[[-1, 4], [-2, 5]], [0], []]},
         "moves[5].rule1[1] has 1 values but rule1 takes []"),
        (3, {"serre_translate": [[], {"y": 5, "direction": "left", "steps": 4}, []]},
         "moves[3].serre_translate[1] must be a list, got {'y': 5, 'direction': 'left', "
         "'steps': 4}"),
        (13, {"rule1": [[[-1, 5], [-2, 6]], [], [5, 5, 5], 1]},
         "moves[13].rule1[3] must be >= 2, got 1"),
        (13, {"rule1": [[[-1, 5], [-2, 6]], [], [5, 5], 0]},
         "moves[13].rule1[3] must be >= 2, got 0"),
        (13, {"rule1": [[[-1, 5], [-2, 6]], [], [5, 5], True]},
         "moves[13].rule1[3] must be an int, got True"),
        (13, {"rule1": [[[-1, 5], [-2, 6]], [], [5, 5], "2"]},
         "moves[13].rule1[3] must be an int, got '2'"),
        (13, {"rule1": [[[-1, 5], [-2, 6]], [], [5, 5, 5], 10**12]},
         "moves[13].rule1[2] has 3 entries but moves[13].rule1[3] is 1000000000000"),
        (13, {"rule1": [[[-1, 5], [-2, 6]], [], [5, 5], 3]},
         "moves[13].rule1[2] has 2 entries but moves[13].rule1[3] is 3"),
        (13, {"rule1": [[[-1, 5], [-2, 6]], [], [5, 5, 5, 5], 3]},
         "moves[13].rule1[2] has 4 entries but moves[13].rule1[3] is 3"),
        (13, {"rule1": [[[-1, 5], [-2, 6]], [], 5, 3]}, "moves[13].rule1[2] must be a list, got 5")],
        ids=["array", "empty-object", "two-kinds", "version-6-object", "unknown-kind",
             "value-object", "two-values", "five-values", "params-one-more", "params-one-short",
             "params-for-none", "params-object", "count-one", "count-zero", "count-bool",
             "count-str", "count-10**12", "oracles-short", "oracles-long", "oracles-int"])
    def test_a_malformed_entry_is_refused_by_its_path_before_any_move_is_played(
            self, game, monkeypatch, i, entry, refusal):
        doc = json.loads(game_result_to_json(game(3, 1)))
        assert [entry_fields(doc["moves"][k])[::4] for k in (3, 5, 13)] == [
            ("serre_translate", None), ("rule1", None), ("rule1", 3)]
        doc["moves"][i] = entry

        def played(*args):
            raise AssertionError("a move was played")
        monkeypatch.setattr(games_module, "play", played)
        with deadline(1), pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
            parse_game_result(json.dumps(doc))

    @pytest.mark.parametrize("version", [7, 8])
    @pytest.mark.parametrize("case", ["split-first", "split-last", "merged"])
    def test_a_run_split_or_merged_by_hand_is_refused_by_its_path(self, game, case, version):
        doc = json.loads(written(game(3, 1), version))
        run, following = doc["moves"][13]["rule1"], doc["moves"][14]["rule1"]
        assert [entry_fields(doc["moves"][k])[1] for k in (13, 14)] == [
            [[-1, 5], [-2, 6]], [[0, 4], [-1, 5]]]
        assert (run[1], run[3], following[1], following[3]) == ([], 3, [], 2)
        positions, params, oracles, _ = run

        def moved(k):  # the run's positions k columns right, in the version's form
            pairs = [[x + k, y] for x, y in entry_fields(doc["moves"][13])[1]]
            return [*itertools.chain(*pairs)] if version == 8 else pairs
        if case == "split-first":  # a lone move, then a run of two
            entries = [[positions, params, oracles[0]], [moved(1), params, oracles[1:], 2]]
            refusal = (r"moves\[13\]\.rule1\[2\] is 5 but the replayed game writes "
                       r"\[5, \[0, 1, 3\], \[0, 3, 5, 6\]\]")
        elif case == "split-last":  # a run of two, then a lone move
            entries = [[positions, params, oracles[:2], 2], [moved(2), params, oracles[2]]]
            refusal = r"moves\[13\]\.rule1\[2\] has 2 entries but the replayed game writes 3"
        else:  # with the run that follows it, which starts a row below
            entries = [[positions, params, oracles + following[2], 5]]
            refusal = (r"the moves do not replay from the initial board: rule1: .* "
                       r"at moves\[13\]")
        doc["moves"][13:15] = [{"rule1": e} for e in entries] + (
            [{"rule1": following}] if case != "merged" else [])
        with pytest.raises(ValueError, match=f"^{refusal}$"):
            parse_game_result(json.dumps(doc))


def flattened(doc: dict) -> dict:
    """A version 7 document as ``render``'s docstring states version 8, with
    no code of the writer's: each entry's positions one flat list of
    coordinates, and each check written out ``[m, x, y, m', x', y']``
    followed by its answer's (degree, dim) pairs, flattened."""
    def check(entry):
        if type(entry) is not list or len(entry) != 3:
            return entry
        source, target, expected = entry
        return [*source, *target, *(v for pair in expected for v in pair)]

    def oracle(o):
        return o if type(o) is int else [check(e) for e in o]
    moves = []
    for move in doc["moves"]:
        ((kind, value),) = move.items()
        positions, params, oracles, *count = value
        oracles = [oracle(o) for o in oracles] if count else oracle(oracles)
        moves.append({kind: [[c for p in positions for c in p], params, oracles, *count]})
    return {**doc, "schema_version": 8, "moves": moves}


class TestFlatChecks:
    """Version 8 writes each new check as one flat list of ints and each
    move's positions as one flat list of coordinates."""

    @pytest.mark.parametrize("validate", [True, False], ids=["validated", "unvalidated"])
    @pytest.mark.parametrize("mode", ["fibration", "flip"])
    @pytest.mark.parametrize("eps", [0, 1])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_each_entry_holds_what_version_7_writes_flattened(self, game, n, eps, mode,
                                                             validate):
        result = game(n, eps, mode, validate)
        current = json.loads(game_result_to_json(result))
        assert current == flattened(json.loads(written(result, 7)))
        assert read_transcripts(current["moves"]) == [r.oracle for r in result.log]
        # each new check is six ints and its answer's pairs; a run [first, count] is two
        for check in written_checks(current["moves"]):
            assert len(check) >= 6 and len(check) % 2 == 0
            assert all(type(v) is int for v in check)

    @pytest.mark.parametrize("version, positions, refusal", [
        (8, [-1, 4, -2], "moves[5].rule1[0] has 3 coordinates, not pairs"),
        (8, [-1], "moves[5].rule1[0] has 1 coordinates, not pairs"),
        (8, {"x": -1}, "moves[5].rule1[0] must be a list, got {'x': -1}"),
        (8, 5, "moves[5].rule1[0] must be a list, got 5"),
        (7, {"x": -1}, "moves[5].rule1[0] must be a list, got {'x': -1}"),
        (7, 5, "moves[5].rule1[0] must be a list, got 5")],
        ids=["three", "one", "object", "int", "version-7-object", "version-7-int"])
    def test_positions_that_are_not_pairs_are_refused_before_any_move_is_played(
            self, game, monkeypatch, version, positions, refusal):
        doc = json.loads(written(game(3, 1), version))
        assert entry_fields(doc["moves"][5])[1] == [[-1, 4], [-2, 5]]
        doc["moves"][5]["rule1"][0] = positions

        def played(*args):
            raise AssertionError("a move was played")
        monkeypatch.setattr(games_module, "play", played)
        with deadline(1), pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
            parse_game_result(json.dumps(doc))

    def test_version_7_positions_in_a_version_8_document_are_refused(self, game):
        doc = json.loads(game_result_to_json(game(3, 1)))
        doc["moves"][5]["rule1"][0] = [[-1, 4], [-2, 5]]
        with pytest.raises(ValueError, match=r"^the moves do not replay from the initial "
                                             r"board: rule1 takes 2 positions, got 1 at moves\[5\]$"):
            parse_game_result(json.dumps(doc))

    @pytest.mark.parametrize("edit, refusal", [
        (lambda c: c.append(1), r"\[0\] has 7 entries but the replayed game writes 6"),
        (lambda c: c.pop(), r"\[0\] has 5 entries but the replayed game writes 6"),
        (lambda c: c.extend([1, 1, 1]), r"\[0\] has 9 entries but the replayed game writes 6"),
        (lambda c: c.__setitem__(0, False), r"\[0\]\[0\] is False but the replayed game writes 0"),
        (lambda c: c.__setitem__(5, True), r"\[0\]\[5\] is True but the replayed game writes 1"),
        (lambda c: c.__setitem__(4, -1.0), r"\[0\]\[4\] is -1.0 but the replayed game writes -1"),
        (lambda c: c.__setitem__(slice(None), [[0, 2, 0], [0, -1, 1], []]),
         r"\[0\]\[0\] is \[0, 2, 0\] but the replayed game writes 0"),
        (lambda c: c.__setitem__(slice(None), [0, 2, 0, 0, -1, 1, [1, 1]]),
         r"\[0\] has 7 entries but the replayed game writes 6")],
        ids=["odd-one-more", "odd-one-short", "odd-three-more", "bool-false", "bool-true",
             "float", "version-7-triple", "nested-answer"])
    def test_a_malformed_check_is_refused_by_its_path(self, game, edit, refusal):
        doc = json.loads(game_result_to_json(game(3, 1, validate=True)))
        check = doc["moves"][5]["rule1"][2][0]
        assert check == [0, 2, 0, 0, -1, 1]
        edit(check)
        with pytest.raises(ValueError, match=rf"^moves\[5\]\.rule1\[2\]{refusal}$"):
            parse_game_result(json.dumps(doc))

    def test_a_check_answer_changed_is_refused_by_its_path(self, game):
        doc = json.loads(game_result_to_json(game(3, 1, validate=True)))
        check = doc["moves"][5]["rule1"][2][3]
        assert check == [0, 1, 0, 0, -1, 1, 1, 1]
        check[7] = 7
        with pytest.raises(ValueError, match=r"^moves\[5\]\.rule1\[2\]\[3\]\[7\] is 7 but the "
                                             r"replayed game writes 1$"):
            parse_game_result(json.dumps(doc))

    # The bytes ``game --validate`` prints: the eight documents of the benchmark's
    # game-validated workload (mean 10,680 B; 11,822.5 B in version 7) and the
    # n = 16, eps = 1 document that CI gates at 25,000 B.  A writer change that
    # moves a size updates these in the same change and says why.
    BYTES = {(8, 0, "json"): 4865, (8, 0, "json-lines"): 8676,
             (8, 1, "json"): 5703, (8, 1, "json-lines"): 10299,
             (12, 0, "json"): 9907, (12, 0, "json-lines"): 15940,
             (12, 1, "json"): 11451, (12, 1, "json-lines"): 18599,
             (16, 1, "json"): 19191}

    @pytest.mark.parametrize("n, eps, fmt", sorted(BYTES))
    def test_a_validated_document_has_its_pinned_size(self, capsys, n, eps, fmt):
        _, out, _ = run_cli(capsys, "game", "--n", str(n), "--eps", str(eps), "--validate",
                            "--emit", fmt)
        assert len(out.encode()) == self.BYTES[n, eps, fmt]

    def test_a_version_8_check_in_a_version_7_document_is_refused(self, game):
        doc = json.loads(written(game(3, 1, validate=True), 7))
        assert doc["moves"][5]["rule1"][2][0] == [[0, 2, 0], [0, -1, 1], []]
        doc["moves"][5]["rule1"][2][0] = [0, 2, 0, 0, -1, 1]
        with pytest.raises(ValueError, match=r"^moves\[5\]\.rule1\[2\]\[0\]\[0\] is 0 but the "
                                             r"replayed game writes \[0, 2, 0\]$"):
            parse_game_result(json.dumps(doc))


class TestReplayedChecks:
    """A document that records oracle checks is replayed with the oracle, so
    each check is asked again and none is taken as written."""

    @staticmethod
    def document(game, version: int = SCHEMA_VERSION) -> dict:
        return json.loads(written(game(3, 1, validate=True), version))

    @staticmethod
    def first_written(doc: dict) -> dict | list:
        return written_checks(doc["moves"])[0]

    def refused(self, doc: dict, path: str) -> None:
        with pytest.raises(ValueError, match=rf"^{path}.* (is|has) .* but the replayed game "
                                             "writes"):
            parse_game_result(json.dumps(doc))

    def test_a_check_forged_with_its_own_answer_is_refused(self, game):
        doc = self.document(game, 3)
        self.first_written(doc).update(expected=[[0, 7]], got=[[0, 7]])
        self.refused(doc, r"moves\[\d+\]\.oracle\[\d+\]\.expected")
        doc = self.document(game, 7)
        self.first_written(doc)[2] = [[0, 7]]
        self.refused(doc, rf"{AT_ORACLE}\[\d+\]\[2\]")
        doc = self.document(game)  # version 8: the answer's pairs follow the six ints
        self.first_written(doc).extend([0, 7])
        self.refused(doc, rf"{AT_ORACLE}\[\d+\]")

    def test_a_forged_source_is_refused(self, game):
        for version, key, field in ((3, "source", r"\.source"), (4, 0, r"\[0\]")):
            doc = self.document(game, version)
            self.first_written(doc)[key] = [0, 99, 0]
            self.refused(doc, rf"moves\[\d+\]\.oracle\[\d+\]{field}")
        doc = self.document(game)  # version 8: the source's x is the check's second int
        self.first_written(doc)[1] = 99
        self.refused(doc, rf"{AT_ORACLE}\[\d+\]\[1\]")

    def test_two_swapped_checks_are_refused(self, game):
        for version in (3, 4):
            doc = self.document(game, version)
            oracle = next(m["oracle"] for m in doc["moves"] if type(m["oracle"]) is list
                          and sum(map(is_check, m["oracle"])) >= 2)
            j, k = [j for j, e in enumerate(oracle) if is_check(e)][:2]
            oracle[j], oracle[k] = oracle[k], oracle[j]
            self.refused(doc, rf"moves\[\d+\]\.oracle\[{j}\](\.|\[)")

    def test_a_dropped_check_is_refused(self, game):
        doc = self.document(game)
        path, holder, key = [(path, holder, key) for path, holder, key in oracle_sites(doc["moves"])
                             if type(holder[key]) is list and holder[key]][-1]
        holder[key].pop()
        self.refused(doc, re.escape(path))

    @staticmethod
    def past_the_bound(game, validate: bool) -> str:
        """An n = 2 game's document with ``params.n`` set to 10**6."""
        doc = json.loads(game_result_to_json(game(2, 0, validate=validate)))
        assert any(holder[key] for _, holder, key in oracle_sites(doc["moves"])) == validate
        doc["params"]["n"] = 10**6
        return dumps(doc)

    def test_checks_at_an_n_past_the_bound_are_refused_before_the_replay(self, game):
        # replayed, the checks would ask the oracle at N = 2 * 10**6
        text = self.past_the_bound(game, validate=True)
        assert len(text) < 4000
        start = time.perf_counter()
        with pytest.raises(ValueError, match=rf"^params\.n must be <= {MAX_n}, got 1000000$"):
            parse_game_result(text)
        assert time.perf_counter() - start < 1

    def test_an_unvalidated_document_at_an_n_past_the_bound_is_refused_before_any_board(
            self, game):
        # its start board would hold N(N - 2), about 4 * 10**12, boxes
        text = self.past_the_bound(game, validate=False)
        assert len(text) < 4000
        start = time.perf_counter()
        with pytest.raises(ValueError, match=rf"^params\.n must be <= {MAX_n}, got 1000000$"):
            parse_game_result(text)
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("boxes, kind, refusal", [
        # two grade-10**7 blocks, transposed: Hom alone has 10**7 + 1 pieces
        ([(0, 0, 10**7), (1, 0, 10**7)], "transpose", "m must be <= 200, got 10000000"),
        # a grade-0 block absorbing a grade 10**9 - 1 block: lemma A4 at t = 10**9
        ([(0, 0, 0), (-(10**9) - 1, 1, 10**9 - 1)], "absorb", "m must be <= 200, got 999999999"),
    ])
    def test_a_check_past_the_oracle_bounds_is_refused_before_the_oracle(
            self, monkeypatch, boxes, kind, refusal):
        # grades on a replayed game's boards stay below n, so no document
        # holds these blocks; the validated move itself refuses them
        initial = Board(3, 1, tuple(Box(x, y, SymBlock(m)) for x, y, m in boxes))
        positions = tuple((x, y) for x, y, _ in boxes)

        def refuse(source, target):
            raise AssertionError("the oracle was asked")
        monkeypatch.setattr(board_module, "ext_on_M", refuse)
        start = time.perf_counter()
        with pytest.raises(MoveRefused, match=f"^{re.escape(f'{kind}: {refusal}')}$"):
            play(initial, kind, positions, {}, True)
        assert time.perf_counter() - start < 1

    def test_a_replayed_twist_past_the_oracle_bounds_is_refused_before_the_oracle(
            self, monkeypatch):
        # on the n=3, eps=1 start board row 2 fills x = -2..4; 10**9 left
        # steps wrap its boxes by N = 7 and leave its first at x = -(10**9) - 2
        doc = json.loads(game_result_to_json(run_game(3, 1, validate=False)))
        doc["moves"] = [{"serre_translate": [[], [2, "left", 10**9], []]},
                        {"transpose": [[3, 1, -(10**9) - 2, 2], [], 0]}]

        def refuse(source, target):
            raise AssertionError("the oracle was asked")
        monkeypatch.setattr(board_module, "ext_on_M", refuse)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=re.escape(
                "the moves do not replay from the initial board: transpose: "
                "|x| must be <= 1000000000, got -1000000005 at moves[1]")):
            parse_game_result(json.dumps(doc))
        assert time.perf_counter() - start < 1

    def test_bytes_parse_as_their_text(self):
        text = game_result_to_json(run_game(3, 1, validate=False))
        for encoding in ("utf-8", "utf-16"):
            assert game_result_to_json(parse_game_result(text.encode(encoding))) == text

    def test_a_document_without_checks_is_replayed_without_the_oracle(self, monkeypatch):
        text = game_result_to_json(run_game(3, 1, validate=False))

        def refuse(source, target):
            raise AssertionError("the oracle was asked")
        monkeypatch.setattr(board_module, "ext_on_M", refuse)
        assert game_result_to_json(parse_game_result(text)) == text


class TestRendering:
    def board(self):
        return Board(2, 0, (
            Box(1, 1, SymBlock(0)),
            Box(2, 1, SymBlock(2)),
            Box(1, 2, Opaque()),
        ))

    def test_ascii_grid(self):
        assert render_ascii(self.board()) == (
            "x: 0..2\n"
            "y=  0 | [·]\n"
            "y=  1 |       0   2\n"
            "y=  2 |       x"
        )

    def test_ascii_marks_an_occupied_origin(self):
        board = Board(2, 0, (Box(0, 0, SymBlock(3)),))
        assert render_ascii(board) == "x: 0..0\ny=  0 | [3]"

    def test_ascii_empty_board(self):
        assert render_ascii(Board(2, 0, ())) == ""

    def test_latex_grid(self):
        tex = render_latex(self.board())
        assert tex.startswith("\\begin{ytableau}")
        assert tex.endswith("\\end{ytableau}")
        assert "*(lightgray) \\none" in tex  # empty origin cell
        assert "\\none & 0 & 2 \\\\" in tex
        assert "\\times" in tex


PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


class TestConsoleScript:
    @pytest.mark.skipif(
        shutil.which("flagchess") is None,
        reason="no flagchess console script on PATH; install one with "
               "pip install -e . --no-build-isolation")
    def test_installed_entry_point(self):
        proc = subprocess.run(
            ["flagchess", "degree", "--n", "2", "--eps", "0"],
            capture_output=True, text=True,
        )
        assert proc.returncode == EXIT_OK
        assert "series expansion: 5" in proc.stdout

    def test_declared_entry_point_runs_like_the_wrapper(self):
        tomllib = pytest.importorskip("tomllib")
        with PYPROJECT.open("rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts == {"flagchess": "flagchess.cli:main"}
        module, _, func = scripts["flagchess"].partition(":")
        # what a generated console-script wrapper does with the target
        wrapper = (f"import sys; from {module} import {func}; "
                   f"sys.argv[0] = 'flagchess'; sys.exit({func}())")
        proc = subprocess.run(
            [sys.executable, "-c", wrapper, "degree", "--n", "2", "--eps", "0"],
            capture_output=True, text=True,
        )
        assert proc.returncode == EXIT_OK
        assert "series expansion: 5" in proc.stdout

    def test_main_given_argv_leaves_the_collector_as_it_was(self, capsys):
        before = (gc.get_freeze_count(), gc.isenabled(), gc.get_threshold())
        assert main(["degree", "--n", "2", "--eps", "0"]) == EXIT_OK
        assert (gc.get_freeze_count(), gc.isenabled(), gc.get_threshold()) == before
        assert "series expansion: 5" in capsys.readouterr().out

    def test_main_as_the_program_freezes_the_import_time_objects(self):
        script = ("import gc, os, sys\n"
                  "from flagchess.cli import main\n"
                  "frozen = gc.get_freeze_count()\n"
                  "sys.argv = ['flagchess', 'degree', '--n', '2', '--eps', '0',"
                  " '--output', os.devnull]\n"
                  "print(main(), frozen, gc.get_freeze_count() > 0)")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"{EXIT_OK} 0 True\n", "")

    def test_module_invocation_matches(self):
        proc = subprocess.run(
            [sys.executable, "-m", "flagchess.cli", "degree",
             "--n", "2", "--eps", "0"],
            capture_output=True, text=True,
        )
        assert proc.returncode == EXIT_OK
