"""Command-line surface: exit codes, emit formats, and the wire schema."""
from __future__ import annotations

import copy
import errno
import io
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from flagchess import (INDETERMINATE, Board, Box, GameResult, LemmaPoint, LemmaReport, MoveRefused,
                       Opaque, OracleCheck, SymBlock, cli, play, render, replay, run_game)
from flagchess import board as board_module, games
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
        code, _, err = run_cli(capsys, "game", "--n", "1", "--eps", "0")
        assert code == EXIT_USAGE and "n >= 2" in err
        code, _, err = run_cli(capsys, "bwb", "--N", "2", "--x", "0", "--y", "0")
        assert code == EXIT_USAGE
        # argparse validates --emit choices itself and exits
        with pytest.raises(SystemExit) as exc:
            main(["game", "--n", "2", "--eps", "0", "--emit", "yaml"])
        assert exc.value.code == EXIT_USAGE
        assert "emit" in capsys.readouterr().err

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
        assert err.endswith(f"symmetric power must be >= 0, got {m}\n")

    @pytest.mark.parametrize("argv, refusal", [
        (("game", "--n", str(MAX_GAME_n + 1), "--eps", "0", "--validate", "--emit", "json"),
         f"need n <= {MAX_GAME_n}, got {MAX_GAME_n + 1}"),
        (("lemma", "--which", "A6", "--n", str(MAX_n + 1), "--eps", "1"),
         f"need n <= {MAX_n}, got {MAX_n + 1}"),
        (("degree", "--n", str(MAX_n + 1), "--eps", "0"), f"need n <= {MAX_n}, got {MAX_n + 1}"),
        (("conditions", "--n", str(MAX_n + 1), "--eps", "1"),
         f"need n <= {MAX_n}, got {MAX_n + 1}"),
        (("bwb", "--N", str(MAX_N + 1), "--x", "0", "--y", "0"),
         f"need N <= {MAX_N}, got {MAX_N + 1}"),
        (("cohom", "--N", str(MAX_N + 1), "--m", "0", "--x", "0", "--y", "0"),
         f"need N <= {MAX_N}, got {MAX_N + 1}"),
        (("cohom", "--N", "5", "--m", str(MAX_m + 1), "--x", "0", "--y", "0"),
         f"symmetric power must be <= {MAX_m}, got {MAX_m + 1}"),
        (("ext", "--N", str(MAX_N + 1), "--space", "M", "--src=0,0,0", "--tgt=0,0,0"),
         f"need N <= {MAX_N}, got {MAX_N + 1}"),
        (("ext", "--N", "5", "--space", "M", f"--src={MAX_m + 1},0,0", "--tgt=0,0,0"),
         f"argument --src: symmetric power must be <= {MAX_m}, got {MAX_m + 1}"),
        (("ext", "--N", "5", "--space", "flag", "--src=0,0,0", f"--tgt={MAX_m + 1},1,0"),
         f"argument --tgt: symmetric power must be <= {MAX_m}, got {MAX_m + 1}"),
        (("bwb", "--N", str(MAX_N), "--x", str(MAX_twist + 1), "--y", "0"),
         f"need |x| <= {MAX_twist}, got {MAX_twist + 1}"),
        (("cohom", "--N", str(MAX_N), "--m", "0", "--x", "0", "--y", str(-MAX_twist - 1)),
         f"need |y| <= {MAX_twist}, got {-MAX_twist - 1}"),
        (("ext", "--N", str(MAX_N), "--space", "M", f"--src=0,{-MAX_twist - 1},0",
          "--tgt=0,0,0"), f"argument --src: need |x| <= {MAX_twist}, got {-MAX_twist - 1}"),
        (("ext", "--N", str(MAX_N), "--space", "flag", "--src=0,0,0", f"--tgt=0,0,{10**24}"),
         f"argument --tgt: need |y| <= {MAX_twist}, got {10**24}"),
    ], ids=["game-n", "lemma-n", "degree-n", "conditions-n", "bwb-N", "cohom-N", "cohom-m",
            "ext-N", "ext-src-m", "ext-tgt-m", "bwb-x", "cohom-y", "ext-src-x", "ext-tgt-y"])
    def test_sizes_past_their_bound_are_usage(self, capsys, argv, refusal):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert code == EXIT_USAGE and out == ""
        assert err == f"flagchess: error: {refusal}\n"

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
        assert kinds.count("move") == 15
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
        # only the ints 1 and 2 are versions: a bool or a float that equals one is not
        doc = json.loads(game_result_to_json(game(2, 1)))
        for version in (99, 0, 3, True, 1.0, 2.0, "1"):
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

    @pytest.mark.parametrize("board, value", [
        ("initial", 999), ("final", 14), ("final", 15.0)])
    def test_false_copy_totals_raise_value_error(self, game, board, value):
        doc = json.loads(game_result_to_json(game(2, 1)))
        assert doc["initial"]["copies"] == doc["final"]["copies"] == 15
        doc[board]["copies"] = value
        with pytest.raises(ValueError, match=f"{board}.copies is"):
            parse_game_result(json.dumps(doc))

    @staticmethod
    def edited(game, edit):
        doc = json.loads(game_result_to_json(game(2, 1)))
        edit(doc)
        return json.dumps(doc)

    @pytest.mark.parametrize("board", ["initial", "final"])
    @pytest.mark.parametrize("axis, value", [("x", "0"), ("y", "0"), ("x", True),
                                             ("y", 1.0)])
    def test_box_positions_must_be_ints(self, game, board, axis, value):
        # both boards are what the game, started and replayed, writes
        def edit(doc):
            doc[board]["boxes"][0][axis] = value
        with pytest.raises(ValueError, match=rf"^{board}\.boxes\[0\]\.{axis} is {value!r} but "
                                             "the replayed game writes"):
            parse_game_result(self.edited(game, edit))

    @pytest.mark.parametrize("value", ["1", True, 1.0, -1, None])
    def test_sym_grades_must_be_ints_at_least_zero(self, game, value):
        def edit(doc):
            box = next(b for b in doc["initial"]["boxes"] if b["content"]["kind"] == "sym")
            box["content"]["m"] = value
        with pytest.raises(ValueError, match=rf"^initial\.boxes\[0\]\.content\.m is {value!r} "
                                             "but the replayed game writes 0$"):
            parse_game_result(self.edited(game, edit))

    @pytest.mark.parametrize("value", [0, -1, True, 1.0, "1"])
    def test_opaque_copies_must_be_ints_at_least_one(self, game, value):
        def edit(doc):
            box = next(b for b in doc["final"]["boxes"] if b["content"]["kind"] == "opaque")
            doc["final"]["copies"] += (value if type(value) is int else 0) - box["content"]["copies"]
            box["content"]["copies"] = value
        with pytest.raises(ValueError, match=r"^final\.boxes\[\d+\]\.content\.copies is "
                                             r".* but the replayed game writes 1$"):
            parse_game_result(self.edited(game, edit))

    def test_an_unknown_content_kind_raises_value_error(self, game):
        def edit(doc):
            doc["initial"]["boxes"][0]["content"]["kind"] = "zzz"
        with pytest.raises(ValueError, match=r"^initial\.boxes\[0\]\.content\.kind is 'zzz' but "
                                             "the replayed game writes 'sym'$"):
            parse_game_result(self.edited(game, edit))

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

    def test_gr2_boxes_must_be_on_the_final_board(self, game):
        def off_board(doc):
            doc["gr2"]["boxes"][0].update(x=99, y=99)

        def wrong_content(doc):
            doc["gr2"]["boxes"][0]["content"]["m"] += 1
        for edit in (off_board, wrong_content):
            with pytest.raises(ValueError, match=r"^gr2\.boxes\[0\]\.(x|content\.m) is \d+ but "
                                                 r"the replayed game writes \d+$"):
                parse_game_result(self.edited(game, edit))

    def test_gr2_boxes_must_not_repeat(self, game):
        # a repeated box would count its copies twice in the column
        def repeated(doc):
            doc["gr2"]["boxes"].append(doc["gr2"]["boxes"][0])
        with pytest.raises(ValueError, match="^gr2.boxes has 6 entries but the replayed game "
                                             "writes 5$"):
            parse_game_result(self.edited(game, repeated))

    @staticmethod
    def first_check(doc):
        return next(c for m in doc["moves"] for c in m["oracle"])

    @pytest.mark.parametrize("value", ["refused", "", None, 7])
    def test_move_verdicts_must_be_applied(self, game, value):
        def edit(doc):
            doc["moves"][0]["verdict"] = value
        with pytest.raises(ValueError, match=rf"^moves\[0\]\.verdict is {value!r} but the "
                                             "replayed game writes 'applied'$"):
            parse_game_result(self.edited(game, edit))

    @pytest.mark.parametrize("key", ["copies_before", "copies_after"])
    @pytest.mark.parametrize("value", [14, 16, 15.0, "15"])
    def test_move_copy_totals_must_match_the_boards(self, game, key, value):
        def edit(doc):
            doc["moves"][-1][key] = value
        with pytest.raises(ValueError, match=rf"^moves\[\d+\]\.{key} is {value!r} but the "
                                             "replayed game writes 15$"):
            parse_game_result(self.edited(game, edit))

    @pytest.mark.parametrize("value", ["flag", "m", None])
    def test_oracle_space_must_be_m(self, game, value):
        def edit(doc):
            self.first_check(doc)["space"] = value
        with pytest.raises(ValueError, match=rf"\.oracle\[\d+\]\.space is {value!r} but the "
                                             "replayed game writes 'M'$"):
            parse_game_result(self.edited(game, edit))

    @pytest.mark.parametrize("end", ["source", "target"])
    @pytest.mark.parametrize("value", [[0, 1], [0, 1, 2, 3], [0, 1, 2.0], [0, True, 2],
                                       "0,1,2", None])
    def test_oracle_ends_must_be_three_ints(self, game, end, value):
        def edit(doc):
            self.first_check(doc)[end] = value
        with pytest.raises(ValueError, match=rf"^moves\[\d+\]\.oracle\[\d+\]\.{end}(\[\d\])? "
                                             "(is|has) .* but the replayed game writes"):
            parse_game_result(self.edited(game, edit))

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
            parse_game_result(self.edited(game, edit))

    @pytest.mark.parametrize("got", [[[0, 7]], "zzz", "indeterminate"])
    def test_applied_moves_hold_no_failed_check(self, game, got):
        def edit(doc):
            check = self.first_check(doc)
            check["got"], check["ok"] = got, False
        with pytest.raises(ValueError, match=r"^moves\[\d+\]\.oracle\[\d+\]\.got (is|has) .* but "
                                             r"the replayed game writes (\[\]|0)$"):
            parse_game_result(self.edited(game, edit))

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
            parse_game_result(self.edited(game, edit))

    @pytest.mark.parametrize("field", ["moves", "initial.boxes", "final.boxes", "gr2.boxes",
                                       "move positions", "oracle expected", "oracle got"])
    def test_lists_must_not_be_objects(self, game, field):
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
                 else rf"^{field} is {{}} but the replayed game writes \[{{'x': ")
        with pytest.raises(ValueError, match=match):
            parse_game_result(self.edited(game, edit))

    @pytest.mark.parametrize("value", ["abc", True, -4, None, 1.5])
    def test_residual_count_must_be_an_int_at_least_zero(self, game, value):
        def edit(doc):
            doc["residual_f_count"] = value
        with pytest.raises(ValueError, match="residual_f_count must be an int >= 0"):
            parse_game_result(self.edited(game, edit))

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

    def test_initial_and_final_copies_must_agree(self, game):
        # the final board is the replayed one, so its totals cannot drift
        def edit(doc):
            column = {(b["x"], b["y"]) for b in doc["gr2"]["boxes"]}
            box = next(b for b in doc["final"]["boxes"] if b["content"]["kind"] == "sym"
                       and (b["x"], b["y"]) not in column)
            box["content"]["m"] += 1
            doc["final"]["copies"] += 1
        with pytest.raises(ValueError, match=r"^final\.boxes\[\d+\]\.content\.m is \d+ but "
                                             r"the replayed game writes \d+$"):
            parse_game_result(self.edited(game, edit))

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

    def test_replay_rejects_mistyped_move_parameters(self, game):
        doc = json.loads(game_result_to_json(game(2, 1)))
        assert doc["moves"][0]["params"] == {"y": 2, "direction": "left", "steps": 1}
        for name, value in (("steps", "1"), ("steps", True), ("y", [2])):
            bad = copy.deepcopy(doc)
            bad["moves"][0]["params"][name] = value
            # the parser replays the log, so the refusal comes from parsing
            with pytest.raises(ValueError, match="^the moves do not replay from the initial "
                                                 f"board: .*parameter {name} must be int"):
                parse_game_result(json.dumps(bad))

    def test_moves_that_do_not_lead_to_the_final_board_are_refused(self, game):
        doc = json.loads(game_result_to_json(game(2, 1)))
        for moves in ([], doc["moves"][:-1]):
            bad = copy.deepcopy(doc)
            bad["moves"] = moves
            with pytest.raises(ValueError, match=r"^final\.boxes\[\d+\]\..* but the "
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

    @pytest.mark.parametrize("where", ["top level", "move"])
    def test_an_unknown_key_is_refused(self, game, where):
        def edit(doc):
            (doc if where == "top level" else doc["moves"][0])["note"] = "x"
        path, last = (("the document", "flags") if where == "top level"
                      else (r"moves\[0\]", "copies_after"))
        with pytest.raises(ValueError, match=rf"^{path} has keys \[.*'{last}', 'note'\] but the "
                                             rf"replayed game writes \[.*'{last}'\]$"):
            parse_game_result(self.edited(game, edit))

    def test_reordered_box_keys_are_refused(self, game):
        def edit(doc):
            box = doc["initial"]["boxes"][0]
            doc["initial"]["boxes"][0] = {"y": box["y"], "x": box["x"], "content": box["content"]}
        with pytest.raises(ValueError, match=r"^initial\.boxes\[0\] has keys \['y', 'x', "
                                             r"'content'\] but the replayed game writes "
                                             r"\['x', 'y', 'content'\]$"):
            parse_game_result(self.edited(game, edit))

    def test_a_moved_initial_box_is_refused(self):
        # every move still replays with the box at (1, 1) moved to (2, 1),
        # but the start board is derived from the params, never read
        start = games._start_board(2, 0, "fibration")
        assert start.boxes[3].pos == (1, 1) and start.at((2, 1)) is None
        initial = Board(2, 0, (*start.boxes[:3], Box(2, 1, start.boxes[3].content),
                               *start.boxes[4:]))
        log = run_game(2, 0, validate=False).log
        text = game_result_to_json(games._finish("fibration", initial, replay(initial, log), log))
        with pytest.raises(ValueError, match=r"^initial\.boxes\[3\]\.x is 2 but the replayed "
                                             "game writes 1$"):
            parse_game_result(text)

    def test_json_lines_matches_the_log_length(self, game):
        result = game(2, 0)
        lines = emit_json_lines(result)
        records = [json.loads(line) for line in lines]
        moves = [r for r in records if r["record"] == "move"]
        assert len(moves) == len(result.log)
        assert [m["kind"] for m in moves] == [r.kind for r in result.log]


class TestOracleReferences:
    """Version 2 writes each distinct oracle check and transcript once."""

    V1 = Path(__file__).with_name("game_n3_eps1_v1.json")
    ARGV = ("game", "--n", "3", "--eps", "1", "--validate", "--emit")

    def test_a_version_1_document_parses_as_its_version_2_form(self, capsys):
        v1 = self.V1.read_text()
        _, v2, _ = run_cli(capsys, *self.ARGV, "json")
        _, stream, _ = run_cli(capsys, *self.ARGV, "json-lines")
        assert json.loads(v1)["schema_version"] == 1
        assert json.loads(v2)["schema_version"] == SCHEMA_VERSION == 2
        expected = parse_game_result(v1)
        assert parse_game_result(v2) == expected
        assert parse_game_result(json.dumps(rebuilt_document(stream))) == expected
        assert len(v2) < len(v1)

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
        doc = json.loads(game_result_to_json(game(3, 1, validate=True)))
        checks = [e for m in doc["moves"] if type(m["oracle"]) is list
                  for e in m["oracle"] if type(e) is dict]
        i, j, _ = next(site for site in self.reference_sites(doc["moves"]) if site[1] is not None)
        number = doc["moves"][i]["oracle"][j]
        doc["moves"][i]["oracle"][j] = checks[number]
        with pytest.raises(ValueError, match=rf"^moves\[{i}\]\.oracle\[{j}\] is \{{'source': \["
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
        moves = json.loads(game_result_to_json(result))["moves"]
        written = [e for m in moves if type(m["oracle"]) is list
                   for e in m["oracle"] if type(e) is dict]
        assert len(written) == len({c for r in result.log for c in r.oracle})
        listed = [r.oracle for r, m in zip(result.log, moves)
                  if r.oracle and type(m["oracle"]) is list]
        assert len(listed) == len(set(listed)) == len({r.oracle for r in result.log} - {()})
        for record, move in zip(result.log, moves):
            if type(move["oracle"]) is int:
                assert result.log[move["oracle"]].oracle == record.oracle

    @staticmethod
    def reference_sites(moves: list) -> list[tuple[int, int | None, int]]:
        """Each reference as (move, entry or None for a transcript reference,
        checks defined before it)."""
        sites, defined = [], 0
        for i, move in enumerate(moves):
            if type(move["oracle"]) is int:
                sites.append((i, None, defined))
                continue
            for j, entry in enumerate(move["oracle"]):
                if type(entry) is int:
                    sites.append((i, j, defined))
                else:
                    defined += 1
        return sites

    @given(st.data())
    def test_bad_references_raise_value_error(self, game, data):
        text = game_result_to_json(game(3, 1, validate=True))
        doc = json.loads(text)
        moves = doc["moves"]
        i, j, defined = data.draw(st.sampled_from(self.reference_sites(moves)))
        bad_forms = {
            "not an int": st.sampled_from([True, False, 1.0, "0", None]),
            "negative": st.integers(-50, -1),
        }
        if j is None:
            bad_forms["this or a later move"] = st.just(i) | st.integers(i, len(moves) + 50)
            bad_forms["a move that refers"] = st.sampled_from(
                [k for k in range(i) if type(moves[k]["oracle"]) is int] or [None])
        else:
            bad_forms["not yet defined"] = st.just(defined) | st.integers(defined, defined + 50)
        value = data.draw(st.sampled_from(sorted(bad_forms)).flatmap(bad_forms.__getitem__))
        if j is None:
            moves[i]["oracle"] = value
        else:
            moves[i]["oracle"][j] = value
        with pytest.raises(ValueError, match=r"^moves\[\d+\]\.oracle(\[\d+\])? is .* but the "
                                             "replayed game writes"):
            parse_game_result(json.dumps(doc))


class TestReplayedChecks:
    """A document that records oracle checks is replayed with the oracle, so
    each check is asked again and none is taken as written."""

    @staticmethod
    def document(game) -> dict:
        return json.loads(game_result_to_json(game(3, 1, validate=True)))

    @staticmethod
    def first_written(doc: dict) -> dict:
        return next(e for m in doc["moves"] if type(m["oracle"]) is list
                    for e in m["oracle"] if type(e) is dict)

    def refused(self, doc: dict, path: str) -> None:
        with pytest.raises(ValueError, match=rf"^{path}.* (is|has) .* but the replayed game "
                                             "writes"):
            parse_game_result(json.dumps(doc))

    def test_a_check_forged_with_its_own_answer_is_refused(self, game):
        doc = self.document(game)
        self.first_written(doc).update(expected=[[0, 7]], got=[[0, 7]])
        self.refused(doc, r"moves\[\d+\]\.oracle\[\d+\]\.expected")

    def test_a_forged_source_is_refused(self, game):
        doc = self.document(game)
        self.first_written(doc)["source"] = [0, 99, 0]
        self.refused(doc, r"moves\[\d+\]\.oracle\[\d+\]\.source")

    def test_two_swapped_checks_are_refused(self, game):
        doc = self.document(game)
        oracle = next(m["oracle"] for m in doc["moves"] if type(m["oracle"]) is list
                      and sum(type(e) is dict for e in m["oracle"]) >= 2)
        j, k = [j for j, e in enumerate(oracle) if type(e) is dict][:2]
        oracle[j], oracle[k] = oracle[k], oracle[j]
        self.refused(doc, rf"moves\[\d+\]\.oracle\[{j}\]\.")

    def test_a_dropped_check_is_refused(self, game):
        doc = self.document(game)
        i = max(i for i, m in enumerate(doc["moves"]) if type(m["oracle"]) is list and m["oracle"])
        doc["moves"][i]["oracle"].pop()
        self.refused(doc, rf"moves\[{i}\]\.oracle")

    def test_checks_at_an_n_past_the_bound_are_refused_before_the_replay(self):
        # replayed, the one check would ask the oracle at N = 2 * 10**6 + 1
        initial = Board(10**6, 1, (Box(0, 0, SymBlock(0)), Box(1, 0, SymBlock(0))))
        final, record = play(initial, "transpose", ((0, 0), (1, 0)), {}, False)
        check = OracleCheck((0, 0, 0), (0, 1, 0), "M", (), ())
        text = game_result_to_json(GameResult(
            10**6, 1, "fibration", initial, final, (record._replace(oracle=(check,)),), (), 2, ()))
        assert len(text) < 1000
        start = time.perf_counter()
        with pytest.raises(ValueError, match=rf"^params\.n must be <= {MAX_n}, got 1000000$"):
            parse_game_result(text)
        assert time.perf_counter() - start < 1

    def test_an_unvalidated_document_at_an_n_past_the_bound_is_refused_before_any_board(self):
        # its start board would hold N(N - 2), about 4 * 10**12, boxes
        initial = Board(10**6, 1, (Box(0, 0, SymBlock(0)), Box(1, 0, SymBlock(0))))
        text = game_result_to_json(GameResult(
            10**6, 1, "fibration", initial, initial, (), (), 2, ()))
        assert len(text) < 1000
        start = time.perf_counter()
        with pytest.raises(ValueError, match=rf"^params\.n must be <= {MAX_n}, got 1000000$"):
            parse_game_result(text)
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("boxes, kind, question", [
        # two grade-10**7 blocks, transposed: Hom alone has 10**7 + 1 pieces
        ([(0, 0, 10**7), (1, 0, 10**7)], "transpose", (10**7, 0, 0)),
        # a grade-0 block absorbing a grade 10**9 - 1 block: lemma A4 at t = 10**9
        ([(0, 0, 0), (-(10**9) - 1, 1, 10**9 - 1)], "absorb", (10**9 - 1, -1, 1)),
    ])
    def test_a_check_past_the_oracle_bounds_is_refused_before_the_oracle(
            self, monkeypatch, boxes, kind, question):
        # grades on a replayed game's boards stay below n, so no document
        # holds these blocks; the validated move itself refuses them
        initial = Board(3, 1, tuple(Box(x, y, SymBlock(m)) for x, y, m in boxes))
        positions = tuple((x, y) for x, y, _ in boxes)

        def refuse(source, target):
            raise AssertionError("the oracle was asked")
        monkeypatch.setattr(board_module, "ext_on_M", refuse)
        start = time.perf_counter()
        with pytest.raises(MoveRefused, match=re.escape(
                f"{kind}: {question} is past the oracle's bounds MAX_m, MAX_twist")):
            play(initial, kind, positions, {}, True)
        assert time.perf_counter() - start < 1

    def test_a_replayed_twist_past_the_oracle_bounds_is_refused_before_the_oracle(
            self, monkeypatch):
        # on the n=3, eps=1 start board row 2 fills x = -2..4; 10**9 left
        # steps wrap its boxes by N = 7 and leave its first at x = -(10**9) - 2
        doc = json.loads(game_result_to_json(run_game(3, 1, validate=False)))
        doc["moves"] = [
            {"kind": "serre_translate", "positions": [],
             "params": {"y": 2, "direction": "left", "steps": 10**9}, "oracle": []},
            {"kind": "transpose", "positions": [[3, 1], [-(10**9) - 2, 2]], "params": {},
             "oracle": 0}]

        def refuse(source, target):
            raise AssertionError("the oracle was asked")
        monkeypatch.setattr(board_module, "ext_on_M", refuse)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=re.escape(
                "the moves do not replay from the initial board: transpose: "
                "(0, -1000000005, 1) is past the oracle's bounds MAX_m, MAX_twist")):
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

    def test_module_invocation_matches(self):
        proc = subprocess.run(
            [sys.executable, "-m", "flagchess.cli", "degree",
             "--n", "2", "--eps", "0"],
            capture_output=True, text=True,
        )
        assert proc.returncode == EXIT_OK
