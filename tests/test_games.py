"""Full game runs: completion, conservation, extraction, flip mode, replay."""
from __future__ import annotations

import math
import re

import pytest

from flagchess import (
    Board,
    Box,
    GameResult,
    Opaque,
    SymBlock,
    corrected_flip_board,
    ext_on_flag,
    ext_on_M,
    extract_gr2,
    initial_board_fibration,
    move_global_twist,
    play,
    reference_residual_count,
    replay,
    run_game,
)
from flagchess import board as board_module
from flagchess.games import _gr2_template
from flagchess.render import game_result_to_json, parse_game_result

# leftover copy counts measured from the deterministic scripts; the even
# column leaves 2n^2-3n behind, which the runner flags against the reference
MEASURED_RESIDUAL = {
    (2, 0): 2, (3, 0): 9, (4, 0): 20, (5, 0): 35, (6, 0): 54,
    (2, 1): 5, (3, 1): 14, (4, 1): 27, (5, 1): 44, (6, 1): 65,
}


def initial_board_flip(n: int, eps: int) -> Board:
    """The flipped staircase exactly as printed: N+1 zeros per row.

    Its rows are one box too wide to carry the right copy count, so the
    playable flip start is :func:`corrected_flip_board` instead.
    """
    boxes = [
        Box(x, y, SymBlock(0))
        for y in range(-(2 * n + eps - 3), 0)
        for x in range(y, y + 2 * n + eps + 1)
    ]
    return Board(n, eps, tuple(boxes))


class TestInitialBoards:
    def test_copy_counts(self):
        want = {
            (2, 0): 8, (2, 1): 15, (3, 0): 24, (3, 1): 35, (4, 0): 48,
            (4, 1): 63, (5, 0): 80, (5, 1): 99, (6, 0): 120, (6, 1): 143,
        }
        for (n, eps), copies in want.items():
            board = initial_board_fibration(n, eps)
            assert board.copies == copies == board.N * (board.N - 2)

    def test_staircase_shape(self):
        board = initial_board_fibration(3, 1)
        N = board.N
        rows = {y: sorted(b.x for b in board.boxes if b.y == y)
                for y in range(1, N - 1)}
        assert set(b.y for b in board.boxes) == set(range(1, N - 1))
        for y, xs in rows.items():
            assert xs == list(range(y - 3 - 1, y - 3 - 1 + N))
        assert all(b.content == SymBlock(0) for b in board.boxes)

    def test_printed_flip_board_is_one_too_wide(self):
        printed = initial_board_flip(3, 0)
        playable = corrected_flip_board(3, 0)
        per_row = lambda b: {y: sum(1 for x in b.boxes if x.y == y)
                             for y in set(x.y for x in b.boxes)}
        assert set(per_row(printed).values()) == {playable.N + 1}
        assert set(per_row(playable).values()) == {playable.N}

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("eps", [0, 1])
    def test_flip_start_rows(self, n, eps):
        # row y in -(N-2)..-1 holds N zeros at x = y..y+N-1, rows in SOD order
        board = corrected_flip_board(n, eps)
        N = board.N
        assert board.boxes == tuple(Box(x, y, SymBlock(0))
                                    for y in range(-(N - 2), 0) for x in range(y, y + N))

    def test_flip_start_is_a_twist_of_the_fibration_start(self):
        for n, eps in [(2, 0), (2, 1), (3, 0), (3, 1)]:
            flip = corrected_flip_board(n, eps)
            N = flip.N
            twisted, _ = move_global_twist(flip, n + eps - 2, N - 1)
            assert twisted.boxes == initial_board_fibration(n, eps).boxes


class TestGameCompletion:
    @pytest.mark.parametrize("eps", [0, 1])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_runs_to_the_end_and_conserves_copies(self, game, n, eps):
        result = game(n, eps)
        assert result.final.copies == result.initial.copies
        for record in result.log:
            assert record.copies_before == record.copies_after == result.initial.copies
            assert record.verdict == "applied"

    @pytest.mark.parametrize("eps", [0, 1])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_default_validation_passes_every_oracle_check(self, game, n, eps):
        result = game(n, eps)
        checked = [c for record in result.log for c in record.oracle]
        assert checked, "validated runs must carry oracle transcripts"
        assert all(c.ok for c in checked)

    def test_validation_is_on_unless_turned_off(self, game):
        checked = [c for record in game(5, 0).log for c in record.oracle]
        assert checked and all(c.ok for c in checked)
        assert all(record.oracle == () for record in game(5, 0, validate=False).log)

    @pytest.mark.parametrize("validate", [None, "no", "x", 0, 1, ()])
    def test_validate_must_be_a_bool(self, validate):
        # only False turns validation off; nothing else is read as either
        message = f"^validate must be a bool, got {re.escape(repr(validate))}$"
        with pytest.raises(ValueError, match=message):
            run_game(3, 1, validate=validate)
        with pytest.raises(ValueError, match=message):
            play(initial_board_fibration(2, 1), "serre_translate", (),
                 {"y": 2, "direction": "left", "steps": 1}, validate)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            run_game(1, 0)
        with pytest.raises(ValueError):
            run_game(2, 2)
        with pytest.raises(ValueError):
            run_game(2, 0, mode="diagonal")


class TestColumnAndResiduals:
    @pytest.mark.parametrize("eps", [0, 1])
    @pytest.mark.parametrize("n", range(2, 7))
    def test_column_is_found_with_full_rank(self, game, n, eps):
        result = game(n, eps)
        N = 2 * n + eps
        assert result.gr2_found
        assert sum(b.copies for b in result.gr2_boxes) == math.comb(N, 2)
        xs = {b.x for b in result.gr2_boxes}
        ys = sorted(b.y for b in result.gr2_boxes)
        assert len(xs) == 1  # a straight column
        assert ys == list(range(min(ys), min(ys) + len(ys)))

    @pytest.mark.parametrize("eps", [0, 1])
    @pytest.mark.parametrize("n", range(2, 7))
    def test_column_grades_follow_the_template(self, game, n, eps):
        grades = [b.content.m for b in game(n, eps).gr2_boxes]
        if eps == 0:
            assert grades == [n - 2] + [n - 1] * n + [n - 2] * (n - 1)
        else:
            assert grades == [n - 1] * (2 * n + 1)

    @pytest.mark.parametrize("eps", [0, 1])
    @pytest.mark.parametrize("n", range(2, 7))
    def test_residual_counts_and_flags(self, game, n, eps):
        result = game(n, eps)
        assert result.residual_f_count == MEASURED_RESIDUAL[(n, eps)]
        assert result.residual_f_count == sum(b.copies for b in result.residual_boxes)
        reference = reference_residual_count(n, eps)
        assert reference == 2 * n * n - n - eps
        if eps == 1:
            assert result.residual_f_count == reference
            assert result.flags == ()
        else:
            assert result.residual_f_count != reference
            assert len(result.flags) == 1
            assert str(result.residual_f_count) in result.flags[0]
            assert str(reference) in result.flags[0]

    def test_near_miss_reports_a_flag(self, game):
        final = game(3, 1).final
        pruned = Board(3, 1, tuple(b for b in final.boxes if b.pos != (0, 0)))
        boxes, flags = extract_gr2(pruned)
        assert boxes == ()
        assert flags == ("no straightened column found; best anchor (0, -2) "
                         "matched 6 of 7 cells",)

    @pytest.mark.parametrize("n, eps", [(2, 0), (2, 1), (5, 0), (5, 1)])
    def test_a_board_with_no_column_counts_its_n_cells(self, n, eps):
        # the column has N = 2n + eps cells, as many as its template lists
        assert len(_gr2_template(n, eps, (0, 0))) == 2 * n + eps
        assert extract_gr2(Board(n, eps, ())) == ((), (
            f"no straightened column found; best anchor None matched 0 of {2 * n + eps} cells",))

    @pytest.mark.parametrize("n, eps", [(2, 0), (3, 1), (6, 0), (5, 1)])
    def test_a_finished_game_is_split_by_its_final_board_alone(self, game, n, eps):
        # extract_gr2 reads n and eps from the board it is given
        result = game(n, eps)
        assert extract_gr2(result.final) == (result.gr2_boxes, ())
        assert len(result.gr2_boxes) == 2 * n + eps

    def test_extraction_is_anchor_free(self):
        column = tuple(Box(5, 3 + i, SymBlock(1)) for i in range(5))
        noise = (Box(-9, 0, SymBlock(0)), Box(9, 9, Opaque()))
        boxes, flags = extract_gr2(Board(2, 1, noise + column))
        assert flags == ()
        assert [b.pos for b in boxes] == [(5, 3 + i) for i in range(5)]


class TestFrozenFinalBoards:
    def test_smallest_even_game(self, game):
        assert [(b.pos, b.content) for b in game(2, 0).final.boxes] == [
            ((0, 0), SymBlock(0)),
            ((0, 1), SymBlock(1)),
            ((1, 1), SymBlock(0)),
            ((-2, 2), Opaque(1)),
            ((0, 2), SymBlock(1)),
            ((0, 3), SymBlock(0)),
        ]

    def test_next_even_game(self, game):
        final = game(3, 0).final
        column = [(b.pos, b.content.m) for b in final.boxes
                  if b.x == 0 and isinstance(b.content, SymBlock)]
        assert column == [((0, 0), 1), ((0, 1), 2), ((0, 2), 2),
                          ((0, 3), 2), ((0, 4), 1), ((0, 5), 1)]
        zeros = sorted(b.pos for b in final.boxes
                       if isinstance(b.content, SymBlock) and b.content.m == 0)
        assert zeros == [(x, y) for x in (1, 2) for y in (1, 2, 3)]
        marks = sorted(b.pos for b in final.boxes if b.opaque)
        assert marks == [(-3, 2), (-3, 3), (-3, 4)]

    def test_smallest_odd_game(self, game):
        final = game(2, 1).final
        column = sorted(b.pos for b in final.boxes
                        if isinstance(b.content, SymBlock) and b.content.m == 1)
        assert column == [(0, y) for y in range(-1, 4)]
        residual = sorted((b.pos, b.opaque) for b in final.boxes
                          if not (b.x == 0 and isinstance(b.content, SymBlock)
                                  and b.content.m == 1))
        assert residual == [((-2, 2), True), ((-2, 3), True),
                            ((1, 1), False), ((2, 1), False), ((2, 3), True)]


class TestFlipMode:
    @pytest.mark.parametrize("eps", [0, 1])
    @pytest.mark.parametrize("n", range(2, 6))
    def test_reaches_the_same_final_board(self, game, n, eps):
        flip = game(n, eps, mode="flip")
        assert flip.gr2_found
        assert flip.flags == ()
        assert flip.final.boxes == game(n, eps).final.boxes

    def test_opens_with_the_normalizing_twist(self, game):
        first = game(2, 1, mode="flip").log[0]
        assert first.kind == "global_twist"
        assert dict(first.params)["note"] == "normalize-flip-start"
        assert game(2, 1).log[0].kind != "global_twist"

    @pytest.mark.parametrize("n", [2, 3])
    def test_small_flips_run_fully_validated(self, game, n):
        result = game(n, 0, mode="flip")
        checked = [c for record in result.log for c in record.oracle]
        assert checked and all(c.ok for c in checked)


class TestReplayAndDeterminism:
    @pytest.mark.parametrize("n,eps,mode", [
        (2, 1, "fibration"), (3, 0, "fibration"), (2, 0, "flip"), (3, 1, "flip"),
    ])
    def test_replay_reproduces_the_final_board(self, game, n, eps, mode):
        result = game(n, eps, mode=mode)
        assert replay(result.initial, result.log).boxes == result.final.boxes

    def test_reruns_are_byte_identical(self, game):
        fresh = run_game(3, 1)
        assert game_result_to_json(fresh) == game_result_to_json(game(3, 1))

    @pytest.mark.parametrize("eps", [0, 1])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_validation_does_not_change_the_script(self, game, n, eps):
        from flagchess import log_signature

        checked = game(n, eps, validate=True)
        unchecked = game(n, eps, validate=False)
        assert [log_signature(r) for r in checked.log] == [
            log_signature(r) for r in unchecked.log
        ]
        assert checked.final.boxes == unchecked.final.boxes


class TestPhases:
    def test_phase_sequence_and_monotone_counts(self, game):
        phases = game(2, 1).phases
        names = [name for name, _, _ in phases]
        assert names == ["initial", "align", "phase1", "serre",
                         "phase2", "endgame", "final"]
        counts = [count for _, _, count in phases]
        assert counts[0] == 0
        assert counts == sorted(counts)
        assert counts[-1] == len(game(2, 1).log)

    def test_phase_boards_conserve_copies(self, game):
        result = game(3, 0)
        boards = [board for _, board, _ in result.phases]
        assert all(b.copies == result.initial.copies for b in boards)
        assert boards[0] is result.initial
        assert boards[-1] is result.final

    def test_phase_boards_replay_from_the_log(self, game):
        result = game(3, 1, "flip")
        for _, board, count in result.phases:
            assert replay(result.initial, result.log[:count]).boxes == board.boxes

    def test_phases_stay_out_of_equality_and_repr(self, game):
        result = game(2, 0)
        bare = GameResult(*result)
        assert bare.phases == () and result.phases
        assert bare == result and hash(bare) == hash(result)
        assert repr(bare) == repr(result)
        assert "phases" not in repr(result)

    @pytest.mark.parametrize("name", ("n", "log", "gr2_boxes", "flags", "phases"))
    def test_fields_cannot_be_assigned(self, game, name):
        result = game(2, 0)
        with pytest.raises(AttributeError):
            setattr(result, name, ())

    def test_a_parsed_result_has_no_phases(self, game):
        result = game(2, 1)
        parsed = parse_game_result(game_result_to_json(result))
        assert parsed.phases == ()
        assert parsed == result


class TestColumnFound:
    def test_found_is_derived_from_the_boxes(self, game):
        result = game(2, 1)
        assert "gr2_found" not in GameResult._fields
        assert result.gr2_found is True
        assert result._replace(gr2_boxes=()).gr2_found is False


class TestQuestionFamilies:
    """Every question a validated game asks the oracle is a point of lemma A4,
    Ext_M(O(t,0), Sym^r U2v(-1,1)), or of the fed-back zeros of ``rule1``
    (R1), Ext_M(O(b,0), Sym^k U2v); and on F(1,2,N) its twisted Koszul term
    vanishes, so the answer on M is the plain term's."""

    @pytest.mark.parametrize("mode", ["fibration", "flip"])
    @pytest.mark.parametrize("eps", [0, 1])
    @pytest.mark.parametrize("n", range(2, 13))
    def test_every_question_is_an_a4_or_an_r1_point(self, monkeypatch, n, eps, mode):
        asked = set()

        def recording(source, target):
            asked.add((source, target))
            return ext_on_M(source, target)
        monkeypatch.setattr(board_module, "ext_on_M", recording)
        result = run_game(n, eps, mode=mode)
        assert asked
        assert not {"transpose", "absorb"} & {record.kind for record in result.log}
        for source, target in asked:
            assert source.N == target.N == 2 * n + eps
            assert source.m == source.y == 0
            t, (r, x, y) = source.x, target[:3]
            a4 = (x, y) == (-1, 1) and 1 <= t and 0 <= r <= min(t - 1, n - 2)
            r1 = (x, y) == (0, 0) and 1 <= t < r <= n - 1
            assert a4 or r1, (source, target)
            assert ext_on_flag(source, target.twist(-1, -1)) == ()
