"""Moves commit edits: every edited board agrees with the same boxes rebuilt
from scratch, and copy conservation is checked even under ``python -O``."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from flagchess import (
    Board,
    Box,
    MoveRefused,
    Opaque,
    SymBlock,
    games,
    move_absorb,
    move_global_twist,
    move_opacify_boxes,
    move_push_right,
    move_serre_global,
    move_serre_translate,
    move_transpose,
    replay,
)
from flagchess import board as board_module
from flagchess.render import game_result_to_json, parse_game_result


def slot(board: Board, pos: tuple[int, int]) -> int | None:
    try:
        return board.index(pos)
    except KeyError:
        return None


def assert_matches_rebuilt(board: Board) -> None:
    """``board`` against ``Board(n, eps, board.boxes)``, rebuilt from scratch:
    the same copies and the same ``at`` answers, and ``index`` answers that
    agree with a linear scan, on every occupied position and on the ring of
    positions around each."""
    rebuilt = Board(board.n, board.eps, board.boxes)
    assert board == rebuilt
    assert board.copies == rebuilt.copies
    slots = {b.pos: i for i, b in enumerate(board.boxes)}
    ring = {(b.x + dx, b.y + dy) for b in board.boxes
            for dx in (-1, 0, 1) for dy in (-1, 0, 1)}
    for pos in ring:
        assert board.at(pos) is rebuilt.at(pos)
        assert slot(board, pos) == slots.get(pos)


def assert_occupied_landing_refused(board: Board) -> None:
    """An edit that moves the first box onto the last one's position, which
    stays occupied, is refused as a move is."""
    first, last = board.boxes[0], board.boxes[-1]
    onto = Box(last.x, last.y, first.content)
    with pytest.raises(MoveRefused,
                       match=rf"^probe: landing position \({last.x}, {last.y}\) is occupied$"):
        board_module._commit(board, [onto, *board.boxes[1:]], [first], [onto],
                             "probe", (), ())


@pytest.fixture
def played(monkeypatch):
    """Record every (board before, board after, record) that ``play`` makes,
    whether a game calls it or a replay does."""
    moves = []
    play = board_module.play

    def recording(board, *args):
        new, record = play(board, *args)
        moves.append((board, new, record))
        return new, record

    monkeypatch.setattr(games, "play", recording)
    monkeypatch.setattr(board_module, "play", recording)
    return moves


class TestEveryMoveOfEveryGame:
    @pytest.mark.parametrize("mode", ("fibration", "flip"))
    @pytest.mark.parametrize("eps", (0, 1))
    @pytest.mark.parametrize("n", range(2, 9))
    def test_played_and_replayed_boards_match_rebuilt_ones(self, played, n, eps, mode):
        result = games.run_game(n, eps, mode=mode, validate=False)
        assert len(played) == len(result.log)
        assert replay(result.initial, result.log) == result.final
        assert len(played) == 2 * len(result.log)
        kinds = set()
        for before, after, record in played:
            kinds.add(record.kind)
            assert after.copies == before.copies == result.initial.copies
            assert record.copies_before == record.copies_after == before.copies
            assert_matches_rebuilt(after)
            assert_occupied_landing_refused(after)
        assert played[-1][1] == result.final
        scripted = {"serre_translate", "serre_global", "push_right", "rule1",
                    "orange_merge", "rule2"} if eps == 0 else {
                    "serre_translate", "serre_global", "push_right", "rule1",
                    "opacify_boxes", "gather_to_end", "rule2"}
        assert kinds == scripted | ({"global_twist"} if mode == "flip" else set())


def cells(n: int, eps: int, *spec) -> Board:
    """A board from (x, y, m) cells in SOD order, 'x' for an opaque one."""
    return Board(n, eps, tuple(Box(x, y, Opaque() if m == "x" else SymBlock(m))
                               for x, y, m in spec))


class TestWindowedMovesTheGamesDoNotPlay:
    @pytest.mark.parametrize("move, board, args", [
        (move_transpose, cells(2, 1, (9, 9, 1), (0, 0, 0), (5, 5, "x"), (-3, 1, 0), (8, 8, 0)),
         ((0, 0), (-3, 1))),
        (move_absorb, cells(2, 1, (9, 9, 1), (2, 0, 0), (1, 1, "x"), (0, 1, 0), (8, 8, 0)),
         ((2, 0), (0, 1))),
        (move_absorb, cells(3, 0, (3, 0, 0), (7, 7, "x"), (0, 1, 1)), ((3, 0), (0, 1))),
    ])
    def test_edited_boards_match_rebuilt_ones(self, move, board, args):
        for validate in (False, True):
            new, record = move(board, *args, validate=validate)
            assert new.copies == record.copies_after == board.copies
            assert_matches_rebuilt(new)
            assert_occupied_landing_refused(new)


class TestOccupiedLandingIsRefusedBeforeTheOracle:
    class Asked(Exception):
        pass

    @pytest.fixture
    def no_oracle(self, monkeypatch):
        def ask(source, target):
            raise self.Asked(source, target)
        monkeypatch.setattr(board_module, "ext_on_M", ask)

    def test_absorb(self, no_oracle):
        board = cells(2, 1, (-1, 0, 0), (0, 0, 0), (-2, 1, 0))
        with pytest.raises(MoveRefused,
                           match=r"^absorb: landing position \(-1, 0\) is occupied$"):
            move_absorb(board, (0, 0), (-2, 1), validate=True)
        with pytest.raises(self.Asked):  # a free landing goes on to the oracle
            move_absorb(cells(2, 1, (0, 0, 0), (-2, 1, 0)), (0, 0), (-2, 1), validate=True)

    def test_serre_global(self, no_oracle):
        board = cells(2, 1, (0, 0, 0), (1, 3, 0))
        with pytest.raises(MoveRefused,
                           match=r"^serre_global: landing position \(1, 3\) is occupied$"):
            move_serre_global(board, 1, "front_to_back")


class TestConservationUnderOptimization:
    def test_a_lopsided_edit_raises_under_python_O(self):
        script = (
            "import sys\n"
            "from flagchess import board, games\n"
            "print(__debug__, sys.flags.optimize)\n"
            "b = board.Board(2, 1, (board.Box(0, 1, board.SymBlock(0)),))\n"
            "grown = board.Box(0, 1, board.SymBlock(1))\n"
            "for check in (lambda: board._commit(b, [grown], [b.boxes[0]], [grown],\n"
            "                                    'probe', (), ()),\n"
            "              lambda: games._recount('the probe', (grown,), b.copies)):\n"
            "    try:\n"
            "        check()\n"
            "    except AssertionError as exc:\n"
            "        print(exc)\n"
        )
        src = str(Path(board_module.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, check=True)
        assert proc.stdout.splitlines() == ["False 1", "probe broke copy conservation",
                                            "the probe broke copy conservation"]


@st.composite
def spread_boards(draw):
    """An n=2, eps=1 board (N = 5) on rows 0..2, each row's boxes in distinct
    columns mod 5, in any SOD order.  The rows span less than N - 2, so no
    sequence of the moves below ever stacks two boxes on one position."""
    cells = []
    for y in range(3):
        residues = draw(st.lists(st.integers(0, 4), max_size=5, unique=True))
        cells += [Box(r + 5 * draw(st.integers(-2, 2)), y,
                      draw(st.sampled_from([SymBlock(0), SymBlock(1), SymBlock(3), Opaque(2)])))
                  for r in residues]
    return Board(2, 1, tuple(draw(st.permutations(cells))))


@st.composite
def legal_move(draw, board: Board):
    """One always-legal move on ``board``, as (function, args).

    Every one keeps each box's class modulo the lattice spanned by (N, 0)
    and (1, N - 2), so on a board whose boxes lie in distinct classes, as on
    ``spread_boards()`` and on every start board, none ever stacks two."""
    live = [b.pos for b in board.boxes if not b.opaque]
    kinds = ["serre_global", "global_twist"]
    if board.boxes:
        kinds += ["push_right", "serre_translate"]
    if live:
        kinds.append("opacify_boxes")
    kind = draw(st.sampled_from(kinds))
    if kind == "push_right":
        i = draw(st.integers(0, len(board.boxes) - 1))
        return move_push_right, (board.boxes[i].pos, draw(st.integers(0, len(board.boxes) - 1 - i)),
                                 draw(st.booleans()))
    if kind == "opacify_boxes":
        return move_opacify_boxes, (draw(st.lists(st.sampled_from(live), min_size=1, unique=True)),)
    if kind == "serre_global":
        return move_serre_global, (draw(st.integers(0, len(board.boxes))),
                                   draw(st.sampled_from(["front_to_back", "back_to_front"])))
    if kind == "global_twist":
        return move_global_twist, (draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
    return move_serre_translate, (draw(st.sampled_from(sorted({b.y for b in board.boxes}))),
                                  draw(st.sampled_from(["left", "right"])),
                                  draw(st.integers(0, 12)))


class TestRandomMoveSequences:
    @given(spread_boards(), st.data())
    def test_edits_match_rebuilt_boards_and_replay(self, initial, data):
        board, log = initial, []
        for _ in range(data.draw(st.integers(1, 12))):
            move, args = data.draw(legal_move(board))
            new, record = move(board, *args)
            rebuilt = Board(new.n, new.eps, new.boxes)
            assert new == rebuilt and new._at == rebuilt._at
            assert new.copies == rebuilt.copies == initial.copies
            assert record.copies_before == record.copies_after == initial.copies
            board = new
            log.append(record)
        assert replay(initial, tuple(log)) == board

    @given(st.integers(2, 3), st.integers(0, 1), st.sampled_from(["fibration", "flip"]),
           st.data())
    def test_documents_of_random_games_from_a_start_board_round_trip(self, n, eps, mode, data):
        # the parser derives the start board, so a document starts there too
        g = games._Runner(n, eps, mode, validate=False)
        for _ in range(data.draw(st.integers(0, 8))):
            move, args = data.draw(legal_move(g.board))
            board, record = move(g.board, *args)
            g.play(record.kind, record.positions, dict(record.params))
            assert g.board == board and g.log[-1] == record
        text = game_result_to_json(g.finish())
        parsed = parse_game_result(text)
        assert parsed.final == g.board and game_result_to_json(parsed) == text
        assert replay(parsed.initial, parsed.log) == g.board
