"""Move engine: shape checks, oracle gating, conservation, and replay."""
from __future__ import annotations

import pytest

import inspect
import itertools
import json
import os
import re
import subprocess
import sys
import time
from functools import lru_cache
from pathlib import Path

from conftest import deadline
from hypothesis import given, strategies as st

from flagchess import (
    INDETERMINATE,
    MOVES,
    Board,
    Box,
    BundleDescriptor,
    MoveRecord,
    MoveRefused,
    Opaque,
    SymBlock,
    apply_record,
    log_signature,
    move_absorb,
    move_gather_to_end,
    move_global_twist,
    move_opacify_boxes,
    move_orange_merge,
    move_push_right,
    move_rule1,
    move_rule2,
    move_serre_global,
    move_serre_translate,
    move_transpose,
    play,
)
from flagchess import board as board_module
from flagchess import extract_gr2, initial_board_fibration, replay, run_game
from flagchess.oracle import lemma_a4


def board_of(n, eps, *cells) -> Board:
    """Cells in SOD order: (x, y, m) for a block, (x, y, 'x') for opaque."""
    boxes = tuple(
        Box(x, y, Opaque() if m == "x" else SymBlock(m)) for x, y, m in cells
    )
    return Board(n, eps, boxes)


class TestContentTypes:
    def test_copy_counts(self):
        assert SymBlock(0).copies == 1
        assert SymBlock(4).copies == 5
        assert Opaque().copies == 1
        assert Opaque(7).copies == 7

    def test_negative_grade_rejected(self):
        for m, bound in ((-1, ">= 0"), (1.5, "an int"), (True, "an int"), ("2", "an int"),
                         (None, "an int")):
            with pytest.raises(ValueError, match=f"^block grade must be {bound}, got {m!r}$"):
                SymBlock(m)

    def test_opaque_copies_must_be_an_int_at_least_one(self):
        for copies, bound in ((-3, ">= 1"), (0, ">= 1"), (1.5, "an int"), (True, "an int"),
                              ("2", "an int")):
            with pytest.raises(ValueError,
                               match=f"^opaque copies must be {bound}, got {copies!r}$"):
                Opaque(copies)

    @pytest.mark.parametrize("make", [
        lambda: SymBlock._make([-2]), lambda: SymBlock._make([1.5]),
        lambda: SymBlock(1)._replace(m=-1), lambda: Opaque._make([0]),
        lambda: Opaque(2)._replace(copies=-1),
    ], ids=["block-make-m", "block-make-float", "block-replace", "opaque-make", "opaque-replace"])
    def test_make_and_replace_check_too(self, make):
        with pytest.raises(ValueError):
            make()
        assert SymBlock(1)._replace(m=3) == SymBlock._make([3]) == SymBlock(3)
        assert Opaque(2)._replace(copies=5) == Opaque._make([5]) == Opaque(5)
        assert type(SymBlock._make([3])) is SymBlock and type(Opaque._make([5])) is Opaque

    @pytest.mark.parametrize("m", (1, 2, 5))
    def test_a_block_never_equals_an_opaque_marker(self, m):
        pairs = [(SymBlock(m), Opaque(m)), (Box(0, 1, SymBlock(m)), Box(0, 1, Opaque(m))),
                 (board_of(2, 1, (0, 1, m)), Board(2, 1, (Box(0, 1, Opaque(m)),)))]
        for block, opaque in pairs:
            assert block != opaque and opaque != block
            assert not block == opaque and not opaque == block
        assert SymBlock(m) == SymBlock(m) and hash(SymBlock(m)) == hash(SymBlock(m))
        assert Opaque(m) == Opaque(m) and SymBlock(m) != (m,)

    @pytest.mark.parametrize("record, name", [
        (SymBlock(1), "m"), (Opaque(2), "copies"),
        *((board_of(2, 1, (0, 1, 0)), name) for name in ("n", "eps", "boxes", "N", "copies", "_at")),
    ])
    def test_fields_cannot_be_assigned(self, record, name):
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, before)
        assert getattr(record, name) is before

    def test_box_views(self):
        b = Box(2, -1, SymBlock(3))
        assert b.pos == (2, -1)
        assert b.copies == 4
        assert not b.opaque
        assert Box(0, 0, Opaque()).opaque


class TestBoard:
    def test_lattice_and_lookup(self):
        b = board_of(2, 1, (0, 1, 0), (1, 1, 2), (2, 1, "x"))
        assert b.N == 5
        assert b.copies == 1 + 3 + 1
        assert b.at((1, 1)).content == SymBlock(2)
        assert b.at((9, 9)) is None
        assert b.index((2, 1)) == 2
        with pytest.raises(KeyError):
            b.index((9, 9))

    def test_validation(self):
        with pytest.raises(ValueError):
            Board(1, 0, ())
        with pytest.raises(ValueError):
            Board(2, 2, ())
        with pytest.raises(ValueError, match="duplicate box position"):
            board_of(2, 0, (0, 0, 0), (0, 0, 1))
        for x, y in ((0.5, 1), (0, True), ("0", 1), (None, 1)):
            with pytest.raises(ValueError, match=r"box position must be two ints, got \("):
                Board(2, 1, (Box(0, 0, SymBlock(0)), Box(x, y, Opaque())))
        for content in ((0,), 0, None, Box(0, 0, SymBlock(0))):
            with pytest.raises(ValueError, match="box content must be a SymBlock or an Opaque"):
                Board(2, 1, (Box(0, 1, SymBlock(0)), Box(1, 1, content)))
        for entry in ((0, 1, SymBlock(0)), None, "box"):
            with pytest.raises(ValueError, match=r"^a box must be a Box, got "):
                Board(2, 1, (Box(1, 1, SymBlock(0)), entry))
        boxes = [Box(0, 1, SymBlock(0))]
        for malformed, name in ((boxes, "list"), (iter(boxes), "list_iterator"), (None, "NoneType")):
            with pytest.raises(ValueError, match=f"^boxes must be a tuple, got {name}$"):
                Board(2, 1, malformed)

    def test_make_and_replace_check_too(self):
        board = board_of(2, 1, (0, 1, 0), (1, 1, 2))
        replaced = board._replace(boxes=board.boxes[:1])
        assert type(replaced) is Board and replaced == board_of(2, 1, (0, 1, 0))
        assert (replaced.N, replaced.copies, replaced.at((0, 1))) == (5, 1, board.boxes[0])
        assert move_push_right(replaced, (0, 1), 0, opacify=True)[0].copies == 1
        assert Board._make((2, 1, board.boxes)) == board
        with pytest.raises(ValueError, match="duplicate box position"):
            board._replace(boxes=board.boxes[:1] * 2)
        with pytest.raises(ValueError):
            board._replace(eps=2)
        with pytest.raises(ValueError, match="box position must be two ints"):
            Board._make((2, 1, (Box(0.5, 1, SymBlock(0)),)))

    def test_equality_hash_and_repr_ignore_the_index(self):
        cells = ((0, 1, 0), (1, 1, 2), (2, 1, "x"))
        a, b = board_of(2, 1, *cells), board_of(2, 1, *cells)
        assert a == b and hash(a) == hash(b)
        assert a != board_of(2, 1, *cells[:2])
        assert repr(a) == f"Board(n=2, eps=1, boxes={a.boxes!r})"

    @pytest.mark.parametrize("eps", (0, 1))
    @pytest.mark.parametrize("n", range(2, 6))
    def test_lookup_agrees_with_a_linear_scan(self, game, n, eps):
        final = game(n, eps).final
        xs = [b.x for b in final.boxes]
        ys = [b.y for b in final.boxes]
        for x in range(min(xs) - 1, max(xs) + 2):
            for y in range(min(ys) - 1, max(ys) + 2):
                slots = [i for i, b in enumerate(final.boxes) if b.pos == (x, y)]
                if slots:
                    assert final.index((x, y)) == slots[0]
                    assert final.at((x, y)) is final.boxes[slots[0]]
                else:
                    assert final.at((x, y)) is None
                    with pytest.raises(KeyError):
                        final.index((x, y))
        assert final.copies == sum(b.copies for b in final.boxes)


@st.composite
def spread_rows(draw):
    """An n=2, eps=1 board (N = 5) whose row y=1 holds boxes in distinct
    columns mod 5, up to four periods apart, in any SOD order."""
    residues = draw(st.lists(st.integers(0, 4), min_size=1, max_size=5, unique=True))
    cells = [(r + 5 * draw(st.integers(-4, 4)), 1, m) for m, r in enumerate(residues)]
    cells = draw(st.permutations(cells))
    return board_of(2, 1, *cells, (0, 2, 1))


class TestSerreTranslate:
    def row(self):
        return board_of(2, 1, *[(x, 1, 0) for x in range(5)], (0, 2, 1))

    def test_one_left_step_wraps_the_rightmost(self):
        new, rec = move_serre_translate(self.row(), 1, "left", 1)
        row = [b.pos for b in new.boxes if b.y == 1]
        assert row == [(-1, 1), (0, 1), (1, 1), (2, 1), (3, 1)]
        assert new.at((0, 2)).content == SymBlock(1)  # other rows untouched
        assert rec.params == (("y", 1), ("direction", "left"), ("steps", 1))

    def test_full_period_is_a_bodily_shift(self):
        new, _ = move_serre_translate(self.row(), 1, "left", 5)
        row = [b.pos for b in new.boxes if b.y == 1]
        assert row == [(x - 5, 1) for x in range(5)]

    def test_right_inverts_left(self):
        board = self.row()
        stepped, _ = move_serre_translate(board, 1, "left", 3)
        back, _ = move_serre_translate(stepped, 1, "right", 3)
        assert back.boxes == board.boxes

    @staticmethod
    def stepwise(board, y, direction, steps):
        """Reference: the move one step at a time, as its docstring states it."""
        slots = [i for i, b in enumerate(board.boxes) if b.y == y]
        row = [board.boxes[i] for i in slots]
        for _ in range(steps):
            if direction == "left":
                j = max(range(len(row)), key=lambda i: row[i].x)
                row = [Box(row[j].x - board.N, y, row[j].content)] + row[:j] + row[j + 1:]
            else:
                j = min(range(len(row)), key=lambda i: row[i].x)
                row = row[:j] + row[j + 1:] + [Box(row[j].x + board.N, y, row[j].content)]
        boxes = list(board.boxes)
        for slot, box in zip(slots, row):
            boxes[slot] = box
        return tuple(boxes)

    def test_agrees_with_stepping_on_real_boards(self):
        boards = [board for n, eps in ((2, 0), (2, 1), (3, 0), (3, 1))
                  for _, board, _ in run_game(n, eps, validate=False).phases]
        for board in boards:
            for y in sorted({b.y for b in board.boxes}):
                L = sum(1 for b in board.boxes if b.y == y)
                for direction in ("left", "right"):
                    for steps in range(3 * L + 1):
                        new, _ = move_serre_translate(board, y, direction, steps)
                        assert new.boxes == self.stepwise(board, y, direction, steps)

    @given(spread_rows(), st.sampled_from(["left", "right"]), st.integers(0, 40))
    def test_agrees_with_stepping_on_any_row(self, board, direction, steps):
        new, _ = move_serre_translate(board, 1, direction, steps)
        assert new.boxes == self.stepwise(board, 1, direction, steps)

    @given(spread_rows(), st.sampled_from(["left", "right"]),
           st.integers(0, 10**12), st.integers(0, 10**12))
    def test_huge_step_counts_compose(self, board, direction, a, b):
        once, _ = move_serre_translate(board, 1, direction, a + b)
        part, _ = move_serre_translate(board, 1, direction, a)
        twice, _ = move_serre_translate(part, 1, direction, b)
        assert once.boxes == twice.boxes

    def test_huge_step_counts_return_at_once(self):
        board = run_game(3, 1, validate=False).initial
        L = sum(1 for b in board.boxes if b.y == 2)
        for direction, sign in (("left", -1), ("right", 1)):
            start = time.perf_counter()
            new, rec = move_serre_translate(board, 2, direction, 10**9)
            assert time.perf_counter() - start < 1.0
            q, r = divmod(10**9, L)
            shifted = Board(board.n, board.eps, tuple(
                Box(b.x + sign * q * board.N, b.y, b.content) if b.y == 2 else b
                for b in board.boxes))
            assert new.boxes == self.stepwise(shifted, 2, direction, r)
            assert dict(rec.params)["steps"] == 10**9

    def test_refusals(self):
        with pytest.raises(MoveRefused):
            move_serre_translate(self.row(), 1, "sideways", 1)
        with pytest.raises(MoveRefused):
            move_serre_translate(self.row(), 1, "left", -1)
        with pytest.raises(MoveRefused):
            move_serre_translate(self.row(), 7, "left", 1)
        shared = board_of(2, 1, (0, 1, 0), (5, 1, 1))
        for steps in (0, 1, 10**9):
            with pytest.raises(MoveRefused, match="share a column mod 5"):
                move_serre_translate(shared, 1, "left", steps)


class TestSerreGlobal:
    def test_front_to_back_twist(self):
        board = board_of(2, 1, (0, 1, 0), (1, 1, 1), (2, 1, 0))
        new, _ = move_serre_global(board, 2, "front_to_back")
        assert [b.pos for b in new.boxes] == [(2, 1), (1, 4), (2, 4)]
        assert new.boxes[1].content == SymBlock(0)
        assert new.boxes[2].content == SymBlock(1)

    def test_round_trip(self):
        board = board_of(2, 0, (0, 1, 0), (1, 1, 2), (2, 1, 0))
        there, _ = move_serre_global(board, 2, "front_to_back")
        back, _ = move_serre_global(there, 2, "back_to_front")
        assert back.boxes == board.boxes

    def test_refusals(self):
        board = board_of(2, 0, (0, 1, 0))
        with pytest.raises(MoveRefused):
            move_serre_global(board, 2, "front_to_back")
        with pytest.raises(MoveRefused):
            move_serre_global(board, 1, "around")

    def test_landing_on_a_box_that_stays_is_refused(self):
        board = Board(2, 1, (Box(0, 0, SymBlock(0)), Box(1, 3, SymBlock(0))))
        with pytest.raises(MoveRefused, match=r"landing position \(1, 3\) is occupied"):
            move_serre_global(board, 1, "front_to_back")
        with pytest.raises(MoveRefused, match=r"landing position \(0, 0\) is occupied"):
            move_serre_global(board, 1, "back_to_front")
        # a box may land where a crossing box was
        new, _ = move_serre_global(board, 2, "front_to_back")
        assert [b.pos for b in new.boxes] == [(1, 3), (2, 6)]


class TestGlobalTwist:
    def test_shifts_every_box(self):
        board = board_of(2, 0, (0, 1, 0), (3, 2, 1))
        new, rec = move_global_twist(board, -1, 2, note="lineup")
        assert [b.pos for b in new.boxes] == [(-1, 3), (2, 4)]
        assert rec.params == (("dx", -1), ("dy", 2), ("note", "lineup"))

    def test_note_is_optional(self):
        board = board_of(2, 0, (0, 1, 0))
        new, rec = move_global_twist(board, 1, 0)
        assert rec.params == (("dx", 1), ("dy", 0))
        assert apply_record(board, rec) == new


class TestPushRight:
    def test_reorders_the_sod(self):
        board = board_of(2, 0, (0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0))
        new, _ = move_push_right(board, (0, 0), 2, opacify=False)
        assert [b.pos for b in new.boxes] == [(1, 0), (2, 0), (0, 0), (3, 0)]

    def test_opacify_preserves_copies(self):
        board = board_of(2, 0, (0, 0, 2), (1, 0, 0))
        new, _ = move_push_right(board, (0, 0), 1, opacify=True)
        assert new.boxes[-1].content == Opaque(3)
        assert new.copies == board.copies

    def test_refusals(self):
        board = board_of(2, 0, (0, 0, 0), (1, 0, 0))
        with pytest.raises(MoveRefused):
            move_push_right(board, (0, 0), 5, opacify=False)
        with pytest.raises(MoveRefused):
            move_push_right(board, (9, 9), 1, opacify=False)


class TestOpacifyAndGather:
    def test_opacify_in_place(self):
        board = board_of(2, 0, (0, 1, 0), (1, 1, 2))
        new, _ = move_opacify_boxes(board, [(0, 1), (1, 1)])
        assert [b.content for b in new.boxes] == [Opaque(1), Opaque(3)]

    def test_opacify_refuses_an_empty_list(self):
        board = board_of(2, 0, (0, 1, 0))
        with pytest.raises(MoveRefused, match="nothing to opacify"):
            move_opacify_boxes(board, [])

    def test_opacify_rejects_opaque_input(self):
        board = board_of(2, 0, (0, 1, "x"))
        with pytest.raises(MoveRefused):
            move_opacify_boxes(board, [(0, 1)])

    def test_gather_slides_over_opaques_only(self):
        board = board_of(2, 0, (0, 1, 0), (1, 1, "x"), (2, 1, 0))
        new, _ = move_gather_to_end(board, [(0, 1), (2, 1)])
        assert [b.pos for b in new.boxes] == [(1, 1), (0, 1), (2, 1)]

    def test_gather_refuses_to_cross_live_boxes(self):
        board = board_of(2, 0, (0, 1, 0), (1, 1, 0), (2, 1, 0))
        with pytest.raises(MoveRefused):
            move_gather_to_end(board, [(0, 1), (2, 1)])

    def test_gather_refuses_a_missing_position(self):
        board = board_of(2, 0, (0, 1, 0), (1, 1, "x"))
        with pytest.raises(MoveRefused, match="no box at"):
            move_gather_to_end(board, [(0, 1), (9, 9)])

    def test_gather_refuses_an_empty_list(self):
        board = board_of(2, 0, (0, 1, 0))
        with pytest.raises(MoveRefused, match="^gather_to_end: nothing to gather$"):
            move_gather_to_end(board, [])

    def test_gather_refuses_a_repeated_position(self):
        board = board_of(2, 0, (0, 1, 0), (1, 1, "x"))
        with pytest.raises(MoveRefused, match="listed twice"):
            move_gather_to_end(board, [(0, 1), (0, 1)])

    def test_opacify_refuses_a_repeated_position(self):
        board = board_of(2, 0, (0, 1, 0), (1, 1, 2))
        with pytest.raises(MoveRefused, match="listed twice"):
            move_opacify_boxes(board, [(0, 1), (0, 1)])


class TestTranspose:
    def test_vanishing_pair_swaps(self):
        board = board_of(2, 1, (0, 0, 0), (-3, 1, 0))
        new, rec = move_transpose(board, (0, 0), (-3, 1))
        assert [b.pos for b in new.boxes] == [(-3, 1), (0, 0)]
        assert len(rec.oracle) == 1 and rec.oracle[0].ok

    def test_pairing_shape_is_always_refused(self):
        # a zero against the grade t-1 block at relative twist (-1-t, 1):
        # the pair supports a forced extension, so commuting them is never
        # allowed, validated or not
        for validate in (True, False):
            for cells, pair in [
                ((("left", 2, 0, 0), ("right", -1, 1, 1)), ((2, 0), (-1, 1))),
                ((("left", 2, 0, 0), ("right", 0, 1, 0)), ((2, 0), (0, 1))),
            ]:
                board = board_of(2, 1, *[c[1:] for c in cells])
                with pytest.raises(MoveRefused) as err:
                    move_transpose(board, *pair, validate=validate)
                assert err.value.check is None  # structural, before any oracle

    def test_non_pairing_shape_still_oracle_checked(self):
        # same rows but the wrong grade for the pairing shape: the static
        # guard passes and the Ext oracle itself refuses the swap
        board = board_of(2, 1, (2, 0, 0), (0, 1, 1))
        with pytest.raises(MoveRefused) as err:
            move_transpose(board, (2, 0), (0, 1))
        assert err.value.check is not None
        assert err.value.check.got == ((1, 5),)

    def test_oracle_mismatch_refused_with_transcript(self):
        board = board_of(2, 1, (0, 0, 0), (3, 0, 0))
        with pytest.raises(MoveRefused) as err:
            move_transpose(board, (0, 0), (3, 0))
        assert err.value.check is not None
        assert err.value.check.expected == ()
        assert err.value.check.got == ((0, 35),)

    def test_indeterminate_refused(self):
        board = board_of(2, 1, (0, 0, 0), (2, 1, 0))
        with pytest.raises(MoveRefused) as err:
            move_transpose(board, (0, 0), (2, 1))
        assert err.value.check.got == "indeterminate"

    def test_shape_refusals(self):
        adjacent = board_of(2, 1, (0, 0, 0), (-3, 1, 0))
        with pytest.raises(MoveRefused):
            move_transpose(adjacent, (-3, 1), (0, 0))  # wrong SOD order
        blocked = board_of(2, 1, (0, 0, 0), (5, 5, 0), (-3, 1, 0))
        with pytest.raises(MoveRefused):
            move_transpose(blocked, (0, 0), (-3, 1))  # live box between
        opaque = board_of(2, 1, (0, 0, "x"), (-3, 1, 0))
        with pytest.raises(MoveRefused):
            move_transpose(opaque, (0, 0), (-3, 1))

    def test_opaques_between_are_tolerated(self):
        board = board_of(2, 1, (0, 0, 0), (5, 5, "x"), (-3, 1, 0))
        new, _ = move_transpose(board, (0, 0), (-3, 1))
        assert [b.pos for b in new.boxes] == [(-3, 1), (5, 5), (0, 0)]


class TestAbsorb:
    def test_merges_into_the_landing_cell(self):
        board = board_of(2, 1, (2, 0, 0), (0, 1, 0))
        new, rec = move_absorb(board, (2, 0), (0, 1))
        assert [b.pos for b in new.boxes] == [(1, 0)]
        assert new.boxes[0].content == SymBlock(1)
        assert new.copies == board.copies
        assert rec.oracle[0].expected == ((1, 1),) and rec.oracle[0].ok

    def test_larger_gap(self):
        board = board_of(3, 0, (3, 0, 0), (0, 1, 1))
        new, _ = move_absorb(board, (3, 0), (0, 1))
        assert new.boxes[0] == Box(1, 0, SymBlock(2))

    def test_refusals(self):
        with pytest.raises(MoveRefused):  # landing occupied
            move_absorb(board_of(2, 1, (2, 0, 0), (1, 0, 0), (0, 1, 0)),
                        (2, 0), (0, 1))
        with pytest.raises(MoveRefused):  # absorbing box must be grade 0
            move_absorb(board_of(2, 1, (2, 0, 1), (0, 1, 0)), (2, 0), (0, 1))
        with pytest.raises(MoveRefused):  # wrong source grade
            move_absorb(board_of(2, 1, (2, 0, 0), (0, 1, 1)), (2, 0), (0, 1))
        with pytest.raises(MoveRefused):  # wrong relative offset
            move_absorb(board_of(2, 1, (2, 0, 0), (2, 1, 0)), (2, 0), (2, 1))
        with pytest.raises(MoveRefused):  # live box between
            move_absorb(board_of(2, 1, (2, 0, 0), (7, 7, 0), (0, 1, 0)),
                        (2, 0), (0, 1))

    def test_refuses_a_landing_occupied_earlier_in_sod_order(self):
        board = board_of(2, 1, (-1, 0, 0), (0, 0, 0), (-2, 1, 0))
        with pytest.raises(MoveRefused,
                           match=r"^absorb: landing position \(-1, 0\) is occupied$"):
            move_absorb(board, (0, 0), (-2, 1))


class TestRule1:
    def happy(self):
        return board_of(2, 1, (0, 1, 0), (1, 1, 0), (-1, 2, 0))

    def test_feeds_the_head_zero(self):
        new, rec = move_rule1(self.happy(), (0, 1), (-1, 2))
        assert [(b.pos, b.content) for b in new.boxes] == [
            ((0, 1), SymBlock(1)),
            ((1, 1), SymBlock(0)),
        ]
        assert new.copies == 3
        assert all(check.ok for check in rec.oracle)
        assert rec.oracle  # validated by default

    def test_window_may_skip_opaques(self):
        board = board_of(2, 1, (0, 1, 0), (1, 1, 0), (9, 9, "x"), (-1, 2, 0))
        new, _ = move_rule1(board, (0, 1), (-1, 2))
        assert new.at((9, 9)).opaque

    def test_grade_bound(self):
        board = board_of(2, 1, (0, 1, 0), (1, 1, 0), (2, 1, 0), (-1, 2, 1))
        with pytest.raises(MoveRefused) as err:
            move_rule1(board, (0, 1), (-1, 2))
        assert "r <= n-1" in str(err.value) or "grade bound" in str(err.value)

    def test_window_bounds(self):
        short = board_of(2, 1, (0, 1, 0), (-1, 2, 0))  # l = 0 < r
        with pytest.raises(MoveRefused):
            move_rule1(short, (0, 1), (-1, 2))
        long = board_of(2, 1, (0, 1, 0), *[(x, 1, 0) for x in range(1, 5)],
                        (-1, 2, 0))  # l = 4 > 2n-3+eps = 2
        with pytest.raises(MoveRefused):
            move_rule1(long, (0, 1), (-1, 2))

    def test_shape_refusals(self):
        with pytest.raises(MoveRefused):  # head must be grade 0
            move_rule1(board_of(2, 1, (0, 1, 1), (1, 1, 0), (-1, 2, 0)),
                       (0, 1), (-1, 2))
        with pytest.raises(MoveRefused):  # mover at the wrong position
            move_rule1(board_of(2, 1, (0, 1, 0), (1, 1, 0), (-2, 2, 0)),
                       (0, 1), (-2, 2))
        with pytest.raises(MoveRefused):  # window holds a non-zero
            move_rule1(board_of(2, 1, (0, 1, 0), (1, 1, 1), (2, 1, 0), (-1, 2, 0)),
                       (0, 1), (-1, 2))

    def test_signature_ignores_validation(self):
        _, with_oracle = move_rule1(self.happy(), (0, 1), (-1, 2), validate=True)
        _, without = move_rule1(self.happy(), (0, 1), (-1, 2), validate=False)
        assert with_oracle.oracle and not without.oracle
        assert log_signature(with_oracle) == log_signature(without)


class TestRule2:
    def test_boundary_split_consumes_every_zero(self):
        board = board_of(2, 1, (1, 2, 0), (2, 2, 0), (0, 3, 1))
        new, rec = move_rule2(board, (1, 2), (0, 3), t=1, r=2)
        assert [(b.pos, b.content) for b in new.boxes] == [
            ((0, 3), SymBlock(1)),
            ((1, 2), SymBlock(1)),
        ]
        assert new.copies == board.copies
        assert rec.params == (("t", 1), ("r", 2))

    def test_interior_split_keeps_survivors(self):
        board = board_of(4, 0, (0, 1, 0), (1, 1, 0), (2, 1, 0), (-1, 2, 0))
        new, _ = move_rule2(board, (0, 1), (-1, 2), t=2, r=1)
        assert [(b.pos, b.content) for b in new.boxes] == [
            ((-1, 2), SymBlock(0)),
            ((0, 1), SymBlock(0)),
            ((1, 1), SymBlock(0)),
            ((2, 1), SymBlock(0)),
        ]

    def test_opaques_stay_in_their_slots(self):
        board = board_of(2, 1, (1, 2, 0), (9, 9, "x"), (2, 2, 0), (0, 3, 1))
        new, _ = move_rule2(board, (1, 2), (0, 3), t=1, r=2)
        assert [b.pos for b in new.boxes] == [(0, 3), (9, 9), (1, 2)]

    def test_bound_refusals(self):
        board = board_of(4, 0, (0, 1, 0), (1, 1, 0), (2, 1, 0), (-1, 2, 1))
        with pytest.raises(MoveRefused):  # t=2, r=2: neither branch fits
            move_rule2(board, (0, 1), (-1, 2), t=2, r=2)
        with pytest.raises(MoveRefused):  # wrong declared grade
            move_rule2(board, (0, 1), (-1, 2), t=2, r=1)

    def test_block_must_sit_down_left_of_the_zeros(self):
        board = board_of(3, 0, (1, 0, 0), (2, 0, 0), (5, 5, 0))
        with pytest.raises(MoveRefused,
                           match=r"^rule2: block must sit at \(0, 1\), got \(5, 5\)$"):
            move_rule2(board, (1, 0), (5, 5), t=1, r=1)

    def test_missing_zeros_start_refused(self):
        board = board_of(2, 1, (2, 2, 0), (0, 3, 1))
        with pytest.raises(MoveRefused, match="no box at"):
            move_rule2(board, (1, 2), (0, 3), t=1, r=2)

    def test_window_count_must_match(self):
        board = board_of(2, 1, (1, 2, 0), (0, 3, 1))
        with pytest.raises(MoveRefused):
            move_rule2(board, (1, 2), (0, 3), t=1, r=2)


def _swap(boxes, i, j, *_):
    """Transpose's edit as it was first written: swap the two slots."""
    boxes[i], boxes[j] = boxes[j], boxes[i]
    return boxes


def _set_then_del(boxes, i, j, merged):
    """Absorb's and rule 1's edit as first written: set slot i, drop slot j."""
    boxes[i] = merged
    del boxes[j]
    return boxes


def _queue(boxes, i, j, replacement):
    """Rule 2's edit as first written: refill the live slots of i..j in order."""
    out, queue = [], list(replacement)
    for idx, b in enumerate(boxes):
        if idx < i or idx > j or b.opaque:
            out.append(b)
        elif queue:
            out.append(queue.pop(0))
    assert not queue
    return out


# (move, board (n, eps, live cells in SOD order), positions, params, reference
# edit, what it puts in place).  The first and last cells lie outside the window.
WINDOWED = [
    (move_transpose, (2, 1, [(7, 7, 0), (0, 0, 0), (-3, 1, 0), (8, 8, 1)]),
     ((0, 0), (-3, 1)), {}, _swap, None),
    (move_absorb, (2, 1, [(7, 7, 0), (2, 0, 0), (0, 1, 0), (8, 8, 1)]),
     ((2, 0), (0, 1)), {}, _set_then_del, Box(1, 0, SymBlock(1))),
    (move_rule1, (3, 0, [(7, 7, 0), (0, 1, 0), (1, 1, 0), (2, 1, 0), (3, 1, 0),
                         (-1, 2, 1), (8, 8, 1)]),
     ((0, 1), (-1, 2)), {}, _set_then_del, Box(0, 1, SymBlock(2))),
    (move_rule2, (2, 1, [(7, 7, 0), (1, 2, 0), (2, 2, 0), (0, 3, 1), (8, 8, 1)]),
     ((1, 2), (0, 3)), {"t": 1, "r": 2}, _queue,
     [Box(0, 3, SymBlock(1)), Box(1, 2, SymBlock(1))]),
    (move_rule2, (5, 0, [(7, 7, 0), (0, 1, 0), (1, 1, 0), (2, 1, 0), (3, 1, 0),
                         (-1, 2, 1), (8, 8, 1)]),
     ((0, 1), (-1, 2)), {"t": 3, "r": 2}, _queue,
     [Box(-1, 2, SymBlock(1)), Box(0, 1, SymBlock(1)), Box(2, 1, SymBlock(0)),
      Box(3, 1, SymBlock(0))]),
]


class TestWindowedMovesWithOpaques:
    """Opaque boxes placed anywhere in (or around) the window of a windowed
    move keep their slots, and the move makes the edit first written for it."""

    @staticmethod
    def placements(cells):
        """The live cells with one opaque box in each chosen gap, for every
        set of gaps, plus two opaques in every gap at once."""
        gaps = range(len(cells) + 1)
        for chosen in itertools.chain.from_iterable(
                itertools.combinations(gaps, k) for k in range(len(gaps) + 1)):
            yield [c for g in gaps for c in
                   ([(100 + g, 100, "x")] if g in chosen else []) + cells[g:g + 1]]
        yield [c for g in gaps for c in
               [(100 + g, 100, "x"), (100 + g, 101, "x")] + cells[g:g + 1]]

    @pytest.mark.parametrize("move, start, positions, params, reference, put", WINDOWED,
                             ids=["transpose", "absorb", "rule1", "rule2-boundary",
                                  "rule2-interior"])
    def test_opaques_keep_their_slots(self, move, start, positions, params, reference, put):
        n, eps, cells = start
        for placed in self.placements(cells):
            board = board_of(n, eps, *placed)
            i, j = (board.index(p) for p in positions)
            new, rec = move(board, *positions, **params, validate=False)
            assert list(new.boxes) == reference(list(board.boxes), i, j, put)
            for slot in range(i, j + 1):
                if board.boxes[slot].opaque:
                    assert new.boxes[slot] is board.boxes[slot]
            assert rec.copies_before == rec.copies_after == board.copies


class TestOrangeMerge:
    def test_merges(self):
        board = board_of(3, 0, (-2, 3, 0), (0, 1, 1))
        new, rec = move_orange_merge(board, (-2, 3), (0, 1))
        assert [(b.pos, b.content) for b in new.boxes] == [((0, 1), SymBlock(2))]
        assert rec.oracle == ()

    def test_refusals(self):
        with pytest.raises(MoveRefused):  # orange must be grade 0
            move_orange_merge(board_of(3, 0, (-2, 3, 1), (0, 1, 1)),
                              (-2, 3), (0, 1))
        with pytest.raises(MoveRefused):  # target must be grade n-2
            move_orange_merge(board_of(3, 0, (-2, 3, 0), (0, 1, 2)),
                              (-2, 3), (0, 1))

    def test_same_box_as_orange_and_target_refused(self):
        board = board_of(2, 0, (0, 1, 0))
        with pytest.raises(MoveRefused, match="different boxes"):
            move_orange_merge(board, (0, 1), (0, 1))


class TestRecordsAndReplay:
    def test_every_move_conserves_copies(self):
        board = board_of(2, 1, (0, 1, 0), (1, 1, 0), (-1, 2, 0))
        new, rec = move_rule1(board, (0, 1), (-1, 2))
        assert rec.copies_before == rec.copies_after == board.copies == new.copies

    def test_replay_reproduces_a_move(self):
        board = board_of(2, 1, (0, 1, 0), (1, 1, 0), (-1, 2, 0))
        new, rec = move_rule1(board, (0, 1), (-1, 2))
        assert apply_record(board, rec).boxes == new.boxes

    def test_replay_rejects_unknown_kinds(self):
        board = board_of(2, 1, (0, 1, 0))
        for kind in ("teleport", ["rule1"], {"rule1": 1}):
            bogus = MoveRecord(kind, (), (), (), "applied", 1, 1)
            with pytest.raises(ValueError, match="unknown move kind"):
                apply_record(board, bogus)

    def test_replay_rejects_a_wrong_position_count(self):
        board = board_of(2, 1, (0, 1, 0), (1, 1, 0), (-1, 2, 0))
        _, rec = move_rule1(board, (0, 1), (-1, 2))
        for positions in (rec.positions[:1], rec.positions + ((1, 1),)):
            bad = MoveRecord("rule1", positions, (), (), "applied", 3, 3)
            with pytest.raises(ValueError, match="positions"):
                apply_record(board, bad)

    def test_replay_rejects_unknown_and_missing_params(self):
        board = board_of(2, 1, (0, 1, 0), (1, 1, 0))
        for params in ((("k", 1),),
                       (("k", 1), ("direction", "front_to_back"), ("extra", 0))):
            bad = MoveRecord("serre_global", (), params, (), "applied", 2, 2)
            with pytest.raises(ValueError, match="parameters"):
                apply_record(board, bad)

    def test_replay_rejects_mistyped_positions(self):
        board = board_of(2, 1, (1, 1, 0), (2, 1, 0))
        for pos in (("1", 1), (True, 1), ([1], 1), (1,), (1, 1, 0)):
            bad = MoveRecord("push_right", (pos,), (("count", 1), ("opacify", False)),
                             (), "applied", 2, 2)
            with pytest.raises(ValueError, match="pairs of ints"):
                apply_record(board, bad)

    def test_replay_rejects_an_entry_that_is_not_a_record(self):
        board = board_of(2, 1, (0, 1, 0), (1, 1, 0), (-1, 2, 0))
        _, rec = move_rule1(board, (0, 1), (-1, 2))
        for entry in (tuple(rec), None, "rule1"):
            for call in (lambda: apply_record(board, entry), lambda: replay(board, (rec, entry))):
                with pytest.raises(ValueError, match="^a log entry must be a MoveRecord, got "):
                    call()

    @pytest.mark.parametrize("field, message", [
        ("positions", r"^serre_translate positions must be a sequence, got None$"),
        ("params", r"^a record's params must be a sequence, got None$")])
    def test_replay_rejects_fields_that_are_not_sequences(self, game, field, message):
        result = game(2, 1)
        with pytest.raises(ValueError, match=message):
            apply_record(result.initial, result.log[0]._replace(**{field: None}))

    @pytest.mark.parametrize("positions, params, message", [
        (None, {"y": 2, "direction": "left", "steps": 1},
         r"^serre_translate positions must be a sequence, got None$"),
        ((), None, r"^serre_translate params must be a dict, got None$"),
        ((), (("y", 2), ("direction", "left"), ("steps", 1)),
         r"^serre_translate params must be a dict, got \(\('y', 2\), "),
    ])
    def test_play_rejects_fields_of_the_wrong_form(self, game, positions, params, message):
        with pytest.raises(ValueError, match=message):
            play(game(2, 1).initial, "serre_translate", positions, params, False)

    def test_play_rejects_a_board_that_is_not_a_board(self, game):
        result = game(2, 1)
        params = {"k": 1, "direction": "front_to_back"}
        for board in (None, result.initial.boxes, tuple(result.initial)):
            for call in (lambda: play(board, "serre_global", (), params, False),
                         lambda: apply_record(board, result.log[0]),
                         lambda: replay(board, result.log)):
                with pytest.raises(ValueError, match=f"^board must be a Board, got "
                                                     f"{type(board).__name__}$"):
                    call()

    @pytest.mark.parametrize("board", [None, (), Board(2, 1, ()).boxes])
    def test_extract_and_an_empty_replay_refuse_a_board_that_is_not_a_board(self, board):
        for call in (lambda: extract_gr2(board), lambda: replay(board, ())):
            with pytest.raises(ValueError, match=f"^board must be a Board, got "
                                                 f"{type(board).__name__}$"):
                call()

    @pytest.mark.parametrize("entry", [None, "rule1", ("rule1", (), (), (), "applied", 2, 2)])
    def test_log_signature_refuses_an_entry_that_is_not_a_record(self, entry):
        with pytest.raises(ValueError, match="^a log entry must be a MoveRecord, got "):
            log_signature(entry)

    @pytest.mark.parametrize("positions", [(1, 2), ((1, 2), 3), ([0, 1], [1, 1]), "ab"])
    def test_play_rejects_a_position_that_is_not_a_pair(self, positions):
        board = board_of(2, 1, (0, 1, 0), (1, 1, 0))
        with pytest.raises(ValueError, match=r"^transpose positions must be a sequence of pairs "
                                             r"of ints, got "):
            play(board, "transpose", positions, {}, False)

    def test_replay_rejects_divergence(self):
        board = board_of(2, 1, (0, 1, 0), (1, 1, 0))
        _, rec = move_serre_translate(board, 1, "left", 1)
        bigger = board_of(2, 1, (0, 1, 0), (1, 1, 0), (0, 2, 0))
        with pytest.raises(ValueError):
            apply_record(bigger, rec)

    def test_refusal_metadata(self):
        board = board_of(2, 1, (2, 0, 0), (-1, 1, 1))
        with pytest.raises(MoveRefused) as err:
            move_transpose(board, (2, 0), (-1, 1))
        assert err.value.kind == "transpose"
        assert "pairing" in err.value.reason


# One validated move of each windowed kind whose first question is lemma A4
# at t = 1, r = 0 on N = 5.
FIRST_A4_MOVES = {
    "absorb": lambda: move_absorb(board_of(2, 1, (2, 0, 0), (0, 1, 0)), (2, 0), (0, 1)),
    "rule1": lambda: move_rule1(board_of(2, 1, (0, 1, 0), (1, 1, 0), (-1, 2, 0)),
                                (0, 1), (-1, 2)),
    "rule2": lambda: move_rule2(board_of(2, 1, (1, 2, 0), (2, 2, 0), (0, 3, 1)),
                                (1, 2), (0, 3), t=1, r=2),
}


class TestOracleQuestions:
    @pytest.mark.parametrize("answer", [((7, 3),), INDETERMINATE])
    @pytest.mark.parametrize("kind", sorted(FIRST_A4_MOVES))
    def test_a_false_answer_refuses_after_the_questions_are_built(
            self, monkeypatch, kind, answer):
        move = FIRST_A4_MOVES[kind]
        _, warm = move()  # builds and keeps this shape's questions
        assert warm.oracle and all(check.ok for check in warm.oracle)
        monkeypatch.setattr(board_module, "ext_on_M", lambda source, target: answer)
        with pytest.raises(MoveRefused) as err:
            move()
        source, target, expected = lemma_a4(1, 0, 5)
        check = err.value.check
        assert err.value.kind == kind
        assert check.got is answer and not check.ok
        assert check.expected == expected == ((1, 1),)
        assert check.source == (source.m, source.x, source.y)
        assert check.target == (target.m, target.x, target.y)
        monkeypatch.undo()
        _, again = move()  # the kept questions hold no answer
        assert again.oracle == warm.oracle

    def test_each_distinct_question_is_one_object_that_holds_no_answer(self, monkeypatch):
        checks = [check for record in run_game(8, 0, validate=True).log for check in record.oracle]
        assert len(checks) == 3297
        assert len({id(check) for check in checks}) == len(set(checks)) == 70
        warm = {kind: move()[1].oracle for kind, move in FIRST_A4_MOVES.items()}
        shared = warm["absorb"][0]
        assert all(oracle[0] is shared for oracle in warm.values())
        monkeypatch.setattr(board_module, "ext_on_M", lambda source, target: ((7, 3),))
        for move in FIRST_A4_MOVES.values():
            with pytest.raises(MoveRefused) as err:
                move()
            assert err.value.check == shared._replace(got=((7, 3),))
        monkeypatch.undo()
        for kind, move in FIRST_A4_MOVES.items():
            _, again = move()
            assert again.oracle == warm[kind] and again.oracle[0] is shared
        assert shared.ok

    @pytest.mark.parametrize("mode", ["fibration", "flip"])
    @pytest.mark.parametrize("n, eps", [(n, eps) for n in range(2, 9) for eps in (0, 1)])
    def test_every_question_asks_about_valid_descriptors(self, monkeypatch, n, eps, mode):
        """The questions are built unchecked, so each source and target of a
        validated game must already be what ``BundleDescriptor`` would build."""
        built = board_module._questions
        asked = []

        def recording(kind, *key):
            questions = built(kind, *key)
            asked.extend(questions[0])
            return questions

        monkeypatch.setattr(board_module, "_questions", recording)
        run_game(n, eps, mode=mode, validate=True)
        assert asked
        for source, target, *_ in asked:
            for d in (source, target):
                assert type(d) is BundleDescriptor and BundleDescriptor(*d) == d

    def test_a_validated_n8_even_game_asks_the_oracle_for_every_check(self, monkeypatch):
        calls = 0
        answer = board_module.ext_on_M

        def counted(source, target):
            nonlocal calls
            calls += 1
            return answer(source, target)

        monkeypatch.setattr(board_module, "ext_on_M", counted)
        result = run_game(8, 0, validate=True)
        assert calls == sum(len(record.oracle) for record in result.log) == 3297
        assert all(check.ok for record in result.log for check in record.oracle)

    def test_a_validated_n8_even_game_does_pinned_work_from_cold_caches(self):
        # a fresh interpreter, so that every cache starts empty
        script = (
            "import json\n"
            "from flagchess import board, oracle, run_game, weights\n"
            "run_game(8, 0, validate=True)\n"
            "caches = {'ext_flag': oracle._ext_on_flag_cached,\n"
            "          'bwb': weights.line_bundle_cohomology, 'questions': board._questions,\n"
            "          'question': board._question, 'a4_question': board._a4_question,\n"
            "          'twist': oracle._divisor_twist}\n"
            "print(json.dumps({k: fn.cache_info()[:2] for k, fn in caches.items()}))\n"
        )
        src = str(Path(board_module.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, check=True)
        caches = json.loads(proc.stdout)
        assert caches["ext_flag"] == [2 * 3297 - 140, 140]
        assert caches["bwb"][1] == 125
        assert caches["questions"][1] == 14
        assert caches["question"][1] == 70  # each distinct question built once
        # N = 16: the lemma A4 points are r = 0..6 with r < t <= 13 - r, so
        # 13 + 11 + ... + 1 = 49 of them, each built once
        assert caches["a4_question"][1] == 49
        # the targets are Sym^r U2v(-1,1) for r = 0..6 and, fed back by
        # rule1 (r <= 7), Sym^k U2v for k = 2..7: one twist each
        assert caches["twist"] == [3297 - 13, 13]

    def test_a_validated_n12_odd_game_builds_each_lemma_a4_point_once(self, monkeypatch):
        points = []
        built = board_module.lemma_a4

        def counted(t, r, N):
            points.append((t, r, N))
            return built(t, r, N)

        monkeypatch.setattr(board_module, "lemma_a4", counted)
        for memo in ("_questions", "_a4_question"):  # cold, so that every point is asked
            fresh = lru_cache(maxsize=None)(getattr(board_module, memo).__wrapped__)
            monkeypatch.setattr(board_module, memo, fresh)
        result = run_game(12, 1, validate=True)
        assert all(check.ok for record in result.log for check in record.oracle)
        # N = 25: r = 0..10 with r < t <= 22 - r, so 22 + 20 + ... + 2 points
        assert len(points) == len(set(points)) == 132


class TestMoveTable:
    def test_table_lists_every_move_function(self):
        moves = {name[len("move_"):] for name, value in vars(board_module).items()
                 if name.startswith("move_") and callable(value)}
        assert set(MOVES) == moves

    def test_table_matches_each_signature(self):
        for kind, spec in MOVES.items():
            parameters = inspect.signature(getattr(board_module, f"move_{kind}")).parameters
            names = list(parameters)
            assert names[0] == "board"
            takes = names[1:]
            if spec.validates:
                assert takes.pop() == "validate"
            count = 1 if spec.positions is None else spec.positions
            assert tuple(takes[count:]) == tuple(spec.params), kind
            for name, wanted in spec.params.items():
                annotation = parameters[name].annotation
                assert annotation.split(" | ")[0] == wanted.__name__, (kind, name)
                assert (name in spec.optional) == annotation.endswith(" | None"), (kind, name)

    # a value of each parameter's type, and each move's positions, which a refusal precedes
    VALID = {"y": 1, "steps": 1, "k": 1, "dx": 0, "dy": 0, "note": "a", "count": 0,
             "opacify": False, "t": 1, "r": 1}
    DIRECTION = {"serre_translate": "left", "serre_global": "front_to_back"}
    # for each parameter type, how a refusal names it and values of other types
    # (None leaves an optional parameter out, so it is not one of them there)
    WORDS = {int: "an int", str: "str", bool: "bool"}
    WRONG = {int: (1.5, True, None, "1"), str: (None, 1, True, b"a"), bool: (None, 1, "yes", 0.0)}

    @pytest.mark.parametrize("kind", list(MOVES))
    def test_a_direct_call_refuses_bad_arguments_in_the_words_of_play(self, kind):
        # a board that is not a Board, a parameter or a validate of another
        # type, and a position that is not a tuple pair of ints
        spec = MOVES[kind]
        move = getattr(board_module, f"move_{kind}")
        positions = ([(0, 1)],) if spec.positions is None else ((0, 1), (-1, 2))[:spec.positions]
        params = {name: self.DIRECTION.get(kind) if name == "direction" else self.VALID[name]
                  for name in spec.params}
        board = initial_board_fibration(2, 1)
        calls = [(None, positions, params, "board must be a Board, got NoneType")]
        calls += [(board, positions, {**params, name: value},
                   f"{kind} parameter {name} must be {self.WORDS[wanted]}, got {value!r}")
                  for name, wanted in spec.params.items() for value in self.WRONG[wanted]
                  if not (value is None and name in spec.optional)]
        if spec.validates:
            calls += [(board, positions, {**params, "validate": value},
                       f"validate must be a bool, got {value!r}") for value in (None, 1, "yes")]
        for bad in ((0.0, 1), (True, 1), [0, 1], (0, 1, 2), (0,), None) if positions else ():
            # the move is given its positions as a list, or one by one
            moved = ([bad],) if spec.positions is None else (bad, *positions[1:])
            shown = moved[0] if spec.positions is None else moved
            calls.append((board, moved, params, f"{kind} positions must be a sequence of "
                                                f"pairs of ints, got {shown!r}"))
        for on, where, given, refusal in calls:
            rest = {name: value for name, value in given.items() if name != "validate"}
            for call in (lambda: move(on, *where, **given),
                         lambda: play(on, kind, tuple(where[0] if spec.positions is None
                                                      else where), rest,
                                      given.get("validate", False))):
                with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
                    call()

    def test_a_position_of_floats_is_refused_where_the_position_map_would_find_a_box(self):
        # 0.0 == 0 in the map's dict, so the box at (0, 1) would be found and retired
        board = initial_board_fibration(2, 1)
        assert board.at((0.0, 1)) is not None
        with pytest.raises(ValueError, match=r"^push_right positions must be a sequence of "
                                             r"pairs of ints, got \(\(0\.0, 1\),\)$"):
            move_push_right(board, (0.0, 1), 1, True)
        with pytest.raises(ValueError, match=r"^push_right parameter opacify must be bool, "
                                             r"got 'yes'$"):
            move_push_right(board, (0, 1), 1, "yes")


class TestRefusalsShowALongInt:
    """A refusal that shows a caller's int past Python's 4,300-digit limit
    on converting an int to text shows it by its size, in the library's
    words, and does not raise the interpreter's digit-limit error."""

    @pytest.mark.parametrize("call, error, refusal", [
        (lambda board, pos: Board(2, 1, (Box(1.5, 10**5000, SymBlock(0)),)), ValueError,
         "box position must be two ints, got (1.5, an int of 5,001 digits)"),
        (lambda board, pos: play(board, "push_right", ((10**5000, 0),),
                                 {"count": 1, "opacify": False}, False), MoveRefused,
         "push_right: no box at (an int of 5,001 digits, 0)"),
        (lambda board, pos: play(board, "push_right", (pos,),
                                 {"count": 10**5000, "opacify": False}, False), MoveRefused,
         "push_right: cannot push past an int of 5,001 digits boxes from slot 0"),
        (lambda board, pos: play(board, "serre_global", (),
                                 {"k": 10**5000, "direction": "front_to_back"}, False),
         MoveRefused, "serre_global: cannot rotate an int of 5,001 digits of 15 boxes"),
        (lambda board, pos: play(board, "serre_translate", (),
                                 {"y": 10**5000, "direction": "left", "steps": 1}, False),
         MoveRefused, "serre_translate: no boxes in row y=an int of 5,001 digits"),
        (lambda board, pos: play(board, "push_right", [(10**5000, 0.5)],
                                 {"count": 1, "opacify": False}, False), ValueError,
         "push_right positions must be a sequence of pairs of ints, "
         "got ((an int of 5,001 digits, 0.5),)"),
        (lambda board, pos: Board(2, 1, (Box(10**5000, 0, SymBlock(0)),) * 2), ValueError,
         "duplicate box position (an int of 5,001 digits, 0)"),
        (lambda board, pos: play(board, 10**5000, (), {}, False), ValueError,
         "unknown move kind an int of 5,001 digits"),
        (lambda board, pos: play(board, "serre_global", (), {}, 10**5000), ValueError,
         "validate must be a bool, got an int of 5,001 digits"),
        (lambda board, pos: play(board, "serre_global", (),
                                 {"k": 1, "direction": 10**5000}, False), ValueError,
         "serre_global parameter direction must be str, got an int of 5,001 digits"),
        (lambda board, pos: log_signature(10**5000), ValueError,
         "a log entry must be a MoveRecord, got an int of 5,001 digits"),
    ], ids=["board-position", "no-box", "push-count", "serre-global-k", "serre-translate-y",
            "positions-list", "duplicate-position", "kind", "validate", "parameter-type",
            "log-entry"])
    def test_refused_in_the_librarys_words(self, call, error, refusal):
        board = initial_board_fibration(2, 1)
        with deadline(1), pytest.raises(error, match=f"^{re.escape(refusal)}$"):
            call(board, board.boxes[0].pos)
