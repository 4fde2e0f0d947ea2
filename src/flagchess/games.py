"""The two mutation games that straighten a board into a Grassmannian column.

``run_game`` plays a fixed, fully deterministic script for either parity of
N = 2n + eps, starting from the fibration staircase (or from the flipped
staircase, normalized by one logged global twist).  The script produces a
final board from which :func:`extract_gr2` splits off the expected column of
symmetric-power blocks; everything left over -- live zeros plus retired
opaque material -- is the residual, whose copy count is compared against the
reference count in fibration mode.  A disagreement is reported as a flag on
the result, never as an exception: the games always run to completion.
"""

from __future__ import annotations

from collections import namedtuple

from .board import Board, Box, MoveRecord, SymBlock, apply_record, play
from .weights import _game_N


def initial_board_fibration(n: int, eps: int) -> Board:
    """Staircase start: row y has N zeros at x in [y-n-1, y+n+eps-2]."""
    N = _game_N(n, eps)
    boxes = [
        Box(x, y, SymBlock(0))
        for y in range(1, N - 1)
        for x in range(y - n - 1, y + n + eps - 1)
    ]
    return Board(n, eps, tuple(boxes))


def corrected_flip_board(n: int, eps: int) -> Board:
    """Playable flip start: row y has N zeros at x in [y, y+N-1].

    One global twist by (n+eps-2, N-1) carries it onto the fibration start.
    """
    N = _game_N(n, eps)
    boxes = [
        Box(x, y, SymBlock(0))
        for y in range(-(N - 2), 0)
        for x in range(y, y + N)
    ]
    return Board(n, eps, tuple(boxes))


class _Runner:
    """Applies moves in sequence, collecting the records and phase snapshots."""

    def __init__(self, board: Board, validate: bool):
        self.board = board
        self.validate = validate
        self.log: list[MoveRecord] = []
        self.phases: list[tuple[str, Board, int]] = []

    def do(self, kind: str, *positions: tuple[int, int], **params) -> None:
        self.board, record = play(self.board, kind, positions, params, self.validate)
        self.log.append(record)

    def phase(self, name: str) -> None:
        self.phases.append((name, self.board, len(self.log)))


def _feed_row(g: _Runner, y: int, xs: range, retire: bool) -> None:
    """Feed row y into row y-1 by rule 1: for each x of ``xs`` in turn, the
    block at (x, y) feeds the head zero at (x+1, y-1).  With ``retire``, the
    row's leftmost box, at (xs[0]-1, y), is first pushed past the fed
    blocks and retired."""
    if retire:
        g.do("push_right", (xs[0] - 1, y), count=len(xs), opacify=True)
    for x in xs:
        g.do("rule1", (x + 1, y - 1), (x, y))


def _even_script(g: _Runner, n: int) -> None:
    # Cascade rows n-1 .. 2 into row 1, retiring each row's leftmost zero.
    for y in range(n - 1, 1, -1):
        _feed_row(g, y, range(-n + 1, 2 - y), retire=True)
    g.phase("phase1")
    g.do("serre_global", k=n, direction="front_to_back")
    g.phase("serre")
    # Cascade the relocated bottom row back down through rows 2n-1 .. 3.
    # Rows n+1 .. 2n-2 retire their leftmost box; row n pushes its two leftmost.
    for y in range(2 * n - 1, 2, -1):
        if y == n:
            g.do("push_right", (-n, y), count=n - 1, opacify=True)
            g.do("push_right", (-n + 1, y), count=n - 2, opacify=False)
        lo = -n + 1 if y > n else -n + 2 if y == n else 2 - y
        _feed_row(g, y, range(lo, 0), retire=n < y < 2 * n - 1)
    g.phase("phase2")
    if n == 2:
        g.do("push_right", (-2, 2), count=1, opacify=True)
    g.do("orange_merge", (-n + 1, n), (0, 1))
    g.do("rule2", (1, 2 * n - 2), (0, 2 * n - 1), t=n - 2, r=n - 1)
    g.do("serre_global", k=1, direction="back_to_front")
    g.phase("endgame")


def _odd_script(g: _Runner, n: int) -> None:
    N = 2 * n + 1
    # Cascade every row down into row 1.
    for y in range(N - 2, 1, -1):
        _feed_row(g, y, range(-n + 1, min(-1, n - y) + 1), retire=True)
    g.phase("phase1")
    g.do("serre_global", k=n, direction="front_to_back")
    g.phase("serre")
    # Cascade the relocated bottom row back up to row n+1.
    for y in range(N - 1, n + 1, -1):
        _feed_row(g, y, range(-n + 1 if y == N - 1 else n + 1 - y, 1), retire=False)
    g.phase("phase2")
    # Endgame: retire stray zeros, gather the upper column, split the last block.
    g.do("opacify_boxes", *[(x, y) for y in range(n + 1, N - 1) for x in range(2, n + 1)])
    g.do("gather_to_end", *[(1, y) for y in range(n + 1, N - 1)])
    g.do("serre_global", k=n - 1, direction="back_to_front")
    g.do("rule2", (1, n), (0, n + 1), t=n - 1, r=n)
    g.do("gather_to_end", (1, n))
    g.do("serre_global", k=1, direction="back_to_front")
    g.phase("endgame")


def _gr2_template(n: int, eps: int, anchor: tuple[int, int]) -> list[tuple[int, int, int]]:
    """Expected (x, y, grade) cells of the straightened column at an anchor,
    N = 2n + eps of them."""
    x0, y0 = anchor
    if eps == 0:
        return ([(x0, y0, n - 2)]
                + [(x0, y0 + i, n - 1) for i in range(1, n + 1)]
                + [(x0, y0 + n + i, n - 2) for i in range(1, n)])
    return [(x0, y0 + i, n - 1) for i in range(2 * n + 1)]


def extract_gr2(board: Board, n: int, eps: int,
                ) -> tuple[tuple[Box, ...], tuple[str, ...]]:
    """Find the expected column of blocks anywhere on the board.

    The match is positional but anchor-free: every block of the right grade
    is tried as the column's bottom cell.  Returns (matched boxes in column
    order, flags); a failed search returns no boxes and reports the best
    near-miss as a flag instead of raising.
    """
    anchor_grade = n - 2 if eps == 0 else n - 1
    best_hits, best_anchor = -1, None
    for box in board.boxes:
        if not (isinstance(box.content, SymBlock) and box.content.m == anchor_grade):
            continue
        cells = _gr2_template(n, eps, box.pos)
        hits = 0
        for (x, y, grade) in cells:
            got = board.at((x, y))
            if got is not None and isinstance(got.content, SymBlock) and got.content.m == grade:
                hits += 1
        if hits == len(cells):
            matched = tuple(board.at((x, y)) for (x, y, _) in cells)
            return matched, ()
        if hits > best_hits:
            best_hits, best_anchor = hits, box.pos
    flag = (f"no straightened column found; best anchor {best_anchor} "
            f"matched {max(best_hits, 0)} of {2 * n + eps} cells")
    return (), (flag,)


class GameResult(namedtuple("GameResult", "n eps mode initial final log "
                                          "gr2_boxes residual_f_count flags")):
    """The whole record of one game.

    ``phases`` holds the snapshots ``(name, board, moves so far)`` that
    ``run_game`` takes at the script's seven phase boundaries.  They are
    views of the run, not part of its outcome: they are kept outside the
    named tuple, so equality, hash and ``repr`` leave them out, and a result
    parsed from JSON has none.  No attribute can be assigned.
    """

    phases: tuple[tuple[str, Board, int], ...] = ()

    def __new__(cls, *fields, phases: tuple[tuple[str, Board, int], ...] = ()) -> GameResult:
        self = super().__new__(cls, *fields)
        self.__dict__["phases"] = phases
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    @property
    def gr2_found(self) -> bool:
        return bool(self.gr2_boxes)

    @property
    def residual_boxes(self) -> tuple[Box, ...]:
        return _residual(self.final, self.gr2_boxes)


def _residual(final: Board, gr2_boxes: tuple[Box, ...]) -> tuple[Box, ...]:
    """The final board's boxes outside the column, in SOD order."""
    matched = {b.pos for b in gr2_boxes}
    return tuple(b for b in final.boxes if b.pos not in matched)


def reference_residual_count(n: int, eps: int) -> int:
    """The reference leftover-generator count: 2n^2 - n - eps."""
    return 2 * n * n - n - eps


def _start_board(n: int, eps: int, mode: str) -> Board:
    """The board a game in ``mode`` starts from: the fibration staircase, or
    the flipped one."""
    if mode not in ("fibration", "flip"):
        raise ValueError(f"unknown mode {mode!r}")
    return initial_board_fibration(n, eps) if mode == "fibration" else corrected_flip_board(n, eps)


def _finish(mode: str, initial: Board, final: Board, log: tuple[MoveRecord, ...],
            phases: tuple[tuple[str, Board, int], ...] = ()) -> GameResult:
    """The result of a game played from ``initial`` to ``final``: its boxes
    recounted, its column split off, its residual copies summed and, in
    fibration mode, compared with the reference count."""
    n, eps = initial.n, initial.eps
    _recount("the game", final.boxes, initial.copies)
    gr2_boxes, flags = extract_gr2(final, n, eps)
    residual_count = sum(b.copies for b in _residual(final, gr2_boxes))
    expected = reference_residual_count(n, eps)
    if mode == "fibration" and residual_count != expected:
        flags += (f"residual count {residual_count} differs from the "
                  f"reference value {expected}",)
    return GameResult(n, eps, mode, initial, final, tuple(log), gr2_boxes,
                      residual_count, flags, phases=tuple(phases))


def run_game(n: int, eps: int, mode: str = "fibration",
             validate: bool = True) -> GameResult:
    """Play the full straightening game and split the final board.

    Unless ``validate`` is False, the oracle checks every windowed move.
    The move log is identical either way.
    """
    N = _game_N(n, eps)
    initial = _start_board(n, eps, mode)
    g = _Runner(initial, validate)
    g.phase("initial")
    if mode == "flip":
        g.do("global_twist", dx=n + eps - 2, dy=N - 1, note="normalize-flip-start")
    for row in range(2, N - 1):
        g.do("serre_translate", y=row, direction="left", steps=row - 1)
    g.phase("align")
    if eps == 0:
        _even_script(g, n)
    else:
        _odd_script(g, n)
    g.phase("final")
    return _finish(mode, initial, g.board, g.log, g.phases)


def _recount(what: str, boxes: tuple[Box, ...], copies: int) -> None:
    """Raise unless ``boxes`` hold ``copies`` copies, counted box by box.

    Each move checks only its own edit; this counts the boxes themselves.
    """
    if sum(b.content.copies for b in boxes) != copies:
        raise AssertionError(f"{what} broke copy conservation")


def replay(initial: Board, log: tuple[MoveRecord, ...]) -> Board:
    """Re-apply a logged game; each step re-checks its own record, and the
    final board's boxes are recounted against the initial board's copies."""
    board = initial
    for record in log:
        board = apply_record(board, record)
    _recount("the replay", board.boxes, initial.copies)
    return board
