"""Chessboard model for semiorthogonal mutations on the divisor M.

A board is a finite sequence of boxes; the sequence order is the
semiorthogonal order (SOD order) and each box carries a lattice position
(x, y) recording the bidegree twist of the object it stands for, together
with a content: a symmetric-power block ``SymBlock(m)`` worth m+1 copies
of the generator count, or an ``Opaque`` marker for material that no
longer participates in moves and may be slid past freely.

Every record here is a named tuple, and no field of one can be assigned.
``Box``, ``OracleCheck`` and ``MoveRecord`` hash and compare in C and equal
plain tuples of their fields.  ``SymBlock`` and ``Opaque`` equal only
content of their own class, so a block never equals an opaque marker of the
same number.  ``Board`` is the tuple ``(n, eps, boxes)`` and keeps N, its
copy total and its position map beside it.  ``SymBlock``, ``Opaque`` and
``Board`` check their fields when built, through ``_make`` and ``_replace``
too.

Every move is a pure function Board -> (Board, MoveRecord).  Moves either
apply (returning the mutated board and a replayable record) or raise
:class:`MoveRefused`.  Every move hands its edit to :func:`_commit`, the one
step that checks an edit and makes the new board: the new SOD order, the
boxes it removes, the boxes it adds and, for a validated windowed move, the
key of its shape.  ``_commit`` checks that the copies removed equal the
copies added, patches the parent's position map where boxes leave and land,
refusing a landing on an occupied position, and carries the copy total over,
so no move rebuilds the board.  Given a shape key it then asks the Ext
oracle on M, refusing when a required vanishing fails or comes back
indeterminate.  The mutation moves (transpose / absorb / rule1 / rule2) act
on the SOD slots between two blocks: each looks its window up with
:func:`_window`, checks its own shape, and has :func:`_fill` put the new
live boxes in the window, every opaque box keeping its slot.  The questions
depend only on the shape, so :func:`_questions` assembles them once per key,
with the passing transcript, from :func:`_question`, which builds each
distinct question (its source, target and passing check) once per value and
shares it across shapes, and :func:`_a4_question`, which builds each lemma
A4 point once; the oracle answers them on every move.  The
shape-based refusals (e.g. transposing a pair that pairs nontrivially) are
enforced even with validation off, so a validated and an unvalidated run
agree move for move.  :data:`MOVES` says how each kind is called, and
:func:`play` calls a move by its kind name.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from functools import lru_cache
from typing import NamedTuple

from . import _Record, _shown, _sized
from .oracle import ext_on_M, lemma_a4
from .schur import INDETERMINATE, BundleDescriptor
from .weights import GradedDims, _game_N


class _Content(_Record):
    """A box's content: a one-field named tuple that equals only content of
    its own class, so a block never equals an opaque marker."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__


class SymBlock(_Content, namedtuple("SymBlock", "m")):
    """Block standing for the m-th symmetric power of the rank-2 dual; m+1 copies."""

    __slots__ = ()

    def __new__(cls, m: int) -> SymBlock:
        return tuple.__new__(cls, (_sized(m, "block grade", 0),))

    @property
    def copies(self) -> int:
        return self.m + 1


class Opaque(_Content, namedtuple("Opaque", "copies")):
    """Inert content: keeps its copy count but never moves or pairs again."""

    __slots__ = ()

    def __new__(cls, copies: int = 1) -> Opaque:
        return tuple.__new__(cls, (_sized(copies, "opaque copies", 1),))


Content = SymBlock | Opaque


class Box(NamedTuple):
    """A block or an opaque marker at lattice position (x, y).

    A named tuple, so that comparing two boxes of one board stays in C: they
    differ in x or y before any content is compared.  The content classes
    stay distinct, so a block never equals an opaque marker.
    """

    x: int
    y: int
    content: Content

    @property
    def pos(self) -> tuple[int, int]:
        return (self.x, self.y)

    @property
    def copies(self) -> int:
        return self.content.copies

    @property
    def opaque(self) -> bool:
        return isinstance(self.content, Opaque)


class Board(_Record, namedtuple("Board", "n eps boxes")):
    """Boxes in SOD order on the (x, y) twist lattice for M inside F(1,2,N).

    Equality, hash and ``repr`` see the tuple ``(n, eps, boxes)`` only.
    Built from it, a board checks its shape, that ``boxes`` is a tuple, and
    that each entry is a ``Box`` with a valid position and content, in one
    pass, and keeps ``N``, ``copies`` and ``_at``, each position's box,
    beside the tuple.  A move's board is made by :func:`_commit` instead, from its
    parent's map and copy total.
    """

    N: int
    copies: int
    _at: dict[tuple[int, int], Box]

    def __new__(cls, n: int, eps: int, boxes: tuple[Box, ...]) -> Board:
        N = _game_N(n, eps)
        if type(boxes) is not tuple:
            raise ValueError(f"boxes must be a tuple, got {type(boxes).__name__}")
        at: dict[tuple[int, int], Box] = {}
        copies = 0
        for b in boxes:
            if type(b) is not Box:
                raise ValueError(f"a box must be a Box, got {_shown(b)}")
            x, y, content = b
            if type(x) is not int or type(y) is not int:
                raise ValueError(f"box position must be two ints, got {_shown((x, y))}")
            if not isinstance(content, Content):
                raise ValueError("box content must be a SymBlock or an Opaque, "
                                 f"got {_shown(content)}")
            if (x, y) in at:
                raise ValueError(f"duplicate box position {_shown((x, y))}")
            at[x, y] = b
            copies += content.copies
        self = super().__new__(cls, n, eps, boxes)
        self.__dict__.update(N=N, copies=copies, _at=at)
        return self

    def at(self, pos: tuple[int, int]) -> Box | None:
        return self._at.get(pos)

    def index(self, pos: tuple[int, int]) -> int:
        """The SOD slot of the box at ``pos``: a scan of ``boxes`` in C."""
        return self.boxes.index(self._at[pos])


class OracleCheck(NamedTuple):
    """One Ext_M requirement issued while validating a move."""

    source: tuple[int, int, int]  # (m, x, y)
    target: tuple[int, int, int]
    space: str
    expected: tuple[tuple[int, int], ...]
    got: tuple[tuple[int, int], ...] | str

    @property
    def ok(self) -> bool:
        return self.got == self.expected


Params = tuple[tuple[str, int | str | bool], ...]


class MoveRecord(NamedTuple):
    kind: str
    positions: tuple[tuple[int, int], ...]
    params: Params
    oracle: tuple[OracleCheck, ...]
    verdict: str
    copies_before: int
    copies_after: int


def log_signature(record: MoveRecord) -> tuple:
    """Everything about a move except its oracle transcript; an entry that is
    not a ``MoveRecord`` raises ``ValueError``."""
    if type(record) is not MoveRecord:
        raise ValueError(f"a log entry must be a MoveRecord, got {_shown(record)}")
    return (record.kind, record.positions, record.params,
            record.copies_before, record.copies_after)


class MoveRefused(RuntimeError):
    """A move whose preconditions (shape, bounds, or oracle) fail."""

    def __init__(self, kind: str, reason: str, check: OracleCheck | None = None):
        super().__init__(f"{kind}: {reason}")
        self.kind = kind
        self.reason = reason
        self.check = check


Question = tuple[BundleDescriptor, BundleDescriptor, OracleCheck]
Questions = tuple[tuple[Question, ...], tuple[OracleCheck, ...]]


@lru_cache(maxsize=None)
def _question(source: BundleDescriptor, target: BundleDescriptor,
              expected: GradedDims) -> Question:
    """One Ext_M requirement as (source, target, the check recorded when the
    oracle gives the expected answer), built once per value and shared by
    every move shape that asks it.  Its descriptors come checked, so each
    is within the oracle's bounds."""
    return source, target, OracleCheck((source.m, source.x, source.y),
                                       (target.m, target.x, target.y), "M", expected, expected)


@lru_cache(maxsize=None)
def _a4_question(t: int, r: int, N: int) -> Question:
    """The :func:`_question` of lemma A4 at (t, r, N), built and its operands
    checked once per point, as ``lemma_a4`` leaves them unchecked for sweeps."""
    source, target, expected = lemma_a4(t, r, N)
    return _question(BundleDescriptor._make(source), BundleDescriptor._make(target), expected)


@lru_cache(maxsize=None)
def _questions(kind: str, *key: int) -> Questions:
    """A windowed move shape's Ext_M requirements, assembled once per key
    from the shared :func:`_question` values (the lemma A4 ones through
    :func:`_a4_question`), and the move's whole passing transcript as one
    tuple.

    transpose (lm, rm, dx, dy, N): no Ext from the left block to the right
    one at relative twist (dx, dy).  absorb (t, N): lemma A4 at (t, t-1).
    rule1 (r, l, N) and rule2 (r, t, N): each piece grade m, below r for
    rule1 and below r-1 for rule2, commutes past the window zeros at
    relative twists (m+2, 0) .. (span, 0), then pairs with the zero at
    (m+1, 0) in one degree: lemma A4 at t = m+2 .. span, then m+1.  Rule1
    also needs no Ext from each zero fed back at (b, 0), 1 <= b <= m, to
    the grade m+1 block.  A question past the oracle's bounds refuses the
    move unasked.
    """
    try:
        if kind == "transpose":
            lm, rm, dx, dy, N = key
            asked = [_question(BundleDescriptor(lm, 0, 0, N), BundleDescriptor(rm, dx, dy, N), ())]
        elif kind == "absorb":
            t, N = key
            asked = [_a4_question(t, t - 1, N)]
        else:
            r, span, N = key
            grades = range(r) if kind == "rule1" else range(r - 1)
            asked = [_a4_question(t, m, N)
                     for m in grades for t in (*range(m + 2, span + 1), m + 1)]
            if kind == "rule1":
                asked += [_question(BundleDescriptor(0, back, 0, N),
                                    BundleDescriptor(m + 1, 0, 0, N), ())
                          for m in grades for back in range(1, m + 1)]
    except ValueError as past:
        raise MoveRefused(kind, str(past)) from None
    return tuple(asked), tuple([passed for *_, passed in asked])


def _commit(board: Board, boxes: Sequence[Box], removed: Sequence[Box],
            added: Sequence[Box], kind: str, positions: tuple[tuple[int, int], ...],
            params: Params, key: tuple[int, ...] | None = None) -> tuple[Board, MoveRecord]:
    """Check a move's edit and make its board and record: ``boxes`` in
    their new SOD order, of which ``added`` are new and ``removed`` are the
    parent's boxes that left.

    The copies removed must equal the copies added, and an added box may
    not land on a position that stays occupied; the parent's position map
    is copied and patched at the edited positions only.  Given a windowed
    move's shape ``key`` (None with validation off), the oracle answers the
    shape's :func:`_questions`, and the first answer that differs from the
    expected one by value refuses the move.
    """
    copies = board.copies
    if sum(b.content.copies for b in removed) != sum(b.content.copies for b in added):
        raise AssertionError(f"{kind} broke copy conservation")
    at = board._at.copy()
    for b in removed:
        del at[b.x, b.y]
    for b in added:
        if (b.x, b.y) in at:
            raise MoveRefused(kind, f"landing position {(b.x, b.y)} is occupied")
        at[b.x, b.y] = b
    oracle: tuple[OracleCheck, ...] = ()
    if key is not None:
        asked, oracle = _questions(kind, *key)
        for source, target, passed in asked:
            answer = ext_on_M(source, target)
            if answer != passed.expected:
                check = passed._replace(got=answer)
                reason = ("oracle indeterminate" if answer == INDETERMINATE
                          else f"oracle expected {check.expected} but got {answer}")
                raise MoveRefused(kind, f"{reason} for {check.source} vs {check.target}", check)
    new_board = tuple.__new__(Board, (board.n, board.eps, tuple(boxes)))
    new_board.__dict__.update(N=board.N, copies=copies, _at=at)
    record = MoveRecord(kind, positions, params, oracle, "applied", copies, copies)
    return new_board, record


def _get(board: Board, pos: tuple[int, int], kind: str) -> Box:
    box = _checked_board(board).at(pos)
    if box is None:
        raise MoveRefused(kind, f"no box at {_shown(pos)}")
    return box


def _sym(box: Box, kind: str, role: str) -> SymBlock:
    if not isinstance(box.content, SymBlock):
        raise MoveRefused(kind, f"{role} at {box.pos} is opaque")
    return box.content


def move_serre_translate(board: Board, y: int, direction: str, steps: int,
                         ) -> tuple[Board, MoveRecord]:
    """Rotate one row: each step wraps the row's outermost box by a full N-twist.

    A left step sends the rightmost box of the row to the row front at x - N;
    a right step sends the leftmost to the row end at x + N.  On a row of N
    boxes in consecutive columns, N steps return the row to its SOD
    arrangement shifted bodily by one period.  The row's boxes must lie in
    distinct columns mod N, so that no step stacks two boxes on one
    position; any number of steps then costs O(L log(steps * N)) for a row
    of L boxes.
    """
    kind = "serre_translate"
    _sized(y, f"{kind} parameter y")
    _typed(direction, str, f"{kind} parameter direction must be str")
    _sized(steps, f"{kind} parameter steps")
    _checked_board(board)
    if direction not in ("left", "right"):
        raise MoveRefused(kind, f"unknown direction {direction!r}")
    if steps < 0:
        raise MoveRefused(kind, "steps must be >= 0")
    slots = [i for i, b in enumerate(board.boxes) if b.y == y]
    if not slots:
        raise MoveRefused(kind, f"no boxes in row y={_shown(y)}")
    row = [board.boxes[i] for i in slots]
    N = board.N
    if len({b.x % N for b in row}) < len(row):
        raise MoveRefused(kind, f"two boxes of row y={y} share a column mod {N}")
    new_row = _serre_rotate(row, direction, steps, N)
    new_boxes = list(board.boxes)
    for slot, box in zip(slots, new_row):
        new_boxes[slot] = box
    return _commit(board, new_boxes, row, new_row, kind, (),
                   (("y", y), ("direction", direction), ("steps", steps)))


def _serre_rotate(row: list[Box], direction: str, steps: int, N: int) -> list[Box]:
    """The row after ``steps`` steps of :func:`move_serre_translate`.

    Write u = x for left steps and u = -x for right ones.  A box at u is
    stepped at u, u - N, u - 2N, ..., and each step takes the largest value
    left in the union of all boxes' progressions, which has no repeats since
    the columns differ mod N.  So after s steps each box has been stepped
    once for each of its values at or above theta, the s-th largest value of
    the union.  The stepped boxes go to the front (left) or the end (right)
    ordered by x, most recently stepped outermost; the others keep their
    order.
    """
    if not steps:
        return row
    sign = 1 if direction == "left" else -1
    us = [sign * b.x for b in row]

    def count(theta: int) -> int:
        return sum((u - theta) // N + 1 for u in us if u >= theta)

    lo, hi = max(us) - steps * N, max(us)  # count(lo) > steps, count(hi) == 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if count(mid) >= steps:
            lo = mid
        else:
            hi = mid - 1
    stepped, kept = [], []
    for b, u in zip(row, us):
        if u >= lo:
            stepped.append(Box(b.x - sign * ((u - lo) // N + 1) * N, b.y, b.content))
        else:
            kept.append(b)
    stepped.sort(key=lambda b: b.x)
    return stepped + kept if direction == "left" else kept + stepped


def move_serre_global(board: Board, k: int, direction: str) -> tuple[Board, MoveRecord]:
    """Rotate the whole SOD: k boxes cross the end, twisting by the canonical class.

    front_to_back moves the first k boxes to the end at (x+1, y+N-2);
    back_to_front moves the last k to the front at (x-1, y-(N-2)).  A box
    may not land on the position of a box that stays.
    """
    kind = "serre_global"
    _sized(k, f"{kind} parameter k")
    _typed(direction, str, f"{kind} parameter direction must be str")
    _checked_board(board)
    if direction not in ("front_to_back", "back_to_front"):
        raise MoveRefused(kind, f"unknown direction {direction!r}")
    if not 0 <= k <= len(board.boxes):
        raise MoveRefused(kind, f"cannot rotate {_shown(k)} of {len(board.boxes)} boxes")
    sign = 1 if direction == "front_to_back" else -1
    split = k if sign == 1 else len(board.boxes) - k
    head, tail = board.boxes[:split], board.boxes[split:]
    crossing = head if sign == 1 else tail
    moved = [Box(b.x + sign, b.y + sign * (board.N - 2), b.content) for b in crossing]
    new_boxes = [*tail, *moved] if sign == 1 else [*moved, *head]
    return _commit(board, new_boxes, crossing, moved, kind, (),
                   (("k", k), ("direction", direction)))


def move_global_twist(board: Board, dx: int, dy: int,
                      note: str | None = None) -> tuple[Board, MoveRecord]:
    """Twist every box by (dx, dy); pure relabeling of the lattice."""
    _sized(dx, "global_twist parameter dx")
    _sized(dy, "global_twist parameter dy")
    params: Params = (("dx", dx), ("dy", dy))
    if note is not None:
        _typed(note, str, "global_twist parameter note must be str")
        params += (("note", note),)
    new_boxes = [Box(b.x + dx, b.y + dy, b.content) for b in _checked_board(board).boxes]
    return _commit(board, new_boxes, board.boxes, new_boxes, "global_twist", (), params)


def move_push_right(board: Board, pos: tuple[int, int], count: int,
                    opacify: bool) -> tuple[Board, MoveRecord]:
    """Move one box later in the SOD, past the next `count` boxes.

    With opacify the box is retired to an Opaque marker of equal copy count
    as it goes (the position is kept for the ledger of leftover material).
    """
    kind = "push_right"
    _sized(count, f"{kind} parameter count")
    _typed(opacify, bool, f"{kind} parameter opacify must be bool")
    _pairs(kind, (pos,))
    box = _get(board, pos, kind)
    i = board.index(pos)
    if count < 0 or i + count >= len(board.boxes):
        raise MoveRefused(kind, f"cannot push past {_shown(count)} boxes from slot {i}")
    moved = Box(box.x, box.y, Opaque(box.copies)) if opacify else box
    new_boxes = list(board.boxes)
    new_boxes[i:i + count + 1] = [*board.boxes[i + 1:i + count + 1], moved]
    return _commit(board, new_boxes, (box,), (moved,), kind, (pos,),
                   (("count", count), ("opacify", opacify)))


def _check_list(kind: str, positions: list[tuple[int, int]], verb: str) -> None:
    """Refuse an empty list of positions, or one that repeats a position."""
    _pairs(kind, positions)
    if not positions:
        raise MoveRefused(kind, f"nothing to {verb}")
    if len(set(positions)) != len(positions):
        raise MoveRefused(kind, "a position is listed twice")


def move_opacify_boxes(board: Board, positions: list[tuple[int, int]],
                       ) -> tuple[Board, MoveRecord]:
    """Retire the listed blocks in place, keeping their copy counts."""
    kind = "opacify_boxes"
    _check_list(kind, positions, "opacify")
    removed, retired = [], {}
    for pos in positions:
        box = _get(board, pos, kind)
        _sym(box, kind, "box")
        removed.append(box)
        retired[pos] = Box(box.x, box.y, Opaque(box.copies))
    new_boxes = [retired.get((b.x, b.y), b) for b in board.boxes]
    return _commit(board, new_boxes, removed, list(retired.values()), kind,
                   tuple(positions), ())


def move_gather_to_end(board: Board, positions: list[tuple[int, int]],
                       ) -> tuple[Board, MoveRecord]:
    """Slide the listed boxes (keeping their mutual order) to the SOD end.

    Legal only when every non-listed box they pass over is opaque: sliding
    past retired material never changes any pairing.
    """
    kind = "gather_to_end"
    _check_list(kind, positions, "gather")
    for pos in positions:
        _get(board, pos, kind)
    idxs = sorted(board.index(pos) for pos in positions)
    listed = set(idxs)
    for j in range(idxs[0] + 1, len(board.boxes)):
        if j not in listed and not board.boxes[j].opaque:
            raise MoveRefused(
                kind, f"would cross live box at {board.boxes[j].pos}")
    new_boxes = [b for i, b in enumerate(board.boxes) if i not in listed]
    new_boxes += [board.boxes[i] for i in idxs]
    return _commit(board, new_boxes, (), [], kind, tuple(positions), ())


def _window(board: Board, kind: str, first_pos: tuple[int, int],
            last_pos: tuple[int, int], roles: tuple[str, str],
            ) -> tuple[Box, Box, int, int, list[Box]]:
    """The two blocks that bound a windowed move, their SOD slots, and the
    live boxes strictly between them.

    Refuses a missing or opaque bounding box, and a first box that does not
    precede the last in SOD order; ``roles`` names the two in the refusal.
    """
    first_role, last_role = roles
    _pairs(kind, (first_pos, last_pos))
    first, last = _get(board, first_pos, kind), _get(board, last_pos, kind)
    _sym(first, kind, first_role)
    _sym(last, kind, last_role)
    i = board.index(first_pos)
    try:
        j = board.boxes.index(last, i + 1)
    except ValueError:
        raise MoveRefused(kind, f"{first_role} must precede {last_role} in SOD order") from None
    return first, last, i, j, [b for b in board.boxes[i + 1:j]
                                if not isinstance(b.content, Opaque)]


def _fill(board: Board, i: int, j: int, live: list[Box]) -> list[Box]:
    """The SOD order with the live boxes of slots i..j replaced, in order,
    by ``live``: live slots left over are dropped, and every opaque box
    keeps its slot."""
    fill = iter(live)
    window = [b if isinstance(b.content, Opaque) else next(fill, None)
              for b in board.boxes[i:j + 1]]
    new_boxes = list(board.boxes)
    new_boxes[i:j + 1] = [b for b in window if b is not None]
    return new_boxes


def move_transpose(board: Board, left_pos: tuple[int, int],
                   right_pos: tuple[int, int], validate: bool = True,
                   ) -> tuple[Board, MoveRecord]:
    """Swap two SOD-adjacent blocks (opaques between are tolerated in place).

    Refused outright for a pairing-shaped pair -- a grade-0 block at relative
    twist (t, 0) against a grade t-1 block at (-1, 1) pairs nontrivially, so
    those two may never commute past each other.  With validation on, the
    actual vanishing Ext_M(left, right-relative) = 0 is checked as well.
    No game script plays it; it serves hand-written documents and tests.
    """
    kind = "transpose"
    _typed(validate, bool, "validate must be a bool")
    left, right, i, j, between = _window(board, kind, left_pos, right_pos,
                                         ("left box", "right box"))
    if between:
        raise MoveRefused(kind, "boxes are not SOD-adjacent")
    lm, rm = left.content.m, right.content.m
    if lm == 0 and right.y - left.y == 1:
        t = left.x - right.x - 1
        if t >= 1 and rm == t - 1:
            raise MoveRefused(
                kind, f"pairing-shaped pair at relative twist ({t}, 0) vs (-1, 1)")
    key = (lm, rm, right.x - left.x, right.y - left.y, board.N) if validate else None
    return _commit(board, _fill(board, i, j, [right, left]), [], [], kind,
                   (left_pos, right_pos), (), key)


def move_absorb(board: Board, target_pos: tuple[int, int],
                source_pos: tuple[int, int], validate: bool = True,
                ) -> tuple[Board, MoveRecord]:
    """Merge a grade-0 block with the grade t-1 block t+1 steps down-left of it.

    The pair at relative twists (t, 0) and (-1, 1) pairs in exactly one
    degree; the merge replaces both by a single grade-t block at the
    common origin (source x + 1, source y - 1).  No game script plays it;
    it serves hand-written documents and tests.
    """
    kind = "absorb"
    _typed(validate, bool, "validate must be a bool")
    target, source, i, j, between = _window(board, kind, target_pos, source_pos,
                                            ("target", "source"))
    if target.content.m != 0:
        raise MoveRefused(kind, "absorbing box must have grade 0")
    t = target.x - source.x - 1
    if source.y - target.y != 1 or t < 1:
        raise MoveRefused(
            kind, f"source must sit at relative twist (-1-t, 1); got offset "
                  f"({source.x - target.x}, {source.y - target.y})")
    if source.content.m != t - 1:
        raise MoveRefused(kind, f"source grade must be {t - 1}, got {source.content.m}")
    if between:
        raise MoveRefused(kind, "boxes are not SOD-adjacent")
    merged = Box(source.x + 1, source.y - 1, SymBlock(t))
    return _commit(board, _fill(board, i, j, [merged]), [target, source], [merged], kind,
                   (target_pos, source_pos), (), (t, board.N) if validate else None)


def _check_zeros(kind: str, window: list[Box], x0: int, y: int) -> None:
    """Refuse unless the window is grade-0 blocks at (x0, y), (x0+1, y), ..."""
    for k, b in enumerate(window):
        if not (isinstance(b.content, SymBlock) and b.content.m == 0
                and (b.x, b.y) == (x0 + k, y)):
            raise MoveRefused(
                kind, f"window box at {b.pos} is not the expected zero at "
                      f"({x0 + k}, {y})")


def move_rule1(board: Board, gray_pos: tuple[int, int],
               block_pos: tuple[int, int], validate: bool = True,
               ) -> tuple[Board, MoveRecord]:
    """Feed a grade r-1 block into the zero heading a row of l zeros.

    Window (in SOD order, opaques skipped): a grade-0 box at (X, Y), then l
    zeros at (X+1, Y) .. (X+l, Y), then the moving block at (X-1, Y+1).
    Requires 1 <= r <= n-1 and r <= l <= 2n-3+eps.  The head zero becomes a
    grade-r block, the mover disappears, and the row of zeros survives.
    """
    kind = "rule1"
    _typed(validate, bool, "validate must be a bool")
    gray, mover, i, j, window = _window(board, kind, gray_pos, block_pos,
                                        ("head", "mover"))
    if gray.content.m != 0:
        raise MoveRefused(kind, "head box must have grade 0")
    if block_pos != (gray.x - 1, gray.y + 1):
        raise MoveRefused(
            kind, f"mover must sit at ({gray.x - 1}, {gray.y + 1}), got {block_pos}")
    _check_zeros(kind, window, gray.x + 1, gray.y)
    r, l, n = mover.content.m + 1, len(window), board.n
    if not 1 <= r <= n - 1:
        raise MoveRefused(kind, f"grade bound 1 <= r <= n-1 fails for r={r}")
    if not r <= l <= 2 * n - 3 + board.eps:
        raise MoveRefused(kind, f"window bound r <= l <= 2n-3+eps fails for r={r}, l={l}")
    fed = Box(gray.x, gray.y, SymBlock(r))
    return _commit(board, _fill(board, i, j, [fed, *window]), [gray, mover], [fed], kind,
                   (gray_pos, block_pos), (), (r, l, board.N) if validate else None)


def move_rule2(board: Board, zeros_start: tuple[int, int],
               block_pos: tuple[int, int], t: int, r: int, validate: bool = True,
               ) -> tuple[Board, MoveRecord]:
    """Split a grade r-1 block across a row of t+1 zeros.

    Window (SOD order, opaques skipped): zeros at (zx, zy) .. (zx+t, zy),
    then the block at (zx-1, zy+1).  Requires r+1 <= t <= n-2, or the
    boundary case r = t+1 with t <= n-1 where every zero is consumed.  The
    block keeps its position and moves to the window front, a fresh grade
    r-1 block appears at (zx, zy), and the first r zeros are consumed.
    """
    kind = "rule2"
    _sized(t, f"{kind} parameter t")
    _sized(r, f"{kind} parameter r")
    _typed(validate, bool, "validate must be a bool")
    first, block, i, j, between = _window(board, kind, zeros_start, block_pos,
                                          ("zeros", "block"))
    zx, zy = zeros_start
    if block_pos != (zx - 1, zy + 1):
        raise MoveRefused(
            kind, f"block must sit at ({zx - 1}, {zy + 1}), got {block_pos}")
    if r < 1 or block.content.m != r - 1:
        raise MoveRefused(kind, f"block grade must be {r - 1}, got {block.content.m}")
    boundary = r == t + 1
    if not ((r + 1 <= t <= board.n - 2) or (boundary and 0 <= t <= board.n - 1)):
        raise MoveRefused(kind, f"bounds fail for t={t}, r={r}")
    window = [first, *between]
    if len(window) != t + 1:
        raise MoveRefused(
            kind, f"expected {t + 1} zeros before the block, found {len(window)}")
    _check_zeros(kind, window, zx, zy)
    piece = Box(zx, zy, SymBlock(r - 1))
    return _commit(board, _fill(board, i, j, [block, piece, *window[r:]]), window[:r],
                   [piece], kind, (zeros_start, block_pos), (("t", t), ("r", r)),
                   (r, t, board.N) if validate else None)


def move_orange_merge(board: Board, orange_pos: tuple[int, int],
                      target_pos: tuple[int, int]) -> tuple[Board, MoveRecord]:
    """Scripted finale: the reserved zero joins the grade n-2 block at the target.

    No oracle backs this step; it is forced by the copy count of the final
    arrangement rather than by a pairing computation.
    """
    kind = "orange_merge"
    _pairs(kind, (orange_pos, target_pos))
    if orange_pos == target_pos:
        raise MoveRefused(kind, "orange and target must be different boxes")
    orange = _get(board, orange_pos, kind)
    target = _get(board, target_pos, kind)
    oc = _sym(orange, kind, "orange")
    tc = _sym(target, kind, "target")
    n = board.n
    if oc.m != 0:
        raise MoveRefused(kind, "orange box must have grade 0")
    if tc.m != n - 2:
        raise MoveRefused(kind, f"target grade must be {n - 2}, got {tc.m}")
    merged = Box(target.x, target.y, SymBlock(n - 1))
    new_boxes = list(board.boxes)
    new_boxes[board.index(target_pos)] = merged
    del new_boxes[board.index(orange_pos)]
    return _commit(board, new_boxes, (orange, target), (merged,), kind,
                   (orange_pos, target_pos), ())


class MoveSpec(NamedTuple):
    """How a move kind is called: ``move_<kind>(board, *positions, **params)``."""

    positions: int | None  # how many positions it takes; None for one list
    params: dict[str, type]  # parameter names, in record order, and their types
    validates: bool = False  # whether it takes ``validate``
    optional: tuple[str, ...] = ()  # parameters a record may leave out


# One entry per ``move_*`` function above.
MOVES: dict[str, MoveSpec] = {
    "serre_translate": MoveSpec(0, {"y": int, "direction": str, "steps": int}),
    "serre_global": MoveSpec(0, {"k": int, "direction": str}),
    "global_twist": MoveSpec(0, {"dx": int, "dy": int, "note": str}, optional=("note",)),
    "push_right": MoveSpec(1, {"count": int, "opacify": bool}),
    "opacify_boxes": MoveSpec(None, {}),
    "gather_to_end": MoveSpec(None, {}),
    "transpose": MoveSpec(2, {}, validates=True),
    "absorb": MoveSpec(2, {}, validates=True),
    "rule1": MoveSpec(2, {}, validates=True),
    "rule2": MoveSpec(2, {"t": int, "r": int}, validates=True),
    "orange_merge": MoveSpec(2, {}),
}


def _typed(value: object, cls: type, words: str) -> None:
    """Refuse with ``ValueError``, in ``words`` and then what it got, a value
    whose type is not ``cls``: a move's str or bool parameter, or ``validate``."""
    if type(value) is not cls:
        raise ValueError(f"{words}, got {_shown(value)}")


def _pairs(kind: str, positions: Sequence) -> None:
    """Refuse with ``ValueError`` ``positions`` that are not a sequence of tuple pairs of ints."""
    if not isinstance(positions, Sequence) or any(
            type(p) is not tuple or tuple(map(type, p)) != (int, int) for p in positions):
        raise ValueError(f"{kind} positions must be a sequence of pairs of ints, "
                         f"got {_shown(positions)}")


def _checked_board(board: Board) -> Board:
    """``board`` itself, refusing with ``ValueError`` anything that is not a ``Board``."""
    if type(board) is not Board:
        raise ValueError(f"board must be a Board, got {type(board).__name__}")
    return board


def play(board: Board, kind: str, positions: tuple[tuple[int, int], ...],
         params: dict[str, int | str | bool], validate: bool,
         ) -> tuple[Board, MoveRecord]:
    """Call ``move_<kind>`` as :data:`MOVES` describes it.

    The call's shape is checked against the table first, and a kind, a
    position count or a parameter set the table does not allow raises
    ``ValueError``, as do a kind that is not a string, ``positions`` that
    are not a sequence, ``params`` that are not a dict and a ``validate``
    that is not a bool.  The move itself refuses, in the same words, a
    parameter of the wrong type (an int one that is not an int, a bool
    included), a ``validate`` that is not a bool and a position that is
    not a tuple of two ints, before any other check, and a ``board`` that
    is not a ``Board``, before reading it.  The move is looked up among the
    module's names at call time, so a rebinding of ``move_<kind>`` is seen
    here too.
    """
    _typed(validate, bool, "validate must be a bool")
    spec = MOVES.get(kind) if type(kind) is str else None
    if spec is None:
        raise ValueError(f"unknown move kind {_shown(kind)}")
    if not isinstance(positions, Sequence):
        raise ValueError(f"{kind} positions must be a sequence, got {_shown(positions)}")
    if spec.positions is not None and len(positions) != spec.positions:
        raise ValueError(f"{kind} takes {spec.positions} positions, got {len(positions)}")
    if not isinstance(params, dict):
        raise ValueError(f"{kind} params must be a dict, got {_shown(params)}")
    if not set(spec.params) - set(spec.optional) <= set(params) <= set(spec.params):
        raise ValueError(f"{kind} takes parameters {tuple(spec.params)}, "
                         f"got {_shown(tuple(params))}")
    args = (list(positions),) if spec.positions is None else tuple(positions)
    if spec.validates:
        params = {**params, "validate": validate}
    return globals()[f"move_{kind}"](board, *args, **params)


def apply_record(board: Board, record: MoveRecord) -> Board:
    """Re-apply a logged move (validation off) and check the log signature;
    a non-``MoveRecord`` entry or non-sequence ``params`` raise ``ValueError``."""
    signature = log_signature(record)
    if not isinstance(record.params, Sequence):
        raise ValueError(f"a record's params must be a sequence, got {_shown(record.params)}")
    new_board, rec = play(board, record.kind, record.positions, dict(record.params), False)
    if log_signature(rec) != signature:
        raise ValueError(f"replayed {record.kind} diverged from its record")
    return new_board
