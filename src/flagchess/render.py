"""Rendering and serialization for boards and game results.

All emitters are deterministic down to the byte: no set iteration, JSON with
fixed separators and explicitly ordered keys, graded dimensions as sorted
``[degree, dim]`` pairs.  ``parse_game_result`` inverts
``game_result_to_json`` exactly: it plays the game through the runner that
``run_game`` plays, from the start board of its params through the
document's moves (asking the oracle again where the document records its
checks) to the same finish, and refuses the document unless the writer of
its version writes it for that game.

A game document (schema version 8) writes each board as ``{"runs": [...],
"copies": c}``.  A run, ``[x, y, m, k]`` or ``[x, y, "opaque", copies, k]``,
is k >= 1 boxes of one content in consecutive SOD slots at (x, y),
(x + 1, y), ..., (x + k - 1, y); a new run starts wherever y or the content
changes or x does not step by 1.  Spelling the runs out in order gives the
boxes in SOD order.  A ``gr2`` box is an array, ``[x, y, m]`` for
``SymBlock(m)`` and ``[x, y, "opaque", copies]`` for ``Opaque(copies)``, and
a move is ``{kind: [positions, params, oracle]}``, ``positions`` one flat
list ``[x1, y1, x2, y2, ...]``, ``params`` the values of the kind's
parameters in ``board.MOVES``'s order (an optional last one left out when
absent).  A maximal run of k >= 2 consecutive moves of one kind and one
params, each with at least one position and each position one column right
of the move before it, (x, y) to (x + 1, y), is one entry ``{kind:
[positions, params, oracles, k]}``: the first move's positions (the j-th
move's, from 0, are those moved j columns right) and the k moves' oracles.
Spelling the runs out in order gives the log.  The document writes each
distinct oracle check and each distinct move transcript once, where it
first appears.  A move's ``oracle`` is either an int k, "the transcript of
move k" (k counts the log's moves, not the entries), or a list of entries
in three shapes, told apart by shape alone:

* ``[m, x, y, m', x', y', ...]``, a check not written before: its source's
  and target's (m, x, y), then the (degree, dim) pairs of its expected
  answer, flattened, so an even number, six or more, of ints; checks are
  numbered 0, 1, 2, ... in document order;
* ``[first, count]``, a maximal run of three or more consecutive earlier
  check numbers, ``first`` to ``first + count - 1``;
* an int, any other earlier check.

A check's ``space``, ``got`` and ``ok`` are not written: ``board._question``
asks only on M, and a refused move is never logged, so every logged check
got what it expected.  Versions 1 to 7 are still read and re-written by
their own writers.  Version 7 writes a new check as ``[source, target,
expected]`` and positions as ``[x, y]`` pairs.  Version 6 also writes an
entry as ``{"kind", "positions", "params", "oracle"}``, a run's with
``"count"`` last, and params by name.  Version 5 also writes each move as
its own entry.  Version 4 also writes each board as ``{"boxes": [...],
"copies": c}``, one array per box.  Version 3 also writes each check as the
object ``{source, target, space, expected, got, ok}`` and each earlier one
as its int.  Versions 1 and 2 also write each box as an object and each
move with its ``verdict``, ``copies_before`` and ``copies_after``, which a
replay derives; version 1 writes every check in full.
"""

from __future__ import annotations

import json
import reprlib
from itertools import chain
from typing import Any, Callable

from . import _EMIT_FORMATS as EMIT_FORMATS, _shown, _sized
from .board import MOVES, Board, Box, MoveRecord, MoveRefused, Opaque, OracleCheck
from .games import GameResult, _Runner

SCHEMA_VERSION = 8


# One encoder for every document: ``json.dumps`` with a separators argument
# builds a new one per call.
dumps: Callable[[Any], str] = json.JSONEncoder(separators=(",", ":")).encode


def _grid(board: Board, cell: Callable[[Box | None, bool], str],
          ) -> tuple[range, range, list[list[str]]]:
    """One walk over the bounding rectangle, which always takes in the
    origin: its x and y ranges and each row's cells, rows by ascending y.
    ``cell`` gets the box at a point (or None) and whether it is the origin."""
    xs = [b.x for b in board.boxes] + [0]
    ys = [b.y for b in board.boxes] + [0]
    xr, yr = range(min(xs), max(xs) + 1), range(min(ys), max(ys) + 1)
    return xr, yr, [[cell(board.at((x, y)), (x, y) == (0, 0)) for x in xr] for y in yr]


def _ascii_cell(box: Box | None, origin: bool) -> str:
    text = "" if box is None else "x" if isinstance(box.content, Opaque) else str(box.content.m)
    return f"[{text or '·'}]" if origin else text


def _latex_cell(box: Box | None, origin: bool) -> str:
    body = ("\\none" if box is None else "\\times" if isinstance(box.content, Opaque)
            else str(box.content.m))
    return f"*(lightgray) {body}" if origin else body


def render_ascii(board: Board) -> str:
    """Plain-text grid over the bounding rectangle, rows by ascending y.

    Cells show the block grade, ``x`` for opaque material, and blank for
    empty lattice points; the origin cell is bracketed.
    """
    if not board.boxes:
        return ""
    xs, ys, rows = _grid(board, _ascii_cell)
    width = max(len(t) for row in rows for t in row)
    lines = [f"x: {xs[0]}..{xs[-1]}"]
    for y, row in zip(ys, rows):
        lines.append(f"y={y:>3} | {' '.join(t.rjust(width) for t in row).rstrip()}")
    return "\n".join(lines)


def render_latex(board: Board) -> str:
    """ytableau-style source for the board, rows by ascending y."""
    rows = _grid(board, _latex_cell)[2] if board.boxes else []
    return "\n".join(["\\begin{ytableau}"] + [" & ".join(row) + " \\\\" for row in rows]
                     + ["\\end{ytableau}"])


def box_to_dict(box: Box) -> dict:
    """A box as versions 1 and 2 write it."""
    if isinstance(box.content, Opaque):
        content = {"kind": "opaque", "copies": box.content.copies}
    else:
        content = {"kind": "sym", "m": box.content.m}
    return {"x": box.x, "y": box.y, "content": content}


def box_to_list(box: Box) -> list:
    """A box as versions 3 to 8 write it: ``[x, y, m]`` or ``[x, y, "opaque", copies]``."""
    x, y, content = box
    return [x, y, "opaque", content.copies] if type(content) is Opaque else [x, y, content.m]


def _list(value: Any, name: str) -> list:
    if type(value) is not list:
        raise ValueError(f"{name} must be a list, got {value!r}")
    return value


def board_to_dict(board: Board, version: int = SCHEMA_VERSION) -> dict:
    """A board as schema ``version`` writes it; from version 5 its row runs,
    each as its first box's array and its length."""
    if version < 5:
        box = box_to_list if version >= 3 else box_to_dict
        return {"boxes": [box(b) for b in board.boxes], "copies": board.copies}
    runs, follow = [], None
    for box in board.boxes:
        if box != follow:
            runs.append([*box_to_list(box), 0])
        runs[-1][-1] += 1
        follow = (box.x + 1, box.y, box.content)  # the box that carries this run on
    return {"runs": runs, "copies": board.copies}


def _check_to_dict(check: OracleCheck) -> dict:
    return {"source": check.source, "target": check.target, "space": check.space,
            "expected": check.expected, "got": check.got, "ok": check.ok}


def _move_dict(record: MoveRecord, oracle: int | list, version: int = 1) -> dict:
    move = {"kind": record.kind, "positions": record.positions,
            "params": dict(record.params), "oracle": oracle}
    if version < 3:
        move.update(verdict=record.verdict, copies_before=record.copies_before,
                    copies_after=record.copies_after)
    return move


def move_to_dict(record: MoveRecord) -> dict:
    """One move with its transcript written in full, as in schema version 1."""
    return _move_dict(record, [_check_to_dict(c) for c in record.oracle])


def _runs(entries: list) -> list:
    """A version 4 to 8 transcript's entries: each maximal run of three or more
    consecutive check numbers becomes ``[first, count]``, in one pass."""
    grouped, k, size = [], 0, len(entries)
    while k < size:
        first, end = entries[k], k + 1
        if type(first) is int:
            while end < size and entries[end] == first + end - k:
                end += 1
        if end - k >= 3:
            grouped.append([first, end - k])
        else:
            grouped += entries[k:end]
        k = end
    return grouped


def _interned_moves(log: tuple[MoveRecord, ...], version: int) -> list[dict]:
    """The moves of a version 2 to 8 document, one per logged move: a
    transcript seen before becomes the index of the move that wrote it, a
    check seen before its number, and from version 4 a new check its triple
    (from version 8 flat) and a run of numbers its ``[first, count]``."""
    check_number: dict[OracleCheck, int] = {}
    writer: dict[tuple[OracleCheck, ...], int] = {}
    known: dict[int, int] = {}  # by object, so that a shared transcript is hashed once
    moves = []
    for i, record in enumerate(log):
        transcript = record.oracle
        k = known.get(id(transcript)) if transcript else i
        if k is None:
            k = known[id(transcript)] = writer.setdefault(transcript, i)
        if k != i:
            moves.append(_move_dict(record, k, version))
            continue
        oracle: list[int | list | dict] = []
        for check in transcript:
            j = check_number.get(check)
            if j is None:
                check_number[check] = len(check_number)
                oracle.append(_check_to_dict(check) if version < 4
                              else [check.source, check.target, check.expected] if version < 8
                              else [*check.source, *check.target, *chain(*check.expected)])
            else:
                oracle.append(j)
        moves.append(_move_dict(record, _runs(oracle) if version >= 4 else oracle, version))
    return moves


def _move_runs(log: tuple[MoveRecord, ...], moves: list[dict]) -> list[dict]:
    """Version 6's move entries: each maximal run of two or more moves of one
    kind and params, each position one column right of the move before's,
    as its first move's entry with the run's oracles listed and its count."""
    entries: list[dict] = []
    follow = None
    for record, move in zip(log, moves):
        kind, positions, params = record[:3]
        if (kind, positions, params) != follow:
            entries.append(move)
        else:
            run = entries[-1]
            if "count" not in run:
                run = entries[-1] = {**run, "oracle": [run["oracle"]], "count": 1}
            run["oracle"].append(move["oracle"])
            run["count"] += 1
        # the move that carries this run on, if a move with positions can
        follow = positions and (kind, tuple((x + 1, y) for x, y in positions), params)
    return entries


def _keyed(entry: dict, version: int) -> dict:
    """A version 6 move entry as version 7 writes it, keyed by its kind, or
    as version 8 does, its positions flat."""
    kind, positions, params, *rest = entry.values()
    return {kind: [[*chain(*positions)] if version >= 8 else positions, [*params.values()], *rest]}


def _unkeyed(entry: Any, path: str, version: int) -> dict:
    """A version 7 or 8 entry as version 6 writes it; a malformed one is refused by ``path``."""
    if type(entry) is not dict or len(entry) != 1 or [*entry][0] not in MOVES:
        raise ValueError(f"{path} must be an object of one key, a move kind, got {_repr(entry)}")
    ((kind, value),) = entry.items()
    if len(_list(value, f"{path}.{kind}")) not in (3, 4):
        raise ValueError(f"{path}.{kind} must have 3 or 4 entries, got {len(value)}")
    names, optional = list(MOVES[kind].params), MOVES[kind].optional
    if not len(names) - len(optional) <= len(_list(value[1], f"{path}.{kind}[1]")) <= len(names):
        raise ValueError(f"{path}.{kind}[1] has {len(value[1])} values but {kind} takes {names}")
    positions = _list(value[0], f"{path}.{kind}[0]")
    if version >= 8:  # one flat list, read back as (x, y) pairs
        if len(positions) % 2:
            raise ValueError(f"{path}.{kind}[0] has {len(positions)} coordinates, not pairs")
        positions = [positions[k:k + 2] for k in range(0, len(positions), 2)]
    return dict(zip(("kind", "positions", "params", "oracle", "count"),
                    (kind, positions, dict(zip(names, value[1])), *value[2:])))


def _document(result: GameResult, version: int) -> dict:
    """The document that schema ``version`` writes for ``result``, as the
    module's docstring describes each version."""
    box = box_to_list if version >= 3 else box_to_dict
    moves = ([move_to_dict(r) for r in result.log] if version == 1
             else _interned_moves(result.log, version))
    if version >= 6:
        moves = _move_runs(result.log, moves)
    if version >= 7:
        moves = [_keyed(entry, version) for entry in moves]
    return {
        "schema_version": version,
        "params": {"n": result.n, "eps": result.eps, "mode": result.mode},
        "initial": board_to_dict(result.initial, version),
        "moves": moves,
        "final": board_to_dict(result.final, version),
        "gr2": {"found": result.gr2_found, "boxes": [box(b) for b in result.gr2_boxes]},
        "residual_f_count": result.residual_f_count,
        "flags": result.flags,
    }


def game_result_to_dict(result: GameResult) -> dict:
    return _document(result, SCHEMA_VERSION)


def game_result_to_json(result: GameResult) -> str:
    return dumps(game_result_to_dict(result))


def parse_game_result(text: str | bytes) -> GameResult:
    """Exact inverse of :func:`game_result_to_json`; reads schema versions 1
    to 8, from text or JSON bytes.  Every refusal is a ``ValueError``.

    Only the document's inputs are read, and each is checked for its form
    (a bool is never an int): ``schema_version`` (1 to 8), ``params``
    (``n``, ``eps`` and ``mode``, which the runner refuses as ``run_game``
    does, the message led by ``params.``, before any board is built),
    ``residual_f_count`` (an int >= 0), each version 7 or 8 entry (one key,
    a known kind, holding 3 or 4 values, its params as many as the kind
    takes, version 8's positions an even number of coordinates, refused as
    in ``moves[5].rule1[0]``), each run's count (an int >= 2, as many as its
    oracles, checked before any move is played) and each move's kind,
    positions and params.
    The moves, a run's spelt out one column right each time, are played on
    the runner that ``run_game`` plays, from the start board of the params,
    validated when some move's oracle is not ``[]``, so that every recorded
    check is asked of the oracle again, within ``cli.MAX_m`` and
    ``cli.MAX_twist``; a move the replay refuses is named by its entry's
    path, as in ``moves[7]``.  The runner's finish then splits the final
    board as ``run_game`` does, which gives the column and the flags; only
    ``residual_f_count`` is kept as written.  The document must be what the
    writer of its version writes for that game, keys and their order
    included, though not its whitespace, so a run split or merged by hand
    is refused too; otherwise the message names the first path that
    differs, as in ``initial.runs[0][3]``, ``moves[6].rule1[3]`` (a run's
    count), ``moves[3].rule1[2][0][2]``, ``moves[6].rule1[2][1]`` (the
    second move of a run) or ``flags``; in version 6, as in ``moves[14]``
    (its keys), ``moves[6].count`` or ``moves[3].oracle[0][2]``; in versions
    3 and 4, as in ``initial.boxes[0][0]``; in version 3, as in
    ``moves[3].oracle[0].got``; in versions 1 and 2, as in
    ``initial.boxes[0].x`` or ``moves[14].copies_before``.  Text that is not
    JSON, that repeats a key of an object or that holds an int past
    Python's digit limit is a malformed document.
    """
    if isinstance(text, (bytes, bytearray)):
        text = text.decode(json.detect_encoding(text))
    try:
        d = json.loads(text, object_pairs_hook=_object)
    except (ValueError, RecursionError) as exc:  # not JSON, a repeated key, too many digits
        raise ValueError(f"malformed game document: {exc!r}") from exc
    try:
        return _game_result_from_dict(d, text)
    except (KeyError, TypeError, AttributeError, RecursionError) as exc:
        raise ValueError(f"malformed game document: {exc!r}") from exc


def _object(pairs: list[tuple[str, Any]]) -> dict:
    """A JSON object as a dict, refusing a repeated key, of which ``json``
    would keep the last value."""
    d = dict(pairs)
    if len(d) < len(pairs):  # the keys are d's up to the first repeat
        key = next(k for (k, _), new in zip(pairs, [*d, None]) if k != new)
        raise ValueError(f"the key {_repr(key)} is repeated in an object")
    return d


def _game_result_from_dict(d: dict, text: str) -> GameResult:
    version = d["schema_version"]
    if type(version) is not int or not 1 <= version <= SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {version!r}")
    params, residual = d["params"], d["residual_f_count"]
    _sized(residual, "residual_f_count", 0)
    moves = _list(d["moves"], "moves")
    if version >= 7:
        moves = [_unkeyed(entry, f"moves[{i}]", version) for i, entry in enumerate(moves)]
    oracles = []  # each logged move's, those of a run listed in its entry
    for i, move in enumerate(moves):
        if "count" not in move:
            oracles.append(move["oracle"])
            continue
        at = ([f"moves[{i}].{move['kind']}[{k}]" for k in (2, 3)] if version >= 7
              else [f"moves[{i}].{key}" for key in ("oracle", "count")])
        count = _sized(move["count"], at[1], 2)
        listed = _list(move["oracle"], at[0])
        if len(listed) != count:
            raise ValueError(f"{at[0]} has {len(listed)} entries but {at[1]} is {count}")
        oracles += listed
    try:
        g = _Runner(params["n"], params["eps"], params["mode"], any(o != [] for o in oracles))
    except ValueError as exc:
        raise ValueError(f"params.{exc}") from exc
    for i, move in enumerate(moves):
        positions = tuple(tuple(p) for p in _list(move["positions"], "move positions"))
        for _ in range(move.get("count", 1)):  # a run's moves step one column right
            try:
                g.play(move["kind"], positions, move["params"])
            except (ValueError, MoveRefused) as exc:
                raise ValueError(f"the moves do not replay from the initial board: {exc} "
                                 f"at moves[{i}]") from exc
            positions = tuple((x + 1, y) for x, y in positions)
    # the count alone is taken as written, so that the benchmark's gate can refuse a wrong one
    result = g.finish()._replace(residual_f_count=residual)
    written = dumps(_document(result, version))
    # text that differs only in whitespace re-encodes to the writer's, without a walk
    if written != text.removesuffix("\n") and dumps(d) != written:
        _refuse_difference(d, json.loads(written), "")
    return result


class _DocumentRepr(reprlib.Repr):
    """``reprlib``'s bounded repr, with an object's keys in the document's
    order, where ``reprlib`` sorts them."""

    def repr_dict(self, x: dict, level: int) -> str:
        if not x or level <= 0:
            return super().repr_dict(x, level)
        pieces = [f"{self.repr1(key, level - 1)}: {self.repr1(value, level - 1)}"
                  for key, value in list(x.items())[:self.maxdict]]
        return "{" + ", ".join(pieces + ["..."] * (len(x) > self.maxdict)) + "}"


_repr = _DocumentRepr().repr


def _refuse_difference(got: Any, want: Any, path: str) -> None:
    """Raise ``ValueError`` naming the first path at which the document
    ``got`` differs from ``want``, what the writer writes; a value of
    another type differs, so a bool never equals an int."""
    if type(got) is not type(want) or type(want) not in (dict, list) and got != want:
        raise ValueError(f"{path} is {_repr(got)} but the replayed game "
                         f"writes {_repr(want)}")
    if type(want) is dict:
        if list(got) != list(want):
            raise ValueError(f"{path or 'the document'} has keys {list(got)} but the "
                             f"replayed game writes {list(want)}")
        for key in want:
            _refuse_difference(got[key], want[key], f"{path}.{key}" if path else key)
    elif type(want) is list:
        for i, (g, w) in enumerate(zip(got, want)):
            _refuse_difference(g, w, f"{path}[{i}]")
        if len(got) != len(want):
            raise ValueError(f"{path} has {len(got)} entries but the replayed game "
                             f"writes {len(want)}")


def emit_json_lines(result: GameResult) -> list[str]:
    """Streaming form of :func:`game_result_to_dict`: header, initial, each
    move entry, its ``index`` the entry's number (with the result's phase
    snapshots interleaved at the move counts where they were taken, each
    between two entries: one inside a run of moves raises
    ``AssertionError``), then final, column, and summary records."""
    doc = game_result_to_dict(result)
    phase_at: dict[int, list[str]] = {}
    for name, board, count in result.phases:
        if name not in ("initial", "final"):
            phase_at.setdefault(count, []).append(dumps(
                {"record": "phase", "name": name, "board": board_to_dict(board)}))
    lines = [dumps({"record": "header", "schema_version": doc["schema_version"],
                    "params": doc["params"]}),
             dumps({"record": "initial", "board": doc["initial"]})]
    played = 0
    for i, move in enumerate(doc["moves"]):
        lines += phase_at.pop(played, [])
        lines.append(dumps({"record": "move", "index": i, **move}))
        (entry,) = move.values()
        played += entry[3] if len(entry) == 4 else 1
    lines += phase_at.pop(played, [])
    if phase_at:
        raise AssertionError(f"phase snapshots inside a run of moves, after {list(phase_at)}")
    return lines + [dumps({"record": "final", "board": doc["final"]}),
                    dumps({"record": "gr2", **doc["gr2"]}),
                    dumps({"record": "summary", "residual_f_count": doc["residual_f_count"],
                           "flags": doc["flags"]})]


def emit_text(result: GameResult) -> list[str]:
    """Each phase snapshot as a plain-text grid, then a summary of the run."""
    lines = []
    for name, board, count in result.phases:
        lines += [f"== {name} (after {count} moves) ==", render_ascii(board), ""]
    gr2_copies = sum(b.copies for b in result.gr2_boxes)
    lines += [f"moves applied: {len(result.log)}",
              f"column found: {'yes' if result.gr2_found else 'no'} "
              f"({len(result.gr2_boxes)} boxes, {gr2_copies} copies)",
              f"residual copies: {result.residual_f_count}"]
    return lines + [f"flag: {flag}" for flag in result.flags]


def emit_latex(result: GameResult) -> list[str]:
    """Each phase snapshot as ytableau source, then the flags as comments."""
    lines = []
    for name, board, count in result.phases:
        lines += [f"% phase: {name} (after {count} moves)", render_latex(board)]
    return lines + [f"% flag: {flag}" for flag in result.flags]


def emit(result: GameResult, fmt: str) -> list[str]:
    """The output lines of one of :data:`EMIT_FORMATS`.

    The emitters are looked up by name on each call, never held in a table
    built at import, so an emitter rebound on this module is the one called.
    """
    if fmt == "json":
        return [game_result_to_json(result)]
    if fmt not in EMIT_FORMATS:
        raise ValueError(f"unknown emit format {_shown(fmt)}")
    return globals()[f"emit_{fmt.replace('-', '_')}"](result)
