"""Rendering and serialization for boards and game results.

All emitters are deterministic down to the byte: no set iteration, JSON with
fixed separators and explicitly ordered keys, graded dimensions as sorted
``[degree, dim]`` pairs.  ``parse_game_result`` inverts
``game_result_to_json`` exactly: it builds the game as ``run_game`` does,
from the start board of its params through the document's moves (asking
the oracle again where the document records its checks) to the same
finish, and refuses the document unless the writer of its version writes
it for that game.

A game document (schema version 2) writes each distinct oracle check and
each distinct move transcript once, where it first appears.  A move's
``oracle`` is either an int k, "the transcript of move k", or a list whose
entries are check objects, numbered 0, 1, 2, ... in document order, or ints
naming a check defined earlier.  Version 1, which writes every check in
full, is still read.
"""

from __future__ import annotations

import json
import reprlib
from typing import Any, Callable

from . import _EMIT_FORMATS as EMIT_FORMATS, _MAX_n
from .board import Board, Box, MoveRecord, MoveRefused, Opaque, OracleCheck, play
from .games import GameResult, _finish, _start_board

SCHEMA_VERSION = 2


def dumps(obj: Any) -> str:
    return json.dumps(obj, separators=(",", ":"))


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
    if isinstance(box.content, Opaque):
        content = {"kind": "opaque", "copies": box.content.copies}
    else:
        content = {"kind": "sym", "m": box.content.m}
    return {"x": box.x, "y": box.y, "content": content}


def _list(value: Any, name: str) -> list:
    if type(value) is not list:
        raise ValueError(f"{name} must be a list, got {value!r}")
    return value


def _int_at_least(value: Any, low: int, name: str) -> int:
    if type(value) is not int or value < low:
        raise ValueError(f"{name} must be an int >= {low}, got {value!r}")
    return value


def board_to_dict(board: Board) -> dict:
    return {"boxes": [box_to_dict(b) for b in board.boxes], "copies": board.copies}


def _check_to_dict(check: OracleCheck) -> dict:
    return {"source": check.source, "target": check.target, "space": check.space,
            "expected": check.expected, "got": check.got, "ok": check.ok}


def _move_dict(record: MoveRecord, oracle: int | list) -> dict:
    return {
        "kind": record.kind,
        "positions": record.positions,
        "params": dict(record.params),
        "oracle": oracle,
        "verdict": record.verdict,
        "copies_before": record.copies_before,
        "copies_after": record.copies_after,
    }


def move_to_dict(record: MoveRecord) -> dict:
    """One move with its transcript written in full, as in schema version 1."""
    return _move_dict(record, [_check_to_dict(c) for c in record.oracle])


def _interned_moves(log: tuple[MoveRecord, ...]) -> list[dict]:
    """The moves of a version 2 document: a transcript seen before becomes
    the index of the move that wrote it, a check seen before its number."""
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
            moves.append(_move_dict(record, k))
            continue
        oracle: list[int | dict] = []
        for check in transcript:
            j = check_number.get(check)
            if j is None:
                check_number[check] = len(check_number)
                oracle.append(_check_to_dict(check))
            else:
                oracle.append(j)
        moves.append(_move_dict(record, oracle))
    return moves


def _document(result: GameResult, version: int) -> dict:
    """The document that schema ``version`` writes for ``result``: version 1
    writes every transcript in full, version 2 each distinct one once."""
    return {
        "schema_version": version,
        "params": {"n": result.n, "eps": result.eps, "mode": result.mode},
        "initial": board_to_dict(result.initial),
        "moves": ([move_to_dict(r) for r in result.log] if version == 1
                  else _interned_moves(result.log)),
        "final": board_to_dict(result.final),
        "gr2": {"found": result.gr2_found,
                "boxes": [box_to_dict(b) for b in result.gr2_boxes]},
        "residual_f_count": result.residual_f_count,
        "flags": result.flags,
    }


def game_result_to_dict(result: GameResult) -> dict:
    return _document(result, SCHEMA_VERSION)


def game_result_to_json(result: GameResult) -> str:
    return dumps(game_result_to_dict(result))


def parse_game_result(text: str | bytes) -> GameResult:
    """Exact inverse of :func:`game_result_to_json`; reads schema versions 1
    and 2, from text or JSON bytes.  Every refusal is a ``ValueError``.

    Only the document's inputs are read, and each is checked for its form
    (a bool is never an int): ``schema_version`` (1 or 2), ``params`` (an
    int ``n`` from 2 to ``cli.MAX_n``, ``eps`` 0 or 1, ``mode``
    ``fibration`` or ``flip``), ``residual_f_count`` (an int >= 0) and each
    move's ``kind``, ``positions`` and ``params``.  The moves are replayed
    through ``board.play`` from the start board that ``run_game`` builds
    for the params, validated when some move's ``oracle`` is not ``[]``,
    so that every recorded check is asked of the oracle again, within
    ``cli.MAX_m`` and ``cli.MAX_twist``.  The final board is then split as
    ``run_game`` splits it, which gives the column and the flags; only
    ``residual_f_count`` is kept as written.  The document must be what the
    writer of its version writes for that game, keys and their order
    included; otherwise the message names the first path that differs, as
    in ``initial.boxes[0].x``, ``moves[14].copies_before``,
    ``moves[3].oracle[0].got`` or ``flags``.
    """
    if isinstance(text, (bytes, bytearray)):
        text = text.decode(json.detect_encoding(text))
    try:
        return _game_result_from_dict(json.loads(text), text)
    except (KeyError, TypeError, AttributeError, RecursionError) as exc:
        raise ValueError(f"malformed game document: {exc!r}") from exc


def _game_result_from_dict(d: dict, text: str) -> GameResult:
    version = d["schema_version"]
    if type(version) is not int or version not in (1, SCHEMA_VERSION):
        raise ValueError(f"unsupported schema version {version!r}")
    n, eps, mode = d["params"]["n"], d["params"]["eps"], d["params"]["mode"]
    _int_at_least(n, 2, "params.n")
    if n > _MAX_n:
        raise ValueError(f"params.n must be <= {_MAX_n}, got {n}")
    if type(eps) is not int or eps not in (0, 1):
        raise ValueError(f"params.eps must be 0 or 1, got {eps!r}")
    if mode not in ("fibration", "flip"):
        raise ValueError(f"params.mode must be fibration or flip, got {mode!r}")
    residual = _int_at_least(d["residual_f_count"], 0, "residual_f_count")
    moves = _list(d["moves"], "moves")
    validate = any(move["oracle"] != [] for move in moves)
    initial = _start_board(n, eps, mode)
    board, log = initial, []
    for move in moves:
        positions = tuple(tuple(p) for p in _list(move["positions"], "move positions"))
        try:
            board, record = play(board, move["kind"], positions, move["params"], validate)
        except (ValueError, MoveRefused) as exc:
            raise ValueError(f"the moves do not replay from the initial board: {exc}") from exc
        log.append(record)
    # the count alone is taken as written, so that the benchmark's gate can refuse a wrong one
    result = _finish(mode, initial, board, log)._replace(residual_f_count=residual)
    written = dumps(_document(result, version))
    if written != text.removesuffix("\n"):
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
    move (with the result's phase snapshots interleaved at the move counts
    where they were taken), then final, column, and summary records."""
    doc = game_result_to_dict(result)
    phase_at: dict[int, list[str]] = {}
    for name, board, count in result.phases:
        if name not in ("initial", "final"):
            phase_at.setdefault(count, []).append(dumps(
                {"record": "phase", "name": name, "board": board_to_dict(board)}))
    lines = [dumps({"record": "header", "schema_version": doc["schema_version"],
                    "params": doc["params"]}),
             dumps({"record": "initial", "board": doc["initial"]})]
    for i, move in enumerate(doc["moves"]):
        lines += phase_at.get(i, [])
        lines.append(dumps({"record": "move", "index": i, **move}))
    lines += phase_at.get(len(doc["moves"]), [])
    lines.append(dumps({"record": "final", "board": doc["final"]}))
    lines.append(dumps({"record": "gr2", **doc["gr2"]}))
    lines.append(dumps({"record": "summary", "residual_f_count": doc["residual_f_count"],
                        "flags": doc["flags"]}))
    return lines


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
        raise ValueError(f"unknown emit format {fmt!r}")
    return globals()[f"emit_{fmt.replace('-', '_')}"](result)
