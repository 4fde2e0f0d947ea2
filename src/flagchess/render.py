"""Rendering and serialization for boards and game results.

All emitters are deterministic down to the byte: no set iteration, JSON with
fixed separators and explicitly ordered keys, graded dimensions as sorted
``[degree, dim]`` pairs.  ``parse_game_result`` inverts
``game_result_to_json`` exactly.

A game document (schema version 2) writes each distinct oracle check and
each distinct move transcript once, where it first appears.  A move's
``oracle`` is either an int k, "the transcript of move k", or a list whose
entries are check objects, numbered 0, 1, 2, ... in document order, or ints
naming a check defined earlier.  Version 1, which writes every check in
full, is still read.
"""

from __future__ import annotations

import json
from typing import Any, Callable

from . import _EMIT_FORMATS as EMIT_FORMATS
from .board import Board, Box, MoveRecord, MoveRefused, Opaque, OracleCheck, SymBlock
from .games import GameResult, replay

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


def _box_from_dict(d: dict) -> Box:
    x, y, c = d["x"], d["y"], d["content"]
    if not type(x) is type(y) is int:
        raise ValueError(f"box position must be a pair of ints, got {(x, y)!r}")
    content: SymBlock | Opaque
    if c["kind"] == "opaque":
        content = Opaque(_int_at_least(c["copies"], 1, "opaque copies"))
    elif c["kind"] == "sym":
        content = SymBlock(_int_at_least(c["m"], 0, "sym grade m"))
    else:
        raise ValueError(f"unknown content kind {c['kind']!r}")
    return Box(x, y, content)


def board_to_dict(board: Board) -> dict:
    return {"boxes": [box_to_dict(b) for b in board.boxes], "copies": board.copies}


def _check_to_dict(check: OracleCheck) -> dict:
    return {"source": check.source, "target": check.target, "space": check.space,
            "expected": check.expected, "got": check.got, "ok": check.ok}


def _check_from_dict(d: dict) -> OracleCheck:
    for end in (d["source"], d["target"]):
        if type(end) is not list or len(end) != 3 or any(type(v) is not int for v in end):
            raise ValueError(f"oracle source and target must be three ints, got {end!r}")
    if d["space"] != "M":
        raise ValueError(f"oracle space must be M, got {d['space']!r}")
    got = (d["got"] if isinstance(d["got"], str)
           else tuple(tuple(p) for p in _list(d["got"], "oracle got")))
    check = OracleCheck(tuple(d["source"]), tuple(d["target"]), "M",
                        tuple(tuple(p) for p in _list(d["expected"], "oracle expected")), got)
    if d["ok"] is not check.ok:
        raise ValueError(f"oracle ok is {d['ok']!r} but got {check.got} "
                         f"against expected {check.expected}")
    if not check.ok:
        raise ValueError(f"an applied move holds a failed oracle check: got {check.got} "
                         f"against expected {check.expected}")
    for name in ("expected", "got"):
        pairs = getattr(check, name)
        degrees = [p[0] for p in pairs if len(p) == 2 and type(p[0]) is type(p[1]) is int
                   and p[1] >= 1]
        if len(degrees) < len(pairs) or degrees != sorted(set(degrees)):
            raise ValueError(f"oracle {name} must be [degree, dim] int pairs, degrees "
                             f"increasing and dims >= 1, got {d[name]!r}")
    return check


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
    moves = []
    for i, record in enumerate(log):
        transcript = record.oracle
        k = writer.setdefault(transcript, i) if transcript else i
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


def _move_from_dict(d: dict, copies: int, oracle: tuple[OracleCheck, ...]) -> MoveRecord:
    if d["verdict"] != "applied":
        raise ValueError(f"move verdict must be applied, got {d['verdict']!r}")
    for key in ("copies_before", "copies_after"):
        if type(d[key]) is not int or d[key] != copies:
            raise ValueError(f"move {key} is {d[key]!r} but the boards hold {copies} copies")
    return MoveRecord(
        d["kind"],
        tuple(tuple(p) for p in _list(d["positions"], "move positions")),
        tuple(d["params"].items()),
        oracle,
        "applied",
        copies,
        copies,
    )


def _reference(value: Any, bound: int, what: str, i: int) -> int:
    if type(value) is not int or not 0 <= value < bound:
        raise ValueError(f"move {i}: {what} reference {value!r} is not an int in [0, {bound})")
    return value


def _transcripts(moves: list, version: int) -> list[tuple[OracleCheck, ...]]:
    """Each move's oracle checks, with a version 2 document's references
    resolved; every check object is validated once, where it is written."""
    checks: list[OracleCheck] = []
    written: dict[int, tuple[OracleCheck, ...]] = {}
    out = []
    for i, move in enumerate(moves):
        oracle = move["oracle"]
        if version == 1 and (type(oracle) is not list
                             or any(type(e) is not dict for e in oracle)):
            raise ValueError(f"move {i}: a version 1 oracle is a list of checks, got {oracle!r}")
        if type(oracle) is not list:
            k = _reference(oracle, i, "transcript", i)
            if k not in written:
                raise ValueError(f"move {i}: transcript reference {k} names a move "
                                 f"whose oracle is not a list")
            out.append(written[k])
            continue
        transcript = []
        for entry in oracle:
            if type(entry) is dict:
                checks.append(_check_from_dict(entry))
                transcript.append(checks[-1])
            else:
                transcript.append(checks[_reference(entry, len(checks), "check", i)])
        written[i] = tuple(transcript)
        out.append(written[i])
    return out


def game_result_to_dict(result: GameResult) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "params": {"n": result.n, "eps": result.eps, "mode": result.mode},
        "initial": board_to_dict(result.initial),
        "moves": _interned_moves(result.log),
        "final": board_to_dict(result.final),
        "gr2": {"found": result.gr2_found,
                "boxes": [box_to_dict(b) for b in result.gr2_boxes]},
        "residual_f_count": result.residual_f_count,
        "flags": result.flags,
    }


def game_result_to_json(result: GameResult) -> str:
    return dumps(game_result_to_dict(result))


def parse_game_result(text: str) -> GameResult:
    """Exact inverse of :func:`game_result_to_json`; reads schema versions 1
    and 2.

    A document that is not valid JSON or lacks the expected structure
    raises ``ValueError``, and so does one holding any of these (a bool is
    never taken for an int):
    - a ``moves``, a board's or ``gr2``'s ``boxes``, a move's ``positions``
      or a check's ``expected`` that is not a list, or a check's ``got``
      that is neither a list nor a string;
    - an ``n`` that is not an int >= 2, an ``eps`` other than 0 or 1, a
      ``mode`` other than ``fibration`` or ``flip``, or ``flags`` that are
      not a list of strings;
    - a box x or y that is not an int, a grade ``m`` that is not an
      int >= 0, or an opaque ``copies`` that is not an int >= 1;
    - a recorded copy total that disagrees with its boards' boxes, or
      initial and final boards of different copy totals;
    - a move whose ``verdict`` is not ``applied``, or whose
      ``copies_before`` or ``copies_after`` differs from the boards' total;
    - an oracle entry whose ``space`` is not ``M``, whose ``source`` or
      ``target`` is not three ints, or whose ``ok`` disagrees with
      ``got == expected`` or is false (a failed or indeterminate check
      refuses its move, so an applied move holds none), or whose
      ``expected`` or ``got`` is not a list of ``[degree, dim]`` int pairs
      with degrees strictly increasing and every dim >= 1, the one form of
      an oracle answer (``weights.GradedDims``); each check object is
      validated once, where it is written;
    - in version 2, an oracle reference that is not an int, is negative,
      names a check not yet defined, or names a transcript of this or a
      later move or of a move whose own ``oracle`` is not a list; in
      version 1, any oracle reference;
    - a ``residual_f_count`` that is not an int >= 0;
    - a ``schema_version`` other than the int 1 or 2;
    - a ``gr2`` box that is not on the final board or is named twice, or a
      ``gr2.found`` that is not a bool or disagrees with whether
      ``gr2.boxes`` is empty;
    - past every check above, moves that do not replay (unvalidated) from
      the initial board, a move refused included, or that lead to a board
      other than the final one.
    """
    try:
        return _game_result_from_dict(json.loads(text))
    except (KeyError, TypeError, AttributeError, RecursionError) as exc:
        raise ValueError(f"malformed game document: {exc!r}") from exc


def _game_result_from_dict(d: dict) -> GameResult:
    version = d["schema_version"]
    if type(version) is not int or version not in (1, SCHEMA_VERSION):
        raise ValueError(f"unsupported schema version {version!r}")
    n, eps, mode = d["params"]["n"], d["params"]["eps"], d["params"]["mode"]
    _int_at_least(n, 2, "params.n")
    if type(eps) is not int or eps not in (0, 1):
        raise ValueError(f"params.eps must be 0 or 1, got {eps!r}")
    if mode not in ("fibration", "flip"):
        raise ValueError(f"params.mode must be fibration or flip, got {mode!r}")
    flags = d["flags"]
    if type(flags) is not list or any(type(f) is not str for f in flags):
        raise ValueError(f"flags must be a list of strings, got {flags!r}")
    initial = _board_from_dict(n, eps, d["initial"], "initial")
    final = _board_from_dict(n, eps, d["final"], "final")
    if initial.copies != final.copies:
        raise ValueError(f"initial board holds {initial.copies} copies "
                         f"but the final board holds {final.copies}")
    gr2_boxes = tuple(_box_from_dict(b) for b in _list(d["gr2"]["boxes"], "gr2.boxes"))
    for b in gr2_boxes:
        if final.at(b.pos) != b:
            raise ValueError(f"gr2 box at {b.pos} is not on the final board")
    if len({b.pos for b in gr2_boxes}) != len(gr2_boxes):
        raise ValueError("gr2 names a box twice")
    found = d["gr2"]["found"]
    if type(found) is not bool or found != bool(gr2_boxes):
        raise ValueError(f"gr2.found is {found!r} but gr2 holds {len(gr2_boxes)} boxes")
    moves = _list(d["moves"], "moves")
    result = GameResult(
        n, eps, mode, initial, final,
        tuple(_move_from_dict(m, initial.copies, oracle)
              for m, oracle in zip(moves, _transcripts(moves, version))),
        gr2_boxes, _int_at_least(d["residual_f_count"], 0, "residual_f_count"), tuple(flags),
    )
    # Last, so that every earlier refusal keeps its message: the log must
    # replay, unvalidated, from the initial board to the final one.
    try:
        replayed = replay(initial, result.log)
    except (ValueError, MoveRefused) as exc:
        raise ValueError(f"the moves do not replay from the initial board: {exc}") from exc
    if replayed != final:
        raise ValueError("the moves do not lead from the initial board to the final board")
    return result


def _board_from_dict(n: int, eps: int, d: dict, name: str) -> Board:
    board = Board(n, eps, tuple(_box_from_dict(b) for b in _list(d["boxes"], f"{name}.boxes")))
    if type(d["copies"]) is not int or d["copies"] != board.copies:
        raise ValueError(f"{name}.copies is {d['copies']!r} but its boxes "
                         f"hold {board.copies} copies")
    return board


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
