"""Span tracing of flagchess's layers, installed from outside the package.

``install()`` wraps each layer's public functions and rebinds every name a
flagchess module holds for them (for example ``flagchess.schur.
line_bundle_cohomology`` and ``flagchess.board.ext_on_M``), so calls between
layers go through the wrappers without any change to ``src/``.  A span is
recorded only while an op is open (``begin_op``/``end_op``); work the
benchmark itself does between ops, such as serializing a result for its
correctness check, is not traced.

Spans are kept in memory as parallel arrays (name, start, end, parent span,
op id) and reduced when the process ends by ``report()``: a span's self time
is its duration minus the time its child spans cover, and a layer's self time
is the sum over its spans.  Counts are taken at the same boundaries, and the
lru caches' hit and miss counts are read from outside through
``cache_info()``.  ``chern`` is not traced: no workload's time depends on it.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter_ns

import flagchess
import flagchess.cli
from flagchess import board, games, oracle, render, schur, weights

LAYERS = ("weights", "schur", "oracle", "board", "games", "render", "cli")

TRACED = {
    "weights": (weights, ("line_bundle_cohomology", "bwb_regularize", "weyl_dim")),
    "schur": (schur, ("sym_cohomology", "sym_cohomology_via_pushforward")),
    "oracle": (oracle, ("ext_on_M", "ext_on_flag", "check_lemma")),
    "board": (board, tuple(sorted(name for name in vars(board) if name.startswith("move_")))
              + ("apply_record",)),
    "games": (games, ("run_game", "replay", "extract_gr2")),
    "render": (render, ("game_result_to_json", "emit_json_lines", "render_ascii", "render_latex")),
    "cli": (flagchess.cli, ("main", "cmd_lemma")),
}

# Caches whose counts are read through cache_info(); keyed by metric prefix.
CACHES = {
    "bwb": weights.line_bundle_cohomology,
    "ext_flag": oracle._ext_on_flag_cached,
}


def _text_bytes(text: str) -> int:
    return len(text) if text.isascii() else len(text.encode("utf-8"))


class Tracer:
    """Spans and boundary counts for one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.stack: list[int] = []
        self.op: int | None = None
        self.counts: dict[str, int] = {}
        self.cache_base = {key: fn.cache_info() for key, fn in CACHES.items()}

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def begin_op(self, op: int) -> None:
        self.op = op

    def end_op(self) -> None:
        if self.stack:
            raise RuntimeError("op ended with open spans")
        self.op = None

    def abort_op(self) -> None:
        """Close the op after an exception unwound through open spans."""
        self.stack.clear()
        self.op = None

    def wrap(self, qualname: str, fn, observe, is_move: bool):
        nid = len(self.names)
        self.names.append(qualname)

        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(self.stack[-1] if self.stack else -1)
            self.span_op.append(self.op)
            self.span_end.append(0)
            self.stack.append(idx)
            self.span_start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            except board.MoveRefused:
                if is_move:
                    self.count("board.moves_refused")
                raise
            finally:
                self.span_end[idx] = perf_counter_ns()
                self.stack.pop()
            if observe is not None:
                observe(self, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def report(self) -> dict:
        """Per-layer self times, inclusive times of the games entry points,
        boundary counts and cache counts, as plain JSON-ready values."""
        n = len(self.span_start)
        covered = [0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                covered[parent] += self.span_end[i] - self.span_start[i]
        self_ns = dict.fromkeys(LAYERS, 0)
        inclusive_ns: dict[str, int] = {}
        layer_of = [name.split(".", 1)[0] for name in self.names]
        for i in range(n):
            nid = self.span_name[i]
            dur = self.span_end[i] - self.span_start[i]
            self_ns[layer_of[nid]] += dur - covered[i]
            name = self.names[nid]
            inclusive_ns[name] = inclusive_ns.get(name, 0) + dur
        caches = {}
        for key, fn in CACHES.items():
            info, base = fn.cache_info(), self.cache_base[key]
            caches[key] = {"hits": info.hits - base.hits, "misses": info.misses - base.misses}
        return {
            "spans": n,
            "ops": len(set(self.span_op)),
            "self_s": {layer: ns / 1e9 for layer, ns in self_ns.items()},
            "inclusive_s": {name: ns / 1e9 for name, ns in inclusive_ns.items()},
            "counts": dict(self.counts),
            "caches": caches,
        }


def _observe_move(tracer: Tracer, result) -> None:
    _, record = result
    tracer.count("board.moves")
    tracer.count("board.oracle_checks", len(record.oracle))


def _counter(key: str, indeterminate_key: str | None = None):
    def observe(tracer: Tracer, result) -> None:
        tracer.count(key)
        if indeterminate_key is not None and result is schur.INDETERMINATE:
            tracer.count(indeterminate_key)
    return observe


def _observe_render(tracer: Tracer, result) -> None:
    if isinstance(result, str):
        tracer.count("render.bytes", _text_bytes(result))
    else:  # emit_json_lines: one line each, joined by newlines on output
        tracer.count("render.bytes", sum(_text_bytes(line) + 1 for line in result))


def _observe_lemma(tracer: Tracer, report) -> None:
    tracer.count("oracle.lemma_points", report.total)


OBSERVERS = {
    "schur.sym_cohomology": _counter("schur.sym_calls", "schur.sym_indeterminate"),
    "schur.sym_cohomology_via_pushforward": _counter("schur.pushforward_calls"),
    "oracle.ext_on_M": _counter("oracle.ext_m_calls", "oracle.indeterminate"),
    "oracle.ext_on_flag": _counter("oracle.ext_flag_calls"),
    "oracle.check_lemma": _observe_lemma,
}


def _observer(layer: str, name: str):
    if layer == "board" and name.startswith("move_"):
        return _observe_move
    if layer == "render":
        return _observe_render
    return OBSERVERS.get(f"{layer}.{name}")


def install() -> Tracer:
    """Wrap every traced function and rebind each flagchess name bound to it."""
    tracer = Tracer()
    modules = [m for key, m in sys.modules.items()
               if m is not None and (key == "flagchess" or key.startswith("flagchess."))]
    for layer, (module, names) in TRACED.items():
        for name in names:
            original = getattr(module, name)
            is_move = layer == "board" and name.startswith("move_")
            wrapped = tracer.wrap(f"{layer}.{name}", original, _observer(layer, name), is_move)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
    return tracer
