"""Process that runs benchmark ops against the checkout's ``src/flagchess``.

    python perfbench/worker.py games OPS [--trace]   # OPS: JSON [[n, eps], ...]
    python perfbench/worker.py lemma OPS [--trace]   # OPS: JSON [[lemma, n, eps], ...]
    python perfbench/worker.py cli game --n 8 --eps 0 ...    # always traced

``games`` and ``lemma`` run their ops one at a time in this process and time
each around its calls alone: ``run_game`` and ``replay``, or the CLI's
``cmd_lemma``.  Their stdout is JSON lines: a ``start``
record (import finished, ``flagchess.__file__``), per op an ``op`` record
followed by one payload line holding the op's result as text for the
caller's correctness check, and an ``end`` record with the trace report when
``--trace`` is given.  Results are written as each op finishes, so this
process never holds more than one op's result.

``cli`` runs ``flagchess.cli.main`` under the tracer: stdout is the CLI's own
output, and the trace report goes to stderr on a line starting with
``TRACE_MARK``.  Untraced CLI ops do not use this file; the benchmark runs
``python -m flagchess.cli`` for them.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import traceback
from time import perf_counter

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
TRACE_MARK = "PERFBENCH_TRACE "


def _emit(record: dict, payload: str | None = None) -> None:
    out = sys.stdout
    out.write(json.dumps(record, separators=(",", ":")))
    out.write("\n")
    if payload is not None:
        out.write(payload)
        out.write("\n")
    out.flush()


def _run_ops(ops: list, tracer, call, serialize) -> None:
    """One caller in a closed loop: an op starts after the previous one is reported."""
    for i, op in enumerate(ops):
        try:
            if tracer is not None:
                tracer.begin_op(i)
            t0 = perf_counter()
            value = call(*op)
            t1 = perf_counter()
            if tracer is not None:
                tracer.end_op()
            fields, payload = serialize(value)
        except Exception:
            if tracer is not None:
                tracer.abort_op()
            _emit({"kind": "op", "op": i, "error": traceback.format_exc()}, "")
            continue
        _emit({"kind": "op", "op": i, "latency_s": t1 - t0, "t_end": t1, **fields}, payload)


def _play_and_replay(n: int, eps: int):
    from flagchess import games

    result = games.run_game(n, eps, validate=False)
    return result, games.replay(result.initial, result.log)


def _game_fields(value) -> tuple[dict, str]:
    from flagchess import render

    result, replayed = value
    # What ``flagchess game --emit json`` prints for this game: its JSON
    # emitter's document and a newline.  Rendered here, untimed, because a
    # library caller of run_game does not render.
    text = render.game_result_to_json(result)
    return {"replay_equal": replayed == result.final, "out_bytes": len(text) + 1}, text


class _LemmaCommand:
    """``flagchess lemma --which L --n n --eps e``, run in this interpreter
    through the CLI's own command with its stdout captured.

    The report that the command's ``check_lemma`` call returned is kept for
    the point-by-point check; the CLI prints only a summary of it."""

    def __init__(self) -> None:
        import flagchess.cli

        self.cli = flagchess.cli
        self.reports: list = []
        check_lemma = flagchess.cli.check_lemma

        def keep(*args):
            report = check_lemma(*args)
            self.reports.append(report)
            return report

        flagchess.cli.check_lemma = keep

    def __call__(self, lemma: str, n: int, eps: int):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.cmd_lemma(argparse.Namespace(which=lemma, n=n, eps=eps, output=None))
        return code, out.getvalue(), self.reports.pop()


def _lemma_fields(value) -> tuple[dict, str]:
    code, text, report = value
    return {"exit": code, "out_bytes": len(text.encode("utf-8"))}, json.dumps({
        "cli": text,
        "report": {
            "lemma": report.lemma, "n": report.n, "eps": report.eps,
            "points": [[list(p.params), [list(e) for e in p.expected],
                        p.computed if isinstance(p.computed, str)
                        else [list(c) for c in p.computed],
                        p.verdict] for p in report.points],
        },
    }, separators=(",", ":"))


def _run_cli(argv: list[str], tracer) -> int:
    import flagchess.cli

    tracer.begin_op(0)
    try:
        return flagchess.cli.main(argv)
    finally:
        tracer.abort_op()
        sys.stdout.flush()


def main(argv: list[str]) -> int:
    sys.path.insert(0, SRC)
    mode, rest = argv[0], argv[1:]
    import flagchess
    if mode == "cli":
        import flagchess.cli  # noqa: F401  (its import is part of start-up)

    t_ready = perf_counter()
    tracer = None
    if mode == "cli" or "--trace" in rest[1:]:
        import tracer as tracing
        tracer = tracing.install()
    if mode == "cli":
        code = _run_cli(rest, tracer)
        report = tracer.report()
        report.update(t_ready=t_ready, flagchess_file=flagchess.__file__)
        sys.stderr.write(TRACE_MARK + json.dumps(report) + "\n")
        return code
    ops = json.loads(rest[0])
    _emit({"kind": "start", "t_ready": t_ready, "flagchess_file": flagchess.__file__})
    if mode == "games":
        _run_ops(ops, tracer, _play_and_replay, _game_fields)
    elif mode == "lemma":
        _run_ops(ops, tracer, _LemmaCommand(), _lemma_fields)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    _emit({"kind": "end", "trace": tracer.report() if tracer is not None else None})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
