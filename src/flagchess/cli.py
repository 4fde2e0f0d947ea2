"""Command-line interface.

Exit codes: 0 success, 1 completed with discrepancy flags (game flags,
lemma mismatches, degree disagreement), 2 refused move or indeterminate
verdict, 3 usage error.  Results go to stdout (or --output), diagnostics
to stderr.

Only the layers that ``bwb``, ``cohom``, ``ext`` and ``lemma`` run (oracle,
schur, weights) are imported with this module; ``game`` imports the board,
the game scripts and the renderer, and ``degree`` and ``conditions`` import
``chern``, when they run.
"""

from __future__ import annotations

import argparse
import sys

from . import _EMIT_FORMATS, _MAX_m, _MAX_n, _MAX_twist
from .oracle import check_lemma, ext_on_flag, ext_on_M, hom_bundle, koszul_terms
from .schur import INDETERMINATE, BundleDescriptor, sym_cohomology, sym_filtration
from .weights import _game_N, bwb_regularize, line_bundle_cohomology, rho

EXIT_OK = 0
EXIT_FLAGGED = 1
EXIT_REFUSED = 2
EXIT_USAGE = 3

# Size bounds: past one, a command exits 3 before any work starts.  At the
# bounds the slowest commands (game at n = 28, lemma A6 at n = 100) take
# about 1 s and 8-10 s on a 2-core Xeon; the game's JSON document is about
# 0.65 MB and its peak memory about 27 MB.  The twist bound keeps every
# printed dimension under Python's 4,300-digit limit on int-to-str conversion.
MAX_GAME_n = 28  # game
MAX_n = _MAX_n  # lemma, degree, conditions, every parsed game document
MAX_N = 2 * MAX_n + 1  # bwb, cohom, ext
MAX_m = _MAX_m  # cohom, ext, a validated move's questions
MAX_twist = _MAX_twist  # |x| and |y| of bwb, cohom, ext and a validated move


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _triple(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected m,x,y; got {text!r}")
    try:
        m, x, y = (int(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected integers m,x,y; got {text!r}") from exc
    if refusal := _refusal(x, y, m):
        raise argparse.ArgumentTypeError(refusal)
    return m, x, y


def _refusal(x: int, y: int, m: int = 0) -> str | None:
    if not 0 <= m <= MAX_m:
        return f"symmetric power must be {'>= 0' if m < 0 else f'<= {MAX_m}'}, got {m}"
    for name, value in (("x", x), ("y", y)):
        if abs(value) > MAX_twist:
            return f"need |{name}| <= {MAX_twist}, got {value}"
    return None


def _fmt_graded(g) -> str:
    if g is INDETERMINATE:
        return g
    return ", ".join(f"h^{k} = {v}" for k, v in g) or "0"


def _write(lines: list[str], output: str | None) -> None:
    text = "\n".join(lines) + ("\n" if lines else "")
    try:
        if output is None:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        where = "stdout" if output is None else output
        raise UsageError(f"cannot write {where}: {exc.strerror}") from exc


def _need(name: str, value: int, low: int, high: int) -> None:
    if value < low:
        raise UsageError(f"need {name} >= {low}, got {value}")
    if value > high:
        raise UsageError(f"need {name} <= {high}, got {value}")


def cmd_bwb(args: argparse.Namespace) -> int:
    _need("N", args.N, 3, MAX_N)
    if refusal := _refusal(args.x, args.y):
        raise UsageError(refusal)
    res = line_bundle_cohomology(args.N, args.x, args.y)
    start = tuple(a + b for a, b in zip((args.x, args.y) + (0,) * (args.N - 3), rho(args.N)))
    reg = bwb_regularize(start)
    lines = [f"line bundle O({args.x},{args.y}) on F(1,2,{args.N})",
             f"shifted weight: {start}"]
    for idx, w in reg.trace:
        lines.append(f"  reflect {idx}: {w}")
    if res.vanishes:
        lines.append("result: 0 (singular shifted weight)")
    else:
        lines.append(f"result: H^{res.degree} of dimension {res.dim}, "
                     f"dominant weight {tuple(c - 1 for c in reg.weight)}")
    _write(lines, args.output)
    return EXIT_OK


def cmd_cohom(args: argparse.Namespace) -> int:
    _need("N", args.N, 3, MAX_N)
    if refusal := _refusal(args.x, args.y, args.m):
        raise UsageError(refusal)
    d = BundleDescriptor(args.m, args.x, args.y, args.N)
    lines = [f"Sym^{args.m} twisted by ({args.x},{args.y}) on F(1,2,{args.N})"]
    for px, py in sym_filtration(d):
        piece = line_bundle_cohomology(args.N, px, py)
        if piece.vanishes:
            lines.append(f"  piece O({px},{py}): 0")
        else:
            lines.append(f"  piece O({px},{py}): H^{piece.degree} of dimension {piece.dim}")
    total = sym_cohomology(d)
    lines.append(f"total: {_fmt_graded(total)}")
    _write(lines, args.output)
    return EXIT_REFUSED if total is INDETERMINATE else EXIT_OK


def cmd_ext(args: argparse.Namespace) -> int:
    _need("N", args.N, 3, MAX_N)
    src = BundleDescriptor(*args.src, args.N)
    tgt = BundleDescriptor(*args.tgt, args.N)
    lines = [f"Ext on {args.space} between Sym^{src.m}({src.x},{src.y}) "
             f"and Sym^{tgt.m}({tgt.x},{tgt.y}), N={args.N}"]
    for s in hom_bundle(src, tgt):
        lines.append(f"  hom summand: Sym^{s.m}({s.x},{s.y})")
    if args.space == "flag":
        res = ext_on_flag(src, tgt)
    else:
        A, B = koszul_terms(src, tgt)
        lines.append(f"  twisted term (target twisted by (-1,-1)): {_fmt_graded(A)}")
        lines.append(f"  plain term: {_fmt_graded(B)}")
        res = ext_on_M(src, tgt)
    lines.append(f"result: {_fmt_graded(res)}")
    _write(lines, args.output)
    return EXIT_REFUSED if res is INDETERMINATE else EXIT_OK


def cmd_lemma(args: argparse.Namespace) -> int:
    _need("n", args.n, 2, MAX_n)
    report = check_lemma(args.which, args.n, args.eps)
    lines = [f"{args.which} sweep at n={args.n}, eps={args.eps} "
             f"(N={_game_N(args.n, args.eps)}): {report.total} points",
             f"matches {report.total - report.mismatches - report.indeterminates}, "
             f"mismatches {report.mismatches}, indeterminates {report.indeterminates}"]
    for p in report.points:
        if p.verdict != "match":
            params = ", ".join(f"{k}={v}" for k, v in p.params)
            lines.append(f"  {p.verdict} at {params}: expected {list(p.expected)}, "
                         f"got {p.computed}")
    _write(lines, args.output)
    if report.indeterminates:
        return EXIT_REFUSED
    return EXIT_FLAGGED if report.mismatches else EXIT_OK


def cmd_game(args: argparse.Namespace) -> int:
    from . import render
    from .board import MoveRefused
    from .games import run_game

    _need("n", args.n, 2, MAX_GAME_n)
    try:
        result = run_game(args.n, args.eps, mode=args.mode, validate=args.validate)
    except MoveRefused as exc:
        print(f"flagchess: refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    _write(render.emit(result, args.emit), args.output)
    return EXIT_FLAGGED if result.flags else EXIT_OK


def cmd_degree(args: argparse.Namespace) -> int:
    from .chern import cover_degree

    _need("n", args.n, 2, MAX_n)
    via_series, via_closed, agree = cover_degree(args.n, args.eps)
    lines = [f"branch degree at n={args.n}, eps={args.eps}",
             f"series expansion: {via_series}",
             f"closed form: {via_closed}",
             f"agree: {'yes' if agree else 'no'}"]
    _write(lines, args.output)
    return EXIT_OK if agree else EXIT_FLAGGED


def cmd_conditions(args: argparse.Namespace) -> int:
    from .chern import condition3_bound, h0_twisted_quotient, section_count_ld, section_count_syzygy

    _need("n", args.n, 2, MAX_n)
    N = _game_N(args.n, args.eps)
    h0 = h0_twisted_quotient(N)
    ld = section_count_ld(N)
    sy = section_count_syzygy(N)
    bound = condition3_bound(N)
    lines = [f"N = {N}",
             f"sections of the twisted quotient: {h0}",
             f"condition 1 (linear determinantal) parameter count: {ld}",
             f"condition 2 (syzygy) parameter count: {sy}",
             f"condition 3 codimension bound: {bound}",
             f"comparison: condition 1 gives {ld} >= {sy} from condition 2"]
    _write(lines, args.output)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="flagchess",
                     description="Cohomology oracles and mutation games on F(1,2,N)")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name: str, func, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.error = parser.error  # type: ignore[method-assign]
        p.add_argument("--output", default=None, help="write results to a file instead of stdout")
        p.set_defaults(func=func)
        return p

    p = add("bwb", cmd_bwb, "regularize a line-bundle weight and report its cohomology")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, required=True)

    p = add("cohom", cmd_cohom, "cohomology of a twisted symmetric power")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, required=True)

    p = add("ext", cmd_ext, "Ext between twisted symmetric powers")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--space", choices=("flag", "M"), required=True)
    p.add_argument("--src", type=_triple, required=True, metavar="m,x,y")
    p.add_argument("--tgt", type=_triple, required=True, metavar="m,x,y")

    p = add("lemma", cmd_lemma, "sweep a vanishing lemma over its stated grid")
    p.add_argument("--which", choices=("A4", "A5", "A6"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=int, choices=(0, 1), required=True)

    p = add("game", cmd_game, "play the straightening game")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=int, choices=(0, 1), required=True)
    p.add_argument("--mode", choices=("fibration", "flip"), default="fibration")
    # set_defaults, not default=: Python 3.10 would append "(default: True)"
    p.add_argument("--validate", action=argparse.BooleanOptionalAction,
                   help="check every windowed move with the oracle (default: on)")
    p.set_defaults(validate=True)
    p.add_argument("--emit", choices=_EMIT_FORMATS,
                   default="text", help="output format (default: text)")

    p = add("degree", cmd_degree, "branch-divisor degree, two independent ways")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=int, choices=(0, 1), required=True)

    p = add("conditions", cmd_conditions, "section and condition counts for M")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=int, choices=(0, 1), required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"flagchess: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
