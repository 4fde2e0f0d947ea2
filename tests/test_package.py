"""The package's public surface."""
from __future__ import annotations

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import flagchess
from flagchess import (
    Board,
    Box,
    Opaque,
    SymBlock,
    bwb_regularize,
    check_lemma,
    line_bundle_cohomology,
    move_push_right,
)
from flagchess.board import _questions


# Each submodule and the public names the package takes from it.
_PUBLIC = {
    "board": "MOVES Board Box MoveRecord MoveRefused Opaque OracleCheck SymBlock apply_record "
             "log_signature move_absorb move_gather_to_end move_global_twist move_opacify_boxes "
             "move_orange_merge move_push_right move_rule1 move_rule2 move_serre_global "
             "move_serre_translate move_transpose play",
    "chern": "condition3_bound cover_degree h0_twisted_quotient section_count_ld "
             "section_count_syzygy",
    "games": "GameResult corrected_flip_board extract_gr2 initial_board_fibration "
             "reference_residual_count replay run_game",
    "oracle": "LemmaPoint LemmaReport check_lemma ext_on_M ext_on_flag hom_bundle koszul_terms",
    "schur": "INDETERMINATE BundleDescriptor clebsch_gordan_rank2 dualize sym_cohomology "
             "sym_cohomology_via_pushforward sym_filtration sym_resolution_step",
    "weights": "CohomResult GradedDims Regularization Weight bwb_regularize canonical_fiber "
               "euler_char line_bundle_cohomology rho simple_reflection weyl_dim",
}


def test_all_names_exactly_the_public_attributes():
    assert len(flagchess.__all__) == len(set(flagchess.__all__)) == 61
    names = {name: module for module, listed in _PUBLIC.items() for name in listed.split()}
    assert set(flagchess.__all__) == set(names) | {"__version__"}
    for name, module in names.items():
        home = importlib.import_module(f"flagchess.{module}")
        assert getattr(flagchess, name) is getattr(home, name)
    assert flagchess.__version__ == "0.1.0"
    namespace: dict = {}
    exec("from flagchess import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(flagchess.__all__)
    assert set(flagchess.__all__) <= set(dir(flagchess))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        flagchess.no_such_name  # noqa: B018


# Each entry point, run in a fresh interpreter without site, and the
# flagchess submodules it may load: only the layers it runs.  A refused
# argument loads no layer of its command.
_LEMMA_LAYERS = {"cli", "oracle", "schur", "weights"}
_ENTRY_POINTS = [
    ("import flagchess", set()),
    ("import flagchess.cli", _LEMMA_LAYERS),
    ("lemma --which A6 --n 3 --eps 0", _LEMMA_LAYERS),
    ("ext --N 5 --space M --src 0,1,0 --tgt 1,-1,1", _LEMMA_LAYERS),
    ("bwb --N 5 --x 1 --y 0", _LEMMA_LAYERS),
    ("cohom --N 5 --m 2 --x 0 --y 0", _LEMMA_LAYERS),
    ("game --n 2 --eps 1 --emit json", _LEMMA_LAYERS | {"board", "games", "render"}),
    ("game --n 29 --eps 1 --emit json", _LEMMA_LAYERS),
    ("degree --n 2 --eps 1", _LEMMA_LAYERS | {"chern"}),
    ("conditions --n 2 --eps 1", _LEMMA_LAYERS | {"chern"}),
    ("degree --n 101 --eps 1", _LEMMA_LAYERS),
]


def _modules_loaded_by(entry_point: str) -> set[str]:
    if entry_point.startswith("import "):
        script = entry_point
    else:
        argv = [*entry_point.split(), "--output", os.devnull]
        # argparse exits 3 on a refused argument, and on nothing else here
        script = (f"import flagchess.cli\ntry:\n    flagchess.cli.main({argv!r})\n"
                  "except SystemExit as exc:\n    assert exc.code == 3, exc")
    script += "\nimport sys; print(sorted(sys.modules))"
    src = str(Path(flagchess.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-S", "-c", script],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    return set(ast.literal_eval(proc.stdout))


def test_the_cli_imports_without_dataclasses_or_inspect():
    for entry_point, layers in _ENTRY_POINTS:
        loaded = _modules_loaded_by(entry_point)
        assert not {"dataclasses", "inspect"} & loaded, entry_point
        assert {m for m in loaded if m.startswith("flagchess")} == \
            {"flagchess"} | {f"flagchess.{layer}" for layer in layers}, entry_point
        # json is loaded by the renderer alone
        assert ("json" in loaded) == ("render" in layers), entry_point


def test_the_readme_compile_table_counts_the_module_files():
    """README's table of the lines each command compiles, with the package
    total above it, recounted from the module files as ``wc -l`` counts."""
    repo = Path(__file__).resolve().parent.parent
    lines = {path.stem: path.read_bytes().count(b"\n")
             for path in (repo / "src" / "flagchess").glob("*.py")}
    readme = (repo / "README.md").read_text(encoding="utf-8")

    def total(modules) -> str:
        return f"{sum(lines[module] for module in modules):,}"

    assert f"of the package's {total(lines)} lines:" in " ".join(readme.split())
    for commands, layers in [("`bwb`, `cohom`, `ext`, `lemma`", _LEMMA_LAYERS),
                             ("`degree`, `conditions`", _LEMMA_LAYERS | {"chern"}),
                             ("`game`", _LEMMA_LAYERS | {"board", "games", "render"})]:
        row = rf"^\| {re.escape(commands)} \| .* \| {total({'__init__'} | layers)} \|$"
        assert re.search(row, readme, re.MULTILINE), commands


_BOARD = Board(2, 1, (Box(0, 1, SymBlock(0)), Box(1, 1, Opaque())))


@pytest.mark.parametrize("record, text", [
    (SymBlock(2), "SymBlock(m=2)"),
    (Opaque(), "Opaque(copies=1)"),
    (_BOARD, "Board(n=2, eps=1, boxes=(Box(x=0, y=1, content=SymBlock(m=0)), "
             "Box(x=1, y=1, content=Opaque(copies=1))))"),
    (move_push_right(_BOARD, (0, 1), 1, False)[1],
     "MoveRecord(kind='push_right', positions=((0, 1),), params=(('count', 1), "
     "('opacify', False)), oracle=(), verdict='applied', copies_before=2, copies_after=2)"),
    (_questions("absorb", 1, 5)[1][0],
     "OracleCheck(source=(0, 1, 0), target=(0, -1, 1), space='M', expected=((1, 1),), "
     "got=((1, 1),))"),
    (check_lemma("A6", 2, 0),
     "LemmaReport(lemma='A6', n=2, eps=0, points=(LemmaPoint(params=(('m', 0), ('r', 0)), "
     "expected=(), computed=(), verdict='match'),))"),
    (bwb_regularize((1, -1, 2)),
     "Regularization(singular=True, length=1, weight=None, trace=((2, (0, 1, 1)),))"),
    (line_bundle_cohomology(5, 1, 0), "CohomResult(degree=0, dim=5)"),
    (line_bundle_cohomology(5, -1, 0), "CohomResult(degree=None, dim=0)"),
])
def test_record_reprs(record, text):
    assert repr(record) == text
