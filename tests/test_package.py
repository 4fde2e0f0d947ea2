"""The package's public surface."""
from __future__ import annotations

import os
import subprocess
import sys
import types
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


def test_all_names_exactly_the_public_attributes():
    public = {name for name, value in vars(flagchess).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(flagchess.__all__) == len(set(flagchess.__all__))
    assert set(flagchess.__all__) == public | {"__version__"}


def test_the_cli_imports_without_dataclasses_or_inspect():
    # a fresh interpreter without site, so that nothing but flagchess imports
    script = "import sys, flagchess.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    src = str(Path(flagchess.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-S", "-c", script], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


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
    (line_bundle_cohomology(5, 1, 0), "CohomResult(degree=0, dominant=(1, 0, 0, 0), dim=5)"),
    (line_bundle_cohomology(5, -1, 0), "CohomResult(degree=None, dominant=None, dim=0)"),
])
def test_record_reprs(record, text):
    assert repr(record) == text
