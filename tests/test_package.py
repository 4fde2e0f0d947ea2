"""The package's public surface."""
from __future__ import annotations

import types

import flagchess


def test_all_names_exactly_the_public_attributes():
    public = {name for name, value in vars(flagchess).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(flagchess.__all__) == len(set(flagchess.__all__))
    assert set(flagchess.__all__) == public | {"__version__"}
