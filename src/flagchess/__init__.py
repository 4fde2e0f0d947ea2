"""Cohomology oracles and semiorthogonal mutation games on F(1,2,N).

The package computes sheaf cohomology on the flag variety F(1,2,N) and on
its (1,1)-divisor M by weight combinatorics, uses those computations as an
oracle for Ext groups, and plays a deterministic box-pushing game whose
moves are licensed by that oracle.  Numerical topology of the associated
double cover and the section counts for M live in :mod:`flagchess.chern`.

``import flagchess`` loads no submodule: each public name is imported from
its submodule on first use (PEP 562), so a program compiles only the layers
it touches.
"""

import sys as _sys

# Each public name, in the order of __all__, and the submodule that defines it.
_HOME = {name: module for module, names in (
    ("board", "MOVES Board Box MoveRecord MoveRefused Opaque OracleCheck SymBlock apply_record "
              "log_signature move_absorb move_gather_to_end move_global_twist move_opacify_boxes "
              "move_orange_merge move_push_right move_rule1 move_rule2 move_serre_global "
              "move_serre_translate move_transpose play"),
    ("chern", "condition3_bound cover_degree h0_twisted_quotient section_count_ld "
              "section_count_syzygy"),
    ("games", "GameResult corrected_flip_board extract_gr2 initial_board_fibration "
              "reference_residual_count replay run_game"),
    ("oracle", "LemmaPoint LemmaReport check_lemma ext_on_M ext_on_flag hom_bundle koszul_terms"),
    ("schur", "INDETERMINATE BundleDescriptor clebsch_gordan_rank2 dualize sym_cohomology "
              "sym_cohomology_via_pushforward sym_filtration sym_resolution_step"),
    ("weights", "CohomResult GradedDims Regularization Weight bwb_regularize canonical_fiber "
                "euler_char line_bundle_cohomology rho simple_reflection weyl_dim"),
) for name in names.split()}

# The game's --emit formats, stated here so that the CLI can offer them
# without loading flagchess.render, which re-exports them as EMIT_FORMATS.
_EMIT_FORMATS = ("text", "latex", "json", "json-lines")

# The bounds on what reaches the oracle, re-exported by flagchess.cli and kept
# through _sized: n by weights' (n, eps) rule, so that a start board's N(N - 2)
# boxes stay few and N = 2n + eps <= MAX_N; N by its N rule; m and the twist by
# schur.BundleDescriptor; past them the Bott reach, derived in _line_bundle.
_MAX_n, _MAX_m, _MAX_twist = 100, 200, 10**9
_MAX_N = 2 * _MAX_n + 1
_MAX_reach = 4 * _MAX_twist + 2 * _MAX_m + 1


def _shown(value: object) -> str:
    """A value as a refusal shows it: its repr, a tuple's or a list's items
    each shown, and an int past 2,000 bits as ``an int of 5,001 digits``,
    sized from its bit length, so that no refusal meets Python's limit on
    converting an int to text (4,300 digits by default, 640 at the least)."""
    if type(value) is tuple or type(value) is list:
        items = ", ".join(map(_shown, value))
        return f"[{items}]" if type(value) is list else f"({items}{',' * (len(value) == 1)})"
    if not isinstance(value, int) or value.bit_length() <= 2000:
        return repr(value)
    # from below, as 0.30102999 < log10(2), then up to the first power of ten past it
    size, digits = abs(value), (value.bit_length() - 1) * 30102999 // 10**8
    while size >= 10**digits:
        digits += 1
    return f"an int of {digits:,} digits"


def _sized(value: object, name: str, low: int | None = None, high: int | None = None) -> int:
    """``value`` if it is an int (not a bool) from ``low`` to ``high`` (None: no
    bound): the one rule of every size the library and the CLI refuse.  Else a
    ``ValueError`` in one of four forms, as ``n must be <= 100, got 101``."""
    if type(value) is int and (low is None or low <= value) and (high is None or value <= high):
        return value
    words = (f"{name} must be an int" if type(value) is not int
             else f"|{name}| must be <= {high}" if low is not None and high == -low
             else f"{name} must be <= {high}" if high is not None and value > high
             else f"{name} must be >= {low}")
    raise ValueError(f"{words}, got {_shown(value)}")


class _Record(tuple):
    """The base of the checked named tuples: ``_make``, and so ``_replace``,
    builds through the class's ``__new__``, and no attribute can be assigned."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

__version__ = "0.1.0"

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    """Import a public name's submodule on first use and keep the value here."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = f"{__name__}.{_HOME[name]}"
    __import__(module)
    value = globals()[name] = getattr(_sys.modules[module], name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
