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

# The CLI's bounds on what reaches the oracle, stated here for the board and
# the parser too, and re-exported by flagchess.cli as MAX_n (which bounds the
# N(N - 2) boxes of every parsed document's start board and keeps its
# N = 2n + eps within cli.MAX_N), MAX_m and MAX_twist.
_MAX_n, _MAX_m, _MAX_twist = 100, 200, 10**9

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
