"""Cohomology oracles and semiorthogonal mutation games on F(1,2,N).

The package computes sheaf cohomology on the flag variety F(1,2,N) and on
its (1,1)-divisor M by weight combinatorics, uses those computations as an
oracle for Ext groups, and plays a deterministic box-pushing game whose
moves are licensed by that oracle.  Numerical topology of the associated
double cover and the section counts for M live in :mod:`flagchess.chern`.
"""

from types import ModuleType as _ModuleType

from .board import (
    MOVES,
    Board,
    Box,
    MoveRecord,
    MoveRefused,
    Opaque,
    OracleCheck,
    SymBlock,
    apply_record,
    log_signature,
    move_absorb,
    move_gather_to_end,
    move_global_twist,
    move_opacify_boxes,
    move_orange_merge,
    move_push_right,
    move_rule1,
    move_rule2,
    move_serre_global,
    move_serre_translate,
    move_transpose,
    play,
)
from .chern import (
    condition3_bound,
    cover_degree,
    h0_twisted_quotient,
    section_count_ld,
    section_count_syzygy,
)
from .games import (
    GameResult,
    corrected_flip_board,
    extract_gr2,
    initial_board_fibration,
    reference_residual_count,
    replay,
    run_game,
)
from .oracle import (
    LemmaPoint,
    LemmaReport,
    check_lemma,
    ext_on_M,
    ext_on_flag,
    hom_bundle,
    koszul_terms,
)
from .schur import (
    INDETERMINATE,
    BundleDescriptor,
    clebsch_gordan_rank2,
    dualize,
    sym_cohomology,
    sym_cohomology_via_pushforward,
    sym_filtration,
    sym_resolution_step,
)
from .weights import (
    CohomResult,
    GradedDims,
    Regularization,
    Weight,
    bwb_regularize,
    canonical_fiber,
    euler_char,
    graded_add,
    graded_shift,
    line_bundle_cohomology,
    rho,
    simple_reflection,
    weyl_dim,
)

__version__ = "0.1.0"

# Every name imported above, less the submodules those imports bind.
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)] + ["__version__"]
