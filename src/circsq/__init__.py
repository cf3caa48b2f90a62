"""circsq: distinct squares in circular words.

Word algebra, square and power-class counting, factor-graph circuit
analysis, and exhaustive verification sweeps for the related counting
bounds, with a CLI frontend (``circsq --help``).
"""

from .words import (
    CircularWord,
    InvalidWordError,
    PrimitiveRoot,
    canonical_rotation,
    circular_factors,
    factors,
    is_primitive,
    primitive_root,
    rename_by_first_occurrence,
    rotations,
    validate_word,
)
from .squares import (
    ClassDecomposition,
    PowerClass,
    SquareSet,
    class_decomposition,
    decomposition_report,
    distinct_squares,
    distinct_squares_circular,
    distinct_squares_circular_via_doubling,
    odd_even_counts,
)
from .rauzy import (
    Circuit,
    CircuitCapExceeded,
    RauzyGraph,
    build_rauzy_graph,
    circuit_root,
    cyclomatic_number,
    decompose_split,
    enumerate_elementary_circuits,
    independent_rank,
    is_weakly_connected,
    split_point,
    to_dot,
    vector_cycle,
)
from .verify import (
    CHECK_ORDER,
    CheckReport,
    LARGE_CIRCUIT_INSTANCES,
    SuiteReport,
    SweepConfig,
    check_large_circuit,
    circular_square_count,
    necklace_form,
    run_check,
    run_suite,
    search_extremal,
)

__version__ = "0.1.0"
