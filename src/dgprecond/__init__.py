"""Interior penalty DG discretizations of elliptic problems with jump
coefficients, a coefficient-dependent space splitting and robust two-level
and multilevel preconditioners."""

from .mesh import (
    BOUNDARY,
    Mesh,
    MeshHierarchy,
    CoefficientField,
    EdgeWeights,
    UnresolvedCoefficientError,
    build_initial_mesh,
    build_hierarchy,
    refine,
    assign_coefficient,
    edge_weights,
)
from .assembly import (
    IP0,
    IP1,
    MethodParams,
    assemble_dg,
    assemble_conforming,
    assemble_rhs,
    energy_norm,
    symmetric_part,
)
from .basis_split import (
    SplitBasis,
    BlockOperator,
    BlockStructureError,
    build_transform,
    to_split,
    from_split,
    extract_blocks,
    split_matrix,
    star_product,
    star_diagonal,
)
from .krylov import (
    SolveReport,
    BreakdownError,
    pcg,
    estimate_spectrum,
    condition_numbers,
    stationary_iteration,
    error_propagator_norm,
)
from .precond import (
    JACOBI,
    SYM_GS,
    SmootherSpec,
    DiagonalPrecond,
    DirectSolve,
    Smoother,
    conforming_prolongation,
    cr_from_conforming,
    cr_prolongation,
    TwoLevelPrecond,
    two_level,
    HierarchyPrecond,
    bpx,
    BlockJacobiPrecond,
    block_jacobi_dg,
    forward_substitution_solve,
)
from .experiments import (
    ExperimentConfig,
    TableResult,
    Problem,
    build_problem,
    run_zz_table,
    run_two_level_table,
    run_bpx_table,
    run_sipg1_blockjacobi_table,
    run_iipg_propagator_table,
    dump_spectrum,
    compare_to_golden,
    format_comparison,
)

__version__ = "0.1.0"
