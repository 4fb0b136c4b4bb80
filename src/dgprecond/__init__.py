"""Interior penalty DG discretizations of elliptic problems with jump
coefficients, a coefficient-dependent space splitting and robust two-level
and multilevel preconditioners."""

from .mesh import (
    Mesh,
    MeshHierarchy,
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
    symmetric_part,
)
from .basis_split import (
    BlockOperator,
    build_transform,
    from_split,
    split_rhs,
    extract_blocks,
    split_matrix,
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
    transfer_chain,
    cr_prolongation,
    AdditivePrecond,
    two_level,
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
    RUNNERS,
    dump_spectrum,
    compare_to_golden,
    format_comparison,
)

__version__ = "0.1.0"
