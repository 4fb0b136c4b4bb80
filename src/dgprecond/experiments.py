"""Scripted condition-number experiments.

Each table sweeps (coefficient contrast, refinement level) cells, solves the
relevant system with PCG, estimates the spectrum of the preconditioned
operator and reports the condition number K, the effective condition number
K_1 (smallest eigenvalue discarded) and the PCG iteration count.  Results
serialize to JSON/CSV/markdown; a comparison harness checks measured values
against stored reference values with per-quantity tolerance bands.
"""

import functools
import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .mesh import EdgeWeights, MeshHierarchy, build_hierarchy, assign_coefficient, edge_weights
from .assembly import IP0, IP1, MethodParams, assemble_dg
from .basis_split import build_transform, extract_blocks, split_matrix
from .precond import (
    SmootherSpec,
    DiagonalPrecond,
    cr_prolongation,
    two_level,
    bpx,
    block_jacobi_dg,
)
from .krylov import TOL, pcg, estimate_spectrum, condition_numbers, error_propagator_norm

EPS_DEFAULT = (1e-5, 1e-3, 1e-1, 1.0, 1e1, 1e3, 1e5)
EPS_SWEEP_11 = tuple(10.0**k for k in range(-5, 6))
INFEASIBLE = "X"
# Lanczos steps of a spectrum dump, which writes min(SPECTRUM_STEPS, n) values
SPECTRUM_STEPS = 300
CR_PRECONDS = ("two-level", "bpx")
# the finest refinement level a run accepts: the largest whose memory has
# been sized; a higher one is refused before anything is allocated
MAX_LEVEL = 7


@dataclass
class ExperimentConfig:
    """Every option of a run, with its default and its bounds: the
    constructor raises ValueError for a value out of bounds, so every table
    cell and CLI command runs with checked options."""

    # None picks the table kind's default contrasts and levels
    eps_list: tuple | None = None
    levels: tuple | None = None
    theta: int = -1
    alpha: float = 8.0
    variant: str = IP0
    ratio: int = 1
    smoother_kind: str = SmootherSpec.kind
    sweeps: int = SmootherSpec.sweeps
    tol: float = TOL
    seed: int = 7

    def __post_init__(self):
        if self.eps_list is not None and not self.eps_list:
            raise ValueError("eps_list must hold one or more contrasts, got none")
        for eps in self.eps_list or ():
            if not (math.isfinite(eps) and eps > 0):
                raise ValueError(f"eps must be finite and positive, got {eps}")
        if self.levels is not None and not (self.levels and 0 <= min(self.levels)
                                            and max(self.levels) <= MAX_LEVEL):
            raise ValueError(f"levels must be one or more in 0..{MAX_LEVEL}, got {self.levels}")
        if self.ratio not in (1, 2, 4):
            raise ValueError(f"ratio must be 1, 2 or 4, got {self.ratio}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be finite and positive, got {self.tol}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        # theta, alpha, variant, smoother kind and sweeps: their own checks
        self.method_params()
        self.smoother_spec()

    def method_params(self):
        return MethodParams(self.theta, self.alpha, self.variant)

    def smoother_spec(self):
        return SmootherSpec(self.smoother_kind, self.sweeps)

    def coarse_level(self, level):
        """Level of the two-level coarse mesh under a fine mesh at level:
        ratio r puts it log2(r) levels lower (below 0: no such mesh)."""
        return level - int(math.log2(self.ratio))

    def to_dict(self):
        d = asdict(self)
        for k in ("eps_list", "levels"):
            d[k] = None if d[k] is None else list(d[k])
        return d


@dataclass
class TableResult:
    name: str
    config: dict
    eps_list: list
    levels: list
    cells: list = field(default_factory=list)

    def add_cell(self, eps, level, **values):
        self.cells.append({"eps": eps, "level": level, **values})

    def cell(self, eps, level):
        c = _lookup((((c["eps"], c["level"]), c) for c in self.cells), eps, level)
        if c is None:
            raise KeyError((eps, level))
        return c

    def to_json(self):
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"

    def to_csv(self):
        keys = ["eps", "level"]
        for c in self.cells:
            for k in c:
                if k not in keys:
                    keys.append(k)
        lines = [",".join(keys)]
        for c in self.cells:
            lines.append(",".join(_csv_field(c.get(k)) for k in keys))
        return "\n".join(lines) + "\n"

    def to_markdown(self):
        text = self._cell_text
        if any("norm" in c for c in self.cells):
            header = ["eps"] + [f"level {l}" for l in self.levels]
            rows = [[_fmt(eps)] + [text(eps, l, "norm") for l in self.levels]
                    for eps in self.eps_list]
        else:
            header = ["eps", "quantity"] + [f"level {l}" for l in self.levels]
            rows = []
            for eps in self.eps_list:
                rows.append([_fmt(eps), "K"] + [text(eps, l, "K", True) for l in self.levels])
                rows.append(["", "K_1"] + [text(eps, l, "K_1") for l in self.levels])
        lines = [f"# {self.name}", "", "| " + " | ".join(header) + " |",
                 "|" + "---|" * len(header)]
        lines += ["| " + " | ".join(row) + " |" for row in rows]
        return "\n".join(lines) + "\n"

    def _cell_text(self, eps, level, key, with_iters=False):
        try:
            c = self.cell(eps, level)
        except KeyError:
            return INFEASIBLE
        if c.get("infeasible"):
            return INFEASIBLE
        txt = _fmt(c.get(key))
        if with_iters and c.get("iterations") is not None:
            txt += f" ({c['iterations']})"
        return txt

    def write(self, out_dir):
        import os

        os.makedirs(out_dir, exist_ok=True)
        base = os.path.join(out_dir, self.name)
        with open(base + ".json", "w") as fh:
            fh.write(self.to_json())
        with open(base + ".csv", "w") as fh:
            fh.write(self.to_csv())
        with open(base + ".md", "w") as fh:
            fh.write(self.to_markdown())
        return [base + ext for ext in (".json", ".csv", ".md")]


def _lookup(entries, eps, level):
    """Value of the first ((eps, level), value) entry at this level whose eps
    is within a relative 1e-12 of eps, else None."""
    return next((v for (e, lvl), v in entries
                 if lvl == level and math.isclose(e, eps, rel_tol=1e-12)), None)


def _fmt(x):
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    return f"{x:.3g}"


def _csv_field(x):
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(int(x))
    if isinstance(x, float):
        return repr(x)
    return str(x)


@dataclass
class Problem:
    """One discretized problem on the finest mesh of a hierarchy."""

    hier: MeshHierarchy
    coeff: np.ndarray
    weights: EdgeWeights
    params: MethodParams

    @property
    def mesh(self):
        return self.hier.finest

    @functools.cached_property
    def A(self):
        # the nodal DG matrix, assembled on first use: only iipg-propagator's
        # cells, the stationary solve and verify read it; the other cells
        # and the spectrum take the closed-form split blocks, and solve's
        # residual applies the matrix-free assembly.apply_dg
        return assemble_dg(self.mesh, self.coeff, self.weights, self.params)

    @functools.cached_property
    def transform(self):
        # the split-basis transform T, built on first use and then kept with
        # the problem: only verify's identity checks and the tests read it.
        # block_jacobi_system builds its own T and frees it once the split
        # matrix is formed, and the solve applies T and T^t from the mesh
        # (basis_split.split_rhs, from_split)
        return build_transform(self.mesh, self.weights)

    def blocks(self):
        """The closed-form IP0 split blocks of the problem's method, a new
        BlockOperator on every call that the problem does not keep: the
        caller owns it (forward_substitution_solve takes A_zz and A_vz out
        of the one it is handed)."""
        return extract_blocks(self.mesh, self.coeff, self.weights, self.params)


def build_problem(hier, eps, params):
    """Coefficient with contrast 1/eps and edge weights on the finest mesh
    of hier, for method params; the DG matrix and the split-basis transform
    are built on first use."""
    mesh = hier.finest
    coeff = assign_coefficient(mesh, eps)
    return Problem(hier, coeff, edge_weights(mesh, coeff), params)


@dataclass(frozen=True)
class TableKind:
    """What a kind of table is: the ExperimentConfig fields it reads besides
    eps_list and levels, which every kind reads (the CLI refuses an option
    setting any other field); its default levels and contrasts; the seed
    stream of its PCG cells (None: no PCG); and its method, theta (None:
    cfg.theta), variant and alpha as a multiple of cfg.alpha."""

    fields: tuple
    levels: tuple
    eps_list: tuple
    stream: int | None
    theta: int | None
    variant: str
    alpha_factor: float = 1.0


TABLE_KINDS = {
    # diagonally preconditioned PCG on the complement-space block
    "zz": TableKind(("theta", "alpha", "variant", "tol", "seed"), (0, 1, 2, 3),
                    EPS_DEFAULT, 1, None, IP0),
    # PCG on the Crouzeix-Raviart block (theta independent, assembled with
    # theta=-1) with the additive two-level preconditioner, whose coarse
    # mesh is at cfg.coarse_level of each level; streams 2, 3, 4 for ratios
    # 1, 2, 4
    "two-level": TableKind(("alpha", "ratio", "smoother_kind", "sweeps", "tol", "seed"),
                           (0, 1, 2, 3, 4), EPS_DEFAULT, 2, -1, IP0),
    # the same block with the additive multilevel preconditioner
    "bpx": TableKind(("alpha", "smoother_kind", "sweeps", "tol", "seed"),
                     (0, 1, 2, 3, 4), EPS_DEFAULT, 5, -1, IP0),
    # the full fully penalized symmetric DG system with the block-Jacobi
    # preconditioner of block_jacobi_system
    "sipg1": TableKind(("alpha", "smoother_kind", "sweeps", "tol", "seed"),
                       (0, 1, 2, 3), EPS_DEFAULT, 6, -1, IP1),
    # contraction factor of the stationary iteration preconditioned by the
    # symmetric part, for the fully penalized nonsymmetric method with 4
    # times the baseline penalty (alpha* = 8 assumed; the table's config
    # records this assumption)
    "iipg-propagator": TableKind(("alpha", "seed"), (0, 1, 2, 3), EPS_SWEEP_11,
                                 None, 0, IP1, 4.0),
}


def table_params(name, cfg):
    """The method the table RUNNERS[name] assembles with, which its JSON
    config records.  zz runs cfg.theta and raises ValueError for a variant
    other than IP0; every other table fixes theta and variant."""
    kind = TABLE_KINDS[name]
    if "variant" in kind.fields and cfg.variant != kind.variant:
        raise ValueError(f"the {name} table is defined for the weakly penalized "
                         f"variant {kind.variant}, got {cfg.variant!r}")
    theta = cfg.theta if kind.theta is None else kind.theta
    return MethodParams(theta, kind.alpha_factor * cfg.alpha, kind.variant)


def _measure(cfg, A, B, stream, eps):
    """PCG from a random right-hand side, then the spectrum of B*A.

    stream = (table id, level, eps index) seeds the cell's generator, so each
    cell is reproducible on its own.  A PCG that does not converge, or a K or
    K_1 that is not finite and positive, raises RuntimeError, so no table
    records it."""
    where = f"table stream {stream[0]}, level {stream[1]}, eps={eps:g}"
    rng = np.random.default_rng([cfg.seed, *stream])
    b = rng.standard_normal(A.shape[0])
    _, rep = pcg(A, b, B, tol=cfg.tol, maxit=2000)
    if not rep.converged:
        raise RuntimeError(
            f"PCG did not converge in {where}: relative residual "
            f"{rep.rel_residual_history[-1]:.3g} after {rep.iterations} iterations")
    cond = condition_numbers(estimate_spectrum(A, B, seed=int(rng.integers(2**31))))
    K, K_1 = cond["K"], cond["K_1"]
    if not all(math.isfinite(v) and v > 0 for v in (K, K_1)):
        raise RuntimeError(f"condition number not finite and positive in {where}: "
                           f"K={K:.3g}, K_1={K_1:.3g}")
    return {"K": K, "K_1": K_1, "iterations": rep.iterations}


def block_jacobi_system(p, spec=None):
    """Split-basis matrix S of p and its block-Jacobi preconditioner.

    The complement block gets its inverse matrix diagonal; the CR block gets
    the additive preconditioner with an exactly solved conforming correction
    on the same mesh (the CR preconditioner whose measured condition numbers
    stay level-independent, which is what the reference values show).

    T is built for split_matrix alone and p does not keep it, so it is
    unreachable before the coarse LU and any PCG on S.  The caller owns S
    and the preconditioner, which keeps no copy of S's CR block."""
    S = split_matrix(p.mesh, p.coeff, p.weights, p.params,
                     build_transform(p.mesh, p.weights))
    nz = p.mesh.n_edges
    # from the finest level to itself: cr_from_conforming of the finest
    # mesh, which reads no coarser one (solve keeps the finest alone)
    P = cr_prolongation(p.hier, p.hier.levels - 1)
    return S, block_jacobi_dg(S.diagonal()[:nz], two_level(S[nz:, nz:].tocsr(), P, spec))


def _system(cfg, kind, p):
    """The matrix that a kind of PCG table or spectrum measures on problem
    p, and its preconditioner; the two-level coarse mesh is at
    cfg.coarse_level."""
    if kind == "sipg1":
        return block_jacobi_system(p, cfg.smoother_spec())
    if kind == "zz":
        A_zz = p.blocks().A_zz
        return A_zz, DiagonalPrecond(A_zz.diagonal())
    A_vv = p.blocks().A_vv
    if kind == "bpx":
        return A_vv, bpx(A_vv, p.hier, cfg.smoother_spec())
    P = cr_prolongation(p.hier, cfg.coarse_level(p.mesh.level))
    return A_vv, two_level(A_vv, P, cfg.smoother_spec())


def _run_table(name, cfg):
    """The table of kind TABLE_KINDS[name] over its levels x contrasts, on
    the problems of the method table_params(name, cfg); its config records
    that method and the contrasts swept.  A PCG cell is _measure of its
    _system; a two-level cell without a coarse mesh is infeasible.

    One hierarchy is built at the finest level and truncated for the others
    (meshes do not depend on the coefficient)."""
    kind = TABLE_KINDS[name]
    eps_list = kind.eps_list if cfg.eps_list is None else cfg.eps_list
    levels = kind.levels if cfg.levels is None else cfg.levels
    params = table_params(name, cfg)
    two_level, iipg = name == "two-level", name == "iipg-propagator"
    stream = kind.stream - cfg.coarse_level(0) if two_level else kind.stream
    config = {**cfg.to_dict(), "eps_list": list(eps_list), "theta": params.theta,
              "variant": params.variant}
    if iipg:
        config["alpha_effective"] = params.alpha
        config["assumption"] = "alpha* = 8 taken as the coercivity baseline"
    table = TableResult(f"two-level-w{cfg.ratio}" if two_level else name, config,
                        list(eps_list), list(levels))
    full = build_hierarchy(max(levels))
    for lvl in levels:
        hier = full.truncated(lvl)
        for i, eps in enumerate(eps_list):
            if two_level and cfg.coarse_level(lvl) < 0:
                table.add_cell(eps, lvl, infeasible=True)
                continue
            p = build_problem(hier, eps, params)
            if iipg:
                table.add_cell(eps, lvl, norm=error_propagator_norm(p.A, seed=cfg.seed + i))
            else:
                A, B = _system(cfg, name, p)
                table.add_cell(eps, lvl, **_measure(cfg, A, B, (stream, lvl, i), eps))
    return table


def dump_spectrum(cfg, eps, level, out_path, precond="two-level"):
    """Write the ascending spectrum of the preconditioned CR block as
    index,value CSV lines.

    Lanczos runs SPECTRUM_STEPS steps with its stopping test off (rtol=0),
    so the file holds the whole Ritz spectrum, not only the values the
    tables read.  A Ritz value that is not positive raises RuntimeError and
    writes no file: B*A is then not positive definite in floating point."""
    if precond not in CR_PRECONDS:
        raise ValueError(f"precond must be one of {CR_PRECONDS}, got {precond!r}")
    p = build_problem(build_hierarchy(level), eps, table_params(precond, cfg))
    A_vv, B = _system(cfg, precond, p)
    eigs = estimate_spectrum(A_vv, B, k=SPECTRUM_STEPS, seed=cfg.seed, rtol=0.0)
    if not eigs[0] > 0:
        raise RuntimeError(f"preconditioned spectrum not positive at level {level}, "
                           f"eps={eps:g}: lowest Ritz value {eigs[0]:.3g}")
    with open(out_path, "w") as fh:
        fh.write("index,value\n")
        for i, v in enumerate(eigs):
            fh.write(f"{i},{float(v)!r}\n")
    return np.asarray(eigs)


# ---------------------------------------------------------------------------
# Reference values for the comparison harness.  Cells map (eps, level) to
# quantities; iteration counts of None are excluded from comparison.

def _grid(eps_list, levels, K, iters, K1=None):
    out = {}
    for r, eps in enumerate(eps_list):
        for c, lvl in enumerate(levels):
            cell = {"K": K[r][c], "iters": iters[r][c] if iters else None}
            if K1:
                cell["K_1"] = K1[r][c]
            out[(eps, lvl)] = cell
    return out


GOLDEN = {
    "zz": _grid(
        EPS_DEFAULT,
        (0, 1, 2, 3),
        K=[
            [1.73, 1.72, 1.72, 1.72],
            [1.73, 1.72, 1.72, 1.72],
            [1.73, 1.72, 1.72, 1.71],
            [1.73, 1.72, 1.71, 1.71],
            [1.72, 1.72, 1.70, 1.69],
            [1.73, 1.72, 1.71, 1.69],
            [1.73, 1.72, 1.72, 1.69],
        ],
        iters=[
            [14, 15, 15, 15],
            [12, 13, 13, 12],
            [None, None, None, None],
            [9, 10, 10, 10],
            [10, 10, 10, 10],
            [12, 12, 12, 12],
            [13, 14, 15, 16],
        ],
    ),
    "two-level-w1": _grid(
        EPS_DEFAULT,
        (0, 1, 2, 3, 4),
        K=[
            [3.00e4, 3.31e4, 2.77e4, 2.37e4, 2.08e4],
            [301, 333, 280, 240, 211],
            [4.42, 5.22, 4.91, 4.70, 4.59],
            [2.16, 2.25, 2.29, 2.30, 2.33],
            [2.33, 3.16, 3.58, 3.80, 3.95],
            [2.54, 4.12, 5.37, 6.56, 7.79],
            [2.55, 4.13, 5.41, 6.62, 7.89],
        ],
        iters=[
            [12, 19, 22, 21, 21],
            [11, 15, 18, 18, 18],
            [10, 13, 14, 14, 14],
            [8, 11, 12, 12, 12],
            [9, 12, 13, 14, 14],
            [9, 13, 14, 15, 16],
            [9, 13, 15, 16, 17],
        ],
        K1=[
            [4.52, 3.37, 2.95, 2.78, 2.71],
            [4.48, 3.36, 2.95, 2.77, 2.71],
            [2.97, 2.89, 2.69, 2.60, 2.57],
            [2.06, 2.16, 2.21, 2.19, 2.18],
            [2.30, 2.63, 2.66, 2.62, 2.61],
            [2.40, 2.82, 2.85, 2.80, 2.78],
            [2.40, 2.83, 2.85, 2.80, 2.78],
        ],
    ),
    "two-level-w2": _grid(
        EPS_DEFAULT,
        (1, 2, 3, 4),
        K=[
            [4.92e4, 4.28e4, 3.66e4, 3.21e4],
            [494, 431, 370, 325],
            [7.14, 6.69, 6.35, 6.19],
            [2.63, 2.75, 2.91, 2.97],
            [3.74, 4.30, 4.48, 4.67],
            [4.93, 6.59, 8.02, 9.55],
            [4.95, 6.63, 8.02, 9.66],
        ],
        iters=[
            [18, 24, 26, 27],
            [16, 21, 21, 21],
            [14, 16, 16, 16],
            [11, 13, 14, 14],
            [13, 15, 16, 16],
            [14, 16, 18, 18],
            [14, 16, 18, 19],
        ],
        K1=[
            [4.27, 3.61, 3.38, 3.33],
            [4.26, 3.61, 3.38, 3.34],
            [3.46, 3.27, 3.20, 3.19],
            [2.32, 2.61, 2.63, 2.61],
            [3.33, 3.38, 3.32, 3.29],
            [3.64, 3.65, 3.56, 3.49],
            [3.65, 3.65, 3.53, 3.49],
        ],
    ),
    "two-level-w4": _grid(
        EPS_DEFAULT,
        (2, 3, 4),
        K=[
            [7.89e4, 7.29e4, 6.41e4],
            [793, 733, 646],
            [12.2, 11.6, 11.4],
            [4.73, 5.22, 5.32],
            [7.55, 6.84, 6.97],
            [11.2, 12.2, 14.6],
            [11.3, 12.3, 14.9],
        ],
        iters=[
            [31, 34, 35],
            [25, 28, 29],
            [20, 22, 22],
            [17, 19, 19],
            [19, 21, 22],
            [20, 23, 25],
            [20, 23, 26],
        ],
        K1=[
            [6.58, 5.99, 5.97],
            [6.57, 5.99, 5.97],
            [5.58, 5.69, 5.76],
            [3.99, 4.75, 4.80],
            [6.34, 5.63, 5.95],
            [6.99, 6.11, 6.39],
            [7.00, 6.12, 6.40],
        ],
    ),
    "bpx": _grid(
        EPS_DEFAULT,
        (0, 1, 2, 3, 4),
        K=[
            [3.00e4, 5.03e4, 6.77e4, 8.64e4, 1.06e5],
            [301, 506, 680, 868, 1.06e3],
            [4.42, 7.50, 9.92, 12.5, 15.1],
            [2.16, 3.32, 4.45, 5.61, 6.67],
            [2.33, 4.58, 6.69, 8.75, 11.0],
            [2.54, 5.92, 10.1, 15.6, 23.0],
            [2.55, 5.94, 10.2, 15.7, 23.3],
        ],
        iters=[
            [12, 27, 33, 37, 42],
            [11, 22, 27, 31, 35],
            [10, 16, 20, 24, 26],
            [8, 13, 17, 20, 22],
            [9, 14, 19, 22, 26],
            [9, 16, 21, 25, 29],
            [9, 16, 21, 25, 29],
        ],
        K1=[
            [4.52, 5.69, 6.81, 7.90, 9.03],
            [4.49, 5.65, 6.78, 7.86, 8.98],
            [2.97, 4.22, 5.28, 6.30, 7.41],
            [2.07, 3.17, 4.25, 5.23, 6.24],
            [2.30, 3.84, 5.06, 6.19, 7.31],
            [2.40, 4.11, 5.42, 6.62, 7.81],
            [2.40, 4.11, 5.43, 6.62, 7.81],
        ],
    ),
    "sipg1": _grid(
        EPS_DEFAULT,
        (0, 1, 2, 3),
        K=[
            [2.85e4, 3.37e4, 3.10e4, 2.85e4],
            [288, 340, 313, 289],
            [7.25, 7.33, 7.21, 7.13],
            [5.53, 5.76, 5.80, 5.83],
            [6.66, 7.16, 7.16, 7.43],
            [6.38, 8.98, 11.1, 13.5],
            [6.91, 9.02, 11.3, 13.8],
        ],
        iters=[
            [44, 44, 46, 46],
            [33, 34, 34, 32],
            [22, 22, 22, 22],
            [19, 20, 20, 20],
            [22, 23, 23, 23],
            [27, 30, 31, 32],
            [33, 36, 39, 40],
        ],
        K1=[
            [6.27, 6.33, 6.45, 6.49],
            [6.24, 6.30, 6.42, 6.46],
            [5.62, 5.60, 5.71, 5.73],
            [5.17, 5.45, 5.46, 5.46],
            [5.91, 6.20, 6.25, 6.27],
            [5.51, 6.53, 6.59, 6.59],
            [6.38, 6.54, 6.60, 6.59],
        ],
    ),
    "iipg-propagator": {
        (eps, lvl): {"norm": val}
        for lvl, row in zip(
            (0, 1, 2, 3),
            [
                [0.20] * 6 + [0.19] * 5,
                [0.14] * 11,
                [0.16] * 5 + [0.15, 0.15] + [0.16] * 4,
                [0.16] * 11,
            ],
        )
        for eps, val in zip(EPS_SWEEP_11, row)
    },
}

# tolerance bands per table and quantity: ("factor", f) accepts measured in
# [ref/f, ref*f]; ("abs", d) accepts |measured - ref| <= d; ("rel", r)
# accepts relative deviation <= r
TOLERANCES = {
    "zz": {"K": ("abs", 0.2), "iters": ("abs", 4)},
    "two-level-w1": {"K": ("factor", 1.5), "K_1": ("rel", 0.30), "iters": ("abs", 5)},
    "two-level-w2": {"K": ("factor", 1.5), "K_1": ("rel", 0.30), "iters": ("abs", 5)},
    "two-level-w4": {"K": ("factor", 1.5), "K_1": ("rel", 0.30), "iters": ("abs", 5)},
    "bpx": {"K": ("factor", 1.5), "K_1": ("rel", 0.30), "iters": ("abs", 6)},
    "sipg1": {"K": ("factor", 1.5), "K_1": ("rel", 0.30), "iters": ("abs", 6)},
    "iipg-propagator": {"norm": ("abs", 0.05)},
}


def _within(measured, ref, rule):
    kind, t = rule
    if kind == "abs":
        return abs(measured - ref) <= t
    if kind == "rel":
        return abs(measured - ref) <= t * abs(ref)
    if kind == "factor":
        return ref / t <= measured <= ref * t
    raise ValueError(kind)


def compare_to_golden(table):
    """Check each measured cell against the stored reference values.

    Returns {"checks": [...], "n_pass": int, "n_fail": int, "passed": bool};
    quantities with no stored reference (or blank iteration counts) are
    skipped, and so is a zz table of a theta other than -1, the one its
    references were measured at.
    """
    golden = GOLDEN.get(table.name, {})
    if table.name == "zz" and table.config.get("theta", -1) != -1:
        golden = {}
    rules = TOLERANCES.get(table.name, {})
    checks = []
    for cell in table.cells:
        if cell.get("infeasible"):
            continue
        ref = _lookup(golden.items(), cell["eps"], cell["level"])
        if ref is None:
            continue
        for qty, rule in rules.items():
            ref_val = ref.get(qty)
            measured = cell.get("iterations" if qty == "iters" else qty)
            if ref_val is None or measured is None:
                continue
            checks.append(
                {
                    "eps": cell["eps"],
                    "level": cell["level"],
                    "quantity": qty,
                    "reference": ref_val,
                    "measured": measured,
                    "pass": _within(measured, ref_val, rule),
                }
            )
    n_pass = sum(c["pass"] for c in checks)
    return {
        "checks": checks,
        "n_pass": n_pass,
        "n_fail": len(checks) - n_pass,
        "passed": n_pass == len(checks),
    }


def format_comparison(report):
    lines = []
    for c in report["checks"]:
        status = "PASS" if c["pass"] else "FAIL"
        lines.append(
            f"{status} eps={_fmt(c['eps'])} level={c['level']} "
            f"{c['quantity']}: measured={_fmt(c['measured'])} "
            f"reference={_fmt(c['reference'])}"
        )
    lines.append(
        f"{'PASS' if report['passed'] else 'FAIL'} aggregate: "
        f"{report['n_pass']}/{len(report['checks'])} checks passed"
    )
    return "\n".join(lines) + "\n"


# the one entry point of every table: RUNNERS[name](cfg) -> TableResult
RUNNERS = {name: functools.partial(_run_table, name) for name in TABLE_KINDS}
