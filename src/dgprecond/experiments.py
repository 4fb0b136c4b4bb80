"""Scripted condition-number experiments.

Each runner sweeps (coefficient contrast, refinement level) cells, solves the
relevant system with PCG, estimates the spectrum of the preconditioned
operator and reports the condition number K, the effective condition number
K_m (m smallest eigenvalues discarded) and the PCG iteration count.  Results
serialize to JSON/CSV/markdown; a comparison harness checks measured values
against stored reference values with per-quantity tolerance bands.
"""

import functools
import hashlib
import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np
import scipy.sparse as sp

from .mesh import (CoefficientField, EdgeWeights, MeshHierarchy,
                   build_hierarchy, assign_coefficient, edge_weights)
from .assembly import IP0, IP1, MethodParams, assemble_dg
from .basis_split import build_transform, extract_blocks, split_matrix
from .precond import (
    SYM_GS,
    SmootherSpec,
    DiagonalPrecond,
    cr_prolongation,
    two_level,
    bpx,
    block_jacobi_dg,
)
from .krylov import pcg, estimate_spectrum, condition_numbers, error_propagator_norm

EPS_DEFAULT = (1e-5, 1e-3, 1e-1, 1.0, 1e1, 1e3, 1e5)
EPS_SWEEP_11 = tuple(10.0**k for k in range(-5, 6))
INFEASIBLE = "X"


@dataclass
class ExperimentConfig:
    eps_list: tuple = EPS_DEFAULT
    levels: tuple | None = None  # None picks the per-table default
    theta: int = -1
    alpha: float = 8.0
    variant: str = IP0
    ratio: int = 1
    smoother_kind: str = SYM_GS
    sweeps: int = 5
    tol: float = 1e-7
    m: int = 1
    seed: int = 7
    dense_limit: int = 2500
    lanczos_k: int = 120

    def smoother_spec(self):
        return SmootherSpec(self.smoother_kind, self.sweeps)

    def to_dict(self):
        d = asdict(self)
        d["eps_list"] = list(self.eps_list)
        d["levels"] = None if self.levels is None else list(self.levels)
        return d

    def digest(self):
        payload = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:12]


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
        for c in self.cells:
            if c["level"] == level and math.isclose(c["eps"], eps, rel_tol=1e-12):
                return c
        raise KeyError((eps, level))

    def to_dict(self):
        return {
            "name": self.name,
            "config": self.config,
            "eps_list": self.eps_list,
            "levels": self.levels,
            "cells": self.cells,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

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
        if any("norm" in c for c in self.cells):
            return self._md_value_grid("norm")
        if any("K_1" in c for c in self.cells):
            return self._md_precond_grid()
        return self._md_value_grid("K", with_iters=True, transpose=True)

    def _md_value_grid(self, key, with_iters=False, transpose=False):
        # transpose: level rows x eps columns (contrast sweep layout)
        lines = [f"# {self.name}", ""]
        if transpose:
            header = ["level"] + [f"eps={_fmt(e)}" for e in self.eps_list]
            lines.append("| " + " | ".join(header) + " |")
            lines.append("|" + "---|" * len(header))
            for lvl in self.levels:
                row = [str(lvl)]
                for eps in self.eps_list:
                    row.append(self._cell_text(eps, lvl, key, with_iters))
                lines.append("| " + " | ".join(row) + " |")
        else:
            header = ["eps"] + [f"level {l}" for l in self.levels]
            lines.append("| " + " | ".join(header) + " |")
            lines.append("|" + "---|" * len(header))
            for eps in self.eps_list:
                row = [_fmt(eps)]
                for lvl in self.levels:
                    row.append(self._cell_text(eps, lvl, key, with_iters))
                lines.append("| " + " | ".join(row) + " |")
        return "\n".join(lines) + "\n"

    def _md_precond_grid(self):
        lines = [f"# {self.name}", ""]
        header = ["eps", "quantity"] + [f"level {l}" for l in self.levels]
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "---|" * len(header))
        for eps in self.eps_list:
            krow, k1row = [], []
            for lvl in self.levels:
                krow.append(self._cell_text(eps, lvl, "K", with_iters=True))
                k1row.append(self._cell_text(eps, lvl, "K_1", with_iters=False))
            lines.append("| " + " | ".join([_fmt(eps), "K"] + krow) + " |")
            lines.append("| " + " | ".join(["", "K_1"] + k1row) + " |")
        return "\n".join(lines) + "\n"

    def _cell_text(self, eps, level, key, with_iters):
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
    coeff: CoefficientField
    weights: EdgeWeights
    params: MethodParams
    A: sp.csr_matrix

    @property
    def mesh(self):
        return self.hier.finest

    @functools.cached_property
    def basis(self):
        # built on first use: the iipg table, assemble and the stationary
        # solve never need it
        return build_transform(self.mesh, self.weights)


def build_problem(hier, eps, params):
    """Coefficient with contrast 1/eps, edge weights and the DG matrix of
    method params on the finest mesh of hier."""
    mesh = hier.finest
    coeff = assign_coefficient(mesh, eps)
    weights = edge_weights(mesh, coeff)
    A = assemble_dg(mesh, coeff, weights, params)
    return Problem(hier, coeff, weights, params, A)


def _sweep(cfg, name, default_levels, cell, eps_list=None):
    """Table of cell(hier, eps, i_eps) -> dict over levels x eps.

    One hierarchy is built at the finest level and truncated for the others
    (meshes do not depend on the coefficient)."""
    eps_list = cfg.eps_list if eps_list is None else eps_list
    levels = cfg.levels if cfg.levels is not None else default_levels
    table = TableResult(name, cfg.to_dict(), list(eps_list), list(levels))
    full = build_hierarchy(max(levels))
    for lvl in levels:
        hier = full.truncated(lvl)
        for i, eps in enumerate(eps_list):
            table.add_cell(eps, lvl, **cell(hier, eps, i))
    return table


def _measure(cfg, A, B, stream):
    """PCG from a random right-hand side, then the spectrum of B*A.

    stream = (table id, level, eps index) seeds the cell's generator, so each
    cell is reproducible on its own."""
    rng = np.random.default_rng([cfg.seed, *stream])
    b = rng.standard_normal(A.shape[0])
    _, rep = pcg(A, b, B, tol=cfg.tol, maxit=2000)
    eigs = estimate_spectrum(
        A, B, k=cfg.lanczos_k, seed=int(rng.integers(2**31)),
        dense_limit=cfg.dense_limit,
    )
    cond = condition_numbers(eigs, m_list=(0, cfg.m))
    return {"K": cond["K"], "K_1": cond["K_m"][cfg.m], "iterations": rep.iterations}


def run_zz_table(cfg):
    """Diagonally preconditioned PCG on the complement-space block."""
    if cfg.variant != IP0:
        raise ValueError("zz table is defined for the weakly penalized variant")
    params = MethodParams(cfg.theta, cfg.alpha, IP0)

    def cell(hier, eps, i):
        p = build_problem(hier, eps, params)
        A_zz = extract_blocks(p.A, p.basis).A_zz
        return _measure(cfg, A_zz, DiagonalPrecond(A_zz), (1, p.mesh.level, i))

    return _sweep(cfg, "zz", (0, 1, 2, 3), cell)


def _cr_block(cfg, hier, eps):
    # the CR block is theta independent; assemble with theta=-1
    p = build_problem(hier, eps, MethodParams(-1, cfg.alpha, IP0))
    return extract_blocks(p.A, p.basis).A_vv


def run_two_level_table(cfg):
    """PCG on the Crouzeix-Raviart block with the additive two-level
    preconditioner; coarse mesh is log2(cfg.ratio) levels below the fine one."""
    if cfg.ratio not in (1, 2, 4):
        raise ValueError("ratio must be 1, 2 or 4")
    steps = int(round(math.log2(cfg.ratio)))

    def cell(hier, eps, i):
        lvl = hier.finest.level
        if lvl < steps:
            return {"infeasible": True}
        A_vv = _cr_block(cfg, hier, eps)
        P = cr_prolongation(hier, lvl - steps)
        B = two_level(A_vv, P, cfg.smoother_spec())
        return _measure(cfg, A_vv, B, (2 + steps, lvl, i))

    return _sweep(cfg, f"two-level-w{cfg.ratio}", (0, 1, 2, 3, 4), cell)


def run_bpx_table(cfg):
    """PCG on the Crouzeix-Raviart block with the additive multilevel
    preconditioner."""

    def cell(hier, eps, i):
        A_vv = _cr_block(cfg, hier, eps)
        B = bpx(A_vv, hier, cfg.smoother_spec())
        return _measure(cfg, A_vv, B, (5, hier.finest.level, i))

    return _sweep(cfg, "bpx", (0, 1, 2, 3, 4), cell)


def block_jacobi_system(p, spec=None):
    """Split-basis matrix S of p and its block-Jacobi preconditioner.

    The complement block gets its inverse matrix diagonal; the CR block gets
    the additive preconditioner with an exactly solved conforming correction
    on the same mesh (the CR preconditioner whose measured condition numbers
    stay level-independent, which is what the reference values show)."""
    S = split_matrix(p.A, p.basis)
    nz = p.basis.n_z
    S_zz = S[:nz, :nz].tocsr()
    S_vv = S[nz:, nz:].tocsr()
    P = cr_prolongation(p.hier, p.mesh.level)
    return S, block_jacobi_dg(S_zz, two_level(S_vv, P, spec))


def run_sipg1_blockjacobi_table(cfg):
    """Full fully penalized symmetric DG system, block-Jacobi preconditioner
    (see block_jacobi_system)."""
    params = MethodParams(-1, cfg.alpha, IP1)

    def cell(hier, eps, i):
        p = build_problem(hier, eps, params)
        S, B = block_jacobi_system(p, cfg.smoother_spec())
        return _measure(cfg, S, B, (6, p.mesh.level, i))

    return _sweep(cfg, "sipg1", (0, 1, 2, 3), cell)


def run_iipg_propagator_table(cfg):
    """Contraction factor of the stationary iteration preconditioned by the
    symmetric part, for the fully penalized nonsymmetric (theta=0) method.

    The penalty is 4 times the baseline value (alpha* = 8 assumed; the
    experiment metadata records this assumption).
    """
    eps_list = cfg.eps_list if cfg.eps_list != EPS_DEFAULT else EPS_SWEEP_11
    params = MethodParams(0, 4.0 * cfg.alpha, IP1)

    def cell(hier, eps, i):
        A = build_problem(hier, eps, params).A
        return {"norm": error_propagator_norm(A, seed=cfg.seed + i)}

    table = _sweep(cfg, "iipg-propagator", (0, 1, 2, 3), cell, eps_list)
    table.config["alpha_effective"] = params.alpha
    table.config["assumption"] = "alpha* = 8 taken as the coercivity baseline"
    return table


def dump_spectrum(cfg, eps, level, out_path, precond="two-level", deep_k=300):
    """Write the ascending spectrum of the preconditioned CR block as
    index,value CSV lines."""
    hier = build_hierarchy(level)
    A_vv = _cr_block(cfg, hier, eps)
    if precond == "two-level":
        steps = int(round(math.log2(cfg.ratio)))
        P = cr_prolongation(hier, level - steps)
        B = two_level(A_vv, P, cfg.smoother_spec())
    elif precond == "bpx":
        B = bpx(A_vv, hier, cfg.smoother_spec())
    else:
        raise ValueError("precond must be 'two-level' or 'bpx'")
    eigs = estimate_spectrum(
        A_vv, B, k=max(deep_k, cfg.lanczos_k), seed=cfg.seed,
        dense_limit=cfg.dense_limit,
    )
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
    skipped.
    """
    golden = GOLDEN.get(table.name, {})
    rules = TOLERANCES.get(table.name, {})
    checks = []
    for cell in table.cells:
        if cell.get("infeasible"):
            continue
        key = None
        for gkey in golden:
            if gkey[1] == cell["level"] and math.isclose(
                gkey[0], cell["eps"], rel_tol=1e-12
            ):
                key = gkey
                break
        if key is None:
            continue
        ref = golden[key]
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


RUNNERS = {
    "zz": run_zz_table,
    "two-level": run_two_level_table,
    "bpx": run_bpx_table,
    "sipg1": run_sipg1_blockjacobi_table,
    "iipg-propagator": run_iipg_propagator_table,
}
