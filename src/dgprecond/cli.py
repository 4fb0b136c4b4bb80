"""Command-line interface.

Subcommands: mesh-info, assemble, solve, table, spectrum, verify.  Options can
come from a flat-key JSON config file (--config); explicit command-line flags
win over file values.  The DG_PRECOND_OUT environment variable overrides
--out-dir.
"""

import argparse
import json
import os
import sys

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .mesh import build_hierarchy
from .assembly import (
    IP0,
    IP1,
    MethodParams,
    assemble_dg,
    assemble_conforming,
    assemble_rhs,
    export_coordinate,
    symmetric_part,
)
from .basis_split import extract_blocks, from_split
from .precond import (
    SYM_GS,
    JACOBI,
    DirectSolve,
    cr_prolongation,
    forward_substitution_solve,
)
from .krylov import pcg, stationary_iteration
from .experiments import (
    RUNNERS,
    ExperimentConfig,
    block_jacobi_system,
    build_problem,
    dump_spectrum,
    compare_to_golden,
    format_comparison,
)

# unused here, but perfbench/pipeline.py wraps these names in this module
from .mesh import assign_coefficient, edge_weights  # noqa: F401
from .basis_split import build_transform  # noqa: F401

TABLES = tuple(RUNNERS)


def _parser():
    p = argparse.ArgumentParser(
        prog="dgprecond",
        description="Interior penalty DG discretizations with coefficient-"
        "robust two-level and multilevel preconditioners.",
    )
    p.add_argument("--config", help="JSON file with flat option keys")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--eps", type=float, action="append",
                        help="coefficient contrast (repeatable)")
        sp.add_argument("--levels", type=int, help="finest refinement level")
        sp.add_argument("--level", type=int, help="single refinement level")
        sp.add_argument("--theta", type=int, choices=(-1, 0, 1))
        sp.add_argument("--alpha", type=float)
        sp.add_argument("--variant", choices=(IP0, IP1))
        sp.add_argument("--precond", choices=("two-level", "bpx"))
        sp.add_argument("--ratio", type=int, choices=(1, 2, 4))
        sp.add_argument("--sweeps", type=int)
        sp.add_argument("--smoother", choices=(SYM_GS, JACOBI))
        sp.add_argument("--tol", type=float)
        sp.add_argument("--seed", type=int)
        sp.add_argument("--out-dir", dest="out_dir")

    sp = sub.add_parser("mesh-info", help="print mesh statistics")
    common(sp)

    sp = sub.add_parser("assemble", help="export the stiffness matrix")
    common(sp)

    sp = sub.add_parser("solve", help="solve one discretized problem")
    common(sp)

    sp = sub.add_parser("table", help="run a condition-number table")
    sp.add_argument("name", choices=TABLES)
    common(sp)

    sp = sub.add_parser("spectrum", help="dump the preconditioned spectrum")
    common(sp)

    sp = sub.add_parser("verify", help="run the structural property checks")
    common(sp)
    return p


_DEFAULTS = {
    "eps": [1.0],
    "levels": None,
    "level": 0,
    "theta": -1,
    "alpha": 8.0,
    "variant": IP0,
    "precond": "two-level",
    "ratio": 1,
    "sweeps": 5,
    "smoother": SYM_GS,
    "tol": 1e-7,
    "seed": 7,
    "out_dir": ".",
}


def _resolve(args):
    """Merge defaults, config file and explicit flags (flags win)."""
    opts = dict(_DEFAULTS)
    if args.config:
        with open(args.config) as fh:
            file_opts = json.load(fh)
        unknown = set(file_opts) - set(_DEFAULTS)
        if unknown:
            raise SystemExit(f"unknown config keys: {sorted(unknown)}")
        opts.update(file_opts)
    for key in _DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            opts[key] = val
    env_out = os.environ.get("DG_PRECOND_OUT")
    if env_out:
        opts["out_dir"] = env_out
    return opts


def _experiment_config(opts):
    eps = opts["eps"]
    levels = opts["levels"]
    return ExperimentConfig(
        eps_list=tuple(eps),
        levels=None if levels is None else tuple(range(levels + 1)),
        theta=opts["theta"],
        alpha=opts["alpha"],
        variant=opts["variant"],
        ratio=opts["ratio"],
        smoother_kind=opts["smoother"],
        sweeps=opts["sweeps"],
        tol=opts["tol"],
        seed=opts["seed"],
    )


def _problem(opts):
    params = MethodParams(opts["theta"], opts["alpha"], opts["variant"])
    return build_problem(build_hierarchy(opts["level"]), opts["eps"][0], params)


def cmd_mesh_info(opts):
    level = opts["levels"] if opts["levels"] is not None else opts["level"]
    mesh = build_hierarchy(level).finest
    print(f"level={mesh.level}")
    print(f"triangles={mesh.n_triangles}")
    print(f"dofs={mesh.n_dofs}")
    print(f"vertices={mesh.n_vertices}")
    print(f"edges={mesh.n_edges}")
    print(f"interior_edges={len(mesh.interior_edges)}")
    print(f"boundary_edges={len(mesh.boundary_edges)}")
    return 0


def cmd_assemble(opts):
    p = _problem(opts)
    A, params = p.A, p.params
    os.makedirs(opts["out_dir"], exist_ok=True)
    tag = f"{params.variant}_theta{params.theta}_L{p.mesh.level}_eps{opts['eps'][0]:g}"
    path = os.path.join(opts["out_dir"], f"matrix_{tag}.txt")
    export_coordinate(A, path)
    print(f"wrote {path} ({A.shape[0]}x{A.shape[1]}, nnz={A.nnz})")
    return 0


def cmd_solve(opts):
    p = _problem(opts)
    mesh, A = p.mesh, p.A
    b = assemble_rhs(mesh, lambda x, y: 1.0)
    if p.params.variant == IP0:
        blocks = extract_blocks(A, p.basis)
        f_z, f_v = np.split(p.basis.transform.T @ b, [p.basis.n_z])
        u = from_split(*forward_substitution_solve(blocks, f_z, f_v), p.basis)
        report = {"method": "block-forward-substitution"}
    elif p.params.theta == -1:
        S, B = block_jacobi_system(p)
        x, rep = pcg(S, p.basis.transform.T @ b, B, tol=opts["tol"], maxit=2000)
        u = p.basis.transform @ x
        report = {"method": "pcg-block-jacobi", "iterations": rep.iterations,
                  "converged": rep.converged}
    else:
        u, rep = stationary_iteration(A, DirectSolve(symmetric_part(A)), b,
                                      tol=opts["tol"], maxit=500)
        report = {"method": "stationary-symmetric-part",
                  "iterations": rep.iterations, "converged": rep.converged}
    report["rel_residual"] = np.linalg.norm(A @ u - b) / np.linalg.norm(b)
    report["dofs"] = mesh.n_dofs
    print(json.dumps(report, sort_keys=True))
    return 0 if report["rel_residual"] < 1e-6 else 1


def cmd_table(opts, name):
    table = RUNNERS[name](_experiment_config(opts))
    table.write(opts["out_dir"])
    sys.stdout.write(table.to_markdown())
    report = compare_to_golden(table)
    if report["checks"]:
        sys.stdout.write("\n## reference comparison\n\n")
        sys.stdout.write(format_comparison(report))
        return 0 if report["passed"] else 1
    return 0


def cmd_spectrum(opts):
    cfg = _experiment_config(opts)
    eps = opts["eps"][0]
    level = opts["level"]
    os.makedirs(opts["out_dir"], exist_ok=True)
    path = os.path.join(opts["out_dir"], f"spectrum_{eps:g}_{level}.csv")
    eigs = dump_spectrum(cfg, eps, level, path, precond=opts["precond"])
    print(f"wrote {path} ({len(eigs)} eigenvalues, "
          f"min={eigs[0]:.6g}, max={eigs[-1]:.6g})")
    return 0


def cmd_verify(opts):
    """Structural checks: split orthogonality, diagonal zz block for theta=0,
    the Galerkin identity and the spectral equivalence of the two penalty
    variants."""
    level = opts["level"]
    alpha = opts["alpha"]
    p = build_problem(build_hierarchy(level), opts["eps"][0],
                      MethodParams(-1, alpha, IP0))
    mesh, basis = p.mesh, p.basis
    failures = 0

    def check(label, ok, detail):
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
        failures += 0 if ok else 1

    def assemble(theta, variant=IP0):
        return assemble_dg(mesh, p.coeff, p.weights,
                           MethodParams(theta, alpha, variant))

    for theta in (-1, 0, 1):
        A0 = assemble(theta)
        T = basis.transform
        S = (T.T @ A0 @ T).tocsr()
        zv = S[: basis.n_z, basis.n_z :]
        worst = np.abs(zv.data).max() if zv.nnz else 0.0
        scale = np.abs(A0.data).max()
        check(f"orthogonality theta={theta}", worst < 1e-12 * scale,
              f"max CR-to-complement coupling {worst:.3e} vs scale {scale:.3e}")
        if theta == 0:
            blocks = extract_blocks(A0, basis)
            off = blocks.A_zz - sp.diags(blocks.A_zz.diagonal())
            off_max = np.abs(off.data).max() if off.nnz else 0.0
            check("diagonal zz block theta=0",
                  off_max < 1e-12 * blocks.A_zz.diagonal().max(),
                  f"max off-diagonal {off_max:.3e}")

    blocks = extract_blocks(p.A, basis)
    P = cr_prolongation(p.hier, level)
    G = (P.T @ blocks.A_vv @ P).toarray()
    C = assemble_conforming(mesh, p.coeff).toarray()
    gerr = np.abs(G - C).max() / max(np.abs(C).max(), 1e-300)
    check("Galerkin identity", gerr < 1e-12, f"relative mismatch {gerr:.3e}")

    A1 = assemble(-1, IP1)
    eigs = scipy.linalg.eigh(A1.toarray(), p.A.toarray(), eigvals_only=True)
    check("spectral equivalence lower bound", eigs[0] >= 1.0 - 1e-10,
          f"min generalized eigenvalue {eigs[0]:.12f}")
    check("spectral equivalence upper bound", np.isfinite(eigs[-1]),
          f"c0 = {eigs[-1]:.6g}")
    print(f"{'PASS' if failures == 0 else 'FAIL'} aggregate: "
          f"{failures} failed checks")
    return 0 if failures == 0 else 1


def main(argv=None):
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        opts = _resolve(args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.command == "mesh-info":
        return cmd_mesh_info(opts)
    if args.command == "assemble":
        return cmd_assemble(opts)
    if args.command == "solve":
        return cmd_solve(opts)
    if args.command == "table":
        return cmd_table(opts, args.name)
    if args.command == "spectrum":
        return cmd_spectrum(opts)
    if args.command == "verify":
        return cmd_verify(opts)
    parser.error("unknown command")


if __name__ == "__main__":
    sys.exit(main())
