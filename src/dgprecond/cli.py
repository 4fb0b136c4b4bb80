"""Command-line interface.

Subcommands: mesh-info, assemble, solve, table, spectrum, verify.  Options can
come from a flat-key JSON config file (--config); explicit command-line flags
win over file values.  The DG_PRECOND_OUT environment variable overrides
--out-dir.
"""

import argparse
import functools
import json
import os
import sys

import numpy as np
import scipy.sparse as sp

from .mesh import build_hierarchy
from .assembly import (IP0, IP1, MethodParams, apply_dg, assemble_dg, assemble_conforming,
                       assemble_rhs, edge_jumps, export_coordinate, symmetric_part)
from .basis_split import (IDENTITY_BOUND, extract_blocks, from_split, identity_ratios,
                          split_matrix, split_rhs)
from .precond import (SYM_GS, JACOBI, DirectSolve, cr_prolongation,
                      forward_substitution_solve)
from .krylov import estimate_spectrum, pcg, stationary_iteration
from .experiments import (CR_PRECONDS, MAX_LEVEL, RUNNERS, TABLE_KINDS, ExperimentConfig,
                          block_jacobi_system, build_problem, dump_spectrum,
                          compare_to_golden, format_comparison, table_params)

# unused here, but perfbench/pipeline.py wraps these names in this module
from .mesh import assign_coefficient, edge_weights  # noqa: F401
from .basis_split import build_transform  # noqa: F401

TABLES = tuple(RUNNERS)


# every option: the argparse keywords of its flag --<name> (dashes for
# underscores); a command takes only the options its COMMANDS entry names.
# Bounds are checked by ExperimentConfig and _resolve, for flags and
# config-file values alike
_OPTIONS = {
    "eps": dict(type=float, action="append", help="coefficient contrast (repeatable in table)"),
    "levels": dict(type=int, help="finest refinement level"),
    "level": dict(type=int, help="single refinement level"),
    "theta": dict(type=int, help="-1, 0 or 1"), "alpha": dict(type=float),
    "variant": dict(help=f"{IP0} or {IP1}"), "precond": dict(help=" or ".join(CR_PRECONDS)),
    "ratio": dict(type=int, help="1, 2 or 4"), "sweeps": dict(type=int),
    "smoother": dict(help=f"{SYM_GS} or {JACOBI}"), "tol": dict(type=float),
    "seed": dict(type=int), "out_dir": dict(),
}
# the CLI's own options; eps None: tables sweep their kind's own
# contrasts, single problems take eps = 1
_CLI_ONLY = {"eps": None, "levels": None, "level": 0, "precond": "two-level",
             "out_dir": "."}
# every other option sets the ExperimentConfig field named here; unset
# (None), it leaves the field's default
_FIELDS = {"theta": "theta", "alpha": "alpha", "variant": "variant",
           "ratio": "ratio", "smoother": "smoother_kind", "sweeps": "sweeps",
           "tol": "tol", "seed": "seed"}


def _parser():
    p = argparse.ArgumentParser(
        prog="dgprecond",
        description="Interior penalty DG discretizations with coefficient-"
        "robust two-level and multilevel preconditioners.",
    )
    p.add_argument("--config", help="JSON file with flat option keys")
    sub = p.add_subparsers(dest="command", required=True)
    for command, (help_text, _, names) in COMMANDS.items():
        # no abbreviations: table's --levels must not take a --level
        sp = sub.add_parser(command, help=help_text, allow_abbrev=False)
        if command == "table":
            sp.add_argument("name", choices=TABLES)
        for name in names:
            sp.add_argument("--" + name.replace("_", "-"), dest=name, **_OPTIONS[name])
    return p


def _resolve(args):
    """Merge defaults, config file and explicit flags (flags win) into the
    options and the ExperimentConfig of the command; raise ValueError for an
    option the command, or the table or preconditioner it runs, does not
    read, and for one out of bounds."""
    names = COMMANDS[args.command][2]
    opts = {name: _CLI_ONLY.get(name) for name in names}
    given = {k for k, v in vars(args).items() if v is not None and k in names}
    if args.config:
        with open(args.config) as fh:
            file_opts = json.load(fh)
        if not isinstance(file_opts, dict):
            raise ValueError(f"config file is a JSON {type(file_opts).__name__}, not an object")
        unknown = set(file_opts) - set(names)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        opts.update((name, _typed(name, value)) for name, value in file_opts.items())
        given |= set(file_opts)
    opts.update((k, v) for k, v in vars(args).items() if v is not None)
    if env_out := os.environ.get("DG_PRECOND_OUT"):
        opts["out_dir"] = env_out
    fields = {_FIELDS[k]: opts[k] for k in _FIELDS if opts.get(k) is not None}
    if opts.get("eps") is not None:
        fields["eps_list"] = tuple(opts["eps"])
    if opts.get("levels") is not None:
        fields["levels"] = tuple(range(opts["levels"] + 1))
    cfg = ExperimentConfig(**fields)
    if args.command == "table":
        _check_read(f"table {opts['name']}", opts["name"], given)
        # rejects a method the table cannot run, before the table starts
        table_params(opts["name"], cfg)
        return opts, cfg
    if opts.get("eps") is not None and len(opts["eps"]) != 1:
        raise ValueError(f"{args.command} takes one eps, got {len(opts['eps'])}")
    level = opts["level"]
    if not 0 <= level <= MAX_LEVEL:
        raise ValueError(f"level must be in 0..{MAX_LEVEL}, got {level}")
    if args.command == "spectrum":
        if opts["precond"] not in CR_PRECONDS:
            raise ValueError(f"precond must be one of {CR_PRECONDS}, got {opts['precond']!r}")
        _check_read(f"spectrum --precond {opts['precond']}", opts["precond"], given)
        if opts["precond"] == "two-level" and cfg.coarse_level(level) < 0:
            raise ValueError(f"ratio {cfg.ratio} puts the coarse mesh below "
                             f"level 0 at level {level}")
    return opts, cfg


def _typed(name, value):
    """A config-file value as its flag gives it; ValueError unless it has the
    flag's argparse type: an int for an int option, an int or a float for a
    float option (a list of them for eps), a str for the others; a bool is
    none of these.  An int becomes a float for a float option, so that a
    table's JSON is the same from the file as from the flag."""
    kind = _OPTIONS[name].get("type", str)
    many = _OPTIONS[name].get("action") == "append"
    values = value if many else [value]
    accepted = (int, float) if kind is float else kind
    if not (isinstance(values, list) and all(
            isinstance(v, accepted) and not isinstance(v, bool) for v in values)):
        noun = {int: "integers", float: "numbers", str: "strings"}[kind]
        raise ValueError(f"config key {name} takes {'a list of ' if many else ''}{noun} "
                         f"only, got {json.dumps(value)}")
    return [kind(v) for v in values] if many else kind(value)


def _check_read(what, table, given):
    """Raise ValueError for the given options that set an ExperimentConfig
    field the table does not read."""
    fields = TABLE_KINDS[table].fields
    ignored = sorted(k for k in given if k in _FIELDS and _FIELDS[k] not in fields)
    if ignored:
        raise ValueError(f"{what} does not read {', '.join(ignored)}")


def _eps(opts):
    """Contrast of a single-problem command: its one --eps, else 1."""
    return opts["eps"][0] if opts["eps"] else 1.0


def _problem(opts, cfg):
    return build_problem(build_hierarchy(opts["level"]), _eps(opts), cfg.method_params())


def cmd_mesh_info(opts, cfg):
    mesh = build_hierarchy(opts["level"]).finest
    print(f"level={mesh.level}")
    print(f"triangles={mesh.n_triangles}")
    print(f"dofs={mesh.n_dofs}")
    print(f"vertices={mesh.n_vertices}")
    print(f"edges={mesh.n_edges}")
    print(f"interior_edges={len(mesh.interior_edges)}")
    print(f"boundary_edges={len(mesh.boundary_edges)}")
    return 0


def cmd_assemble(opts, cfg):
    p = _problem(opts, cfg)
    A, params = p.A, p.params
    os.makedirs(opts["out_dir"], exist_ok=True)
    tag = f"{params.variant}_theta{params.theta}_L{p.mesh.level}_eps{_eps(opts):g}"
    path = os.path.join(opts["out_dir"], f"matrix_{tag}.txt")
    export_coordinate(A, path)
    print(f"wrote {path} ({A.shape[0]}x{A.shape[1]}, nnz={A.nnz})")
    return 0


def cmd_solve(opts, cfg):
    # no solve reads a coarser mesh than the finest: only that one is kept
    hier = build_hierarchy(opts["level"])
    del hier.meshes[:-1]
    p = build_problem(hier, _eps(opts), cfg.method_params())
    mesh = p.mesh

    def load():
        # the load vector of f = 1, assembled where it is read: the split
        # branches hold it across no factorization, and the residual
        # assembles it again, with the same bytes
        return assemble_rhs(mesh, lambda x, y: 1.0)

    b = None
    report = {}
    try:
        # the split system's right-hand side T^t b and solution T [z; v],
        # gathered from the mesh: T itself is built for the IP1 split
        # system alone
        if p.params.variant == IP0:
            report["method"] = "block-forward-substitution"
            blocks = p.blocks()
            # f_z and f_v are handed over with no name left holding them, so
            # that forward_substitution_solve frees them with A_zz and A_vz
            # before SuperLU factors A_vv
            f = np.split(split_rhs(load(), mesh, p.weights), [mesh.n_edges])
            u = from_split(*forward_substitution_solve(blocks, f.pop(0), f.pop()),
                           mesh, p.weights)
        elif p.params.theta == -1:
            report["method"] = "pcg-block-jacobi"
            S, B = block_jacobi_system(p, cfg.smoother_spec())
            x, rep = pcg(S, split_rhs(load(), mesh, p.weights), B, tol=cfg.tol, maxit=2000)
            u = from_split(*np.split(x, [mesh.n_edges]), mesh, p.weights)
        else:
            report["method"] = "stationary-symmetric-part"
            b = load()
            # the CSC view of A_S^t, which is A_S: no tocsc() copy
            u, rep = stationary_iteration(p.A, DirectSolve(symmetric_part(p.A).T), b,
                                          tol=cfg.tol, maxit=500)
    # a BreakdownError of the iteration, a singular factorization, or a
    # preconditioner refusing a nonpositive diagonal
    except (RuntimeError, ValueError) as exc:
        print(f"error: {report['method']}: {exc}", file=sys.stderr)
        return 1
    if report["method"] != "block-forward-substitution":
        report.update(iterations=rep.iterations, converged=rep.converged)
    if b is None:
        b = load()
    Au = apply_dg(mesh, p.coeff, p.weights, p.params, u)
    report["rel_residual"] = np.linalg.norm(Au - b) / np.linalg.norm(b)
    report["dofs"] = mesh.n_dofs
    print(json.dumps(report, sort_keys=True))
    return 0 if report["rel_residual"] < 1e-6 and report.get("converged", True) else 1


def cmd_table(opts, cfg):
    table = RUNNERS[opts["name"]](cfg)
    table.write(opts["out_dir"])
    sys.stdout.write(table.to_markdown())
    report = compare_to_golden(table)
    if report["checks"]:
        sys.stdout.write("\n## reference comparison\n\n")
        sys.stdout.write(format_comparison(report))
        return 0 if report["passed"] else 1
    return 0


def cmd_spectrum(opts, cfg):
    eps = _eps(opts)
    level = opts["level"]
    os.makedirs(opts["out_dir"], exist_ok=True)
    path = os.path.join(opts["out_dir"], f"spectrum_{eps:g}_{level}.csv")
    eigs = dump_spectrum(cfg, eps, level, path, precond=opts["precond"])
    print(f"wrote {path} ({len(eigs)} eigenvalues, "
          f"min={eigs[0]:.6g}, max={eigs[-1]:.6g})")
    return 0


def cmd_verify(opts, cfg):
    """Structural checks: the matrix-free operator against the nodal matrix,
    the closed-form split systems against the identity S x = T^t A T x, the
    zero CR-to-z coupling, the diagonal zz block for theta=0, the Galerkin
    identity and the spectral equivalence of the two penalty variants."""
    level = opts["level"]
    p = _problem(opts, cfg)
    mesh, T, n_z = p.mesh, p.transform, p.mesh.n_edges
    failures = 0

    def check(label, ok, detail):
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
        failures += 0 if ok else 1

    def assemble(theta, variant=IP0):
        return assemble_dg(mesh, p.coeff, p.weights,
                           MethodParams(theta, cfg.alpha, variant))

    def identity(label, S, A, params, x, rows=slice(None)):
        apply = functools.partial(apply_dg, mesh, p.coeff, p.weights, params)
        ratio = identity_ratios(S, x, T, A, apply)[rows].max()
        check(label, ratio <= IDENTITY_BOUND,
              f"at most {ratio:.3g} of eps (|T|^t |A| |T| |x|), bound {IDENTITY_BOUND:g}")

    # a seeded u for the matrix-free operator, and its bound on the
    # difference from A u, entry by entry, relative to (|A| |u|); u is also
    # the split coefficients x of the identities, and x_v its CR part
    u = np.random.default_rng(0).standard_normal(mesh.n_dofs)
    u_v = np.concatenate([np.zeros(n_z), u[n_z:]])
    bound = 8 * np.finfo(float).eps
    for theta in (-1, 0, 1):
        params = MethodParams(theta, cfg.alpha)
        closed = extract_blocks(mesh, p.coeff, p.weights, params)
        A = p.A if theta == -1 else assemble(theta)
        if theta == -1:
            A_vv = closed.A_vv
        ratio = (abs(A @ u - apply_dg(mesh, p.coeff, p.weights, params, u))
                 / (abs(A) @ abs(u))).max()
        check(f"matrix-free theta={theta}", ratio <= bound,
              f"|A u - apply_dg(u)| at most {ratio:.3e} of |A| |u|, bound {bound:.3e}")
        S = closed.matrix()
        identity(f"split identity theta={theta}", S, A, params, u)
        # the z rows of S x_v are 0: so must those of T^t A T x_v be
        identity(f"zero block theta={theta}", S, A, params, u_v, slice(n_z))
        if theta == 0:
            off = closed.A_zz.nnz - np.count_nonzero(closed.A_zz.diagonal())
            check("diagonal zz block theta=0", off == 0, f"{off} off-diagonal entries")

    P = cr_prolongation(p.hier, level)
    C = assemble_conforming(mesh, p.coeff)
    gerr = abs(P.T @ A_vv @ P - C).max() / max(abs(C).max(), 1e-300)
    check("Galerkin identity", gerr < 1e-12, f"relative mismatch {gerr:.3e}")

    # the variants differ in the penalty alone, A_IP1 - A_IP0 = J^t diag(alpha
    # kappa_e / 12) J >= 0 (edge_jumps), so no eigenvalue of A_IP0^-1 A_IP1 is below 1
    A1 = assemble(-1, IP1)
    params1 = MethodParams(-1, cfg.alpha, IP1)
    identity("split identity IP1 theta=-1",
             split_matrix(mesh, p.coeff, p.weights, params1, T), A1, params1, u)
    J = edge_jumps(mesh)
    gap = J.T @ sp.diags(cfg.alpha * p.weights.kappa_e / 12) @ J - (A1 - p.A)
    err = abs(gap).max() / abs(A1).max()
    check("spectral equivalence lower bound", err <= 1e-12,
          f"A_IP1 - A_IP0 = J^t diag(alpha kappa_e / 12) J to {err:.3e} of max|A_IP1|")
    # the top Ritz value of A_IP0^-1 A_IP1, from below
    c0 = estimate_spectrum(A1, DirectSolve(p.A))[-1]
    check("spectral equivalence upper bound", np.isfinite(c0), f"c0 = {c0:.6g}")
    print(f"{'PASS' if failures == 0 else 'FAIL'} aggregate: {failures} failed checks")
    return 0 if failures == 0 else 1


# each command: its help, its function and the options it reads, the only
# ones its parser and its config file accept
COMMANDS = {
    "mesh-info": ("print mesh statistics", cmd_mesh_info, ("level",)),
    "assemble": ("export the stiffness matrix", cmd_assemble,
                 ("level", "eps", "theta", "alpha", "variant", "out_dir")),
    "solve": ("solve one discretized problem", cmd_solve,
              ("level", "eps", "theta", "alpha", "variant", "tol", "sweeps", "smoother")),
    "table": ("run a condition-number table", cmd_table, ("eps", "levels", "theta", "alpha",
              "variant", "ratio", "sweeps", "smoother", "tol", "seed", "out_dir")),
    "spectrum": ("dump the preconditioned spectrum", cmd_spectrum, ("level", "eps", "precond",
                 "alpha", "ratio", "sweeps", "smoother", "seed", "out_dir")),
    "verify": ("run the structural property checks", cmd_verify, ("level", "eps", "alpha")),
}


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        opts, cfg = _resolve(args)
    # json.JSONDecodeError is a ValueError; OverflowError: a config int past float's range
    except (OSError, OverflowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        code = COMMANDS[args.command][1](opts, cfg)
        sys.stdout.flush()
        return code
    # the reader closed stdout (`| head`): the rest goes to devnull, not to a traceback
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    # the numerics refusing a problem past what double precision resolves:
    # a singular factorization, a nonpositive diagonal, a PCG that stalls
    except (RuntimeError, ValueError) as exc:
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
