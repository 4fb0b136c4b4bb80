"""Memory of `dgprecond solve`, stage by stage.

Usage, from the root of a checkout (the package under test comes first on
PYTHONPATH):

    PYTHONPATH=src python3 tools/solve_memory.py --level 5 --eps 1e-5 --mode traced
    PYTHONPATH=src python3 tools/solve_memory.py --level 5 --eps 1e-5 --mode rss
    PYTHONPATH=src python3 tools/solve_memory.py --level 5 --eps 1e-5 --mode rss --variant IP1

The stages are the package functions that `solve` calls, wrapped by name in
the `dgprecond.cli` and `dgprecond.experiments` namespaces: those of the IP0
block forward substitution, or with ``--variant IP1`` those of the theta = -1
PCG on the split system (block_jacobi_system's calls, then the PCG).  With
``--mode traced`` every call runs under tracemalloc on its own and reports
its traced peak and the bytes of the arrays it returns, in MiB; SuperLU
allocates outside tracemalloc, so the LU's own memory shows only in
``--mode rss``, which reports ru_maxrss in MB after every call instead,
untraced.  Run each mode in a fresh process: ru_maxrss never falls.  A
wrapped call holds its arguments until it returns, so here (as under
perfbench's timed passes) f_z and f_v stay alive across the LU of
forward_substitution_solve, which a plain solve frees before it.  The last
line of standard output is one JSON object.
"""

import argparse
import contextlib
import io
import json
import resource
import sys
import tracemalloc

import numpy as np

from dgprecond import cli, experiments

# the stages of an IP0 and of an IP1 theta = -1 solve, in the order it
# calls them; assemble_rhs is called twice, for T^t b just before split_rhs
# and again for the residual, just before apply_dg, so the IP0 solve
# records 9 stages and the IP1 one 13
_SET_UP = ((cli, "build_hierarchy"), (cli, "build_problem"))
STAGES = {
    "IP0": _SET_UP + ((experiments, "extract_blocks"), (cli, "assemble_rhs"),
                      (cli, "split_rhs"), (cli, "forward_substitution_solve"),
                      (cli, "from_split"), (cli, "apply_dg")),
    "IP1": _SET_UP + ((experiments, "build_transform"), (experiments, "split_matrix"),
                      (experiments, "cr_prolongation"), (experiments, "two_level"),
                      (experiments, "block_jacobi_dg"), (cli, "assemble_rhs"),
                      (cli, "split_rhs"), (cli, "pcg"), (cli, "from_split"),
                      (cli, "apply_dg")),
}


def _rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _nbytes(x):
    """Bytes of the arrays in a result: arrays, sparse matrices and tuples
    or dataclasses of them."""
    if isinstance(x, np.ndarray):
        return x.nbytes
    if isinstance(x, (tuple, list)):
        return sum(_nbytes(y) for y in x)
    if hasattr(x, "indptr"):
        return x.data.nbytes + x.indices.nbytes + x.indptr.nbytes
    if hasattr(x, "__dataclass_fields__"):
        return sum(_nbytes(y) for y in vars(x).values())
    return 0


def _wrap(fn, name, mode, record):
    def traced(*args, **kwargs):
        tracemalloc.start()
        try:
            result = fn(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        record.append({"stage": name, "peak_mib": round(peak / 2**20, 3),
                       "result_mib": round(_nbytes(result) / 2**20, 3)})
        return result

    def rss(*args, **kwargs):
        result = fn(*args, **kwargs)
        record.append({"stage": name, "ru_maxrss_mb": round(_rss_mb(), 2)})
        return result

    return traced if mode == "traced" else rss


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--eps", default="1e-5")
    p.add_argument("--mode", choices=("traced", "rss"), required=True)
    p.add_argument("--variant", choices=sorted(STAGES), default="IP0")
    args = p.parse_args(argv)
    record = []
    start = _rss_mb()
    for namespace, name in STAGES[args.variant]:
        setattr(namespace, name, _wrap(getattr(namespace, name), name, args.mode, record))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["solve", "--level", str(args.level), "--eps", args.eps,
                         "--variant", args.variant])
    report = {"level": args.level, "eps": float(args.eps), "variant": args.variant,
              "mode": args.mode, "exit": code, "solve": json.loads(out.getvalue()),
              "stages": record}
    if args.mode == "rss":
        report["ru_maxrss_mb_after_imports"] = round(start, 2)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
