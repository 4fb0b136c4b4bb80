"""One pass of a benchmark workload, run in its own process.

Usage (normally started by run.py, with the BLAS thread count already pinned
in the environment):

    python3 perfbench/pipeline.py --workload cr-L4 --seed 7 --mode timed

Every mode runs the workload through the package's own drivers:
``RUNNERS[name](cfg)`` plus ``compare_to_golden`` for the tables, and
``dgprecond solve`` (``cli.main``) for the solve.

Modes:
  timed      the layer functions those drivers call are wrapped by name in
             the ``dgprecond.experiments`` and ``dgprecond.cli`` namespaces,
             so that every call into a layer records one span
  traced     the same, plus one span around every preconditioner apply
  reference  no wrapper at all, untimed, so that run.py can check that the
             timed and traced passes produced the same results bit for bit

Spans are read on the process's CPU clock (time.process_time): a pass runs
on one thread, since run.py pins BLAS to one thread.  Timed and traced
passes also sample the host's speed (see Calibrator); run.py uses the
samples to convert CPU seconds to reference seconds.

The last line of standard output is one JSON object.
"""

import argparse
import contextlib
import functools
import inspect
import io
import json
import math
import os
import resource
import signal
import sys
import time
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from dgprecond import cli, experiments  # noqa: E402

# Table workloads: runner names, levels, eps list.  The solve workload is
# the argument list of ``dgprecond``.
WORKLOADS = {
    "cr-L4": {"tables": ("bpx", "two-level"), "levels": (4,), "eps": (1e-5,)},
    "ip0-solve-L5": {"solve": ["solve", "--level", "5", "--eps", "1e-5"]},
    "tables-L012": {
        "tables": ("zz", "two-level", "bpx", "sipg1", "iipg-propagator"),
        "levels": (0, 1, 2),
        "eps": (1e-5, 1.0, 1e5),
    },
}

# The layer functions each driver namespace calls, wrapped in timed and
# traced passes.  Functions a layer calls inside itself are not wrapped.
LAYER_CALLS = {
    experiments: (
        "build_hierarchy", "assign_coefficient", "edge_weights", "assemble_dg",
        "build_transform", "extract_blocks", "split_matrix", "DiagonalPrecond",
        "cr_prolongation", "two_level", "bpx", "block_jacobi_dg", "pcg",
        "estimate_spectrum", "condition_numbers", "error_propagator_norm",
    ),
    cli: (
        "build_hierarchy", "assign_coefficient", "edge_weights", "assemble_dg",
        "assemble_rhs", "build_transform", "extract_blocks",
        "forward_substitution_solve", "from_split",
    ),
}

# calls whose preconditioner argument ``B`` a traced pass replaces by a
# callable that times each apply
APPLIES_B = ("krylov.pcg", "krylov.estimate_spectrum")

# cmd_solve's acceptance limit on ||Au - b|| / ||b||
SOLVE_RESIDUAL_LIMIT = 1e-6

# wall seconds between two runs of the calibration kernel
CALIBRATION_PERIOD_S = 0.1


class Calibrator:
    """Samples the host's speed while a pass runs.

    Every CALIBRATION_PERIOD_S a SIGALRM handler runs a fixed kernel that
    does not touch dgprecond (a sort, a gather, a small matrix product and
    interpreter-bound list and dict work: 3.5 to 6.5 ms on the machine of
    the baselines in README.md) and records [process time at its start,
    process time at its end, its own CPU seconds].  On a shared host the
    kernel slows down with the pass, so its time tracks how fast the host
    runs at each moment.  Of the kernels tried, this mix of numpy and
    pure-Python work tracked the passes' own time best (see README.md).
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._values = rng.standard_normal(50_000)
        self._table = rng.standard_normal(400_000)
        self._index = rng.integers(0, 400_000, 50_000)
        self._square = rng.standard_normal((96, 96))
        self._floats = list(rng.standard_normal(5000))
        self.samples = []

    def kernel(self):
        np.sort(self._values)
        self._table[self._index].sum()
        self._square @ self._square
        total = 0
        for i in range(3000):
            total += i
        sums = {}
        for i, x in enumerate(sorted(self._floats)):
            sums[i % 97] = sums.get(i % 97, 0.0) + x
        return total, sums

    def _sample(self, signum, frame):
        start, cpu = time.process_time(), time.thread_time()
        self.kernel()
        cpu = time.thread_time() - cpu
        self.samples.append([start, time.process_time(), cpu])

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_PERIOD_S,
                         CALIBRATION_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)


class Recorder:
    """Spans of one pass, kept in memory as [name, start, end, parent index,
    table, columns] and returned once at the end of the pass, plus counters
    read off the layers' results."""

    def __init__(self, trace):
        self.trace = trace
        self.counters = defaultdict(int)
        self.spans = []
        self._stack = []
        self.table = None
        # per PCG call of the current table: did it converge
        self.converged = []

    def _open(self, name, cols=0):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.process_time(), None, parent, self.table,
                           cols])

    def _close(self):
        self.spans[self._stack.pop()][2] = time.process_time()

    def call(self, name, fn, *args, cols=0, **kwargs):
        self._open(name, cols)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close()

    def wrap(self, fn):
        """fn, recording a span ``<module>.<function>`` around each call."""
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        signature = inspect.signature(fn) if self.trace and name in APPLIES_B else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.arguments["B"] = self._timed_apply(bound.arguments["B"])
                args, kwargs = bound.args, bound.kwargs
            result = self.call(name, fn, *args, **kwargs)
            self._observe(name, args, result)
            return result
        return wrapper

    def _timed_apply(self, B):
        """A callable that times each apply of B.  pcg and estimate_spectrum
        accept callables in place of B, and call B.apply in either case, so
        the results are bit-identical."""
        def timed_apply(r):
            return self.call("precond.apply", B.apply, r,
                             cols=1 if r.ndim == 1 else r.shape[1])
        return timed_apply

    def _observe(self, name, args, result):
        c = self.counters
        if name == "assembly.assemble_dg":
            c["mesh.triangles"] += args[0].n_triangles
            c["assembly.nnz"] += result.nnz
        elif name == "basis_split.extract_blocks":
            c["basis_split.nnz_vv"] += result.A_vv.nnz
        elif name == "krylov.pcg":
            rep = result[1]
            c["krylov.pcg_iters"] += rep.iterations
            c["krylov.max_rel_residual"] = max(c["krylov.max_rel_residual"],
                                               rep.rel_residual_history[-1])
            self.converged.append(rep.converged)

    def install(self):
        for namespace, names in LAYER_CALLS.items():
            for attr in names:
                setattr(namespace, attr, self.wrap(getattr(namespace, attr)))


def _config(spec, seed):
    return experiments.ExperimentConfig(eps_list=spec["eps"],
                                        levels=spec["levels"], seed=seed)


def _solve(argv):
    """``dgprecond <argv>``; returns the report it prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(argv)
    return json.loads(out.getvalue())


def _cell_ok(cell, converged):
    values = [cell[k] for k in ("K", "K_1", "norm") if k in cell]
    return converged and all(math.isfinite(v) for v in values)


def run_pass(workload, seed, mode):
    """Run every case of the workload once.  Returns the result record."""
    spec = WORKLOADS[workload]
    rec = Recorder(mode == "traced")
    calibrator = None
    if mode != "reference":
        rec.install()
        calibrator = Calibrator()
    with calibrator or contextlib.nullcontext():
        start = time.process_time()
        tables, cases, failed, checks, misses = _run_cases(spec, seed, rec)
        end = time.process_time()
    rec.counters["experiments.golden_checks"] = checks
    rec.counters["experiments.golden_miss"] = misses
    return {
        "start": start,
        "end": end,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cases": cases,
        "failed": failed,
        "counters": dict(rec.counters),
        "spans": rec.spans,
        "calibration": calibrator.samples if calibrator else [],
        "tables": tables,
    }


def _run_cases(spec, seed, rec):
    cases = failed = checks = misses = 0
    tables = {}
    if "solve" in spec:
        cases = 1
        rec.table = "solve"
        try:
            residual = _solve(spec["solve"])["rel_residual"]
            tables["solve"] = {"rel_residual": residual}
            failed += not residual < SOLVE_RESIDUAL_LIMIT
            rec.counters["krylov.max_rel_residual"] = residual
        except Exception as exc:  # a raising case counts as failed
            failed += 1
            tables["solve"] = {"error": repr(exc)}
    else:
        cfg = _config(spec, seed)
        for name in spec["tables"]:
            rec.table = name
            rec.converged = []
            n_cells = len(cfg.levels) * len(cfg.eps_list)
            cases += n_cells
            try:
                table = experiments.RUNNERS[name](cfg)
            except Exception as exc:  # a raising table fails all its cells
                failed += n_cells
                tables[name] = {"error": repr(exc)}
                continue
            # one PCG call per cell, in order; iipg cells make none
            converged = rec.converged or [True] * len(table.cells)
            failed += sum(not _cell_ok(cell, ok)
                          for cell, ok in zip(table.cells, converged))
            report = rec.call("experiments.compare_to_golden",
                              experiments.compare_to_golden, table)
            checks += len(report["checks"])
            misses += report["n_fail"]
            tables[table.name] = {
                "cells": table.cells,
                "golden_misses": [c for c in report["checks"] if not c["pass"]],
            }
    return tables, cases, failed, checks, misses


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", required=True, choices=("timed", "traced", "reference"))
    args = p.parse_args(argv)
    print(json.dumps(run_pass(args.workload, args.seed, args.mode)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
