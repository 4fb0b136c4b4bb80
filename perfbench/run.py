"""Benchmark of the dgprecond pipeline, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cr-L4 --seed 7 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all

Every pass over a workload runs in a fresh process (perfbench/pipeline.py)
through the package's own drivers, so set-up is cold and peak memory belongs
to that pass alone; passes run two at a time on a two-core machine.  With
``--trace 0`` a run makes TIMED_PASSES timed passes and reports each
end-to-end time as a sum over layer calls of the least time the call took
in any of those passes, in reference seconds (see _reference_clock and
_per_call).  With
``--trace 1`` it makes TRACED_PASSES untraced and as many traced passes and
reports the per-layer metrics.  Every run also makes one untimed pass with
no instrumentation, and fails unless every other pass produced the same
results bit for bit.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from importlib.metadata import version

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cr-L4", "ip0-solve-L5", "tables-L012")
# One BLAS/OpenMP thread per pass: results are bit-identical from process to
# process (the equivalence check depends on it), and two passes can share
# two cores.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SLOTS = min(2, len(os.sched_getaffinity(0)))
# passes per run, whatever the timing: a run of --trace 0 makes TIMED_PASSES
# timed passes, a run of --trace 1 TRACED_PASSES untraced and TRACED_PASSES
# traced ones; either adds the untimed reference pass
TIMED_PASSES = 5
TRACED_PASSES = 2
# CPU seconds of the calibration kernel (pipeline.Calibrator) that define
# the reference speed: a round figure near the kernel's fastest times on the
# machine of the baselines in README.md (1st percentile 3.5 ms in a busy
# hour).  One reference second is the time work would take where the kernel
# takes this long.
REFERENCE_KERNEL_S = 3.5e-3
# How much faster the program's time grows than the kernel's when the host
# slows down: a pass takes (kernel time / REFERENCE_KERNEL_S) ** SENSITIVITY
# times its reference time.  Fitted on ten cr-L4 runs over which the host's
# speed halved: 1.4 leaves the least dependence of the result on the
# kernel's time (see README.md).
SENSITIVITY = 1.4
# calibration samples over which the kernel's time is smoothed
SMOOTHING = 5
# every run must end within 180 s
DEADLINE_S = 170.0

# layer calls by stage; the stage of an apply span is that of its parent
SETUP_CALLS = {
    "mesh.build_hierarchy", "mesh.assign_coefficient", "mesh.edge_weights",
    "assembly.assemble_dg", "assembly.assemble_rhs",
    "basis_split.build_transform", "basis_split.extract_blocks",
    "basis_split.split_matrix", "precond.cr_prolongation",
    "precond.DiagonalPrecond", "precond.two_level", "precond.bpx",
    "precond.block_jacobi_dg",
}
SOLVE_CALLS = {"krylov.pcg", "precond.forward_substitution_solve"}
ESTIMATE_CALLS = {"krylov.estimate_spectrum", "krylov.condition_numbers",
                  "krylov.error_propagator_norm"}


class BenchError(RuntimeError):
    """A pass could not run; the benchmark prints no result."""


def _env():
    env = dict(os.environ)
    env.update({var: str(THREADS) for var in THREAD_VARS})
    return env


def _round(workload, seed, modes, deadline):
    """Start one pass per mode at once, each in a fresh process, wait for all
    of them and return their records."""
    procs = []
    try:
        for mode in modes:
            cmd = [sys.executable, os.path.join(HERE, "pipeline.py"),
                   "--workload", workload, "--seed", str(seed), "--mode", mode]
            procs.append(subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                          stderr=subprocess.PIPE, text=True,
                                          env=_env(), cwd=ROOT))
        outs = [p.communicate(timeout=max(deadline - time.monotonic(), 1.0))
                for p in procs]
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"a pass of {workload} passed the deadline") from exc
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.wait()
    records = []
    for mode, p, (out, err) in zip(modes, procs, outs):
        if p.returncode != 0:
            raise BenchError(f"{mode} pass of {workload} exited with "
                             f"{p.returncode}:\n{err.strip()}")
        records.append(json.loads(out.splitlines()[-1]))
    return records


def _run(workload, seed, modes, deadline):
    """Run the passes in ``modes``, SLOTS at a time."""
    records = []
    for i in range(0, len(modes), SLOTS):
        records += _round(workload, seed, modes[i:i + SLOTS], deadline)
    return records


def _reference_clock(samples):
    """Map a pass's process time to reference seconds.

    The host is shared and its speed drifts, by up to 2x, over seconds to
    minutes.  The calibration kernel runs every 100 ms and slows down with
    the pass, so the work between two samples is scaled by
    (REFERENCE_KERNEL_S / the kernel's time there) ** SENSITIVITY, the
    kernel's time being a running median over SMOOTHING samples.  Time spent
    in the kernel itself counts zero.
    """
    if not samples:
        raise BenchError("a timed pass recorded no calibration sample")
    start, end, cpu = np.asarray(samples, dtype=float).T
    half = SMOOTHING // 2
    padded = np.pad(cpu, half, mode="edge")
    rate = (REFERENCE_KERNEL_S / np.array(
        [np.median(padded[i:i + SMOOTHING]) for i in range(len(cpu))])) ** SENSITIVITY
    # knots: before the first sample, at each sample's start and end (flat
    # in between), after the last sample
    far = 1e6
    x = np.concatenate(([start[0] - far], np.column_stack((start, end)).ravel(),
                        [end[-1] + far]))
    gaps = np.concatenate(([far], start[1:] - end[:-1]))
    y_start = np.cumsum(gaps * rate) - far * rate[0]
    y = np.concatenate(([-far * rate[0]], np.repeat(y_start, 2),
                        [y_start[-1] + far * rate[-1]]))
    return lambda t: float(np.interp(t, x, y))


def _converted(record):
    """The record's spans and wall time in reference seconds."""
    clock = _reference_clock(record["calibration"])
    spans = [[name, clock(start), clock(end), parent, table, cols]
             for name, start, end, parent, table, cols in record["spans"]]
    return spans, clock(record["end"]) - clock(record["start"])


def _self_times(spans):
    """Each span's duration minus that of its direct children (children of
    one span never overlap: a pass is sequential)."""
    dur = [end - start for _, start, end, _, _, _ in spans]
    self_s = list(dur)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            self_s[span[3]] -= dur[i]
    return self_s


def _per_call(passes):
    """Least self time of every layer call over the passes of one run.

    A call is identified by its table, its span name and its ordinal among
    the calls of that name in the table, so it is the same work in every
    pass.  What the reference clock does not remove of the host's noise
    only ever adds time, and it comes in bursts that hit one pass and not
    the other, so the least time per call is steadier than a median (see
    README.md).  The number of passes is fixed, so parent and change are
    measured with the same estimator.  Returns
    {call: (name, stage, columns, seconds)} and the least time spent outside
    all spans.
    """
    times = defaultdict(list)
    where = {}
    outside = []
    for record in passes:
        spans, wall = _converted(record)
        self_s = _self_times(spans)
        stage = [None] * len(spans)
        seen = defaultdict(int)
        for i, (name, _, _, parent, table, cols) in enumerate(spans):
            stage[i] = stage[parent] if parent >= 0 else name
            key = (table, name, seen[table, name])
            seen[table, name] += 1
            times[key].append(self_s[i])
            where[key] = (name, stage[i], cols)
        outside.append(wall - sum(end - start for _, start, end, parent, _, _
                                  in spans if parent < 0))
    calls = {key: (*where[key], min(t)) for key, t in times.items()}
    return calls, min(outside)


def _times(passes):
    """End-to-end times of one run, in reference seconds."""
    calls, outside = _per_call(passes)
    by_stage = defaultdict(float)
    for _, stage, _, t in calls.values():
        by_stage[stage] += t
    return {
        "wall_s": sum(by_stage.values()) + outside,
        "setup_s": sum(by_stage[s] for s in SETUP_CALLS),
        "solve_s": sum(by_stage[s] for s in SOLVE_CALLS),
        "estimate_s": sum(by_stage[s] for s in ESTIMATE_CALLS),
    }


def _source_lines():
    src = os.path.join(ROOT, "src", "dgprecond")
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                lines += sum(1 for _ in fh)
    return lines


def _correctness(records):
    """Failed cases per case attempted, and GOLDEN misses per check made."""
    failed = sum(r["failed"] for r in records)
    cases = sum(r["cases"] for r in records)
    misses = sum(r["counters"]["experiments.golden_miss"] for r in records)
    checks = sum(r["counters"]["experiments.golden_checks"] for r in records)
    return {
        "fail_frac": (failed / cases, "ratio"),
        "golden_miss_frac": (misses / checks if checks else 0.0, "ratio"),
    }


def _layer_metrics(traced, untraced):
    """Per-layer metrics of the traced passes, and the self time of each
    layer in reference seconds."""
    calls, outside = _per_call(traced)
    total, self_s, count = defaultdict(float), defaultdict(float), defaultdict(int)
    layer_self = defaultdict(float, {"(outside layer calls)": outside})
    apply_1 = []
    for name, stage, cols, t in calls.values():
        self_s[name] += t
        count[name] += 1
        layer_self[name.split(".")[0]] += t
        # a span's total time: its self time and that of its apply children
        total[name if name != "precond.apply" else stage] += t
        if name == "precond.apply" and cols == 1:
            apply_1.append(t)
    spans = traced[0]["spans"]
    lanczos = dense = 0
    for name, _, _, parent, _, cols in spans:
        if (name == "precond.apply" and parent >= 0
                and spans[parent][0] == "krylov.estimate_spectrum"):
            lanczos += cols == 1
            dense = max(dense, cols if cols > 1 else 0)
    c = traced[0]["counters"]
    precond_setup = sum(t for name, t in self_s.items()
                        if name.startswith("precond.") and name in SETUP_CALLS)
    m = {
        "mesh.hierarchy_s": (total["mesh.build_hierarchy"], "s"),
        "mesh.coefficient_s": (
            total["mesh.assign_coefficient"] + total["mesh.edge_weights"], "s"),
        "mesh.triangles": (c.get("mesh.triangles", 0), "count"),
        "assembly.assemble_s": (total["assembly.assemble_dg"], "s"),
        "assembly.rhs_s": (total["assembly.assemble_rhs"], "s"),
        "assembly.nnz": (c.get("assembly.nnz", 0), "count"),
        "basis_split.transform_s": (total["basis_split.build_transform"], "s"),
        "basis_split.extract_s": (
            total["basis_split.extract_blocks"] + total["basis_split.split_matrix"],
            "s"),
        "basis_split.nnz_vv": (c.get("basis_split.nnz_vv", 0), "count"),
        "precond.setup_s": (precond_setup, "s"),
        "precond.apply_s": (self_s["precond.apply"], "s"),
        "precond.applies": (count["precond.apply"], "count"),
        "precond.apply_ms": (
            1e3 * statistics.fmean(apply_1) if apply_1 else 0.0, "ms"),
        "precond.direct_s": (total["precond.forward_substitution_solve"], "s"),
        "krylov.pcg_self_s": (self_s["krylov.pcg"], "s"),
        "krylov.pcg_iters": (c.get("krylov.pcg_iters", 0), "count"),
        "krylov.spectrum_self_s": (
            self_s["krylov.estimate_spectrum"] + self_s["krylov.condition_numbers"],
            "s"),
        "krylov.lanczos_steps": (lanczos, "count"),
        "krylov.max_rel_residual": (c["krylov.max_rel_residual"], "ratio"),
        "experiments.golden_checks": (c["experiments.golden_checks"], "count"),
        "experiments.golden_miss": (c["experiments.golden_miss"], "count"),
        "trace.overhead_frac": (
            _times(traced)["wall_s"] / _times(untraced)["wall_s"] - 1.0, "ratio"),
        "src.lines": (_source_lines(), "count"),
        "estimate_s": (_times(untraced)["estimate_s"], "s"),
    }
    m.update(_correctness(untraced))
    # constant on cr-L4 and ip0-solve-L5, so printed but not in BENCHMARK.json
    extra = {
        "krylov.dense_dim": (dense, "count"),
        "krylov.propagator_s": (total["krylov.error_propagator_norm"], "s"),
        "precond.apply_cols": (
            sum(s[5] for s in spans if s[0] == "precond.apply"), "count"),
    }
    return m, extra, layer_self


def _print_metrics(metrics, samples):
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit:6s} n={samples}")


def _results(record):
    return {name: t.get("cells", t.get("rel_residual"))
            for name, t in record["tables"].items()}


def _equivalence(reference, passes):
    """Mismatches between each pass's results and those of the reference
    pass, which must agree bit for bit."""
    expected = _results(reference)
    problems = []
    for k, record in enumerate(passes):
        got = _results(record)
        for name, cells in expected.items():
            if got.get(name) != cells:
                problems.append(f"pass {k}: {name} differs from the reference "
                                f"pass: {got.get(name)!r} != {cells!r}")
    return problems


def run_workload(workload, seed, trace, deadline):
    """Run one workload; print its report and return the result object."""
    print(f"workload {workload}, seed {seed}, trace {trace}")
    if workload == "ip0-solve-L5":
        print("  (ip0-solve-L5 has no random input: the seed is echoed, unused)")
    if trace:
        *passes, reference = _run(
            workload, seed, ["timed", "traced"] * TRACED_PASSES + ["reference"],
            deadline)
        untraced, traced = passes[0::2], passes[1::2]
        metrics, extra, layer_self = _layer_metrics(traced, untraced)
        samples = TRACED_PASSES
        wall = sum(layer_self.values())
        print(f"  traced wall {wall:.3f} s; self time by layer:")
        for layer, s in sorted(layer_self.items()):
            print(f"    {layer:22s} {s:9.3f} s  {s / wall:6.1%}")
        spans_dir = os.path.join(HERE, "out")
        os.makedirs(spans_dir, exist_ok=True)
        spans_path = os.path.join(spans_dir, f"{workload}-seed{seed}.spans.json")
        with open(spans_path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "table", "cols"],
                       "spans": _converted(traced[0])[0]}, fh)
        print(f"  spans of the first traced pass written to "
              f"{os.path.relpath(spans_path, ROOT)}")
    else:
        *passes, reference = _run(workload, seed,
                                  ["timed"] * TIMED_PASSES + ["reference"], deadline)
        times = _times(passes)
        samples = TIMED_PASSES
        metrics = {
            "wall_s": (times["wall_s"], "s"),
            "setup_s": (times["setup_s"], "s"),
            "solve_s": (times["solve_s"], "s"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        }
        extra = {"estimate_s": (times["estimate_s"], "s")}
        extra.update(_correctness(passes))
        cpu = [p["end"] - p["start"] for p in passes]
        print(f"  process CPU seconds per pass, unconverted: "
              f"{' '.join(f'{t:.2f}' for t in cpu)}")
    _print_metrics(metrics, samples)
    print("  also measured:")
    _print_metrics(extra, samples)

    for name, table in passes[0]["tables"].items():
        for miss in table.get("golden_misses", []):
            print(f"  golden miss: {name} level {miss['level']} eps {miss['eps']:g} "
                  f"{miss['quantity']} measured {miss['measured']:.4g}, "
                  f"reference {miss['reference']:.4g}")
        if "rel_residual" in table:
            print(f"  forward-substitution residual {table['rel_residual']:.3e} "
                  f"(limit 1e-06)")
    problems = _equivalence(reference, passes)
    for line in problems:
        print(f"  EQUIVALENCE FAIL {line}")
    if not problems:
        print(f"  equivalence: all {len(passes)} passes match the uninstrumented "
              "reference pass bit for bit")
    failed = sum(p["failed"] for p in passes)
    return {
        "correct": not problems and failed == 0,
        "attempted": sum(p["cases"] for p in passes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def _print_environment():
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    print(f"cpu: {model}; nproc {len(os.sched_getaffinity(0))}; "
          f"BLAS/OpenMP threads pinned to {THREADS}; {SLOTS} passes at a time")
    print(f"python {platform.python_version()}, numpy {version('numpy')}, "
          f"scipy {version('scipy')}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=7,
                   help="ExperimentConfig.seed; 7 is the seed GOLDEN was made with")
    p.add_argument("--seconds", type=float, default=50.0,
                   help="accepted for the benchmark contract and unused: a run "
                        "makes a fixed number of passes, whatever their time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # on SIGTERM, unwind so that _round kills and waits for its passes
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    _print_environment()
    results = {}
    try:
        for workload in workloads:
            deadline = time.monotonic() + DEADLINE_S
            results[workload] = run_workload(workload, args.seed, args.trace,
                                             deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        result = results[workloads[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
