import dataclasses
import json
import weakref

import numpy as np
import pytest
import scipy.linalg

from dgprecond import basis_split, experiments, precond
from dgprecond.assembly import IP0, IP1, MethodParams
from dgprecond.krylov import RTOL, SolveReport
from dgprecond.mesh import build_hierarchy
from dgprecond.experiments import (
    EPS_DEFAULT,
    EPS_SWEEP_11,
    INFEASIBLE,
    ExperimentConfig,
    TableResult,
    GOLDEN,
    TOLERANCES,
    RUNNERS,
    block_jacobi_system,
    build_problem,
    dump_spectrum,
    compare_to_golden,
    format_comparison,
)


def test_block_jacobi_system_builds_the_transform_for_the_split_matrix_alone(monkeypatch):
    # the problem does not keep T, and T is unreachable by the time the
    # coarse correction is factored and the PCG runs
    p = build_problem(build_hierarchy(2), 1e-5, MethodParams(-1, 8.0, IP1))
    built, alive = [], []

    def build(*args):
        T = basis_split.build_transform(*args)
        built.append(weakref.ref(T))
        return T

    def spy(*args, **kwargs):
        alive.append([r() is not None for r in built])
        return precond.two_level(*args, **kwargs)

    monkeypatch.setattr(experiments, "build_transform", build)
    monkeypatch.setattr(experiments, "two_level", spy)
    block_jacobi_system(p)
    assert len(built) == 1 and alive == [[False]]
    assert "transform" not in vars(p)


def test_zz_table_matches_reference():
    cfg = ExperimentConfig(eps_list=(1.0, 1e-3), levels=(0, 1))
    table = RUNNERS["zz"](cfg)
    for eps in cfg.eps_list:
        for lvl in cfg.levels:
            cell = table.cell(eps, lvl)
            assert cell["K"] == pytest.approx(1.72, abs=0.05)
    report = compare_to_golden(table)
    assert report["passed"], format_comparison(report)


def test_zz_rerun_is_bit_identical():
    cfg = ExperimentConfig(eps_list=(1e-1,), levels=(0,))
    t1 = RUNNERS["zz"](cfg)
    t2 = RUNNERS["zz"](cfg)
    assert t1.to_json() == t2.to_json()
    assert t1.to_csv() == t2.to_csv()


def test_zz_table_rejects_full_penalty_variant():
    with pytest.raises(ValueError):
        RUNNERS["zz"](ExperimentConfig(variant=IP1))


def test_two_level_infeasible_below_coarse_level():
    cfg = ExperimentConfig(eps_list=(1.0,), levels=(0, 1, 2))
    table = RUNNERS["two-level"](dataclasses.replace(cfg, ratio=4))
    assert table.name == "two-level-w4"
    assert table.cell(1.0, 0).get("infeasible")
    assert table.cell(1.0, 1).get("infeasible")
    assert "K" in table.cell(1.0, 2)
    assert INFEASIBLE in table.to_markdown()
    # infeasible cells never enter the reference comparison
    assert all(
        c["level"] >= 2 for c in compare_to_golden(table)["checks"]
    )


def test_two_level_bad_ratio():
    with pytest.raises(ValueError):
        RUNNERS["two-level"](ExperimentConfig(ratio=3))


def test_two_level_reference_cell():
    cfg = ExperimentConfig(eps_list=(1e-3,), levels=(1,))
    table = RUNNERS["two-level"](cfg)
    report = compare_to_golden(table)
    assert report["passed"], format_comparison(report)
    cell = table.cell(1e-3, 1)
    assert cell["K"] == pytest.approx(333.0, rel=0.5)
    assert cell["K_1"] == pytest.approx(3.36, rel=0.30)


def test_two_level_lanczos_reads_no_ghost_of_lambda_1():
    # ratio 2, L4, eps = 1e-5: K_1 as full reorthogonalization gives it.
    # Partial reorthogonalization whose round-off term is not scaled by the
    # Ritz theta_max / theta_min reads a ghost copy of lambda_1 as lambda_2
    # there, and returns K_1 = 30373.4, the value of K
    table = RUNNERS["two-level"](ExperimentConfig(ratio=2, eps_list=(1e-5,), levels=(4,)))
    assert table.cell(1e-5, 4)["K_1"] == pytest.approx(3.187348998811498, rel=RTOL)


@pytest.mark.parametrize("eps", [1e-8, 1e-7, 1e-5])
@pytest.mark.parametrize("kind", ["bpx", "two-level"])
def test_cr_cell_against_the_dense_spectrum(kind, eps):
    # at L0 (n = 40) the spectrum of B A is that of L^t A L, with B = L L^t
    # formed from B.apply on the identity.  K_1 is certified to RTOL at every
    # eps here.  K is asserted at eps 1e-5 only: at 1e-8 the certified K
    # misses the dense one by 1.8e-3 (bpx) and 3.1e-3 (two-level), and at
    # 1e-7 by 4.1e-5 and 5.8e-6
    cfg = ExperimentConfig(eps_list=(eps,), levels=(0,))
    cell = RUNNERS[kind](cfg).cell(eps, 0)
    p = experiments.build_problem(build_hierarchy(0), eps, experiments.table_params(kind, cfg))
    A, B = experiments._system(cfg, kind, p)
    n = A.shape[0]
    assert n == 40
    B_dense = np.column_stack([B.apply(e) for e in np.eye(n)])
    L = np.linalg.cholesky(0.5 * (B_dense + B_dense.T))
    lam = scipy.linalg.eigvalsh(L.T @ A.toarray() @ L)
    assert cell["K_1"] == pytest.approx(lam[-1] / lam[1], rel=RTOL)
    if eps >= 1e-5:
        assert cell["K"] == pytest.approx(lam[-1] / lam[0], rel=RTOL)


def test_iipg_propagator_table():
    cfg = ExperimentConfig(eps_list=(1.0,), levels=(1,))
    table = RUNNERS["iipg-propagator"](cfg)
    cell = table.cell(1.0, 1)
    assert 0.05 < cell["norm"] < 0.35
    assert table.config["alpha_effective"] == 32.0
    report = compare_to_golden(table)
    assert report["passed"], format_comparison(report)


def test_iipg_default_eps_sweep():
    cfg = ExperimentConfig(levels=(0,))
    assert cfg.eps_list is None
    table = RUNNERS["iipg-propagator"](cfg)
    assert table.eps_list == list(EPS_SWEEP_11)
    assert table.config["eps_list"] == list(EPS_SWEEP_11)
    assert len(table.cells) == 11


def test_iipg_sweeps_the_contrasts_it_is_given():
    # the seven EPS_DEFAULT values, given explicitly, are the contrasts swept,
    # not the kind's default eleven
    table = RUNNERS["iipg-propagator"](ExperimentConfig(eps_list=EPS_DEFAULT, levels=(0,)))
    assert table.eps_list == table.config["eps_list"] == list(EPS_DEFAULT)
    assert [c["eps"] for c in table.cells] == list(EPS_DEFAULT)
    assert table.to_markdown().count("\n| ") == len(EPS_DEFAULT) + 1


_CONFIG = {"alpha": 8.0, "eps_list": [1.0], "levels": [0], "ratio": 1, "seed": 7,
           "smoother_kind": "sym_gs", "sweeps": 5, "theta": -1, "tol": 1e-07,
           "variant": IP0}


@pytest.mark.parametrize("kind, ratio, level, name, config", [
    ("zz", 1, 0, "zz", {}),
    ("two-level", 1, 0, "two-level-w1", {}),
    ("two-level", 2, 1, "two-level-w2", {"levels": [1], "ratio": 2}),
    ("two-level", 4, 2, "two-level-w4", {"levels": [2], "ratio": 4}),
    ("bpx", 1, 0, "bpx", {}),
    ("sipg1", 1, 0, "sipg1", {"variant": IP1}),
    ("iipg-propagator", 1, 0, "iipg-propagator",
     {"theta": 0, "variant": IP1, "alpha_effective": 32.0,
      "assumption": "alpha* = 8 taken as the coercivity baseline"}),
])
def test_table_name_and_config_are_pinned(kind, ratio, level, name, config):
    table = RUNNERS[kind](ExperimentConfig(eps_list=(1.0,), levels=(level,), ratio=ratio))
    assert table.name == name
    assert table.config == {**_CONFIG, **config}


def test_table_result_formats(tmp_path):
    table = TableResult("zz", {"seed": 7}, [1.0, 0.1], [0, 1])
    table.add_cell(1.0, 0, K=1.7, K_1=1.5, iterations=9)
    table.add_cell(0.1, 0, K=1.8, K_1=1.6, iterations=10)
    table.add_cell(1.0, 1, infeasible=True)
    csv = table.to_csv()
    assert csv.splitlines()[0] == "eps,level,K,K_1,iterations,infeasible"
    md = table.to_markdown()
    assert md.startswith("# zz")
    assert "| 1 | K |" in md or "K_1" in md
    data = json.loads(table.to_json())
    assert data["name"] == "zz"
    assert "timings" not in data
    with pytest.raises(KeyError):
        table.cell(5.0, 0)
    paths = table.write(tmp_path)
    assert len(paths) == 3
    for p in paths:
        assert open(p).read()


def test_comparison_harness_pass_and_fail():
    table = TableResult("zz", {}, [1e-5], [0])
    table.add_cell(1e-5, 0, K=1.73, K_1=1.5, iterations=14)
    report = compare_to_golden(table)
    assert report["passed"]
    text = format_comparison(report)
    assert "PASS" in text and "aggregate" in text

    bad = TableResult("zz", {}, [1e-5], [0])
    bad.add_cell(1e-5, 0, K=5.0, K_1=1.5, iterations=14)
    report = compare_to_golden(bad)
    assert not report["passed"]
    assert report["n_fail"] == 1
    assert "FAIL" in format_comparison(report)


def test_blank_reference_iterations_skipped():
    # the eps=1e-1 row of the zz reference has no stored iteration counts
    table = TableResult("zz", {}, [1e-1], [0])
    table.add_cell(1e-1, 0, K=1.73, iterations=999)
    report = compare_to_golden(table)
    assert all(c["quantity"] != "iters" for c in report["checks"])
    assert report["passed"]


def test_unknown_table_has_no_checks():
    table = TableResult("mystery", {}, [1.0], [0])
    table.add_cell(1.0, 0, K=1.0)
    assert compare_to_golden(table)["checks"] == []
    # the zz references are those of theta = -1
    table = TableResult("zz", {"theta": 0}, [1e-5], [0])
    table.add_cell(1e-5, 0, K=1.0, K_1=1.0, iterations=1)
    assert compare_to_golden(table)["checks"] == []


def test_golden_tables_have_tolerances():
    assert set(GOLDEN) == set(TOLERANCES)
    assert set(RUNNERS) == {"zz", "two-level", "bpx", "sipg1", "iipg-propagator"}


def test_non_converged_pcg_is_never_recorded(monkeypatch):
    def stalled(A, b, B=None, tol=1e-7, maxit=1000, x0=None):
        return b * 0.0, SolveReport(iterations=maxit, converged=False,
                                    rel_residual_history=[1.0] + [0.5] * maxit)

    monkeypatch.setattr(experiments, "pcg", stalled)
    with pytest.raises(RuntimeError, match="table stream 5, level 1, eps=1e-05:"):
        RUNNERS["bpx"](ExperimentConfig(eps_list=(1e-5,), levels=(1,)))
    with pytest.raises(RuntimeError, match="table stream 1, level 2, eps=1:"):
        RUNNERS["zz"](ExperimentConfig(eps_list=(1.0,), levels=(2,)))


def test_non_finite_condition_number_is_never_recorded(monkeypatch):
    def singular(A, B=None, **kwargs):
        return np.array([0.0, 0.5, 2.0])

    monkeypatch.setattr(experiments, "estimate_spectrum", singular)
    with np.errstate(divide="ignore"):
        with pytest.raises(RuntimeError, match="table stream 5, level 1, eps=1e-05:"):
            RUNNERS["bpx"](ExperimentConfig(eps_list=(1e-5,), levels=(1,)))


@pytest.mark.parametrize("name, theta, variant", [
    ("zz", 0, IP0), ("two-level", -1, IP0), ("bpx", -1, IP0), ("sipg1", -1, IP1),
    ("iipg-propagator", 0, IP1),
])
def test_table_config_records_the_method_it_ran(name, theta, variant):
    # theta = 0 is asked for; only zz runs it, every other table fixes its own
    cfg = ExperimentConfig(eps_list=(1.0,), levels=(0,), theta=0)
    table = RUNNERS[name](cfg)
    assert (table.config["theta"], table.config["variant"]) == (theta, variant)


@pytest.mark.parametrize("name", sorted(RUNNERS))
def test_runner_builds_one_hierarchy_per_table(name, monkeypatch):
    built = []
    real = experiments.build_hierarchy

    def counting(J):
        built.append(J)
        return real(J)

    monkeypatch.setattr(experiments, "build_hierarchy", counting)
    table = RUNNERS[name](ExperimentConfig(eps_list=(1.0,), levels=(0, 1, 2)))
    assert built == [2]
    assert [c["level"] for c in table.cells] == [0, 1, 2]


@pytest.mark.parametrize("level, rows", [(0, 40), (1, 176), (2, 300), (3, 300)])
def test_dump_spectrum_writes_min_k_n_rows(tmp_path, level, rows):
    # the dump wants the whole Ritz spectrum: Lanczos runs min(300, n) steps
    # (SPECTRUM_STEPS) with no early stop, all n of them at levels 0 and 1
    cfg = ExperimentConfig(eps_list=(1e-5,))
    path = tmp_path / "spec.csv"
    eigs = dump_spectrum(cfg, 1e-5, level, path, precond="bpx")
    lines = path.read_text().strip().splitlines()
    assert len(eigs) == rows
    assert len(lines) == rows + 1


def test_dump_spectrum(tmp_path):
    cfg = ExperimentConfig(eps_list=(1.0,), ratio=1)
    path = tmp_path / "spec.csv"
    eigs = dump_spectrum(cfg, 1.0, 0, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "index,value"
    assert len(lines) == len(eigs) + 1
    vals = [float(l.split(",")[1]) for l in lines[1:]]
    assert vals == sorted(vals)
    with pytest.raises(ValueError):
        dump_spectrum(cfg, 1.0, 0, path, precond="amg")


def test_markdown_layouts_are_pinned():
    # every cell infeasible: K and K_1 by eps
    t = TableResult("two-level-w4", {}, [1e-5, 1.0], [0, 1])
    for eps in (1e-5, 1.0):
        for level in (0, 1):
            t.add_cell(eps, level, infeasible=True)
    assert t.to_markdown() == (
        "# two-level-w4\n\n| eps | quantity | level 0 | level 1 |\n|---|---|---|---|\n"
        "| 1e-05 | K | X | X |\n|  | K_1 | X | X |\n"
        "| 1 | K | X | X |\n|  | K_1 | X | X |\n")
    # K and K_1 by eps
    t = TableResult("bpx", {}, [1e-5, 1.0], [0, 1])
    t.add_cell(1e-5, 0, K=30012.5, K_1=4.521, iterations=12)
    t.add_cell(1.0, 0, K=2.16, K_1=2.07, iterations=8)
    t.add_cell(1e-5, 1, infeasible=True)
    t.add_cell(1.0, 1, K=3.32, K_1=3.17, iterations=13)
    assert t.to_markdown() == (
        "# bpx\n\n| eps | quantity | level 0 | level 1 |\n|---|---|---|---|\n"
        "| 1e-05 | K | 3e+04 (12) | X |\n|  | K_1 | 4.52 | X |\n"
        "| 1 | K | 2.16 (8) | 3.32 (13) |\n|  | K_1 | 2.07 | 3.17 |\n")
    # norm by eps
    t = TableResult("iipg-propagator", {}, [1e-5, 1.0], [0, 1])
    t.add_cell(1e-5, 0, norm=0.1312)
    t.add_cell(1.0, 0, norm=0.2)
    t.add_cell(1e-5, 1, norm=0.14)
    assert t.to_markdown() == (
        "# iipg-propagator\n\n| eps | level 0 | level 1 |\n|---|---|---|\n"
        "| 1e-05 | 0.131 | 0.14 |\n| 1 | 0.2 | X |\n")
