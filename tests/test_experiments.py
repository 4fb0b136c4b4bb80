import dataclasses
import json

import pytest

from dgprecond import experiments
from dgprecond.assembly import IP1
from dgprecond.experiments import (
    EPS_DEFAULT,
    EPS_SWEEP_11,
    INFEASIBLE,
    ExperimentConfig,
    TableResult,
    GOLDEN,
    TOLERANCES,
    RUNNERS,
    run_zz_table,
    run_two_level_table,
    run_iipg_propagator_table,
    dump_spectrum,
    compare_to_golden,
    format_comparison,
)


def test_config_digest_stable_and_sensitive():
    a = ExperimentConfig(eps_list=(1.0,), levels=(0,))
    b = ExperimentConfig(eps_list=(1.0,), levels=(0,))
    c = ExperimentConfig(eps_list=(1.0,), levels=(0,), alpha=16.0)
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()


def test_zz_table_matches_reference():
    cfg = ExperimentConfig(eps_list=(1.0, 1e-3), levels=(0, 1))
    table = run_zz_table(cfg)
    for eps in cfg.eps_list:
        for lvl in cfg.levels:
            cell = table.cell(eps, lvl)
            assert cell["K"] == pytest.approx(1.72, abs=0.05)
    report = compare_to_golden(table)
    assert report["passed"], format_comparison(report)


def test_zz_rerun_is_bit_identical():
    cfg = ExperimentConfig(eps_list=(1e-1,), levels=(0,))
    t1 = run_zz_table(cfg)
    t2 = run_zz_table(cfg)
    assert t1.to_json() == t2.to_json()
    assert t1.to_csv() == t2.to_csv()


def test_zz_table_rejects_full_penalty_variant():
    with pytest.raises(ValueError):
        run_zz_table(ExperimentConfig(variant=IP1))


def test_two_level_infeasible_below_coarse_level():
    cfg = ExperimentConfig(eps_list=(1.0,), levels=(0, 1, 2))
    table = run_two_level_table(dataclasses.replace(cfg, ratio=4))
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
        run_two_level_table(ExperimentConfig(ratio=3))


def test_two_level_reference_cell():
    cfg = ExperimentConfig(eps_list=(1e-3,), levels=(1,))
    table = run_two_level_table(cfg)
    report = compare_to_golden(table)
    assert report["passed"], format_comparison(report)
    cell = table.cell(1e-3, 1)
    assert cell["K"] == pytest.approx(333.0, rel=0.5)
    assert cell["K_1"] == pytest.approx(3.36, rel=0.30)


def test_iipg_propagator_table():
    cfg = ExperimentConfig(eps_list=(1.0,), levels=(1,))
    table = run_iipg_propagator_table(cfg)
    cell = table.cell(1.0, 1)
    assert 0.05 < cell["norm"] < 0.35
    assert table.config["alpha_effective"] == 32.0
    report = compare_to_golden(table)
    assert report["passed"], format_comparison(report)


def test_iipg_default_eps_sweep():
    cfg = ExperimentConfig(levels=(0,))
    assert cfg.eps_list == EPS_DEFAULT
    table = run_iipg_propagator_table(cfg)
    assert table.eps_list == list(EPS_SWEEP_11)
    assert len(table.cells) == 11


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


def test_golden_tables_have_tolerances():
    assert set(GOLDEN) == set(TOLERANCES)
    assert set(RUNNERS) == {"zz", "two-level", "bpx", "sipg1", "iipg-propagator"}


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
