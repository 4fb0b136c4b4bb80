"""The benchmark (perfbench/pipeline.py) times the program by replacing each
name in its LAYER_CALLS on the dgprecond.experiments and dgprecond.cli
modules.  These tests check that every such name exists, and that the set-up
and solve calls of a table cell and of ``dgprecond solve`` go through those
names, so that no layer call escapes the benchmark's spans."""

import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from dgprecond import cli, experiments

PIPELINE = Path(__file__).resolve().parents[1] / "perfbench" / "pipeline.py"


@pytest.fixture(scope="module")
def layer_calls():
    spec = importlib.util.spec_from_file_location("perfbench_pipeline", PIPELINE)
    pipeline = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pipeline)
    return pipeline.LAYER_CALLS


def _counting(fn, name, counts):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


@pytest.fixture
def counts(layer_calls, monkeypatch):
    """Calls per layer function, over every namespace that wraps it."""
    counts = Counter()
    for namespace, names in layer_calls.items():
        for name in names:
            fn = getattr(namespace, name)
            monkeypatch.setattr(namespace, name, _counting(fn, name, counts))
    return counts


def test_layer_call_names_exist(layer_calls):
    assert set(layer_calls) == {experiments, cli}
    for namespace, names in layer_calls.items():
        missing = [n for n in names if not hasattr(namespace, n)]
        assert not missing, f"{namespace.__name__} lacks {missing}"


def test_table_cell_calls_go_through_layer_names(counts):
    cfg = experiments.ExperimentConfig(eps_list=(1.0,), levels=(0,))
    experiments.run_zz_table(cfg)
    assert counts == dict.fromkeys(
        ("build_hierarchy", "assign_coefficient", "edge_weights", "assemble_dg",
         "build_transform", "extract_blocks", "DiagonalPrecond", "pcg",
         "estimate_spectrum", "condition_numbers"),
        1,
    )


def test_solve_calls_go_through_layer_names(counts, capsys):
    assert cli.main(["solve", "--level", "0"]) == 0
    capsys.readouterr()
    assert counts == dict.fromkeys(
        ("build_hierarchy", "assign_coefficient", "edge_weights", "assemble_dg",
         "assemble_rhs", "build_transform", "extract_blocks",
         "forward_substitution_solve", "from_split"),
        1,
    )
