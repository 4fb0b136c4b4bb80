"""The benchmark (perfbench/pipeline.py) times the program by replacing each
name in its LAYER_CALLS on the dgprecond.experiments and dgprecond.cli
modules.  These tests check that every such name exists, and that the set-up
and solve calls of a table cell and of ``dgprecond solve`` go through those
names, so that no layer call escapes the benchmark's spans.  No table cell
calls ``assemble_dg``: the zz, two-level and bpx cells take the closed-form
split blocks, and sipg1 adds to them the IP1 penalty term, for which it
calls ``build_transform``.  The IP0 solve calls neither: it gathers T^t b
and T [z; v] from the mesh (``split_rhs``, ``from_split``), and its
residual check calls ``assembly.apply_dg``.  No LAYER_CALLS name covers
``split_rhs`` or ``apply_dg``, so perfbench counts their time under
"(outside layer calls)" until the spans move into the package (ROADMAP
item 1)."""

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
    experiments.RUNNERS["zz"](cfg)
    assert counts == dict.fromkeys(
        ("build_hierarchy", "assign_coefficient", "edge_weights", "extract_blocks",
         "DiagonalPrecond", "pcg", "estimate_spectrum", "condition_numbers"),
        1,
    )


_PROBLEM_CALLS = ("build_hierarchy", "assign_coefficient", "edge_weights")
_MEASURE_CALLS = ("pcg", "estimate_spectrum", "condition_numbers")


@pytest.mark.parametrize("name, setup_calls", [
    ("two-level", ("extract_blocks", "cr_prolongation", "two_level")),
    ("bpx", ("extract_blocks", "bpx")),
    ("sipg1", ("build_transform", "split_matrix", "cr_prolongation", "two_level",
               "block_jacobi_dg")),
])
def test_preconditioner_setup_goes_through_layer_names(counts, name, setup_calls):
    # every preconditioner is built inside the spans of these calls, which
    # perfbench counts as set-up time
    cfg = experiments.ExperimentConfig(eps_list=(1.0,), levels=(1,))
    experiments.RUNNERS[name](cfg)
    assert counts == dict.fromkeys(_PROBLEM_CALLS + setup_calls + _MEASURE_CALLS, 1)


def test_solve_calls_go_through_layer_names(counts, capsys, monkeypatch):
    applies = Counter()
    monkeypatch.setattr(cli, "apply_dg", _counting(cli.apply_dg, "apply_dg", applies))
    assert cli.main(["solve", "--level", "0"]) == 0
    capsys.readouterr()
    # assemble_rhs twice: for T^t b, and again for the residual
    assert counts == dict.fromkeys(
        ("build_hierarchy", "assign_coefficient", "edge_weights",
         "extract_blocks", "forward_substitution_solve", "from_split"),
        1,
    ) | {"assemble_rhs": 2}
    # the residual check, which no LAYER_CALLS name covers
    assert applies == {"apply_dg": 1}
