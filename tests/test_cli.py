import dataclasses
import json
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from dgprecond import cli, experiments, krylov, precond
from dgprecond.cli import main
from dgprecond.experiments import EPS_DEFAULT, ExperimentConfig


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_mesh_info(capsys):
    code, out = run(capsys, "mesh-info", "--level", "2")
    assert code == 0
    assert "triangles=512" in out
    assert "dofs=1536" in out
    assert "interior_edges=736" in out


def test_mesh_info_single_level(capsys):
    code, out = run(capsys, "mesh-info", "--level", "0")
    assert code == 0
    assert "triangles=32" in out
    assert "edges=56" in out


def test_assemble_writes_matrix(tmp_path, capsys):
    code, out = run(capsys, "assemble", "--level", "0", "--eps", "0.01",
                    "--out-dir", str(tmp_path))
    assert code == 0
    files = list(tmp_path.iterdir())
    assert len(files) == 1
    assert files[0].name.startswith("matrix_IP0_theta-1_L0")
    rows = np.loadtxt(files[0])
    assert rows.shape[1] == 3


def test_env_var_overrides_out_dir(tmp_path, capsys, monkeypatch):
    env_dir = tmp_path / "env_out"
    monkeypatch.setenv("DG_PRECOND_OUT", str(env_dir))
    code, _ = run(capsys, "assemble", "--level", "0",
                  "--out-dir", str(tmp_path / "ignored"))
    assert code == 0
    assert env_dir.is_dir() and list(env_dir.iterdir())
    assert not (tmp_path / "ignored").exists()


def test_solve_block_forward_substitution(capsys):
    code, out = run(capsys, "solve", "--level", "1", "--eps", "0.001")
    assert code == 0
    rep = json.loads(out)
    assert rep["method"] == "block-forward-substitution"
    assert rep["rel_residual"] < 1e-10
    assert rep["dofs"] == 384


def test_solve_full_penalty_pcg(capsys):
    code, out = run(capsys, "solve", "--level", "1", "--eps", "0.001",
                    "--variant", "IP1")
    assert code == 0
    rep = json.loads(out)
    assert rep["method"] == "pcg-block-jacobi"
    assert rep["converged"]


def test_solve_full_penalty_obeys_smoother_flags(capsys):
    base = ("solve", "--level", "1", "--variant", "IP1")
    code, out = run(capsys, *base)
    assert code == 0
    rep = json.loads(out)
    # the defaults are sym_gs with 5 sweeps, as in SmootherSpec()
    assert rep["iterations"] == 20
    assert rep["rel_residual"] == pytest.approx(3.668384924201733e-08, rel=1e-6)
    code, out = run(capsys, *base, "--sweeps", "5", "--smoother", "sym_gs")
    assert json.loads(out) == rep
    code, out = run(capsys, *base, "--sweeps", "1", "--smoother", "jacobi")
    assert code == 0
    assert json.loads(out)["iterations"] != rep["iterations"]


def test_solve_nonsymmetric_stationary(capsys):
    code, out = run(capsys, "solve", "--level", "0", "--variant", "IP1",
                    "--theta", "0")
    assert code == 0
    rep = json.loads(out)
    assert rep["method"] == "stationary-symmetric-part"
    assert rep["converged"]


class _Assembled(Exception):
    pass


def test_solve_skips_the_nodal_matrix_unless_it_iterates_on_it(capsys, monkeypatch):
    # the residual check applies the matrix-free operator; only the
    # stationary iteration of a nonsymmetric method reads the nodal matrix
    def refuse(*args):
        raise _Assembled

    monkeypatch.setattr(experiments, "assemble_dg", refuse)
    for variant in ("IP0", "IP1"):
        code, out = run(capsys, "solve", "--level", "1", "--variant", variant)
        assert code == 0
        assert json.loads(out)["rel_residual"] < 1e-6
    with pytest.raises(_Assembled):
        main(["solve", "--level", "1", "--variant", "IP1", "--theta", "0"])


class _Transformed(Exception):
    pass


def test_solve_gathers_the_transform_from_the_mesh(capsys, monkeypatch):
    # the IP0 solve applies T^t and T without T (split_rhs, from_split);
    # the IP1 solve builds T for its split system
    def refuse(*args):
        raise _Transformed

    monkeypatch.setattr(experiments, "build_transform", refuse)
    code, out = run(capsys, "solve", "--level", "2", "--eps", "1e-5")
    assert code == 0
    assert json.loads(out)["rel_residual"] < 1e-6
    with pytest.raises(_Transformed):
        main(["solve", "--level", "1", "--variant", "IP1"])


def test_solve_factors_without_the_load_vector(capsys, monkeypatch):
    # the IP0 solve holds neither b nor T^t b when SuperLU factors A_vv:
    # b lives inside split_rhs alone, and forward_substitution_solve drops
    # f_z and f_v with the complement blocks; the residual assembles b again
    made, alive = {"assemble_rhs": [], "split_rhs": []}, []

    def spy(name, fn):
        def call(*args):
            result = fn(*args)
            made[name].append(weakref.ref(result))
            return result
        return call

    for name in made:
        monkeypatch.setattr(cli, name, spy(name, getattr(cli, name)))
    factor = precond.DirectSolve.__init__

    def init(self, A):
        alive.append({name: [r() is not None for r in refs] for name, refs in made.items()})
        factor(self, A)

    monkeypatch.setattr(precond.DirectSolve, "__init__", init)
    code, out = run(capsys, "solve", "--level", "2", "--eps", "1e-5")
    assert code == 0 and json.loads(out)["rel_residual"] < 1e-6
    assert alive == [{"assemble_rhs": [False], "split_rhs": [False]}]
    assert len(made["assemble_rhs"]) == 2 and len(made["split_rhs"]) == 1


def test_solve_breakdown_is_one_error_line():
    # with a penalty of 0.5 the skew part of NIPG outweighs its symmetric
    # part, ||E||_{A_S} = 2.42 at this level, and the energy of the
    # correction doubles at every step; run as a process, so that its exit
    # code and its whole stderr are seen
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "dgprecond.cli", "solve", "--level", "3", "--eps",
         "1e-5", "--variant", "IP1", "--theta", "1", "--alpha", "0.5"],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "error: stationary-symmetric-part: stationary iteration diverged"]
    assert "Traceback" not in proc.stderr


def test_stationary_solve_converges_where_its_residual_first_grows(capsys):
    # NIPG's first residual is 18.5 times ||b|| at this level, while the
    # A_S-norm of its correction contracts by 0.58 a step
    code, out = run(capsys, "solve", "--level", "3", "--eps", "1e-5", "--variant", "IP1",
                    "--theta", "1")
    assert code == 0
    rep = json.loads(out)
    assert rep["method"] == "stationary-symmetric-part"
    assert rep["converged"] and rep["iterations"] == 32
    assert rep["rel_residual"] < 1e-7


def test_unconverged_stationary_solve_exits_1(capsys):
    # no step reaches a relative residual of 1e-30: the iteration stops at
    # its 500-step cap, below the residual limit (9.0e-10), and the
    # verdict follows converged, not the residual alone
    code, out = run(capsys, "solve", "--level", "1", "--variant", "IP1", "--theta", "1",
                    "--eps", "1e-5", "--tol", "1e-30")
    assert code == 1
    rep = json.loads(out)
    assert rep["method"] == "stationary-symmetric-part"
    assert not rep["converged"] and rep["iterations"] == 500
    assert rep["rel_residual"] < 1e-6


def test_solve_past_the_resolved_contrast_misses_the_residual_limit(capsys):
    # at eps far below 1 the closed-form split system keeps positive
    # diagonals and the solve runs, but its relative residual misses 1e-6,
    # since |u| grows like 1/eps: 53.6 for IP0 at level 2, eps = 1e-16, and
    # 0.525 for IP1 at level 1, eps = 1e-14
    for argv in (("--level", "2", "--eps", "1e-16"),
                 ("--level", "1", "--variant", "IP1", "--eps", "1e-14")):
        code = main(["solve", *argv])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        assert json.loads(captured.out)["rel_residual"] > 1e-6


def test_solve_resolves_the_contrast_far_above_1(capsys):
    # the split weights keep their digits at eps > 1 (gamma_e is divided
    # out, not formed as 1 - beta_e): relative residuals 5.6e-14 and 5.7e-14
    # for IP0 at level 2, eps = 1e14 and 1e16, and 1.4e-8 for IP1 at level
    # 1, eps = 1e14, where forming 1 - beta left 8.3e-6, 1.0e-2 and 7.1e-5
    for argv, limit in ((("--level", "2", "--eps", "1e14"), 1e-12),
                        (("--level", "2", "--eps", "1e16"), 1e-12),
                        (("--level", "1", "--variant", "IP1", "--eps", "1e14"), 1e-7)):
        code, out = run(capsys, "solve", *argv)
        assert code == 0
        assert json.loads(out)["rel_residual"] < limit


def test_solve_unconverged_complement_block_is_one_error_line(capsys, monkeypatch):
    def stalled(A, b, B=None, tol=1e-7, maxit=1000):
        return np.zeros(len(b)), krylov.SolveReport(iterations=maxit)

    monkeypatch.setattr(precond, "pcg", stalled)
    assert main(["solve", "--level", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: block-forward-substitution: complement block solve missed "
        "1e-14 after 1000 iterations"]


@pytest.mark.parametrize("argv, first", [
    # past what double precision resolves, each preconditioner, factorization
    # or spectrum check refuses the matrix; the zz block and the IP1 split
    # system keep a positive diagonal down to the underflow of kappa_e
    (["table", "bpx", "--eps", "1e-14", "--levels", "1"], "error: table: "),
    (["table", "zz", "--eps", "1e-300", "--levels", "1"], "error: table: "),
    (["spectrum", "--eps", "1e-14", "--level", "1"], "error: spectrum: "),
    (["solve", "--variant", "IP1", "--eps", "1e-300", "--level", "1"],
     "error: pcg-block-jacobi: "),
], ids=["table-bpx", "table-zz", "spectrum", "solve-IP1"])
def test_numerical_failure_is_one_error_line(tmp_path, capsys, argv, first):
    if argv[0] != "solve":  # solve writes no file
        argv = argv + ["--out-dir", str(tmp_path)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(first)


def test_table_zz(tmp_path, capsys):
    code, out = run(capsys, "table", "zz", "--eps", "1", "--levels", "1",
                    "--out-dir", str(tmp_path))
    assert code == 0
    assert out.startswith("# zz")
    assert "## reference comparison" in out
    assert "PASS aggregate" in out
    for ext in (".json", ".csv", ".md"):
        assert (tmp_path / f"zz{ext}").exists()
    data = json.loads((tmp_path / "zz.json").read_text())
    assert data["levels"] == [0, 1]


def test_table_zz_runs_at_contrast_1e14(tmp_path, capsys):
    # the closed-form complement block has no magnitude cut, so it keeps
    # every diagonal entry at this contrast
    code, out = run(capsys, "table", "zz", "--eps", "1e14", "--levels", "1",
                    "--out-dir", str(tmp_path))
    assert code == 0
    cells = json.loads((tmp_path / "zz.json").read_text())["cells"]
    assert all(1.5 <= c["K"] <= 2.0 for c in cells)


def test_table_zz_theta_0_has_condition_number_1(tmp_path, capsys):
    # theta = 0: the zz block is diagonal, B*A = I, and Lanczos closes a
    # one-dimensional Krylov space at every level; the references, measured
    # at theta = -1, are not compared
    code, out = run(capsys, "table", "zz", "--theta", "0", "--levels", "3",
                    "--eps", "1e-5", "--eps", "1", "--out-dir", str(tmp_path))
    assert code == 0
    assert "## reference comparison" not in out
    cells = json.loads((tmp_path / "zz.json").read_text())["cells"]
    assert len(cells) == 8
    for c in cells:
        assert c["K"] == pytest.approx(1.0, abs=1e-12)
        assert c["K_1"] == pytest.approx(1.0, abs=1e-12)


def test_table_without_eps_sweeps_the_runner_default(tmp_path, capsys):
    code, out = run(capsys, "table", "zz", "--levels", "0",
                    "--out-dir", str(tmp_path))
    # exit code 1 reports a reference-band miss (one level-0 iteration count)
    assert code in (0, 1)
    data = json.loads((tmp_path / "zz.json").read_text())
    assert data["eps_list"] == list(EPS_DEFAULT)
    assert sum(" | K | " in line for line in out.splitlines()) == len(EPS_DEFAULT)
    assert out.count("level=0 K:") == len(EPS_DEFAULT)


def test_table_two_level_ratio(tmp_path, capsys):
    code, out = run(capsys, "table", "two-level", "--eps", "1", "--levels", "2",
                    "--ratio", "2", "--out-dir", str(tmp_path))
    assert code == 0
    assert (tmp_path / "two-level-w2.json").exists()
    assert "X" in out  # level 0 infeasible for the coarser mesh ratio


def test_spectrum(tmp_path, capsys):
    code, out = run(capsys, "spectrum", "--eps", "1", "--level", "0",
                    "--out-dir", str(tmp_path))
    assert code == 0
    path = tmp_path / "spectrum_1_0.csv"
    assert path.exists()
    vals = [float(l.split(",")[1]) for l in path.read_text().splitlines()[1:]]
    assert vals == sorted(vals)
    assert vals[0] > 0


@pytest.mark.parametrize("level", [1, 3])
def test_verify(capsys, level):
    code, out = run(capsys, "verify", "--level", str(level), "--eps", "0.001")
    assert code == 0
    assert "PASS diagonal zz block theta=0" in out
    for theta in (-1, 0, 1):
        assert f"PASS split identity theta={theta}" in out
        assert f"PASS zero block theta={theta}" in out
    assert "PASS split identity IP1 theta=-1" in out
    assert "PASS Galerkin identity" in out
    assert "PASS spectral equivalence lower bound" in out
    assert "PASS spectral equivalence upper bound" in out
    assert out.strip().splitlines()[-1].startswith("PASS aggregate")


def test_verify_fails_the_lower_bound_when_the_variants_match(capsys, monkeypatch):
    # a mutant assembly that gives the IP0 matrix when asked for IP1: the
    # penalty difference J^t diag(alpha kappa_e / 12) J is then missing
    assemble_dg = cli.assemble_dg

    def ip0_only(mesh, coeff, weights, params):
        return assemble_dg(mesh, coeff, weights, dataclasses.replace(params, variant="IP0"))

    monkeypatch.setattr(cli, "assemble_dg", ip0_only)
    code, out = run(capsys, "verify", "--level", "1")
    assert code == 1
    assert "FAIL spectral equivalence lower bound" in out
    assert out.strip().splitlines()[-1] == "FAIL aggregate: 1 failed checks"


def test_verify_fails_the_closed_form_when_the_flux_term_flips(capsys, monkeypatch):
    # a mutant closed form with A_zz = alpha diag(kappa_e) - theta G: it
    # misses the identity for theta = -1 and 1, not for theta = 0, and the
    # zero block, which does not read A_zz, still passes
    extract_blocks = cli.extract_blocks

    def flipped(mesh, coeff, weights, params):
        blocks = extract_blocks(mesh, coeff, weights, params)
        penalty = sp.diags_array(2 * params.alpha * weights.kappa_e, format="csr")
        return dataclasses.replace(blocks, A_zz=penalty - blocks.A_zz)

    monkeypatch.setattr(cli, "extract_blocks", flipped)
    code, out = run(capsys, "verify", "--level", "1")
    assert code == 1
    assert "FAIL split identity theta=-1" in out
    assert "PASS split identity theta=0" in out
    assert "FAIL split identity theta=1" in out
    assert out.strip().splitlines()[-1] == "FAIL aggregate: 2 failed checks"


def test_config_file(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"level": 1}))
    code, out = run(capsys, "--config", str(cfgfile), "mesh-info")
    assert code == 0
    assert "triangles=128" in out
    # explicit flags win over the config file
    code, out = run(capsys, "--config", str(cfgfile), "mesh-info", "--level", "0")
    assert code == 0
    assert "triangles=32" in out


def _config_error(capsys, tmp_path, content):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(content))
    code = main(["--config", str(cfgfile), "mesh-info"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    return captured.err.splitlines()


def test_config_unknown_key(capsys, tmp_path):
    lines = _config_error(capsys, tmp_path, {"nonsense": 1})
    assert lines == ["error: unknown config keys: ['nonsense']"]


def test_config_that_is_not_an_object(capsys, tmp_path):
    lines = _config_error(capsys, tmp_path, [1, 2])
    assert lines == ["error: config file is a JSON list, not an object"]


def test_config_missing_file(capsys):
    code = main(["--config", "/nonexistent/cfg.json", "mesh-info"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def _argv(tmp_path, items):
    """The command line of items; a dict at its end is the content of a
    --config file given to the command before it."""
    argv = list(items)
    if isinstance(argv[-1], dict):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(argv.pop()))
        argv = ["--config", str(cfgfile), *argv]
    return argv


def _one_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


@pytest.mark.parametrize("flags", [
    ("solve", "--level", "-1"), ("solve", "--eps", "nan"), ("solve", "--tol", "0"),
    ("table", "zz", "--levels", "-1"),
    ("table", "zz", {"ratio": 3}), ("solve", {"sweeps": 0}), ("solve", {"theta": 5}),
    ("solve", {"tol": -1}), ("table", "bpx", "--levels", "0", {"eps": []}),
])
def test_rejected_input_is_one_error_line(capsys, tmp_path, flags):
    assert main(_argv(tmp_path, flags)) == 2
    # refused on its bound, by a command that reads the option
    assert "unknown config keys" not in _one_error_line(capsys)


@pytest.mark.parametrize("argv", [
    ["solve", "--level", "8"], ["table", "bpx", "--levels", "8"],
    ["solve", {"level": 8}], ["table", "bpx", {"levels": 8}], ["verify", "--level", "8"],
])
def test_level_above_max_is_refused_before_any_mesh(capsys, tmp_path, monkeypatch, argv):
    def no_mesh(level):
        raise AssertionError(f"a hierarchy of level {level} was built")

    monkeypatch.setattr(cli, "build_hierarchy", no_mesh)
    monkeypatch.setattr(experiments, "build_hierarchy", no_mesh)
    assert main(_argv(tmp_path, argv)) == 2
    assert "0..7" in _one_error_line(capsys)


# each got past the input checks: a solve that exited 1 on a nonpositive
# diagonal or preconditioner, a verify that printed nan, an IP1 solve and a
# zz table that stopped after one PCG iteration
@pytest.mark.parametrize("argv, option", [
    (["solve", "--level", "1", "--alpha", "nan"], "alpha"),
    (["solve", "--level", "1", "--alpha", "inf"], "alpha"),
    (["verify", "--level", "1", "--alpha", "inf"], "alpha"),
    (["solve", {"alpha": float("inf")}], "alpha"),
    (["solve", "--level", "2", "--variant", "IP1", "--tol", "inf"], "tol"),
    (["table", "zz", "--levels", "0", "--tol", "inf"], "tol"),
    (["table", "zz", {"tol": float("nan")}], "tol"),
])
def test_non_finite_alpha_or_tol_is_refused_before_any_mesh(capsys, tmp_path, monkeypatch,
                                                            argv, option):
    def no_mesh(level):
        raise AssertionError(f"a hierarchy of level {level} was built")

    monkeypatch.setattr(cli, "build_hierarchy", no_mesh)
    monkeypatch.setattr(experiments, "build_hierarchy", no_mesh)
    assert main(_argv(tmp_path, argv)) == 2
    assert f"{option} must be finite and positive" in _one_error_line(capsys)


# each took a traceback, a table named two-level-w2.0 or the value 1
@pytest.mark.parametrize("argv", [
    ["table", "two-level", {"seed": 1.5}], ["table", "two-level", {"sweeps": 2.5}],
    ["solve", {"level": 1.5}], ["table", "zz", {"out_dir": 5}],
    ["table", "two-level", {"ratio": 2.0}], ["solve", {"level": True}],
    ["solve", {"tol": True}], ["solve", {"alpha": True}], ["solve", {"eps": [True]}],
])
def test_config_value_of_the_wrong_type_is_one_error_line(capsys, tmp_path, monkeypatch,
                                                          argv):
    def no_mesh(level):
        raise AssertionError(f"a hierarchy of level {level} was built")

    monkeypatch.setattr(cli, "build_hierarchy", no_mesh)
    monkeypatch.setattr(experiments, "build_hierarchy", no_mesh)
    assert main(_argv(tmp_path, argv)) == 2
    key, = argv[-1]
    assert _one_error_line(capsys).startswith(f"error: config key {key} takes ")


def test_config_int_past_the_float_range_is_one_error_line(capsys, tmp_path):
    assert main(_argv(tmp_path, ["solve", {"alpha": 10**400}])) == 2
    assert _one_error_line(capsys) == "error: int too large to convert to float"


def test_config_int_for_a_float_option_is_read_as_a_float(tmp_path):
    # as from the flags, so that a table's JSON config has the same bytes
    argv = _argv(tmp_path, ["table", "zz", {"alpha": 16, "eps": [1]}])
    _, cfg = cli._resolve(cli._parser().parse_args(argv))
    assert repr((cfg.alpha, cfg.eps_list)) == "(16.0, (1.0,))"


def test_single_problem_command_takes_one_eps(capsys):
    assert main(["solve", "--eps", "1e-5", "--eps", "1"]) == 2
    assert _one_error_line(capsys) == "error: solve takes one eps, got 2"


# the options each command reads, and so accepts; 38 of the 6 x 13 pairs
OPTION_SETS = {
    "mesh-info": {"level"},
    "assemble": {"level", "eps", "theta", "alpha", "variant", "out_dir"},
    "solve": {"level", "eps", "theta", "alpha", "variant", "tol", "sweeps", "smoother"},
    "table": {"eps", "levels", "theta", "alpha", "variant", "ratio", "sweeps", "smoother",
              "tol", "seed", "out_dir"},
    "spectrum": {"level", "eps", "precond", "alpha", "ratio", "sweeps", "smoother", "seed",
                 "out_dir"},
    "verify": {"level", "eps", "alpha"},
}


@pytest.mark.parametrize("command", sorted(OPTION_SETS))
def test_command_accepts_only_the_options_it_reads(capsys, tmp_path, command):
    assert set(cli.COMMANDS) == set(OPTION_SETS)
    assert sum(map(len, OPTION_SETS.values())) == 38
    accepted = OPTION_SETS[command]
    assert set(cli.COMMANDS[command][2]) == accepted
    head = [command, "zz"] if command == "table" else [command]
    parser = cli._parser()
    for name in cli._OPTIONS:
        flag = "--" + name.replace("_", "-")
        if name in accepted:
            assert getattr(parser.parse_args([*head, flag, "1"]), name) is not None
            continue
        with pytest.raises(SystemExit) as exc:
            main([*head, flag, "1"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(_argv(tmp_path, [*head, {name: 1}])) == 2
        assert _one_error_line(capsys) == f"error: unknown config keys: ['{name}']"


# the options each table reads besides eps, levels, alpha and out_dir, which
# every table reads; a value for each of them
TABLE_OPTION_SETS = {
    "zz": {"theta", "variant", "tol", "seed"},
    "two-level": {"ratio", "sweeps", "smoother", "tol", "seed"},
    "bpx": {"sweeps", "smoother", "tol", "seed"},
    "sipg1": {"sweeps", "smoother", "tol", "seed"},
    "iipg-propagator": {"seed"},
}
TABLE_VALUES = {"theta": 1, "variant": "IP0", "ratio": 4, "sweeps": 2, "smoother": "jacobi",
                "tol": 1e-6, "seed": 3}


@pytest.mark.parametrize("table, option", [
    (table, option) for table, reads in TABLE_OPTION_SETS.items()
    for option in sorted(set(TABLE_VALUES) - reads)])
def test_table_refuses_an_option_its_runner_does_not_read(capsys, tmp_path, monkeypatch,
                                                          table, option):
    def no_mesh(level):
        raise AssertionError(f"a hierarchy of level {level} was built")

    monkeypatch.setattr(experiments, "build_hierarchy", no_mesh)
    value = TABLE_VALUES[option]
    head = ["table", table, "--levels", "0", "--out-dir", str(tmp_path)]
    assert main([*head, "--" + option, str(value)]) == 2
    assert _one_error_line(capsys) == f"error: table {table} does not read {option}"
    assert main(_argv(tmp_path, [*head, {option: value}])) == 2
    assert _one_error_line(capsys) == f"error: table {table} does not read {option}"


@pytest.mark.parametrize("table", sorted(TABLE_OPTION_SETS))
def test_table_takes_the_options_its_runner_reads(table):
    assert set(cli.TABLES) == set(TABLE_OPTION_SETS)
    for option in TABLE_OPTION_SETS[table] | {"eps", "levels", "alpha", "out_dir"}:
        value = TABLE_VALUES.get(option, 1)
        args = cli._parser().parse_args(["table", table, "--" + option.replace("_", "-"),
                                         str(value)])
        cli._resolve(args)


def test_spectrum_with_bpx_refuses_a_ratio(capsys, tmp_path):
    assert main(["spectrum", "--precond", "bpx", "--ratio", "4", "--level", "2"]) == 2
    assert _one_error_line(capsys) == "error: spectrum --precond bpx does not read ratio"
    assert main(_argv(tmp_path, ["spectrum", "--precond", "bpx", {"ratio": 4}])) == 2
    assert _one_error_line(capsys) == "error: spectrum --precond bpx does not read ratio"


def test_closed_stdout_is_no_traceback(tmp_path):
    # the reader is gone before the table prints, as with `| head -4`
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "dgprecond.cli", "table", "zz", "--levels", "1",
         "--eps", "1", "--out-dir", str(tmp_path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": src})
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=300) == 1
    assert "Traceback" not in err and "Exception ignored" not in err


def test_spectrum_coarse_level_below_zero_is_one_error_line(capsys):
    code = main(["spectrum", "--level", "0", "--ratio", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_table_that_cannot_run_the_variant_is_one_error_line(capsys):
    code = main(["table", "zz", "--variant", "IP1", "--levels", "0", "--eps", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_bad_arguments_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["table", "nope"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--theta", "5", "solve"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main([])


def test_cli_defaults_keep_no_experiment_config_default():
    # every option is either the CLI's own or an ExperimentConfig field,
    # whose default the dataclass alone holds
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert set(cli._OPTIONS) == set(cli._CLI_ONLY) | set(cli._FIELDS)
    assert not set(cli._CLI_ONLY) & set(cli._FIELDS)
    assert set(cli._FIELDS.values()) <= fields
    # with no flag, every command runs on ExperimentConfig's own defaults
    for command in cli.COMMANDS:
        args = cli._parser().parse_args([command, "zz"] if command == "table" else [command])
        opts, cfg = cli._resolve(args)
        assert cfg == ExperimentConfig()
        assert all(opts[key] is None for key in cli._FIELDS if key in opts)
