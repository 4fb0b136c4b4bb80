import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from dgprecond.assembly import IP0, MethodParams
from dgprecond import krylov
from dgprecond.experiments import ExperimentConfig, _system, build_problem, table_params
from dgprecond.mesh import build_hierarchy
from dgprecond.precond import bpx
from dgprecond.krylov import (
    ROUNDOFF,
    RTOL,
    BreakdownError,
    pcg,
    estimate_spectrum,
    condition_numbers,
    stationary_iteration,
    error_propagator_norm,
)


def _spd(n, seed=0, cond=100.0):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    d = np.geomspace(1.0, cond, n)
    return sp.csr_matrix(Q @ np.diag(d) @ Q.T), d


def test_pcg_solves_spd_system():
    A, _ = _spd(40, seed=1)
    rng = np.random.default_rng(2)
    x_true = rng.standard_normal(40)
    b = A @ x_true
    x, rep = pcg(A, b, tol=1e-12, maxit=200)
    assert rep.converged
    assert np.allclose(x, x_true, atol=1e-8)
    assert rep.iterations == len(rep.rel_residual_history) - 1
    assert rep.rel_residual_history[0] == 1.0
    assert rep.rel_residual_history[-1] < 1e-12


def test_pcg_two_distinct_eigenvalues_two_iterations():
    d = np.array([1.0] * 10 + [50.0] * 10)
    A = sp.diags(d).tocsr()
    b = np.random.default_rng(3).standard_normal(20)
    x, rep = pcg(A, b, tol=1e-10)
    assert rep.converged
    assert rep.iterations <= 2


def test_pcg_exact_preconditioner_one_iteration():
    A, _ = _spd(30, seed=4)
    Ainv = np.linalg.inv(A.toarray())
    b = np.random.default_rng(5).standard_normal(30)
    x, rep = pcg(A, b, B=lambda r: Ainv @ r, tol=1e-10)
    assert rep.iterations == 1


def test_pcg_zero_rhs():
    A, _ = _spd(10, seed=6)
    x, rep = pcg(A, np.zeros(10))
    assert rep.converged
    assert np.all(x == 0)


def test_pcg_indefinite_matrix_raises():
    A = sp.diags([1.0, -1.0, 2.0]).tocsr()
    with pytest.raises(BreakdownError):
        pcg(A, np.ones(3), tol=1e-12)


def test_pcg_nan_matrix_raises_at_the_first_step():
    # p^t A p is NaN, which a test pAp <= 0 let through for all maxit steps
    A = sp.diags_array([1.0, np.nan, 2.0], format="csr")
    with pytest.raises(BreakdownError, match="matrix is not positive definite"):
        pcg(A, np.ones(3), maxit=1)


def test_pcg_indefinite_preconditioner_raises():
    A = sp.eye(3, format="csr")
    with pytest.raises(BreakdownError):
        pcg(A, np.ones(3), B=lambda r: -r)


def test_estimate_spectrum_dense_exact():
    # all n steps recover the whole spectrum of a dense eigensolve
    A, _ = _spd(50, seed=7)
    eigs = estimate_spectrum(A, None, k=50, rtol=0.0)
    assert np.allclose(eigs, scipy.linalg.eigvalsh(A.toarray()), rtol=1e-9, atol=0)


def test_estimate_spectrum_dense_with_preconditioner():
    # B = D^-1: the eigenvalues of B*A are those of the pencil (A, D)
    A, _ = _spd(30, seed=8)
    d = A.diagonal()
    eigs = estimate_spectrum(A, lambda r: r / d, k=30, rtol=0.0)
    dense = scipy.linalg.eigh(A.toarray(), np.diag(d), eigvals_only=True)
    assert np.allclose(eigs, dense, rtol=1e-8, atol=0)


def test_estimate_spectrum_lanczos_matches_dense():
    A, d = _spd(80, seed=9, cond=1e4)
    dense = scipy.linalg.eigvalsh(A.toarray())
    lanczos = estimate_spectrum(A, None, k=80, seed=1)
    assert lanczos[-1] == pytest.approx(dense[-1], rel=1e-6)
    assert lanczos[0] == pytest.approx(dense[0], rel=1e-4)
    # k = n steps with distinct eigenvalues recover every eigenvalue once;
    # without reorthogonalization copies of the extreme values appear
    assert len(lanczos) == 80
    assert np.allclose(lanczos, d, rtol=1e-8, atol=0)
    # a diagonal B on an A of condition 1e8: the A-norm of round-off grows
    # with the conditioning, and partial reorthogonalization whose model
    # leaves that growth out returns values off by up to 2.0 relative.  All
    # n steps must again recover each eigenvalue once
    n = 80
    A, _ = _spd(n, seed=9, cond=1e8)
    b = np.random.default_rng(10).uniform(0.5, 2.0, n)
    dense = scipy.linalg.eigh(A.toarray(), np.diag(1.0 / b), eigvals_only=True)
    for seed in (1, 2, 3):
        lanczos = estimate_spectrum(A, lambda r: b * r, k=n, seed=seed,
                                    rtol=0.0)
        assert len(lanczos) == n
        assert np.allclose(lanczos, dense, rtol=1e-8, atol=0)


def test_estimate_spectrum_lanczos_stops_when_the_basis_is_full():
    # k > n: the preallocated basis has n rows, Lanczos stops after n steps
    # and returns the exact spectrum
    levels = np.array([1.0, 3.0, 10.0])
    Q, _ = np.linalg.qr(np.random.default_rng(20).standard_normal((3, 3)))
    A = sp.csr_matrix(Q @ np.diag(levels) @ Q.T)
    ritz = estimate_spectrum(A, None, k=20, seed=3)
    assert np.allclose(ritz, levels, rtol=1e-10, atol=0)


def test_estimate_spectrum_lanczos_stops_at_an_invariant_subspace():
    # three distinct eigenvalues: the Krylov space is invariant after three
    # steps, and the round-off residual must not restart the recurrence
    levels = np.array([1.0, 3.0, 10.0])
    Q, _ = np.linalg.qr(np.random.default_rng(20).standard_normal((60, 60)))
    A = sp.csr_matrix(Q @ np.diag(np.repeat(levels, 20)) @ Q.T)
    ritz = estimate_spectrum(A, None, k=20, seed=3)
    assert np.abs(ritz[:, None] - levels).min(axis=1).max() <= 1e-10


@pytest.mark.parametrize("levels", [
    # five decades: the round-off residual after four steps grows with the
    # conditioning, and the stop must still see the invariant space instead
    # of restarting from it
    [1e-3, 1.0, 7.0, 50.0],
    # 1e-4 and 1.001e-4 merge into one Ritz value after three steps, whose
    # bound is far below rtol * lambda_max but far above round-off: Lanczos
    # must go on until the pair is told apart
    [1e-4, 1.001e-4, 1.0, 7.0],
], ids=["wide", "close-pair"])
def test_estimate_spectrum_lanczos_finds_each_of_four_eigenvalues(levels):
    levels = np.array(levels)
    for q_seed in (20, 21, 22):
        Q, _ = np.linalg.qr(np.random.default_rng(q_seed).standard_normal((120, 120)))
        A = sp.csr_matrix(Q @ np.diag(np.repeat(levels, 30)) @ Q.T)
        for seed in range(10):
            ritz = estimate_spectrum(A, None, k=10, seed=seed)
            err = np.abs(ritz[:, None] - levels) / levels
            # every Ritz value is an eigenvalue, and every eigenvalue is found
            assert err.min(axis=1).max() <= 1e-9
            assert err.min(axis=0).max() <= 1e-9


def test_estimate_spectrum_lanczos_stops_once_the_read_values_are_certified():
    # one isolated small eigenvalue under a bulk with ratio 5, the shape of
    # the tables' spectra: lambda_1, lambda_2 and lambda_max converge long
    # before the basis is full
    n = 120
    d = np.concatenate([[1e-4], np.geomspace(0.2, 1.0, n - 1)])
    Q, _ = np.linalg.qr(np.random.default_rng(9).standard_normal((n, n)))
    A = sp.csr_matrix(Q @ np.diag(d) @ Q.T)
    dense = scipy.linalg.eigvalsh(A.toarray())
    lanczos = estimate_spectrum(A, None, k=n, seed=1)
    assert len(lanczos) < n
    for i in (0, 1, -1):
        assert lanczos[i] == pytest.approx(dense[i], rel=1e-6)
    # rtol=0 switches the stop off: all k steps run
    assert len(estimate_spectrum(A, None, k=n, seed=1, rtol=0.0)) == n


def _eigh_tridiagonal_stop(diag, off, m, rtol):
    # the stopping test as it was written with scipy's eigh_tridiagonal, as
    # a function of beta, and the betas near which each of its three tests
    # changes its answer
    k = len(diag)
    top, s_top = scipy.linalg.eigh_tridiagonal(diag, off, select="i",
                                               select_range=(k - 1, k - 1))
    low, s_low = scipy.linalg.eigh_tridiagonal(diag, off, select="i",
                                               select_range=(0, min(m, k - 1)))
    roundoff = ROUNDOFF * np.finfo(float).eps * top[0] * top[0] / low[0]

    def stop(beta):
        if beta <= roundoff:
            return True
        return bool(beta * abs(s_top[-1, 0]) < rtol * top[0]
                    and np.all(beta * np.abs(s_low[-1]) < rtol * low))

    return stop, (roundoff, rtol * top[0] / abs(s_top[-1, 0]),
                  np.min(rtol * low / np.abs(s_low[-1])))


def test_certified_decides_as_eigh_tridiagonal_on_a_two_level_run(monkeypatch):
    # every leading T of a 120-step two-level run at L4, eps = 1e-5, with
    # its own next beta and with betas at, just below and just above each
    # threshold of the test: the direct LAPACK calls give the same decision
    cfg = ExperimentConfig()
    p = build_problem(build_hierarchy(4), 1e-5, table_params("two-level", cfg))
    A, B = _system(cfg, "two-level", p)
    seen = []
    certified = krylov._certified

    def record(top, low, beta, rtol):
        diag, off = top._T
        seen.append((diag.copy(), off.copy(), beta))
        return certified(top, low, beta, rtol)

    monkeypatch.setattr(krylov, "_certified", record)
    assert len(estimate_spectrum(A, B, seed=cfg.seed)) == 120
    assert len(seen) == 119
    # rtol = 1e-15 puts the round-off floor above the error bounds, so that
    # its test decides
    decisions = set()
    for diag, off, beta in seen:
        k = len(diag)
        for m, rtol in ((0, RTOL), (1, RTOL), (2, RTOL), (1, 1e-15)):
            top = krylov._Ritz(diag, off, k - 1, k - 1)
            low = krylov._Ritz(diag, off, 0, min(m, k - 1))
            stop, thresholds = _eigh_tridiagonal_stop(diag, off, m, rtol)
            for b in (beta, *thresholds):
                for t in (np.nextafter(b, 0), b, np.nextafter(b, np.inf), 0.5 * b, 2 * b):
                    got = certified(top, low, t, rtol)
                    assert got == stop(t)
                    decisions.add(got)
    assert decisions == {True, False}


def test_condition_numbers():
    eigs = np.array([0.001, 0.5, 0.8, 1.0, 2.0])
    out = condition_numbers(eigs)
    assert out == {"K": pytest.approx(2000.0), "K_1": pytest.approx(4.0)}
    with pytest.raises(ValueError):
        condition_numbers(eigs[:1])


def test_stationary_iteration_converges():
    A, _ = _spd(20, seed=10, cond=10.0)
    inv_diag = 1.0 / A.diagonal()
    f = np.random.default_rng(11).standard_normal(20)
    # damped Jacobi as B
    u, rep = stationary_iteration(A, lambda r: 0.4 * inv_diag * r, f, maxit=5000, tol=1e-9)
    assert rep.converged
    assert np.allclose(A @ u, f, atol=1e-6)


def test_stationary_iteration_divergence_raises():
    A = sp.diags([1.0, 10.0]).tocsr()
    with pytest.raises(BreakdownError):
        stationary_iteration(A, lambda r: 2.0 * r, np.ones(2), maxit=100)


def test_propagator_norm_zero_for_symmetric():
    A, _ = _spd(15, seed=12)
    assert error_propagator_norm(A) < 1e-12


def test_propagator_norm_small_perturbation():
    # A = A_S + S with small skew part: ||E|| = ||A_S^{-1} S|| in the A_S norm
    A_S, _ = _spd(20, seed=13, cond=5.0)
    rng = np.random.default_rng(14)
    W = rng.standard_normal((20, 20))
    S = 0.05 * (W - W.T) / 2.0
    A = sp.csr_matrix(A_S.toarray() + S)
    got = error_propagator_norm(A, seed=3)
    # dense reference: sqrt of top eigenvalue of A_S^{-1} S^t A_S^{-1} S
    E = np.linalg.solve(A_S.toarray(), S)
    ref = np.sqrt(np.max(np.linalg.eigvals(np.linalg.solve(A_S.toarray(), S.T) @ E).real))
    assert got == pytest.approx(ref, rel=1e-6)


def test_propagator_norm_scale_invariant():
    A_S, _ = _spd(12, seed=15)
    rng = np.random.default_rng(16)
    W = rng.standard_normal((12, 12))
    A = sp.csr_matrix(A_S.toarray() + 0.1 * (W - W.T))
    n1 = error_propagator_norm(A)
    n2 = error_propagator_norm(sp.csr_matrix(7.5 * A.toarray()))
    assert n2 == pytest.approx(n1, rel=1e-7)


def test_pcg_accepts_matrix_and_object_preconditioners():
    A, _ = _spd(10, seed=17)
    b = np.ones(10)
    Ainv = np.linalg.inv(A.toarray())

    class Obj:
        def apply(self, r):
            return Ainv @ r

    for B in (Ainv, Obj(), None):
        x, rep = pcg(A, b, B=B, tol=1e-10)
        assert rep.converged


def test_spectrum_insensitive_to_round_off_in_the_preconditioner():
    # bpx at L2, eps = 1e-5 (K about 6e4): a symmetric perturbation of B of
    # relative size 4e-16, the size of its round-off, moves lambda_min by
    # less than RTOL (6.6e-8 relative); Lanczos on B*A in the A-inner product
    # keeps the conditioning of B*A, where A B A x = lambda A x would square it
    p = build_problem(build_hierarchy(2), 1e-5, MethodParams(-1, 8.0, IP0))
    A = p.blocks().A_vv
    n = A.shape[0]
    P = bpx(A, p.hier)
    B = np.column_stack([P.apply(e) for e in np.eye(n)])
    B = 0.5 * (B + B.T)
    G = np.random.default_rng(23).standard_normal((n, n))
    G = G + G.T
    E = 4e-16 * np.linalg.norm(B, 2) / np.linalg.norm(G, 2) * G
    lam = estimate_spectrum(A, B)
    lam_perturbed = estimate_spectrum(A, B + E)
    assert lam[-1] / lam[0] > 1e4
    assert abs(lam_perturbed[0] - lam[0]) <= RTOL * lam[0]


def test_estimate_spectrum_of_a_multiple_of_the_identity():
    # B*A = 2 I with n above the step cap: the Krylov space of the random
    # start closes after one step, and every eigenvalue is 2
    n = 200
    d = np.random.default_rng(24).uniform(1.0, 1e3, n)
    A = sp.diags(d).tocsr()
    eigs = estimate_spectrum(A, lambda r: 2.0 * r / d)
    assert len(eigs) == n
    assert np.allclose(eigs, 2.0, rtol=1e-15, atol=0)
    cond = condition_numbers(eigs)
    assert cond["K"] == cond["K_1"] == 1.0
