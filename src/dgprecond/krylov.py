"""PCG, stationary iteration and spectral estimation.

Extreme (and near-extreme) eigenvalues of a preconditioned SPD system B*A are
estimated either by a dense generalized eigensolve (small problems) or by
Lanczos with full reorthogonalization in the A-inner product, where B*A is
self-adjoint.
"""

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import symmetric_part

DENSE_LIMIT = 2500


class BreakdownError(RuntimeError):
    """Negative curvature or indefinite preconditioner detected."""


@dataclass
class SolveReport:
    iterations: int = 0
    rel_residual_history: list = field(default_factory=list)
    eig_min: float | None = None
    eig_max: float | None = None
    eig_sorted_low: list = field(default_factory=list)
    K: float | None = None
    K_m: dict = field(default_factory=dict)
    converged: bool = False

    def to_dict(self):
        return {
            "iterations": self.iterations,
            "rel_residual_history": list(self.rel_residual_history),
            "eig_min": self.eig_min,
            "eig_max": self.eig_max,
            "eig_sorted_low": list(self.eig_sorted_low),
            "K": self.K,
            "K_m": {str(m): v for m, v in self.K_m.items()},
            "converged": self.converged,
        }

    def to_json(self, **kw):
        return json.dumps(self.to_dict(), **kw)


def _as_apply(B):
    if B is None:
        return lambda r: r
    if callable(B):
        return B
    if hasattr(B, "apply"):
        return B.apply
    return lambda r: B @ r


def pcg(A, b, B=None, tol=1e-7, maxit=1000, x0=None):
    """Preconditioned conjugate gradients with Lanczos eigenvalue estimates.

    Stops when ||r_k|| / ||r_0|| < tol.  The CG scalars build the Lanczos
    tridiagonal whose Ritz values estimate the spectrum of B*A.
    """
    apply_B = _as_apply(B)
    n = len(b)
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    r = b - A @ x
    r0_norm = np.linalg.norm(r)
    report = SolveReport(rel_residual_history=[1.0])
    if r0_norm == 0.0:
        report.converged = True
        report.rel_residual_history = [0.0]
        return x, report

    z = apply_B(r)
    rho = r @ z
    if rho <= 0:
        raise BreakdownError("preconditioner is not positive definite")
    p = z.copy()
    alphas, betas = [], []
    for k in range(maxit):
        Ap = A @ p
        pAp = p @ Ap
        if pAp <= 0:
            raise BreakdownError("matrix is not positive definite")
        alpha = rho / pAp
        x += alpha * p
        r -= alpha * Ap
        rel = np.linalg.norm(r) / r0_norm
        report.rel_residual_history.append(float(rel))
        alphas.append(alpha)
        if rel < tol:
            report.converged = True
            break
        z = apply_B(r)
        rho_new = r @ z
        if rho_new <= 0:
            raise BreakdownError("preconditioner is not positive definite")
        beta = rho_new / rho
        betas.append(beta)
        p = z + beta * p
        rho = rho_new
    report.iterations = len(report.rel_residual_history) - 1

    if alphas:
        ritz = _ritz_from_cg(alphas, betas[: len(alphas) - 1])
        report.eig_min = float(ritz[0])
        report.eig_max = float(ritz[-1])
        report.eig_sorted_low = [float(v) for v in ritz[: min(6, len(ritz))]]
        report.K = float(ritz[-1] / ritz[0])
        report.K_m = {0: report.K}
    return x, report


def _ritz_from_cg(alphas, betas):
    """Ritz values of the Lanczos tridiagonal built from PCG scalars."""
    k = len(alphas)
    diag = np.empty(k)
    off = np.empty(max(k - 1, 0))
    diag[0] = 1.0 / alphas[0]
    for j in range(1, k):
        diag[j] = 1.0 / alphas[j] + betas[j - 1] / alphas[j - 1]
        off[j - 1] = np.sqrt(betas[j - 1]) / alphas[j - 1]
    if k == 1:
        return diag
    return scipy.linalg.eigh_tridiagonal(diag, off, eigvals_only=True)


def estimate_spectrum(A, B=None, k=120, seed=0, dense_limit=DENSE_LIMIT):
    """Ascending eigenvalue estimates of B*A for SPD A and SPD B.

    Dense path (dim <= dense_limit): materialize B and solve the generalized
    symmetric problem A B A x = lambda A x, returning the full spectrum.
    Otherwise: k steps of Lanczos with full reorthogonalization in the
    A-inner product, returning the Ritz values.
    """
    apply_B = _as_apply(B)
    n = A.shape[0]
    if n <= dense_limit:
        Ad = A.toarray() if sp.issparse(A) else np.asarray(A)
        Bd = np.asarray(apply_B(np.eye(n)))
        M1 = Ad @ Bd @ Ad
        M1 = 0.5 * (M1 + M1.T)
        return scipy.linalg.eigh(M1, 0.5 * (Ad + Ad.T), eigvals_only=True)

    rng = np.random.default_rng(seed)
    k = min(k, n)
    v = rng.standard_normal(n)
    Av = A @ v
    nrm = np.sqrt(v @ Av)
    V = [v / nrm]
    AV = [Av / nrm]
    diag, off = [], []
    beta = 0.0
    for j in range(k):
        w = apply_B(AV[j])
        if j > 0:
            w = w - beta * V[j - 1]
        alpha = w @ AV[j]
        w = w - alpha * V[j]
        # full reorthogonalization in the A-inner product
        for _ in range(2):
            coeffs = np.array([w @ av for av in AV])
            for c, vv in zip(coeffs, V):
                w = w - c * vv
            if np.abs(coeffs).max(initial=0.0) < 1e-14:
                break
        diag.append(alpha)
        if j == k - 1:
            break
        Aw = A @ w
        beta = np.sqrt(max(w @ Aw, 0.0))
        if beta == 0.0:
            break
        off.append(beta)
        V.append(w / beta)
        AV.append(Aw / beta)
    diag = np.asarray(diag)
    off = np.asarray(off[: len(diag) - 1])
    if len(diag) == 1:
        return diag
    return scipy.linalg.eigh_tridiagonal(diag, off, eigvals_only=True)


def condition_numbers(eigs, m_list=(0, 1)):
    """K = lambda_max / lambda_min and effective K_m = lambda_max / lambda_{m+1}."""
    eigs = np.asarray(eigs)
    n = len(eigs)
    out = {}
    for m in m_list:
        if m >= n:
            raise ValueError(f"m={m} >= number of eigenvalues {n}")
        out[m] = float(eigs[-1] / eigs[m])
    return {"K": out.get(0), "K_m": out}


def stationary_iteration(A, B, f, u0=None, maxit=200, tol=1e-7):
    """u_{k+1} = u_k + B(f - A u_k); stop on relative residual."""
    apply_B = _as_apply(B)
    u = np.zeros(A.shape[0]) if u0 is None else np.array(u0, dtype=float)
    r = f - A @ u
    r0 = np.linalg.norm(r)
    report = SolveReport(rel_residual_history=[1.0])
    if r0 == 0.0:
        report.converged = True
        report.rel_residual_history = [0.0]
        return u, report
    for k in range(maxit):
        u = u + apply_B(r)
        r = f - A @ u
        rel = np.linalg.norm(r) / r0
        report.rel_residual_history.append(float(rel))
        if rel < tol:
            report.converged = True
            break
        if rel > 10.0:
            raise BreakdownError("stationary iteration diverged")
    report.iterations = len(report.rel_residual_history) - 1
    return u, report


def error_propagator_norm(A, tol=1e-10, maxit=500, seed=0):
    """A_S-norm of E = I - A_S^{-1} A for nonsymmetric A.

    Computed as the square root of the largest generalized eigenvalue of
    (E^t A_S E, A_S) by power iteration with direct solves for A_S^{-1}.
    Using A_S E = A_S - A = (A^t - A)/2 =: S, this is the top eigenvalue of
    A_S^{-1} S^t A_S^{-1} S.
    """
    A = A.tocsr()
    A_S = symmetric_part(A).tocsc()
    S = ((A.T - A) * 0.5).tocsr()
    if S.nnz == 0:
        return 0.0
    lu = spla.splu(A_S)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(A.shape[0])
    lam = 0.0
    for _ in range(maxit):
        y = lu.solve(S.T @ lu.solve(S @ x))
        # Rayleigh quotient in the A_S inner product
        num = y @ (A_S @ x)
        den = x @ (A_S @ x)
        lam_new = num / den
        nrm = np.sqrt(max(y @ (A_S @ y), 0.0))
        if nrm == 0.0:
            return 0.0
        x = y / nrm
        if abs(lam_new - lam) <= tol * max(abs(lam_new), 1e-300):
            lam = lam_new
            break
        lam = lam_new
    if lam < 0:
        raise BreakdownError("symmetric part is not positive definite")
    return float(np.sqrt(lam))
