"""PCG, stationary iteration and spectral estimation.

Extreme (and near-extreme) eigenvalues of a preconditioned SPD system B*A are
estimated either by a dense generalized eigensolve (small problems) or by
Lanczos with full reorthogonalization in the A-inner product, where B*A is
self-adjoint, run until the Ritz values asked for are certified to RTOL.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla

from .assembly import symmetric_part

DENSE_LIMIT = 2500
# relative residual at which pcg and stationary_iteration stop by default
TOL = 1e-7
# relative accuracy at which Lanczos certifies the Ritz values it is asked for
RTOL = 1e-6
# At an invariant Krylov space the next Lanczos residual is round-off, and its
# A-norm grows with theta_max / theta_min: up to 16 * eps_mach * theta_max^2 /
# theta_min on spectra of three to six distinct values spread over up to six
# decades (B = I, or B on an A of condition up to 1e3), against at least 42 times that one step before the space closes
# when two of the values are 1e-4 relative apart (1e-4 and 1.0001e-4 under 1
# and 7).  A beta below ROUNDOFF times that scale stops Lanczos; values closer
# than it cannot be told apart by the recurrence anyway.
ROUNDOFF = 32


class BreakdownError(RuntimeError):
    """Negative curvature or indefinite preconditioner detected."""


@dataclass
class SolveReport:
    iterations: int = 0
    rel_residual_history: list = field(default_factory=list)
    converged: bool = False


def _as_apply(B):
    if B is None:
        return lambda r: r
    if callable(B):
        return B
    if hasattr(B, "apply"):
        return B.apply
    return lambda r: B @ r


def pcg(A, b, B=None, tol=TOL, maxit=1000):
    """Preconditioned conjugate gradients from x = 0; stops at ||r_k|| / ||r_0|| < tol."""
    apply_B = _as_apply(B)
    x = np.zeros(len(b))
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
        if rel < tol:
            report.converged = True
            break
        z = apply_B(r)
        rho_new = r @ z
        if rho_new <= 0:
            raise BreakdownError("preconditioner is not positive definite")
        p = z + (rho_new / rho) * p
        rho = rho_new
    report.iterations = len(report.rel_residual_history) - 1
    return x, report


def estimate_spectrum(A, B=None, k=120, seed=0, dense_limit=DENSE_LIMIT, m=1,
                      rtol=RTOL):
    """Ascending eigenvalue estimates of B*A for sparse SPD A and SPD B.

    Dense path (dim <= dense_limit): factor A = L L^t and return the full
    spectrum of the symmetric L^t B L, B applied to the columns of L.  This
    form keeps the conditioning of B*A (A B A x = lambda A x would square
    it), so a round-off change in B moves the small eigenvalues by round-off
    only.
    Otherwise: Lanczos with full reorthogonalization in the A-inner product,
    returning the Ritz values.  Lanczos stops after the first step whose
    error bounds (Parlett, The Symmetric Eigenvalue Problem, ch. 13; see
    _certified) certify to rtol the values condition_numbers reads for K and
    K_m, or show the Krylov space invariant up to round-off, where a further
    step would restart from noise.  k caps the steps; rtol=0 runs all k of
    them unless beta is exactly zero.
    """
    apply_B = _as_apply(B)
    n = A.shape[0]
    if n <= dense_limit:
        Ad = A.toarray()
        L = scipy.linalg.cholesky(0.5 * (Ad + Ad.T), lower=True)
        M = L.T @ np.asarray(apply_B(L))
        return scipy.linalg.eigvalsh(0.5 * (M + M.T))

    rng = np.random.default_rng(seed)
    k = min(k, n)
    v = rng.standard_normal(n)
    Av = A @ v
    nrm = np.sqrt(v @ Av)
    V = np.empty((k, n))
    V[0] = v / nrm
    Av /= nrm
    diag, off = [], []
    beta = 0.0
    for j in range(k):
        w = apply_B(Av)
        if j > 0:
            w = w - beta * V[j - 1]
        alpha = w @ Av
        w = w - alpha * V[j]
        # full reorthogonalization in the A-inner product by classical
        # Gram-Schmidt.  V is A-orthonormal, so the pass leaves
        # ||w||_A^2 - |c|^2; a second pass runs only when that is at most half
        # of ||w||_A^2, i.e. when the first one cancelled (Daniel, Gragg,
        # Kaufman and Stewart, 1976)
        Aw = A @ w
        ww = w @ Aw
        c = V[: j + 1] @ Aw
        w -= c @ V[: j + 1]
        if ww - c @ c <= 0.5 * ww:
            w -= (V[: j + 1] @ (A @ w)) @ V[: j + 1]
        diag.append(alpha)
        if j == k - 1:
            break
        Aw = A @ w
        beta = np.sqrt(max(w @ Aw, 0.0))
        if beta == 0.0 or (rtol > 0.0 and _certified(diag, off, beta, m, rtol)):
            break
        off.append(beta)
        V[j + 1] = w / beta
        Av = Aw / beta
    if len(diag) == 1:
        return np.asarray(diag)
    return scipy.linalg.eigh_tridiagonal(diag, off, eigvals_only=True)


def _certified(diag, off, beta, m, rtol):
    """Whether Lanczos may stop at the tridiagonal T with diagonal diag and
    off-diagonal off, beta being the norm of the next residual.

    Each Ritz value theta_i of T lies within beta * |s_i| of an eigenvalue
    (s_i: last entry of its unit eigenvector).  True once the m+1 lowest and
    the largest have bounds below rtol * theta_i, or once beta is at the
    round-off floor of an invariant Krylov space (see ROUNDOFF), where a
    further step would restart from noise.
    """
    k = len(diag)
    top, s_top = scipy.linalg.eigh_tridiagonal(diag, off, select="i",
                                               select_range=(k - 1, k - 1))
    low, s_low = scipy.linalg.eigh_tridiagonal(diag, off, select="i",
                                               select_range=(0, min(m, k - 1)))
    if beta <= ROUNDOFF * np.finfo(float).eps * top[0] * top[0] / low[0]:
        return True
    return bool(beta * abs(s_top[-1, 0]) < rtol * top[0]
                and np.all(beta * np.abs(s_low[-1]) < rtol * low))


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


def stationary_iteration(A, B, f, maxit=200, tol=TOL):
    """u_{k+1} = u_k + B(f - A u_k) from u_0 = 0; stop on relative residual."""
    apply_B = _as_apply(B)
    u = np.zeros(A.shape[0])
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


def error_propagator_norm(A, seed=0):
    """A_S-norm of E = I - A_S^{-1} A for nonsymmetric A.

    Computed as the square root of the largest generalized eigenvalue of
    (E^t A_S E, A_S).  Using A_S E = A_S - A = (A^t - A)/2 =: S, this is the
    largest eigenvalue lambda of S^t A_S^{-1} S x = lambda A_S x, found by
    ARPACK (eigsh) with one DirectSolve of A_S for every A_S^{-1}; the start
    vector comes from default_rng(seed).
    """
    # imported here: precond imports pcg from this module
    from .precond import DirectSolve

    A = A.tocsr()
    A_S = symmetric_part(A).tocsc()
    S = ((A.T - A) * 0.5).tocsr()
    if S.nnz == 0:
        return 0.0
    n = A.shape[0]
    solve = DirectSolve(A_S).apply
    op = spla.LinearOperator((n, n), matvec=lambda x: S.T @ solve(S @ x),
                             dtype=float)
    Minv = spla.LinearOperator((n, n), matvec=solve, dtype=float)
    v0 = np.random.default_rng(seed).standard_normal(n)
    lam = spla.eigsh(op, k=1, M=A_S, Minv=Minv, which="LA", v0=v0,
                     return_eigenvectors=False)[0]
    if lam < 0:
        raise BreakdownError("symmetric part is not positive definite")
    return float(np.sqrt(lam))
