"""PCG, stationary iteration and spectral estimation.

Extreme (and near-extreme) eigenvalues of a preconditioned SPD system B*A are
estimated by Lanczos in the A-inner product, where B*A is self-adjoint, run
until the Ritz values asked for are certified to RTOL.  Lanczos
reorthogonalizes only at the steps where a model of the round-off says
A-orthogonality is being lost.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla

from .assembly import symmetric_part

# relative residual at which pcg and stationary_iteration stop by default
TOL = 1e-7
# relative accuracy at which Lanczos certifies the Ritz values it is asked for
RTOL = 1e-6
# stationary_iteration calls the iteration diverged once the energy
# ||c_k||_{A_S} of its correction has grown at DIVERGENCE_STEPS steps in a
# row to above DIVERGENCE_GROWTH times its least value.  It never grows in
# exact arithmetic while the iteration converges; past convergence,
# round-off moved it to at most 41 times its least value (IP1, theta 0 and
# 1, eps 1e-5, levels 3-5, 300 steps), in single jumps
DIVERGENCE_STEPS = 3
DIVERGENCE_GROWTH = 100.0
# At an invariant Krylov space the next Lanczos residual is round-off, and its
# A-norm grows with theta_max / theta_min: up to 16 * eps_mach * theta_max^2 /
# theta_min on spectra of three to six distinct values spread over up to six
# decades (B = I, or B on an A of condition up to 1e3), against at least 42
# times that one step before the space closes when two of the values are 1e-4
# relative apart (1e-4 and 1.0001e-4 under 1 and 7).  A beta below ROUNDOFF
# times that scale stops Lanczos; values closer than it cannot be told apart
# by the recurrence anyway.
ROUNDOFF = 32
_STEBZ, _STEIN = scipy.linalg.get_lapack_funcs(("stebz", "stein"), dtype=np.float64)


class BreakdownError(RuntimeError):
    """Negative curvature, an indefinite preconditioner or NaN detected."""


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
    """Preconditioned conjugate gradients from x = 0; stops at ||r_k|| / ||r_0|| < tol.
    Raises BreakdownError at the first r^t B r or p^t A p not positive (or NaN)."""
    apply_B = _as_apply(B)
    x = np.zeros(len(b))
    r = np.array(b, dtype=float)
    r0_norm = np.linalg.norm(r)
    report = SolveReport(rel_residual_history=[1.0])
    if r0_norm == 0.0:
        report.converged = True
        report.rel_residual_history = [0.0]
        return x, report

    z = apply_B(r)
    rho = r @ z
    if not rho > 0:
        raise BreakdownError("preconditioner is not positive definite")
    p = z.copy()
    for k in range(maxit):
        Ap = A @ p
        pAp = p @ Ap
        if not pAp > 0:
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
        if not rho_new > 0:
            raise BreakdownError("preconditioner is not positive definite")
        p = z + (rho_new / rho) * p
        rho = rho_new
    report.iterations = len(report.rel_residual_history) - 1
    return x, report


def estimate_spectrum(A, B=None, k=120, seed=0, rtol=RTOL):
    """Ascending eigenvalue estimates of B*A for sparse SPD A and SPD B: the
    Ritz values of Lanczos in the A-inner product.

    Lanczos keeps the basis A-orthogonal to sqrt(eps_mach) by partial
    reorthogonalization (see _omega_step), so a converged Ritz value gets no
    ghost copy and each step costs one application of B, one product with A
    and O(steps) scalar work, plus a Gram-Schmidt pass at the steps that
    reorthogonalize.  Lanczos stops after the first step whose error bounds
    (Parlett, The Symmetric Eigenvalue Problem, ch. 13; see _certified)
    certify to rtol lambda_1, lambda_2 and lambda_max, the values
    condition_numbers reads for K and K_1, or show the Krylov space
    invariant up to round-off, where a further step would restart from
    noise.  k caps the steps; rtol=0 runs all k of them unless beta is
    exactly zero.  A one-dimensional invariant space from the random start
    means B*A = theta*I, and theta comes back n times.
    """
    apply_B = _as_apply(B)
    n = A.shape[0]
    rng = np.random.default_rng(seed)
    k = min(k, n)
    v = rng.standard_normal(n)
    Av = A @ v
    nrm = np.sqrt(v @ Av)
    V = np.empty((k, n))
    V[0] = v / nrm
    Av /= nrm
    diag, off = np.empty(k), np.empty(k)
    # omega[i] models the A-inner product of the newest basis vector with
    # V[i], omega_old that of the one before (see _omega_step)
    omega, omega_old = np.zeros(k + 1), np.zeros(k + 1)
    omega[0] = 1.0
    unit = np.finfo(float).eps
    beta = 0.0
    # whether this step reorthogonalizes because the step before did
    forced = False
    for j in range(k):
        w = apply_B(Av)
        if j > 0:
            w = w - beta * V[j - 1]
        alpha = w @ Av
        w = w - alpha * V[j]
        diag[j] = alpha
        if j == k - 1:
            break
        top = _Ritz(diag[: j + 1], off[:j], j, j)
        low = _Ritz(diag[: j + 1], off[:j], 0, min(1, j))
        Aw = A @ w
        ww = w @ Aw
        beta = np.sqrt(max(ww, 0.0))
        if beta == 0.0:
            break
        local = unit * np.sqrt(n) / 2 * top.values[0] / low.values[0]
        _omega_step(omega, omega_old, diag, off, j, beta, local)
        # partial reorthogonalization (Simon, Math. Comp. 42, 1984): once the
        # modelled loss of A-orthogonality passes sqrt(unit), w and the next
        # residual are reorthogonalized against the whole basis by classical
        # Gram-Schmidt, and the model restarts from unit.  V is A-orthonormal
        # to sqrt(unit), so the pass leaves ||w||_A^2 - |c|^2; a second pass
        # runs only when that is at most half of ||w||_A^2, i.e. when the
        # first one cancelled (Daniel, Gragg, Kaufman and Stewart, 1976)
        if forced or np.abs(omega_old[: j + 1]).max() > np.sqrt(unit):
            c = V[: j + 1] @ Aw
            w -= c @ V[: j + 1]
            if ww - c @ c <= 0.5 * ww:
                w -= (V[: j + 1] @ (A @ w)) @ V[: j + 1]
            Aw = A @ w
            beta = np.sqrt(max(w @ Aw, 0.0))
            omega_old[: j + 1] = unit
            forced = not forced
        if beta == 0.0 or (rtol > 0.0 and _certified(top, low, beta, rtol)):
            break
        omega, omega_old = omega_old, omega
        off[j] = beta
        V[j + 1] = w / beta
        Av = Aw / beta
    if j == 0:
        # with k = 1 the one step is all that was asked for, not a closed space
        return np.full(n, diag[0]) if k > 1 else diag[:1]
    return scipy.linalg.eigh_tridiagonal(diag[: j + 1], off[:j], eigvals_only=True)


def _omega_step(omega, omega_old, diag, off, j, beta, local):
    """Simon's recurrence for the loss of orthogonality, in the A-inner
    product.

    omega[:j+1] and omega_old[:j] model the A-inner products of V[j] and
    V[j-1] with the earlier basis vectors; omega_old is overwritten with
    those of V[j+1] = w / beta, the three-term recurrence of T applied to
    them.  The entry for V[i] gains the round-off local * (off[i] + beta) /
    beta, with the sign that makes it grow, and the entry for V[j] is local.
    local is Simon's unit * sqrt(n) / 2 times the Ritz theta_max / theta_min
    of T: the A-norm of a round-off error grows with that ratio, as ROUNDOFF
    models, and without it a ghost copy of lambda_1 is read as lambda_2."""
    t = (diag[:j] - diag[j]) * omega[:j]
    if j > 0:
        t += off[:j] * omega[1 : j + 1]
        t[1:] += off[: j - 1] * omega[: j - 1]
        t -= off[j - 1] * omega_old[:j]
    t += np.copysign(local * (off[:j] + beta), t)
    omega_old[:j] = t / beta
    omega_old[j] = local
    omega_old[j + 1] = 1.0


class _Ritz:
    """Ritz values lo..hi (0-based, ascending) of the tridiagonal T with
    diagonal diag and off-diagonal off, by the LAPACK calls of
    eigh_tridiagonal(select="i"): bisection (stebz) for the values, inverse
    iteration (stein) for their unit eigenvectors, of which last() returns
    the last entries, computed on first use."""

    def __init__(self, diag, off, lo, hi):
        self._T = diag, off
        if len(diag) == 1:
            self.values, self._last = diag[:1], np.ones(1)
            return
        m, w, self._iblock, self._isplit, info = _STEBZ(diag, off, 2, 0.0, 1.0,
                                                        lo + 1, hi + 1, 0.0, "B")
        if info:
            raise np.linalg.LinAlgError(f"stebz failed (LAPACK info={info})")
        # stebz orders the values by split-off block, stein expects them so
        self._w = w[:m]
        self._order = np.argsort(self._w)
        self.values, self._last = self._w[self._order], None

    def last(self):
        if self._last is None:
            v, info = _STEIN(*self._T, self._w, self._iblock, self._isplit)
            if info:
                raise np.linalg.LinAlgError(f"stein failed (LAPACK info={info})")
            self._last = v[-1, self._order]
        return self._last


def _certified(top, low, beta, rtol):
    """Whether Lanczos may stop at the tridiagonal T whose largest and two
    lowest Ritz values are top and low (_Ritz of T), beta being the A-norm
    of the next residual.

    Each Ritz value theta_i of T lies within beta * |s_i| of an eigenvalue
    (s_i: last entry of its unit eigenvector).  True once the two lowest and
    the largest, the values of lambda_1, lambda_2 and lambda_max that K and
    K_1 read, have bounds below rtol * theta_i, or once beta is at the
    round-off floor of an invariant Krylov space (see ROUNDOFF), where a
    further step would restart from noise.  The eigenvectors of the low
    values are computed only when the other two tests leave it open.
    """
    theta_max, theta_min = top.values[0], low.values[0]
    if beta <= ROUNDOFF * np.finfo(float).eps * theta_max * theta_max / theta_min:
        return True
    if not beta * abs(top.last()[0]) < rtol * theta_max:
        return False
    return bool(np.all(beta * np.abs(low.last()) < rtol * low.values))


def condition_numbers(eigs):
    """K = lambda_max / lambda_1 and the effective K_1 = lambda_max / lambda_2,
    from ascending eigenvalues: the values estimate_spectrum certifies."""
    eigs = np.asarray(eigs)
    if len(eigs) < 2:
        raise ValueError(f"K_1 needs two eigenvalues, got {len(eigs)}")
    return {"K": float(eigs[-1] / eigs[0]), "K_1": float(eigs[-1] / eigs[1])}


def stationary_iteration(A, B, f, maxit=200, tol=TOL):
    """u_{k+1} = u_k + c_k, c_k = B r_k, r_k = f - A u_k, from u_0 = 0;
    stops on the relative residual ||r_k|| / ||f|| < tol.

    For B = A_S^{-1}, A_S symmetric positive definite, c_{k+1} = E c_k with
    E = I - B A, so the energy ||c_k||_{A_S} = sqrt(r_k . c_k) falls by at
    least ||E||_{A_S} at every step of an iteration that converges, while
    ||r_k|| may first grow far above ||f||.  Raises BreakdownError once that
    energy is NaN or grows as DIVERGENCE_STEPS and DIVERGENCE_GROWTH say,
    and once r_k . c_k < 0: B is not positive definite."""
    apply_B = _as_apply(B)
    u = np.zeros(A.shape[0])
    r = np.array(f, dtype=float)
    r0 = np.linalg.norm(r)
    report = SolveReport(rel_residual_history=[1.0])
    if r0 == 0.0:
        report.converged = True
        report.rel_residual_history = [0.0]
        return u, report
    least = last = np.inf
    rising = 0
    for k in range(maxit):
        c = apply_B(r)
        energy = r @ c
        if energy < 0:
            raise BreakdownError("preconditioner is not positive definite")
        energy = np.sqrt(energy)
        rising = rising + 1 if energy > last else 0
        if np.isnan(energy) or (rising >= DIVERGENCE_STEPS
                                and energy > DIVERGENCE_GROWTH * least):
            raise BreakdownError("stationary iteration diverged")
        least, last = min(least, energy), energy
        u = u + c
        r = f - A @ u
        rel = np.linalg.norm(r) / r0
        report.rel_residual_history.append(float(rel))
        if rel < tol:
            report.converged = True
            break
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
