"""Self-predictive representation dynamics, discrete and continuous.

The learned object is a representation matrix phi with one row per state.
Training pairs a state drawn from d with a successor drawn from the chain;
the loss compares the predictor applied to the input embedding against the
frozen successor embedding.  Stepping phi on the semi-gradient of that loss
(the target embedding does not propagate gradients) while the predictor is
held at its least-squares optimum produces the dynamics studied here, along
with several ablations: the full gradient, a slow-moving target, predictor
noise, and alternative pairwise losses.

Conventions shared by every routine in this module:

* phi is (n, k) dense float, d is a probability vector over states;
* the reported objective f is always the uniform-weight trace objective
  from metrics.trace_objective, regardless of the training weights;
* records are taken at step 0, every record_every steps, and at the final
  step.

Blow-up handling: with the losses here the semi-gradient update with an
optimal predictor is degree-1 homogeneous in phi, so divergent runs are
rescaled by an exact power of two whenever entries pass 2**256 and the
accumulated exponent is folded back into reported metrics.  Cosines are
unaffected and reported objectives overflow to inf honestly.  The guard is
skipped for noisy predictors, whose noise term breaks homogeneity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import minimize

from .errors import (
    DegenerateCovarianceError,
    InnerSolveFailureError,
    InvalidInputError,
    ShapeMismatchError,
    StepSizeUnderflowError,
)
from .markov import TransitionMatrix, n_step_matrix, validate_distribution
from .metrics import MetricBundle, _check_rep, _matrix, reference_normalizer

COV_CUTOFF = 1e-12
RESCALE_LIMIT = 2.0 ** 256
RESCALE_EXP = 256.0

GRADIENT_MODES = ("semi", "full")
PREDICTOR_MODES = ("optimal", "noisy", "inner_solved")
LOSS_KINDS = ("squared", "l1", "cosine_eps")


@dataclass(frozen=True)
class DynamicsConfig:
    """Settings for a discrete training run.

    target_beta=None trains against the live representation; a float turns
    on a separate target matrix tracking phi at rate eta * target_beta per
    step (0 freezes it at the init).  sigma is the predictor noise scale
    and requires predictor_mode="noisy".  n_step > 1 replaces the chain by
    its n_step-fold composition before training.
    """

    eta: float = 1e-3
    iters: int = 10_000
    record_every: int = 100
    gradient_mode: str = "semi"
    predictor_mode: str = "optimal"
    loss_kind: str = "squared"
    sigma: float = 0.0
    epsilon: float = 1e-8
    target_beta: float | None = None
    n_step: int = 1

    def __post_init__(self):
        if not (np.isfinite(self.eta) and self.eta > 0):
            raise InvalidInputError(f"eta must be positive and finite, got {self.eta}")
        if self.iters < 1:
            raise InvalidInputError("iters must be at least 1")
        if self.record_every < 1:
            raise InvalidInputError("record_every must be at least 1")
        if self.gradient_mode not in GRADIENT_MODES:
            raise InvalidInputError(f"gradient_mode must be one of {GRADIENT_MODES}")
        if self.predictor_mode not in PREDICTOR_MODES:
            raise InvalidInputError(f"predictor_mode must be one of {PREDICTOR_MODES}")
        if self.loss_kind not in LOSS_KINDS:
            raise InvalidInputError(f"loss_kind must be one of {LOSS_KINDS}")
        if self.sigma < 0 or not np.isfinite(self.sigma):
            raise InvalidInputError(f"sigma must be nonnegative and finite, got {self.sigma}")
        if self.sigma > 0 and self.predictor_mode != "noisy":
            raise InvalidInputError("sigma > 0 requires predictor_mode='noisy'")
        if self.epsilon <= 0:
            raise InvalidInputError("epsilon must be positive")
        if self.target_beta is not None:
            if self.target_beta < 0 or not np.isfinite(self.target_beta):
                raise InvalidInputError("target_beta must be nonnegative and finite")
            if self.gradient_mode == "full":
                raise InvalidInputError("a separate target is undefined for the full gradient")
        if self.gradient_mode == "full" and self.loss_kind != "squared":
            raise InvalidInputError("the full gradient is implemented for the squared loss only")
        if self.n_step < 1:
            raise InvalidInputError("n_step must be at least 1")


@dataclass(frozen=True)
class TrajectoryRecord:
    """Diagnostics at one point of a run; step index or time in step_or_time."""

    step_or_time: float
    bundle: MetricBundle


def orthonormal_init(n: int, k: int, seed: int) -> np.ndarray:
    """Draw an (n, k) matrix with orthonormal columns, uniformly over frames.

    QR of a standard Gaussian block, with the usual sign fix on the R
    diagonal so the distribution is exactly rotation invariant.
    """
    if not 1 <= k <= n:
        raise InvalidInputError(f"need 1 <= k <= n, got k={k}, n={n}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, k))
    q, r = np.linalg.qr(g)
    signs = np.where(np.diag(r) < 0, -1.0, 1.0)
    return q * signs


def covariance_solve(cov: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve cov @ x = rhs for a symmetric PSD cov via a spectral pseudoinverse.

    Eigenvalues at or below 1e-12 of the largest are treated as zero.  If
    the largest is exactly zero there is no scale to cut against and
    DegenerateCovarianceError is raised.
    """
    w, v = np.linalg.eigh(cov)
    top = np.abs(w).max()
    if top == 0.0:
        raise DegenerateCovarianceError("covariance is identically zero")
    keep = np.abs(w) > COV_CUTOFF * top
    inv = np.zeros_like(w)
    inv[keep] = 1.0 / w[keep]
    return (v * inv) @ (v.T @ rhs)


def optimal_predictor(phi, p, d, phi_target=None) -> np.ndarray:
    """Least-squares predictor for the squared loss at fixed representations.

    Solves (phi^T D phi) pred = phi^T D P phi_target with D = diag(d),
    defaulting phi_target to phi.  Rank deficiency is handled by the
    pseudoinverse in covariance_solve.
    """
    a = _matrix(p)
    n = a.shape[0]
    v = _check_rep(phi, n)
    d = validate_distribution(d, n)
    t = v if phi_target is None else _check_rep(phi_target, n, "phi_target")
    if t.shape[1] != v.shape[1]:
        raise ShapeMismatchError("phi and phi_target must have the same number of columns")
    dv = d[:, None] * v
    return covariance_solve(v.T @ dv, dv.T @ (a @ t))


def noisy_predictor(phi, p, d, sigma: float, rng: np.random.Generator, phi_target=None) -> np.ndarray:
    """Optimal predictor plus iid Gaussian noise of scale sigma."""
    if sigma < 0:
        raise InvalidInputError("sigma must be nonnegative")
    pred = optimal_predictor(phi, p, d, phi_target)
    return pred + sigma * rng.standard_normal(pred.shape)


def _pair_loss_grad(z: np.ndarray, t: np.ndarray, w: np.ndarray,
                    loss_kind: str, epsilon: float) -> tuple[float, np.ndarray]:
    """Loss and gradient in z for sum_xy w[x, y] * loss(z[x], t[y])."""
    if loss_kind == "squared":
        rw = w.sum(axis=1)
        cw = w.sum(axis=0)
        cross = w @ t
        val = float(rw @ np.sum(z * z, axis=1) + cw @ np.sum(t * t, axis=1)
                    - 2.0 * np.sum(z * cross))
        return val, 2.0 * (rw[:, None] * z - cross)
    if loss_kind == "l1":
        r = z[:, None, :] - t[None, :, :]
        dist = np.linalg.norm(r, axis=2)
        val = float(np.sum(w * dist))
        safe = np.where(dist > 0, dist, 1.0)
        gz = np.einsum("xy,xyj->xj", w / safe * (dist > 0), r)
        return val, gz
    if loss_kind == "cosine_eps":
        zn = np.linalg.norm(z, axis=1)
        tn = np.linalg.norm(t, axis=1)
        dot = z @ t.T
        den = zn[:, None] * tn[None, :] + epsilon
        val = float(-np.sum(w * dot / den))
        zn_safe = np.where(zn > 0, zn, 1.0)
        coef = (w * dot * tn[None, :] / den ** 2).sum(axis=1) / zn_safe
        gz = -(w / den) @ t + coef[:, None] * z
        return val, gz
    raise InvalidInputError(f"loss_kind must be one of {LOSS_KINDS}")


def prediction_loss(phi, pred, p, d, loss_kind: str = "squared",
                    epsilon: float = 1e-8, phi_target=None) -> float:
    """Expected pairwise loss between predicted and frozen successor embeddings."""
    a = _matrix(p)
    n = a.shape[0]
    v = _check_rep(phi, n)
    d = validate_distribution(d, n)
    t = v if phi_target is None else _check_rep(phi_target, n, "phi_target")
    val, _ = _pair_loss_grad(v @ np.asarray(pred, dtype=float), t, d[:, None] * a,
                             loss_kind, epsilon)
    return val


def predictor_gradient(phi, pred, p, d, loss_kind: str = "squared",
                       epsilon: float = 1e-8, phi_target=None) -> np.ndarray:
    """Gradient of prediction_loss with respect to the predictor matrix."""
    a = _matrix(p)
    n = a.shape[0]
    v = _check_rep(phi, n)
    d = validate_distribution(d, n)
    t = v if phi_target is None else _check_rep(phi_target, n, "phi_target")
    _, gz = _pair_loss_grad(v @ np.asarray(pred, dtype=float), t, d[:, None] * a,
                            loss_kind, epsilon)
    return v.T @ gz


def semi_gradient_step(phi, pred, p, d, eta: float, loss_kind: str = "squared",
                       epsilon: float = 1e-8, phi_target=None) -> np.ndarray:
    """One semi-gradient update of phi at a fixed predictor.

    Only the input-side embedding carries gradients; the successor side is
    frozen at phi_target (phi itself by default).  For the squared loss the
    update is phi + 2 eta (D P phi_target - D phi pred) pred^T.
    """
    a = _matrix(p)
    n = a.shape[0]
    v = _check_rep(phi, n)
    d = validate_distribution(d, n)
    t = v if phi_target is None else _check_rep(phi_target, n, "phi_target")
    pred = np.asarray(pred, dtype=float)
    _, gz = _pair_loss_grad(v @ pred, t, d[:, None] * a, loss_kind, epsilon)
    return v - eta * (gz @ pred.T)


def full_gradient_step(phi, pred, p, d, eta: float) -> np.ndarray:
    """One full-gradient update for the squared loss (successor side included)."""
    a = _matrix(p)
    n = a.shape[0]
    v = _check_rep(phi, n)
    d = validate_distribution(d, n)
    pred = np.asarray(pred, dtype=float)
    dv = d[:, None] * v
    vp = dv @ pred
    grad = 2.0 * (vp - d[:, None] * (a @ v)) @ pred.T - 2.0 * (a.T @ vp - (a.T @ d)[:, None] * v)
    return v - eta * grad


GTOL_LADDER = (1e-8, 1e-9, 1e-10, 1e-11, 1e-12, 1e-13)


def solve_predictor(phi, p, d, loss_kind: str = "squared", epsilon: float = 1e-8,
                    tol: float = 1e-8, phi_target=None) -> np.ndarray:
    """Minimize prediction_loss over the predictor to max-norm stationarity tol.

    Quasi-Newton descent from the squared-loss optimum, retightening the
    gradient tolerance until both the gradient and the induced tangential
    step pred-gradient product are small; a couple of fixed restarts cover
    warm starts that sit in a flat basin.  The epsilon-regularized cosine
    loss has a scale direction along which curvature decays like 1/s**2,
    which is what the tolerance ladder is for: a single loose solve stops
    far up the valley.  Raises InnerSolveFailureError if no start reaches
    tol.
    """
    a = _matrix(p)
    n = a.shape[0]
    v = _check_rep(phi, n)
    d = validate_distribution(d, n)
    t = v if phi_target is None else _check_rep(phi_target, n, "phi_target")
    k = v.shape[1]
    w = d[:, None] * a

    def value_and_grad(x):
        val, gz = _pair_loss_grad(v @ x.reshape(k, k), t, w, loss_kind, epsilon)
        return val, (v.T @ gz).ravel()

    warm = optimal_predictor(v, a, d, t)
    starts = [warm.ravel(), (0.5 * np.eye(k)).ravel(), (-0.5 * np.eye(k)).ravel()]
    best = None
    for start in starts:
        x = start.copy()
        for gtol in GTOL_LADDER:
            res = minimize(value_and_grad, x, jac=True, method="L-BFGS-B",
                           options=dict(maxiter=20_000, maxfun=60_000, ftol=0.0,
                                        gtol=gtol, maxcor=20))
            x = res.x
            pred = x.reshape(k, k)
            _, gz = _pair_loss_grad(v @ pred, t, w, loss_kind, epsilon)
            grad = v.T @ gz
            gnorm = float(np.abs(grad).max())
            tang = float(np.abs(grad @ pred.T).max())
            if best is None or gnorm < best[0]:
                best = (gnorm, pred.copy())
            if gnorm <= tol and tang <= 50.0 * tol:
                return pred
    if best is not None and best[0] <= tol:
        return best[1]
    raise InnerSolveFailureError(
        f"stationarity {best[0]:.3e} did not reach tol={tol} for loss_kind={loss_kind!r}")


def ode_rhs(phi, p) -> np.ndarray:
    """Continuous-time flow of phi under the optimal predictor at uniform weights.

    Equal to (I - phi phi^T) P phi pred^T with pred = phi^T P phi; tangent
    to the orthonormality constraint, so phi^T phi is conserved exactly
    along exact solutions.
    """
    a = _matrix(p)
    v = _check_rep(phi, a.shape[0])
    pp = a @ v
    pred = v.T @ pp
    return (pp - v @ (v.T @ pp)) @ pred.T


def flow_residual(phi, p) -> float:
    """Frobenius norm of ode_rhs; zero exactly at critical points of the flow."""
    return float(np.linalg.norm(ode_rhs(phi, p)))


def integrate_ode(phi0, tm: TransitionMatrix, t_end: float = 100.0, n_records: int = 100,
                  rel_tol: float = 1e-9, abs_tol: float = 1e-9):
    """Integrate the representation flow and sample records on a uniform grid.

    Returns (records, phi_final) with n_records + 1 records covering
    [0, t_end].  Adaptive Runge-Kutta under the hood; a failed integration
    raises StepSizeUnderflowError.
    """
    if not isinstance(tm, TransitionMatrix):
        raise InvalidInputError("integrate_ode needs a TransitionMatrix")
    if not (np.isfinite(t_end) and t_end > 0):
        raise InvalidInputError("t_end must be positive and finite")
    if n_records < 1:
        raise InvalidInputError("n_records must be at least 1")
    a = tm.entries
    n = a.shape[0]
    v0 = _check_rep(phi0, n).copy()
    k = v0.shape[1]
    norm = reference_normalizer(tm, k)
    c0 = v0.T @ v0

    def rhs(_t, y):
        v = y.reshape(n, k)
        pp = a @ v
        pred = v.T @ pp
        return ((pp - v @ (v.T @ pp)) @ pred.T).ravel()

    t_eval = np.linspace(0.0, t_end, n_records + 1)
    sol = solve_ivp(rhs, (0.0, t_end), v0.ravel(), method="RK45",
                    rtol=rel_tol, atol=abs_tol, t_eval=t_eval)
    if not sol.success:
        raise StepSizeUnderflowError(f"integration failed: {sol.message}")
    records = []
    for i, t in enumerate(sol.t):
        v = sol.y[:, i].reshape(n, k)
        pred = v.T @ (a @ v)
        f = float(np.sum(pred * pred))
        c = v.T @ v
        drift = float(np.abs(c - c0).max())
        records.append(TrajectoryRecord(float(t), MetricBundle(
            f=f, f_ratio=f / norm, f_tilde=None,
            covariance_drift=drift,
            max_abs_cosine=_max_abs_cosine(c),
            residual=flow_residual(v, a))))
    return records, sol.y[:, -1].reshape(n, k)


def _max_abs_cosine(c: np.ndarray) -> float:
    """Worst off-diagonal cosine from a covariance matrix; collapse reports 1."""
    k = c.shape[0]
    if k == 1:
        return 0.0
    norms = np.sqrt(np.diag(c).clip(min=0.0))
    if np.any(norms < 1e-300):
        return 1.0
    cos = c / (norms[:, None] * norms[None, :])
    return float(np.abs(cos[~np.eye(k, dtype=bool)]).max())


def _scaled(vals: np.ndarray, exp: np.ndarray) -> np.ndarray:
    """vals * 2**exp with 0 * inf resolved to 0."""
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        out = vals * np.exp2(exp)
    return np.where(vals == 0.0, 0.0, out)


def _record_batch(records, step, phi, slog, c0, p_stack, norms):
    # A diverged run reports inf for the scale-carrying metrics; overflow
    # in the intermediate products is the expected route there.
    m = phi.shape[0]
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        pp = p_stack @ phi
        pred = phi.transpose(0, 2, 1) @ pp
        f = _scaled(np.sum(pred * pred, axis=(1, 2)), 4.0 * slog)
        c = phi.transpose(0, 2, 1) @ phi
        drift = np.abs(_scaled(c, 2.0 * slog[:, None, None]) - c0).max(axis=(1, 2))
        # (2^(-2 slog) I - phi phi^T) P phi pred^T without the (n, n) projector;
        # phi^T P phi is pred itself.
        tangent = np.exp2(-2.0 * slog)[:, None, None] * pp - phi @ pred
        resid = _scaled(np.linalg.norm(tangent @ pred.transpose(0, 2, 1), axis=(1, 2)),
                        5.0 * slog)
    for i in range(m):
        records[i].append(TrajectoryRecord(step, MetricBundle(
            f=float(f[i]), f_ratio=float(f[i] / norms[i]), f_tilde=None,
            covariance_drift=float(drift[i]),
            max_abs_cosine=_max_abs_cosine(c[i]),
            residual=float(resid[i]))))


def _batch_predictor(phi, dphi, dpt, run_offset: int) -> np.ndarray:
    """Pseudoinverse normal-equation solve for a whole stack of runs."""
    cov = phi.transpose(0, 2, 1) @ dphi
    rhs = phi.transpose(0, 2, 1) @ dpt
    w, v = np.linalg.eigh(cov)
    top = np.abs(w).max(axis=1)
    if np.any(top == 0.0):
        bad = int(np.nonzero(top == 0.0)[0][0])
        raise DegenerateCovarianceError(f"covariance is identically zero in run {run_offset + bad}")
    keep = np.abs(w) > COV_CUTOFF * top[:, None]
    inv = np.zeros_like(w)
    inv[keep] = 1.0 / w[keep]
    return (v * inv[:, None, :]) @ (v.transpose(0, 2, 1) @ rhs)


def run_discrete_batch(phi0_stack, tms, d, config: DynamicsConfig,
                       noise_rngs=None, run_offset: int = 0):
    """Train a stack of runs in lockstep and collect per-run records.

    phi0_stack is (m, n, k); tms is one TransitionMatrix shared by every
    run or a sequence of m of them.  noise_rngs supplies one generator per
    run when predictor_mode="noisy".  run_offset only labels error
    messages.  Returns (records, phi_final) where records is a list of m
    record lists and phi_final is the (m, n, k) stack after the last step,
    with any blow-up rescaling folded back in (divergent runs report inf).
    """
    phi = np.array(phi0_stack, dtype=float)
    if phi.ndim != 3:
        raise InvalidInputError(f"phi0_stack must be (m, n, k), got shape {phi.shape}")
    m, n, k = phi.shape
    if not 1 <= k <= n:
        raise InvalidInputError(f"need 1 <= k <= n, got k={k}, n={n}")
    if isinstance(tms, TransitionMatrix):
        tms = [tms] * m
    else:
        tms = list(tms)
    if len(tms) != m:
        raise ShapeMismatchError(f"got {len(tms)} chains for {m} runs")
    if not all(isinstance(t, TransitionMatrix) for t in tms):
        raise InvalidInputError("tms must contain TransitionMatrix instances")
    if config.n_step > 1:
        tms = [n_step_matrix(t, config.n_step) for t in tms]
    if any(t.n != n for t in tms):
        raise ShapeMismatchError("every chain must match the representation row count")
    d = validate_distribution(d, n)

    noisy = config.predictor_mode == "noisy"
    if noisy:
        if noise_rngs is None or len(noise_rngs) != m:
            raise InvalidInputError("predictor_mode='noisy' needs one noise rng per run")
    inner = config.predictor_mode == "inner_solved"

    p_stack = np.stack([t.entries for t in tms])
    norms = np.array([reference_normalizer(t, k) for t in tms])
    colw = np.einsum("mji,j->mi", p_stack, d)
    dcol = d[None, :, None]

    beta = config.target_beta
    tgt = phi.copy() if beta is not None else None
    slog = np.zeros(m)
    guard = not noisy
    c0 = phi.transpose(0, 2, 1) @ phi
    records: list[list[TrajectoryRecord]] = [[] for _ in range(m)]
    _record_batch(records, 0.0, phi, slog, c0, p_stack, norms)

    for step in range(1, config.iters + 1):
        t_mat = tgt if beta is not None else phi
        pt = p_stack @ t_mat
        dphi = dcol * phi
        dpt = dcol * pt
        if config.loss_kind == "squared":
            if inner:
                pred = np.stack([
                    solve_predictor(phi[i], p_stack[i], d, "squared",
                                    config.epsilon, phi_target=t_mat[i])
                    for i in range(m)])
            else:
                pred = _batch_predictor(phi, dphi, dpt, run_offset)
                if noisy and config.sigma > 0:
                    for i in range(m):
                        pred[i] += config.sigma * noise_rngs[i].standard_normal((k, k))
                elif noisy:
                    for i in range(m):
                        noise_rngs[i].standard_normal((k, k))
            g = 2.0 * (dpt - dphi @ pred) @ pred.transpose(0, 2, 1)
            if config.gradient_mode == "full":
                g += 2.0 * (p_stack.transpose(0, 2, 1) @ (dphi @ pred)
                            - colw[:, :, None] * phi)
            delta = config.eta * g
        else:
            delta = np.empty_like(phi)
            for i in range(m):
                if inner:
                    pred_i = solve_predictor(phi[i], p_stack[i], d, config.loss_kind,
                                             config.epsilon, phi_target=t_mat[i])
                else:
                    pred_i = covariance_solve(phi[i].T @ dphi[i], phi[i].T @ dpt[i])
                    if noisy and config.sigma > 0:
                        pred_i = pred_i + config.sigma * noise_rngs[i].standard_normal((k, k))
                    elif noisy:
                        noise_rngs[i].standard_normal((k, k))
                _, gz = _pair_loss_grad(phi[i] @ pred_i, t_mat[i], dcol[0] * p_stack[i],
                                        config.loss_kind, config.epsilon)
                delta[i] = -config.eta * (gz @ pred_i.T)
        if beta is not None:
            tgt += (config.eta * beta) * (phi - tgt)
        phi += delta
        if guard:
            mx = np.abs(phi).max(axis=(1, 2))
            if tgt is not None:
                mx = np.maximum(mx, np.abs(tgt).max(axis=(1, 2)))
            big = mx > RESCALE_LIMIT
            if np.any(big):
                phi[big] *= 2.0 ** -RESCALE_EXP
                if tgt is not None:
                    tgt[big] *= 2.0 ** -RESCALE_EXP
                slog[big] += RESCALE_EXP
        if step % config.record_every == 0 or step == config.iters:
            _record_batch(records, float(step), phi, slog, c0, p_stack, norms)

    phi_final = _scaled(phi, slog[:, None, None])
    return records, phi_final


def run_discrete(phi0, tm: TransitionMatrix, d, config: DynamicsConfig, noise_rng=None):
    """Single-run wrapper around run_discrete_batch."""
    if not isinstance(tm, TransitionMatrix):
        raise InvalidInputError("run_discrete needs a TransitionMatrix")
    v0 = _check_rep(phi0, tm.n)
    rngs = [noise_rng] if noise_rng is not None else None
    records, final = run_discrete_batch(v0[None, :, :], tm, d, config, rngs)
    return records[0], final[0]
