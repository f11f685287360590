"""Numerical extremal-ellipsoid solvers and the brute-force grid oracle.

``mvee_points``: minimum-volume ellipsoid around a point set, by first-order
ascent on the lifted dual (q_i = (x_i, 1), weights w) over all the points,
with no hull prefilter: Frank-Wolfe and away steps of closed-form size,
each updating M(w)^-1 and kappa_i = q_i^T M^-1 q_i by Sherman-Morrison in
O(mn).  Only kappa recomputed from w may end the loop; a Newton polish on
the support then reaches certification accuracy.

``mvie_polytope``: maximum-volume ellipsoid {c + L u : |u| <= 1} inside an
H-polytope, by one primal-dual Newton method on (c, L, lambda) over all
facets: minimize -log det L subject to r_i = b_i - a_i^T c - |L^T a_i| >= 0
with lambda_i r_i driven to mu.  mu falls tenfold whenever the iterate is
centred; the method stops once lambda^T r <= 1e-12 n and the dual
residual is below 1e-9 of |grad log det L| or stops falling.  The
multipliers lambda_i |L^T a_i| at the tangency points are the Fritz John
certificate, which is checked before the result is returned.

``grid_oracle_slab``: exhaustive search over axial ellipsoids of a slab or
truncated cone against sampled feasibility constraints; the independent
reference for the closed forms.  The center tau is found by one zooming
grid, 17 values of tau per step narrowed to the neighbours of the best;
per tau, the inner (a, b) problem is a golden section of 70 steps that
evaluates its objective once per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certify import fritz_john_residuals, pruned_certificate
from .core import Ellipsoid, Polytope, chebyshev_center, polytope_is_bounded
from .errors import DegenerateInput, InvalidBody, Unconverged
from .slab import AxialEllipsoidParams, SlabSpec

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# grid oracle: tau values per zoom step, and golden-section steps of the
# inner (a, b) search, about 1e-13 relative over its log bracket
_ZOOM_POINTS = 17
_INNER_STEPS = 70
# MVIE Newton steps before Unconverged; seeded test and benchmark bodies
# (n <= 12, m <= 150) take at most 30
_NEWTON_BUDGET = 200
# MVEE weights above this are the support of the Newton polish
_SUPPORT_TOL = 1e-9


@dataclass(frozen=True)
class SolverConfig:
    eps: float = 1e-7
    max_iter: int = 100_000

    def __post_init__(self):
        if not self.eps > 0.0:
            raise ValueError("eps must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


# ---------------------------------------------------------------------------
# MVEE of a point set.

def _affinely_spanning(points: np.ndarray) -> bool:
    centered = points - points[0]
    return np.linalg.matrix_rank(centered, tol=1e-10) == points.shape[1]


def _dedup_rows(points: np.ndarray) -> np.ndarray:
    # first occurrences, in input order
    _, first = np.unique(points, axis=0, return_index=True)
    return points[np.sort(first)]


def _inverse_design(lifted: np.ndarray, w: np.ndarray):
    """M(w)^-1 and kappa_i = q_i^T M(w)^-1 q_i for M(w) = sum_i w_i q_i q_i^T."""
    try:
        minv = np.linalg.inv((lifted.T * w) @ lifted)
    except np.linalg.LinAlgError as exc:
        raise DegenerateInput("weight iterate lost full rank") from exc
    return minv, np.einsum("ij,jk,ik->i", lifted, minv, lifted, optimize=True)


def _start_weights(points: np.ndarray, lifted: np.ndarray) -> np.ndarray:
    """Uniform weights on all points (optimal on a group orbit) or on the
    per-axis extreme points (a Kumar-Yildirim core set, which spares a cloud
    an away step per interior point), whichever has the larger log det M."""
    m = points.shape[0]
    extremes = np.unique(np.concatenate([points.argmin(0), points.argmax(0)]))
    starts = [np.full(m, 1.0 / m), np.zeros(m)]
    starts[1][extremes] = 1.0 / extremes.size
    return max(starts,
               key=lambda w: np.linalg.slogdet((lifted.T * w) @ lifted)[1])


def _step(kappa: np.ndarray, w: np.ndarray, d: int):
    """(gap, j): the larger of the Frank-Wolfe gap kappa_max/d - 1 and the
    away gap 1 - kappa_min/d over the support, and the point it names."""
    j_fw = int(np.argmax(kappa))
    j_aw = int(np.argmin(np.where(w > 0.0, kappa, math.inf)))
    eps_fw = kappa[j_fw] / d - 1.0
    eps_aw = 1.0 - kappa[j_aw] / d
    return (eps_fw, j_fw) if eps_fw >= eps_aw else (eps_aw, j_aw)


def _newton_polish_weights(pts_lifted: np.ndarray,
                           w: np.ndarray) -> np.ndarray:
    """Solve kappa_i(w) = n+1 on the support by damped Newton steps."""
    d = pts_lifted.shape[1]
    w = w.copy()
    for _ in range(60):
        support = np.flatnonzero(w > _SUPPORT_TOL)
        q = pts_lifted[support]
        try:
            minv, kappa = _inverse_design(q, w[support])
        except DegenerateInput:
            break
        resid = kappa - d
        if np.max(np.abs(resid)) < 1e-13 * d:
            break
        cross = q @ minv @ q.T  # entries q_i^T M^-1 q_j
        jac = -cross ** 2
        step, *_ = np.linalg.lstsq(jac, -resid, rcond=None)
        w_sup = w[support]
        scale = 1.0
        neg = step < 0.0
        if neg.any():
            worst = float(np.min(w_sup[neg] / -step[neg]))
            scale = min(1.0, 0.95 * worst) if worst < 1.0 else 1.0
        w = np.zeros_like(w)
        w[support] = np.maximum(w_sup + scale * step, 0.0)
    total = w.sum()
    return w / total if total > 0.0 else w


def mvee_points(points, cfg: SolverConfig = SolverConfig()):
    """Minimum-volume circumscribed ellipsoid of a finite point set.

    Returns ``(ellipsoid, certificate)``; the multipliers are n times the
    optimal dual weights, which satisfy the Fritz John system exactly at
    the optimum.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[1]
    if pts.shape[0] < n + 1 or not _affinely_spanning(pts):
        raise DegenerateInput("points must affinely span the ambient space")
    pts = _dedup_rows(pts)
    d = n + 1
    lifted = np.hstack([pts, np.ones((pts.shape[0], 1))])

    w = _start_weights(pts, lifted)
    minv, kappa = _inverse_design(lifted, w)
    for _ in range(cfg.max_iter):
        gap, j = _step(kappa, w, d)
        if gap <= cfg.eps:
            # the updated kappa drifts; only kappa recomputed from w may stop
            minv, kappa = _inverse_design(lifted, w)
            gap, j = _step(kappa, w, d)
            if gap <= cfg.eps:
                break
        # maximize log det((1 - sigma) M + sigma q_j q_j^T), down to dropping
        # q_j; log det only rises towards the drop when kappa_j <= 1
        kj = kappa[j]
        drop = -w[j] / (1.0 - w[j])
        sigma = drop if kj <= 1.0 else max((kj - d) / (d * (kj - 1.0)), drop)
        # Sherman-Morrison for M <- (1 - sigma) M + sigma q_j q_j^T
        v = minv @ lifted[j]
        denom = 1.0 - sigma + sigma * kj
        minv = (minv - (sigma / denom) * np.outer(v, v)) / (1.0 - sigma)
        kappa = (kappa - (sigma / denom) * (lifted @ v) ** 2) / (1.0 - sigma)
        w *= 1.0 - sigma
        w[j] = 0.0 if sigma == drop else w[j] + sigma
    else:
        raise Unconverged(f"mvee gap {gap:.3e} after {cfg.max_iter} iterations",
                          gap=gap)

    w = _newton_polish_weights(lifted, w)
    center = w @ pts
    centered = pts - center
    cov = (centered.T * w) @ centered
    shape = np.linalg.inv(cov) / n
    ell = Ellipsoid(center, 0.5 * (shape + shape.T))
    return ell, pruned_certificate(ell, pts, n * w, "ce")


# ---------------------------------------------------------------------------
# MVIE of an H-polytope.

def _barrier_value(a_hat, b_hat, c, lower, t):
    diag = np.diag(lower)
    if np.any(diag <= 0.0):
        return math.inf
    r = b_hat - a_hat @ c - np.linalg.norm(a_hat @ lower, axis=1)
    if np.any(r <= 0.0):
        return math.inf
    return float(-t * np.log(diag).sum() - np.log(r).sum())


def _newton_system(a_hat, b_hat, c, lower, lam):
    """The primal-dual Newton system over (c, packed lower(L)).

    Returns the gradient of f = -log det L, the slacks
    r_i = b_i - a_i^T c - s_i with s_i = |L^T a_i|, their Jacobian dr, and
    the matrix grad^2 f + sum_i lam_i grad^2 s_i + dr^T diag(lam/r) dr.
    With u_i = L^T a_i / s_i, the row dr_i is (-a_i, -a_i[rows] u_i[cols]),
    and s_i curves L by (a_i a_i^T) (x) (I - u_i u_i^T) / s_i on the packed
    entries.  At lam = mu/r the matrix is mu times the Hessian of the
    barrier value at t = 1/mu.
    """
    n = c.shape[0]
    rows, cols = np.tril_indices(n)
    diag_idx = n + np.flatnonzero(rows == cols)
    g = a_hat @ lower  # row i holds L^T a_i
    s = np.linalg.norm(g, axis=1)
    r = b_hat - a_hat @ c - s
    u = g / s[:, None]
    a_rows = a_hat[:, rows]
    dr = np.hstack([-a_hat, -a_rows * u[:, cols]])
    grad_f = np.zeros(dr.shape[1])
    grad_f[diag_idx] = -1.0 / np.diag(lower)
    matrix = (dr.T * (lam / r)) @ dr
    w = lam / s
    dr_l = dr[:, n:]
    same = cols[:, None] == cols[None, :]
    matrix[n:, n:] += ((a_rows.T * w) @ a_rows) * same - (dr_l.T * w) @ dr_l
    matrix[diag_idx, diag_idx] += grad_f[diag_idx] ** 2
    return grad_f, r, dr, matrix


def _mvie_newton(a_hat, b_hat, max_iter):
    """Minimize -log det L subject to r_i(c, L) >= 0 from c = 0, L = I/2.

    One primal-dual Newton step per iteration: the (c, L) step is
    backtracked by Armijo on the barrier value at t = 1/mu, and the
    multipliers take their own step, kept 1% off zero.  mu falls tenfold
    once the iterate is centred (every lam_i r_i / mu in [1/2, 2] and the
    dual residual grad f - dr^T lam at most |grad f| / 2).  The loop stops
    at lam^T r <= 1e-12 n once the dual residual is below 1e-9 |grad f| or
    stops falling.
    """
    n = a_hat.shape[1]
    rows, cols = np.tril_indices(n)
    c = np.zeros(n)
    lower = 0.5 * np.eye(n)
    mu = 1.0
    lam = mu / (b_hat - 0.5)  # unit normals: every s_i is 1/2
    prev = math.inf
    for _ in range(max_iter):
        grad_f, r, dr, matrix = _newton_system(a_hat, b_hat, c, lower, lam)
        dual = float(np.linalg.norm(grad_f - dr.T @ lam))
        size = float(np.linalg.norm(grad_f))
        if lam @ r <= 1e-12 * n and (dual <= 1e-9 * size or dual >= prev):
            return c, lower, lam
        prev = dual
        ratio = lam * r / mu
        if ratio.min() >= 0.5 and ratio.max() <= 2.0 and dual <= 0.5 * size:
            mu *= 0.1
        rhs = dr.T @ (mu / r) - grad_f
        step = np.linalg.solve(matrix, rhs)
        dlam = mu / r - lam - lam / r * (dr @ step)

        t = 1.0 / mu
        phi = _barrier_value(a_hat, b_hat, c, lower, t)
        decrease = 0.25 * t * float(rhs @ step)
        alpha = 1.0
        for _ in range(60):
            c_try = c + alpha * step[:n]
            l_try = lower.copy()
            l_try[rows, cols] += alpha * step[n:]
            if (_barrier_value(a_hat, b_hat, c_try, l_try, t)
                    <= phi - alpha * decrease):
                c, lower = c_try, l_try
                break
            alpha *= 0.5
        falling = dlam < 0.0
        beta = min(1.0, 0.99 * float(np.min(lam[falling] / -dlam[falling],
                                            initial=math.inf)))
        lam = lam + beta * dlam
    raise Unconverged("mvie Newton method exceeded its step budget")


def mvie_polytope(h: Polytope, cfg: SolverConfig = SolverConfig()):
    """Maximum-volume inscribed ellipsoid of a bounded H-polytope.

    Solved in the frame where the Dikin ellipsoid at the Chebyshev center
    is the unit ball: there the body is round, so the slacks and the Newton
    system keep their precision on thin bodies.  The multipliers lam_i s_i
    of the facets' tangency points are the Fritz John certificate, since
    stationarity in L reads sum_i lam_i a_i a_i^T / s_i = Y^(-1).
    """
    if h.is_vform:
        raise InvalidBody("mvie needs an H-form polytope")
    if not polytope_is_bounded(h):
        raise InvalidBody("polytope is unbounded")
    scale = np.linalg.norm(h.normals, axis=1)
    if np.any(scale == 0.0):
        raise InvalidBody("zero facet normal")
    a_hat = h.normals / scale[:, None]
    b_hat = h.offsets / scale
    c0, _ = chebyshev_center(h)
    slack = b_hat - a_hat @ c0

    frame = np.linalg.cholesky(np.linalg.inv((a_hat.T / slack ** 2) @ a_hat))
    a_frame = a_hat @ frame
    norms = np.linalg.norm(a_frame, axis=1)
    a_frame /= norms[:, None]
    c, lower, lam = _mvie_newton(a_frame, slack / norms,
                                 min(cfg.max_iter, _NEWTON_BUDGET))

    g = a_frame @ lower
    s = np.linalg.norm(g, axis=1)
    lam = lam * s
    contacts = c0 + (c + (g / s[:, None]) @ lower.T) @ frame.T
    ell = Ellipsoid.from_factor(c0 + frame @ c, frame @ lower)
    # the residuals are read in the frame of the factor frame @ lower, the
    # solver's own, where they keep their precision however thin the body
    if max(fritz_john_residuals(ell, contacts, lam).values()) > 1e-8:
        raise Unconverged("mvie stopped short of the Fritz John system")
    return ell, pruned_certificate(ell, contacts, lam, "ie")


# ---------------------------------------------------------------------------
# Grid oracle for slabs and cones.

def _golden_max_log(f, lo, hi, iters):
    """Vectorized golden-section max of f over [lo, hi], in log coordinates.

    ``f`` maps a positive vector to objective values; unimodality is
    preserved under the monotone reparameterization.  Each step keeps one
    interior point and its value, so it evaluates ``f`` once (Kiefer 1953):
    ``iters + 3`` evaluations in all.
    """
    llo = np.log(lo)
    lhi = np.log(hi)
    x1 = lhi - _GOLDEN * (lhi - llo)
    x2 = llo + _GOLDEN * (lhi - llo)
    f1 = f(np.exp(x1))
    f2 = f(np.exp(x2))
    for _ in range(iters):
        low = f1 >= f2
        llo = np.where(low, llo, x1)
        lhi = np.where(low, x2, lhi)
        new = np.where(low, lhi - _GOLDEN * (lhi - llo),
                       llo + _GOLDEN * (lhi - llo))
        f_new = f(np.exp(new))
        x1, x2 = np.where(low, new, x2), np.where(low, x1, new)
        f1, f2 = np.where(low, f_new, f2), np.where(low, f1, f_new)
    mid = np.exp(0.5 * (llo + lhi))
    return mid, f(mid)


def _ce_inner(tau, y, n, iters):
    """Best (a, b) and objective per tau against sampled CE constraints.

    Constraints a (y_j - tau)^2 + b (1 - y_j^2) <= 1 are linear in (a, b);
    for fixed b the best a is a closed-form min over rows, and the profile
    in b is log-concave, so a golden section over b is exact.
    """
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    p = (y[None, :] - tau[:, None]) ** 2
    q = np.maximum(1.0 - y ** 2, 0.0)[None, :]
    p_ok = p > 1e-30
    q_ok = q > 1e-30
    with np.errstate(divide="ignore"):
        b_upper = np.min(np.where(q_ok, 1.0 / q, np.inf), axis=1)
    b_upper = np.minimum(b_upper, 1e12) * (1.0 - 1e-12)

    def best_a(b):
        rhs = 1.0 - b[:, None] * q
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(p_ok, rhs / p, np.inf)
        return np.min(ratio, axis=1)

    def value(b):
        a = best_a(b)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(a > 0.0,
                            np.log(np.maximum(a, 1e-300)) + (n - 1) * np.log(b),
                            -np.inf)

    lo = np.full(tau.shape, 1e-9)
    b_best, f_best = _golden_max_log(value, lo, b_upper, iters)
    return best_a(b_best), b_best, f_best


def _ie_inner(tau, v, alpha, beta, n, iters):
    """Best semi-axes (a, b) per tau against sampled IE ball constraints.

    For fixed a the transverse semi-axis satisfies
    b^2 <= ((1 - (tau + a v_j)^2)/(1 - v_j^2)) per sample; the profile in a
    is log-concave.
    """
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    q = np.maximum(1.0 - v ** 2, 0.0)[None, :]
    q_ok = q > 1e-30
    a_cap = np.minimum(tau - alpha, beta - tau) * (1.0 - 1e-12)

    def best_b2(a):
        x1 = tau[:, None] + a[:, None] * v[None, :]
        num = 1.0 - x1 ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(q_ok, num / q, np.inf)
        return np.min(ratio, axis=1)

    def value(a):
        b2 = best_b2(a)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(b2 > 0.0,
                            np.log(a) + 0.5 * (n - 1)
                            * np.log(np.maximum(b2, 1e-300)),
                            -np.inf)

    lo = np.full(tau.shape, 1e-12)
    hi = np.maximum(a_cap, 2e-12)
    a_best, f_best = _golden_max_log(value, lo, hi, iters)
    return a_best, np.sqrt(np.maximum(best_b2(a_best), 0.0)), f_best


def _zoom_tau(inner, sample, lo, hi, width):
    """(tau, a, b) at the best of _ZOOM_POINTS tau values on [lo, hi], each
    step narrowing [lo, hi] to the neighbours of the best until it is at most
    ``width`` wide.  The step count is fixed up front, since a bracket a few
    ulps wide stops shrinking."""
    shrink = (_ZOOM_POINTS - 1) / 2
    for _ in range(max(1, math.ceil(math.log((hi - lo) / width, shrink)))):
        taus = np.linspace(lo, hi, _ZOOM_POINTS)
        a, b, f = inner(taus, sample)
        k = int(np.argmax(f))
        lo, hi = taus[max(k - 1, 0)], taus[min(k + 1, _ZOOM_POINTS - 1)]
    return float(taus[k]), float(a[k]), float(b[k])


def grid_oracle_slab(s: SlabSpec, problem: str, resolution: int = 512
                     ) -> AxialEllipsoidParams:
    """Brute-force axial-ellipsoid search used as an independent reference.

    ``problem`` is "CE", "IE", or "CONE".  The feasibility sample along the
    axial coordinate uses ``resolution`` points (endpoints included).  The
    center tau is found by a zooming grid: 17 values of tau at a time,
    narrowed to the neighbours of the best until the bracket is
    2e-8 (beta - alpha) wide.  Per tau, the inner (a, b) subproblem is
    solved by a golden section of 70 steps over one coefficient, with the
    other given in closed form against the sampled constraints.
    When a contact falls between samples, it is added to the sample and tau
    is searched again near the last one.  The cone variant checks
    feasibility on the two rim circles only.
    """
    problem = problem.upper()
    if problem not in ("CE", "IE", "CONE"):
        raise ValueError(f"problem must be CE, IE or CONE, got {problem!r}")
    if resolution < 64:
        raise ValueError("resolution must be at least 64")
    n = s.n
    alpha, beta = s.alpha, s.beta
    if problem in ("CE", "CONE"):
        sample = (np.linspace(alpha, beta, resolution) if problem == "CE"
                  else np.array([alpha, beta]))
        inner = lambda tau, smp: _ce_inner(tau, smp, n, _INNER_STEPS)
    else:
        sample = np.linspace(-1.0, 1.0, resolution)
        inner = lambda tau, smp: _ie_inner(tau, smp, alpha, beta, n,
                                           _INNER_STEPS)

    margin = 1e-9 * (beta - alpha)
    lo, hi = alpha + margin, beta - margin
    width = 2e-8 * (beta - alpha)
    radius = max(1e-3 * (beta - alpha), 1e-4)
    # interior contacts can fall between samples: a pass that finds one
    # adds it to the sample, and the next pass searches near the last tau
    rounds = 4 if problem == "IE" else 3
    for _ in range(rounds + 1):
        tau, a_val, b_val = _zoom_tau(inner, sample, lo, hi, width)
        worst = _worst_sample(problem, tau, a_val, b_val, alpha, beta)
        if worst is None or np.min(np.abs(sample - worst)) < 1e-10:
            break
        sample = np.sort(np.append(sample, worst))
        lo, hi = tau - radius, tau + radius
    form = "axes" if problem == "IE" else "shape"
    return AxialEllipsoidParams(tau, a_val, b_val, n, form, "oracle")


def _worst_sample(problem, tau, a, b, alpha, beta):
    """Location of the binding constraint for the current iterate, if it is
    interior to the sampled interval; endpoints are always sampled."""
    if problem == "CONE":
        return None
    if problem == "CE":
        # h(y) = a (y - tau)^2 + b (1 - y^2) peaks inside only when a < b
        if a >= b:
            return None
        vertex = a * tau / (a - b)
        return float(np.clip(vertex, alpha, beta))
    # IE: |x|^2 along the ellipse peaks inside only when b > a
    if b <= a:
        return None
    vertex = a * tau / (b * b - a * a)
    if abs(vertex) >= 1.0:
        return None
    return float(vertex)
