"""Numerical extremal-ellipsoid solvers and the brute-force grid oracle.

``mvee_points``: minimum-volume ellipsoid around a point set, by first-order
ascent on the lifted dual (points (x, 1) in R^(n+1)) with away steps and a
closed-form step size, then a Newton polish on the support to certification
accuracy.

``mvie_polytope``: maximum-volume ellipsoid inside an H-polytope, by a
log-barrier method on (c, L) with Y = L L^T, followed by a Newton polish of
the full optimality system on the active facets.  The barrier Hessian is
assembled from whole-facet arrays.  Each centering stage stops once the
Newton decrement -grad.step falls below 1e-6, then t grows 25-fold until
m/t <= max(eps/100, 1e-10).

``grid_oracle_slab``: exhaustive search over axial ellipsoids of a slab or
truncated cone against sampled feasibility constraints; the independent
reference for the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certify import ContactCertificate, recover_multipliers
from .core import Ellipsoid, Polytope, chebyshev_center, polytope_is_bounded
from .errors import DegenerateInput, InvalidBody, Unconverged
from .slab import AxialEllipsoidParams, SlabSpec

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Newton decrement below which an MVIE centering stage ends; at large t the
# line search cannot resolve smaller decrements against phi ~ t log det L.
_CENTERING_TOL = 1e-6


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
    seen = {}
    for idx, row in enumerate(points):
        seen.setdefault(row.tobytes(), idx)
    keep = sorted(seen.values())
    return points[keep]


def _hull_candidates(points: np.ndarray) -> np.ndarray:
    # restricting to extreme points never changes the result
    if points.shape[0] <= points.shape[1] + 2:
        return points
    try:
        from scipy.spatial import ConvexHull

        vertices = np.sort(ConvexHull(points).vertices)
        return points[vertices]
    except Exception:
        return points


def _lifted_gram(pts_lifted: np.ndarray, w: np.ndarray) -> np.ndarray:
    return (pts_lifted.T * w) @ pts_lifted


def _newton_polish_weights(pts_lifted: np.ndarray, w: np.ndarray,
                           support_tol: float) -> np.ndarray:
    """Solve kappa_i(w) = n+1 on the support by damped Newton steps."""
    d = pts_lifted.shape[1]
    w = w.copy()
    for _ in range(60):
        support = np.flatnonzero(w > support_tol)
        q = pts_lifted[support]
        m = _lifted_gram(pts_lifted, w)
        try:
            minv_q = np.linalg.solve(m, q.T)
        except np.linalg.LinAlgError:
            break
        kappa = np.einsum("ij,ji->i", q, minv_q)
        resid = kappa - d
        if np.max(np.abs(resid)) < 1e-13 * d:
            break
        cross = q @ minv_q  # entries q_i^T M^-1 q_j
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
    cand = _hull_candidates(_dedup_rows(pts))
    m = cand.shape[0]
    d = n + 1
    lifted = np.hstack([cand, np.ones((m, 1))])

    w = np.full(m, 1.0 / m)
    converged = False
    gap = math.inf
    for _ in range(cfg.max_iter):
        gram = _lifted_gram(lifted, w)
        try:
            minv_qt = np.linalg.solve(gram, lifted.T)
        except np.linalg.LinAlgError as exc:
            raise DegenerateInput("weight iterate lost full rank") from exc
        kappa = np.einsum("ij,ji->i", lifted, minv_qt)
        j_fw = int(np.argmax(kappa))
        eps_fw = kappa[j_fw] / d - 1.0
        kappa_sup = np.where(w > 0.0, kappa, math.inf)
        j_aw = int(np.argmin(kappa_sup))
        eps_aw = 1.0 - kappa[j_aw] / d
        gap = max(eps_fw, eps_aw)
        if gap <= cfg.eps:
            converged = True
            break
        if eps_fw >= eps_aw:
            j = j_fw
            kj = kappa[j]
            sigma = (kj - d) / (d * (kj - 1.0))
        else:
            j = j_aw
            kj = kappa[j]
            sigma = (kj - d) / (d * (kj - 1.0))
            if w[j] < 1.0:
                sigma = max(sigma, -w[j] / (1.0 - w[j]))
        w *= 1.0 - sigma
        w[j] += sigma
        np.maximum(w, 0.0, out=w)
    if not converged:
        raise Unconverged(f"mvee gap {gap:.3e} after {cfg.max_iter} iterations",
                          gap=gap)

    w = _newton_polish_weights(lifted, w, support_tol=1e-9)
    center = w @ cand
    centered = cand - center
    cov = (centered.T * w) @ centered
    shape = np.linalg.inv(cov) / n
    shape = 0.5 * (shape + shape.T)
    ell = Ellipsoid(center, shape)

    lam = n * w
    keep = np.flatnonzero(lam > 1e-10)
    contacts = cand[keep]
    lam = lam[keep]
    if contacts.shape[0] > n * (n + 3) // 2:
        # rare over-long support: recover a basic multiplier set instead
        lam = recover_multipliers(ell, contacts)
        basic = lam > 1e-10
        contacts, lam = contacts[basic], lam[basic]
    cert = ContactCertificate(contacts, lam, "ce")
    return ell, cert


# ---------------------------------------------------------------------------
# MVIE of an H-polytope.

def _barrier_state(a_hat, b_hat, c, lower):
    g = a_hat @ lower  # row i holds L^T a_i
    s = np.linalg.norm(g, axis=1)
    r = b_hat - a_hat @ c - s
    return g, s, r


def _barrier_value(a_hat, b_hat, c, lower, t):
    diag = np.diag(lower)
    if np.any(diag <= 0.0):
        return math.inf
    _, _, r = _barrier_state(a_hat, b_hat, c, lower)
    if np.any(r <= 0.0):
        return math.inf
    return float(-t * np.log(diag).sum() - np.log(r).sum())


def _barrier_derivatives(a_hat, b_hat, c, lower, t):
    """Gradient and Hessian of the barrier over (c, packed lower(L)).

    With u_i = L^T a_i / s_i, the row dr_i = d r_i / d(c, L) is
    (-a_i, -a_i[rows] u_i[cols]), and s_i curves L by
    (a_i a_i^T) (x) (I - u_i u_i^T) / s_i on the packed entries.
    """
    n = c.shape[0]
    rows, cols = np.tril_indices(n)
    diag_idx = n + np.flatnonzero(rows == cols)
    g, s, r = _barrier_state(a_hat, b_hat, c, lower)
    u = g / s[:, None]
    inv_r = 1.0 / r
    a_rows = a_hat[:, rows]
    dr = np.hstack([-a_hat, -a_rows * u[:, cols]])
    grad = -(inv_r @ dr)
    grad[diag_idx] -= t / np.diag(lower)
    hess = (dr.T * inv_r ** 2) @ dr
    w = inv_r / s
    dr_l = dr[:, n:]
    same = cols[:, None] == cols[None, :]
    hess[n:, n:] += ((a_rows.T * w) @ a_rows) * same - (dr_l.T * w) @ dr_l
    hess[diag_idx, diag_idx] += t / np.diag(lower) ** 2
    return grad, hess


def _mvie_barrier(a_hat, b_hat, c0, l0, eps, max_iter):
    """Minimize -t log det L - sum_i log r_i over (c, L) along a path in t."""
    n = c0.shape[0]
    rows, cols = np.tril_indices(n)
    nvar = n + rows.shape[0]
    c = c0.copy()
    lower = l0.copy()
    m = a_hat.shape[0]
    t = 1.0
    total_steps = 0
    while True:
        for _ in range(100):
            total_steps += 1
            if total_steps > max_iter:
                raise Unconverged("mvie barrier exceeded iteration budget")
            grad, hess = _barrier_derivatives(a_hat, b_hat, c, lower, t)
            try:
                step = np.linalg.solve(hess + 1e-13 * np.eye(nvar), -grad)
            except np.linalg.LinAlgError:
                step, *_ = np.linalg.lstsq(hess, -grad, rcond=None)
            decrement = float(-grad @ step)
            if decrement <= _CENTERING_TOL:
                break
            phi0 = _barrier_value(a_hat, b_hat, c, lower, t)
            alpha = 1.0
            accepted = False
            for _ in range(60):
                c_try = c + alpha * step[:n]
                l_try = lower.copy()
                l_try[rows, cols] += alpha * step[n:]
                phi_try = _barrier_value(a_hat, b_hat, c_try, l_try, t)
                if phi_try <= phi0 - 0.25 * alpha * decrement:
                    accepted = True
                    break
                alpha *= 0.5
            if not accepted:
                break
            c = c_try
            lower = l_try
        if m / t <= max(eps * 1e-2, 1e-10):
            return c, lower, t
        t *= 25.0


def _mvie_polish(a_hat, b_hat, c, y, active):
    """Newton solve of the inscribed-ellipsoid optimality system.

    Unknowns are the symmetric Y = X^(-1), the center c, and one
    multiplier per active facet; equations are
    Y^(-1) = sum lambda_i a_i a_i^T / s_i^2, sum lambda_i a_i / s_i = 0,
    and activity a_i^T c + s_i = b_i with s_i = (a_i^T Y a_i)^(1/2).
    A facet whose multiplier turns negative is inactive; drop and re-solve.
    """
    n = c.shape[0]
    iu, ju = np.triu_indices(n)
    wvec = np.where(iu == ju, 1.0, math.sqrt(2.0))
    n_sym = iu.shape[0]
    # Y moves along B_pq = E_pq + E_qp (E_pp on the diagonal), so
    # a^T B_pq a = pair_pq a_p a_q and, with Z = Y^-1,
    # (Z B_pq Z)_ij = pair_pq (Z_ip Z_qj + Z_iq Z_pj) / 2
    pair = np.where(iu == ju, 1.0, 2.0)

    for _ in range(10):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            raise Unconverged("mvie polish lost all active facets")
        a_act = a_hat[idx]
        b_act = b_hat[idx]
        k = idx.size
        nvar = n_sym + n + k

        ya = a_act @ y
        s = np.sqrt(np.einsum("ij,ij->i", ya, a_act))
        y_inv = np.linalg.inv(y)
        cols_mat = (a_act[:, iu] * a_act[:, ju] / (s ** 2)[:, None]) * wvec
        lam, *_ = np.linalg.lstsq(cols_mat.T, y_inv[iu, ju] * wvec, rcond=None)
        lam = np.maximum(lam, 0.0)

        y_cur = y.copy()
        c_cur = c.copy()
        ok = False
        for _ in range(80):
            ya = a_act @ y_cur
            s = np.sqrt(np.einsum("ij,ij->i", ya, a_act))
            y_inv = np.linalg.inv(y_cur)
            r1 = y_inv - (a_act.T * (lam / s ** 2)) @ a_act
            r2 = (lam / s) @ a_act
            r3 = a_act @ c_cur + s - b_act
            resid = np.concatenate([r1[iu, ju] * wvec, r2, r3])
            if float(np.max(np.abs(resid))) < 1e-13:
                ok = True
                break

            jac = np.zeros((nvar, nvar))
            a_pair = a_act[:, iu] * a_act[:, ju]
            aba = a_pair * pair  # row i, column pq: a_i^T B_pq a_i
            zbz = (y_inv[np.ix_(iu, iu)] * y_inv[np.ix_(ju, ju)].T
                   + y_inv[np.ix_(iu, ju)] * y_inv[np.ix_(iu, ju)].T) * (0.5 * pair)
            d1 = -zbz + a_pair.T @ (aba * (lam / s ** 4)[:, None])
            jac[:n_sym, :n_sym] = d1 * wvec[:, None]
            jac[n_sym:n_sym + n, :n_sym] = -(a_act.T @ (aba * (lam / (2.0 * s ** 3))[:, None]))
            jac[n_sym + n:, :n_sym] = aba / (2.0 * s)[:, None]
            jac[n_sym + n:, n_sym:n_sym + n] = a_act
            jac[:n_sym, n_sym + n:] = -((a_pair / (s ** 2)[:, None]) * wvec).T
            jac[n_sym:n_sym + n, n_sym + n:] = (a_act / s[:, None]).T

            step, *_ = np.linalg.lstsq(jac, -resid, rcond=None)
            alpha = 1.0
            moved = False
            for _ in range(40):
                y_try = y_cur.copy()
                y_try[iu, ju] += alpha * step[:n_sym]
                y_try[ju, iu] = y_try[iu, ju]
                try:
                    np.linalg.cholesky(y_try)
                except np.linalg.LinAlgError:
                    alpha *= 0.5
                    continue
                moved = True
                break
            if not moved:
                break
            y_cur = y_try
            c_cur = c_cur + alpha * step[n_sym:n_sym + n]
            lam = lam + alpha * step[n_sym + n:]
        if not ok:
            raise Unconverged("mvie polish did not reach the optimality system")
        if np.any(lam < -1e-10):
            active = active.copy()
            active[idx[lam < -1e-10]] = False
            continue
        return c_cur, y_cur, idx, np.maximum(lam, 0.0)
    raise Unconverged("mvie polish failed to settle the active facet set")


def mvie_polytope(h: Polytope, cfg: SolverConfig = SolverConfig()):
    """Maximum-volume inscribed ellipsoid of a bounded H-polytope."""
    if h.is_vform:
        raise InvalidBody("mvie needs an H-form polytope")
    if not polytope_is_bounded(h):
        raise InvalidBody("polytope is unbounded")
    scale = np.linalg.norm(h.normals, axis=1)
    if np.any(scale == 0.0):
        raise InvalidBody("zero facet normal")
    a_hat = h.normals / scale[:, None]
    b_hat = h.offsets / scale
    c0, r0 = chebyshev_center(h)

    n = h.dim
    l0 = 0.5 * r0 * np.eye(n)
    c, lower, t = _mvie_barrier(a_hat, b_hat, c0, l0, cfg.eps, cfg.max_iter)
    y = lower @ lower.T

    _, _, r = _barrier_state(a_hat, b_hat, c, lower)
    active = r <= math.sqrt(1.0 / t)
    if not active.any():
        active = r <= r.min() * 10.0 + 1e-12
    c, y, idx, lam = _mvie_polish(a_hat, b_hat, c, y, active)

    shape = np.linalg.inv(y)
    shape = 0.5 * (shape + shape.T)
    ell = Ellipsoid(c, shape)
    ya = a_hat[idx] @ y
    s_act = np.sqrt(np.einsum("ij,ij->i", ya, a_hat[idx]))
    contacts = c + ya / s_act[:, None]
    keep = lam > 1e-10
    contacts, lam = contacts[keep], lam[keep]
    if contacts.shape[0] > n * (n + 3) // 2:
        # nearly parallel facets can all activate (tangency along a smooth
        # patch); NNLS picks a sparse multiplier vertex within John's bound
        lam = recover_multipliers(ell, contacts)
        keep = lam > 1e-10
        contacts, lam = contacts[keep], lam[keep]
    cert = ContactCertificate(contacts, lam, "ie")
    return ell, cert


# ---------------------------------------------------------------------------
# Grid oracle for slabs and cones.

def _golden_max_log(f, lo, hi, iters):
    """Vectorized golden-section max of f over [lo, hi], in log coordinates.

    ``f`` maps a positive vector to objective values; unimodality is
    preserved under the monotone reparameterization.
    """
    llo = np.log(lo)
    lhi = np.log(hi)
    for _ in range(iters):
        x1 = lhi - _GOLDEN * (lhi - llo)
        x2 = llo + _GOLDEN * (lhi - llo)
        f1 = f(np.exp(x1))
        f2 = f(np.exp(x2))
        take_low = f1 >= f2
        lhi = np.where(take_low, x2, lhi)
        llo = np.where(take_low, llo, x1)
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


def _tau_golden(eval_fn, lo: float, hi: float, iters: int):
    for _ in range(iters):
        t1 = hi - _GOLDEN * (hi - lo)
        t2 = lo + _GOLDEN * (hi - lo)
        f12 = eval_fn(np.array([t1, t2]))[2]
        if f12[0] >= f12[1]:
            hi = t2
        else:
            lo = t1
    return 0.5 * (lo + hi)


def grid_oracle_slab(s: SlabSpec, problem: str, resolution: int = 512
                     ) -> AxialEllipsoidParams:
    """Brute-force axial-ellipsoid search used as an independent reference.

    ``problem`` is "CE", "IE", or "CONE".  The feasibility sample along the
    axial coordinate uses ``resolution`` points (endpoints included); the
    best tau cell is then narrowed by golden section, with the inner (a, b)
    subproblem solved per tau by a golden section over one coefficient and
    the other given in closed form against the sampled constraints.  The
    cone variant checks feasibility on the two rim circles only.
    """
    problem = problem.upper()
    if problem not in ("CE", "IE", "CONE"):
        raise ValueError(f"problem must be CE, IE or CONE, got {problem!r}")
    if resolution < 64:
        raise ValueError("resolution must be at least 64")
    n = s.n
    alpha, beta = s.alpha, s.beta
    margin = 1e-9 * (beta - alpha)
    # tau only needs bracketing before golden section takes over, so the
    # tau grid is capped; the feasibility sample uses the full resolution
    tau_grid = np.linspace(alpha + margin, beta - margin,
                           min(resolution, 128))
    cells = tau_grid.shape[0]
    cell = tau_grid[1] - tau_grid[0]

    if problem in ("CE", "CONE"):
        sample = (np.linspace(alpha, beta, resolution) if problem == "CE"
                  else np.array([alpha, beta]))
        inner = lambda tau, smp, iters: _ce_inner(tau, smp, n, iters)
    else:
        sample = np.linspace(-1.0, 1.0, resolution)
        inner = lambda tau, smp, iters: _ie_inner(tau, smp, alpha, beta,
                                                  n, iters)

    _, _, f_grid = inner(tau_grid, sample, 26)
    best = int(np.argmax(f_grid))
    lo = tau_grid[max(best - 1, 0)]
    hi = tau_grid[min(best + 1, cells - 1)]
    tau = _tau_golden(lambda t: inner(t, sample, 70), lo, hi, 28)
    a_val, b_val, _ = (float(x[0]) for x in inner(np.array([tau]),
                                                  sample, 75))

    # interior contacts can fall between samples; separate and re-solve
    rounds = 4 if problem == "IE" else 3
    for _ in range(rounds):
        worst = _worst_sample(problem, tau, a_val, b_val, alpha, beta)
        if worst is None or np.min(np.abs(sample - worst)) < 1e-10:
            break
        sample = np.sort(np.append(sample, worst))
        radius = max(1e-3 * (beta - alpha), 1e-4)
        tau = _tau_golden(lambda t: inner(t, sample, 70),
                          tau - radius, tau + radius, 18)
        a_val, b_val, _ = (float(x[0]) for x in inner(np.array([tau]),
                                                      sample, 75))
    form = "axes" if problem == "IE" else "shape"
    return AxialEllipsoidParams(float(tau), a_val, b_val, n, form, "oracle")


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
