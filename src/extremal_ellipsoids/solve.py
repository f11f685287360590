"""Numerical extremal-ellipsoid solvers and the brute-force grid oracle.

``mvee_points``: minimum-volume ellipsoid around a point set, by first-order
ascent on the lifted dual (q_i = (x_i, 1), weights w) over all the points,
with no hull prefilter: Frank-Wolfe and away steps of closed-form size,
each updating M(w)^-1 and kappa_i = q_i^T M^-1 q_i by Sherman-Morrison in
O(mn).  The support (w > 0) is kept as an index array, rebuilt only when a
point enters or leaves, and the away step reads kappa on it alone.  A
Newton polish on the support runs from one place: once the support has
stayed unchanged for as many steps as it has points with the gap at most
0.1, unless it has been polished already, and in any case once the gap
reaches 1e-3, lowered to a tenth of the exact gap any polish left.  The
gap is then read from kappa recomputed from w, the only gap that may end
the loop, at n/(n+1) CERT_TOL, where certify_ce's feasibility passes;
otherwise the first-order steps resume until the budget runs out.  Each
Newton step is the min-norm solution for the s x D matrix Phi of lifted
outer products, D = (n+1)(n+2)/2, read from the smaller of its two Gram
matrices, so no s x s matrix is formed when s > D.  A step that would take
a weight below zero goes as far as the first such weight, and that point
leaves.  The polish gives up once a step cuts the residual
max |kappa_i - d| by less than 4x, since on the optimal support it
converges quadratically, and stops at the rounding floor of kappa, so an
optimal support such as a group orbit takes no step.

``mvie_polytope``: maximum-volume ellipsoid {c + L u : |u| <= 1} inside an
H-polytope, with no LP when it certifies.  Infeasible-start Newton steps
from the origin find the analytic center, and the frame where the Dikin
ellipsoid there is the unit ball.  In it, one primal-dual Newton method on
(c, L, lambda) over all facets minimizes -log det L subject to
r_i = b_i - a_i^T c - |L^T a_i| >= 0 with lambda_i r_i driven to mu.  Each
step costs one product, the m x D x D one of the weighted Jacobian of r
with itself over D = n + n(n+1)/2 unknowns (the curvature of |L^T a_i|
adds an m x n x n one), and a Cholesky solve; its slacks are those of the
line search's accepted trial.  mu falls tenfold whenever the iterate is
centred; the method stops once lambda^T r <= 1e-12 n and the dual
residual is below 1e-9 of |grad log det L| or stops falling.  The
multipliers lambda_i |L^T a_i| at the tangency points are the Fritz John
certificate, checked over all facets before the result is returned; it
also proves the body bounded, so LPs run only after a failed solve, to
tell an unbounded or empty body from one the solver could not finish.

``grid_oracle_slab``: exhaustive search over axial ellipsoids of a slab or
truncated cone against sampled feasibility constraints; the independent
reference for the closed forms.  The center tau is found by one zooming
grid, 17 values of tau per step narrowed to the neighbours of the best,
whose two ends are the neighbours already solved, so a later step solves 15.
Per tau, the inner (a, b) problem is linear in the coefficients, and it is
solved exactly through its two-variable Lagrange dual, a maximum over the
hull of m points on a parabola: one O(m) pass over the hull edges, written
into buffers allocated once per zoom pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certify import CERT_TOL, fritz_john_residuals, pruned_certificate
from .core import (Ellipsoid, Polytope, bounded_by_normals, chebyshev_center,
                   facet_norms, finite_points)
from .errors import DegenerateInput, InvalidBody, InvalidEllipsoid, Unconverged
from .slab import AxialEllipsoidParams, SlabSpec

# grid oracle: tau values per zoom step; each step after the first solves
# only the 15 interior ones, the two ends carried over from the last step
_ZOOM_POINTS = 17
# grid oracle: the most samples it takes; each of the six buffers of a zoom
# pass then holds 17 x 65 536 doubles, 8.9 MB
_MAX_RESOLUTION = 65_536
# MVIE Newton steps before Unconverged; the 14 benchmark bodies (n <= 12,
# m <= 150) take 15-29 and 400 affine images of box cuts 16-28, counted
# again after the Cholesky solve replaced LU (two bodies took one fewer)
_NEWTON_BUDGET = 200
# analytic-center steps before a failed solve; the same bodies take 2-6 and
# 2-13, and moving a body 1e4 or 1e8 away from the origin adds about 10 or 20
_CENTER_BUDGET = 100
# MVEE weights above this are the support of the Newton polish
_SUPPORT_TOL = 1e-9
# MVEE: a support unchanged for as many first-order steps as it has points
# is polished once the gap is at most _SETTLED_GAP; whatever the support,
# the gap _POLISH_GAP triggers a polish, lowered to _POLISH_AGAIN times the
# exact gap that any polish left
_SETTLED_GAP = 0.1
_POLISH_GAP = 1e-3
_POLISH_AGAIN = 0.1
# MVEE polish: it gives up once a Newton step cuts max |kappa_i - d| by
# less than this factor, since on the optimal support the steps converge
# quadratically
_POLISH_RATE = 4.0
# MVEE polish stop: max |kappa_i - d| at most this times cond(M) d sqrt(s)
# over a support of s points, ten machine epsilons, the rounding floor of
# kappa and of the s-term sum in M
_KAPPA_FLOOR = 10.0 * float(np.finfo(float).eps)
_NORMAL_MIN = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class SolverConfig:
    """``max_iter``: the step budget; ``mvee_points`` counts first-order
    steps, not its polish's, and ``mvie_polytope`` Newton steps, capped at
    200.  No tolerance is set: mvie checks its Fritz John residuals at
    CERT_TOL; mvee stops where certify_ce's feasibility passes in exact
    arithmetic, and its weights' ellipsoid solves the other equations."""

    max_iter: int = 100_000

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


# ---------------------------------------------------------------------------
# MVEE of a point set.

def _affinely_spanning(points: np.ndarray) -> bool:
    """Rank test of the differences, at 1e-10 of their largest entry."""
    centered = points - points[0]
    return np.linalg.matrix_rank(
        centered, tol=1e-10 * np.abs(centered).max()) == points.shape[1]


def _dedup_rows(points: np.ndarray) -> np.ndarray:
    """The distinct rows, first occurrences in input order, with -0.0 and
    0.0 one value.  Rows are distinct when their first entries are, which
    a sort of that column tells; otherwise one stable lexsort puts equal
    rows next to each other, and a compare of adjacent rows finds them."""
    column = np.sort(points[:, 0])
    if not (column[1:] == column[:-1]).any():
        return points
    order = np.lexsort(points.T[::-1])
    ranked = points[order]
    first = np.ones(order.size, dtype=bool)
    np.any(ranked[1:] != ranked[:-1], axis=1, out=first[1:])
    return points[np.sort(order[first])]


def _inverse_design(lifted: np.ndarray, w: np.ndarray, support: np.ndarray):
    """M(w)^-1 and kappa_i = q_i^T M(w)^-1 q_i, over every row q_i of
    ``lifted``, for M(w) = sum_i w_i q_i q_i^T summed over ``support``."""
    q = lifted[support]
    try:
        minv = np.linalg.inv((q.T * w[support]) @ q)
    except np.linalg.LinAlgError as exc:
        raise DegenerateInput("weight iterate lost full rank") from exc
    return minv, np.einsum("ij,ij->i", lifted @ minv, lifted)


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


def _step(kappa: np.ndarray, support: np.ndarray, d: int):
    """(gap, j): the larger of the Frank-Wolfe gap kappa_max/d - 1 and the
    away gap 1 - kappa_min/d over the support, and the point it names."""
    j_fw = int(np.argmax(kappa))
    j_aw = int(support[np.argmin(kappa[support])])
    eps_fw = kappa[j_fw] / d - 1.0
    eps_aw = 1.0 - kappa[j_aw] / d
    return (eps_fw, j_fw) if eps_fw >= eps_aw else (eps_aw, j_aw)


def _polish_step(y: np.ndarray, resid: np.ndarray) -> np.ndarray:
    """The min-norm solution of (Phi Phi^T) step = resid, for the s x D
    matrix Phi whose row i is svec(y_i y_i^T), sqrt(2) on the off-diagonal
    entries, D = d(d+1)/2, keeping the eigenvalues above eps s times the
    largest.  Phi Phi^T is (Y Y^T)^2 entrywise; when s > D the step is read
    from the D x D matrix Phi^T Phi = V Lambda V^T instead, as
    Phi V Lambda^-2 V^T Phi^T resid, so no s x s matrix is formed."""
    s, d = y.shape
    if s <= d * (d + 1) // 2:
        gram = y @ y.T
        lam, u = np.linalg.eigh(np.square(gram, out=gram))
        keep = lam > np.finfo(float).eps * s * lam[-1]
        return u[:, keep] @ ((resid @ u[:, keep]) / lam[keep])
    rows, cols = np.triu_indices(d)
    phi = y[:, rows] * y[:, cols] * np.where(rows == cols, 1.0, math.sqrt(2.0))
    lam, v = np.linalg.eigh(phi.T @ phi)
    keep = lam > np.finfo(float).eps * s * lam[-1]
    v = v[:, keep]
    return phi @ (v @ ((resid @ phi @ v) / lam[keep] ** 2))


def _newton_polish_weights(q: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Solve kappa_i(w) = d on the rows q_i of ``q`` by Newton steps.

    Only the points with weight above _SUPPORT_TOL take part.  With
    M = V diag(lam) V^T and y_i = diag(lam)^-1/2 V^T q_i, kappa_i is
    |y_i|^2 and the Jacobian entry -(q_i^T M^-1 q_j)^2 is -phi_i . phi_j
    for phi_i = svec(y_i y_i^T); each step is _polish_step's min-norm
    solution.  A step that would take weights below zero goes as far as the
    first of them, and that point leaves.  On the optimal support the steps
    converge quadratically, so the polish gives up as soon as a full step
    cuts the residual max |kappa_i - d| by less than _POLISH_RATE, or the
    residual does not fall at all, and the first-order loop takes over.  It
    also stops once the residual is at most 10 eps cond(M) d sqrt(s), the
    rounding floor of kappa over an s-term sum, so an optimal support such
    as a group orbit takes no step.  The weights with the smallest residual
    are returned, scaled to sum to 1.
    """
    d = q.shape[1]
    best, best_resid = w, math.inf
    dropped = False
    for _ in range(60):
        support = np.flatnonzero(w > _SUPPORT_TOL)
        s = support.size
        q_sup = q[support]
        try:
            lam, vec = np.linalg.eigh((q_sup.T * w[support]) @ q_sup)
        except np.linalg.LinAlgError:
            break
        if not lam[0] > 0.0:
            break
        y = q_sup @ (vec / np.sqrt(lam))
        resid = np.einsum("ij,ij->i", y, y) - d
        size = float(np.max(np.abs(resid)))
        if size >= best_resid:
            break
        # a step that dropped a point changed the equations: no rate test
        falling = dropped or _POLISH_RATE * size <= best_resid
        best, best_resid = w, size
        if not falling or (size <= _KAPPA_FLOOR * (lam[-1] / lam[0])
                           * d * math.sqrt(s)):
            break
        step = _polish_step(y, resid)
        w_sup = w[support]
        with np.errstate(divide="ignore"):
            reach = np.where(step < 0.0, w_sup / -step, math.inf)
        first = int(np.argmin(reach))
        dropped = reach[first] < 1.0
        w = np.zeros_like(w)
        w[support] = np.maximum(w_sup + min(1.0, reach[first]) * step, 0.0)
        if dropped:
            w[support[first]] = 0.0
    total = best.sum()
    return best / total if total > 0.0 else best


def mvee_points(points, cfg: SolverConfig = SolverConfig()):
    """Minimum-volume circumscribed ellipsoid of a finite point set.

    Returns ``(ellipsoid, certificate)``; the multipliers are n times the
    optimal dual weights, which satisfy the Fritz John system exactly at
    the optimum.
    """
    pts = finite_points(points)
    n = pts.shape[1]
    if pts.shape[0] < n + 1 or not _affinely_spanning(pts):
        raise DegenerateInput("points must affinely span the ambient space")
    pts = _dedup_rows(pts)
    d = n + 1
    # the weights are solved for in the frame (x - mean) 2^-k, with the
    # spread scaled exactly into [1/2, 1): in the input coordinates a scale
    # or an offset makes M(w) ill-conditioned, which loses kappa's last
    # digits and stops the polish short of the certificate
    frame = pts - pts.mean(axis=0)
    frame = np.ldexp(frame, -math.frexp(float(np.abs(frame).max()))[1])
    lifted = np.hstack([frame, np.ones((pts.shape[0], 1))])

    # with sum w = 1 the form of point i is (kappa_i - 1)/n, so certify_ce's
    # feasibility is (n+1)/n times the Frank-Wolfe gap kappa_max/d - 1
    stop = n / d * CERT_TOL
    w = _start_weights(frame, lifted)
    support = np.flatnonzero(w)
    minv, kappa = _inverse_design(lifted, w, support)
    # first-order steps since the support last changed, and whether the
    # present support has been polished
    steady, polished = 0, False
    polish_at = _POLISH_GAP
    for k in range(cfg.max_iter):
        gap, j = _step(kappa, support, d)
        if not math.isfinite(gap):
            raise Unconverged(f"mvee gap {gap} is not finite after {k} "
                              "iterations", gap=gap)
        settled = (not polished and steady >= support.size
                   and gap <= _SETTLED_GAP)
        if settled or gap <= max(stop, polish_at):
            # Newton on the support, then the exact gap, as the updated
            # kappa drifts and only kappa recomputed from w may stop
            w[support] = _newton_polish_weights(lifted[support], w[support])
            support = np.flatnonzero(w)
            minv, kappa = _inverse_design(lifted, w, support)
            steady, polished = 0, True
            gap, j = _step(kappa, support, d)
            if gap <= stop:
                break
            polish_at = min(polish_at, _POLISH_AGAIN * gap)
        # maximize log det((1 - sigma) M + sigma q_j q_j^T), down to dropping
        # q_j; log det only rises towards the drop when kappa_j <= 1
        kj = kappa[j]
        wj = w[j]
        drop = -wj / (1.0 - wj)
        sigma = drop if kj <= 1.0 else max((kj - d) / (d * (kj - 1.0)), drop)
        # Sherman-Morrison for M <- (1 - sigma) M + sigma q_j q_j^T
        v = minv @ lifted[j]
        denom = 1.0 - sigma + sigma * kj
        minv = (minv - (sigma / denom) * (v[:, None] * v)) / (1.0 - sigma)
        # kappa <- (kappa - (sigma / denom) (Q v)^2) / (1 - sigma), in place
        change = lifted @ v
        np.square(change, out=change)
        change *= sigma / denom
        kappa -= change
        kappa /= 1.0 - sigma
        w[support] *= 1.0 - sigma
        if sigma == drop or wj == 0.0:
            # q_j leaves or enters the support
            w[j] = 0.0 if sigma == drop else sigma
            support = np.flatnonzero(w)
            steady, polished = 0, False
        else:
            w[j] += sigma
            steady += 1
    else:
        raise Unconverged(f"mvee gap {gap:.3e} after {cfg.max_iter} iterations",
                          gap=gap)

    center = w @ pts
    centered = pts - center
    with np.errstate(over="ignore", invalid="ignore"):
        cov = (centered.T * w) @ centered
    spread = float(np.abs(centered).max())
    if not np.isfinite(cov).all():
        raise DegenerateInput(f"the points' spread {spread:.3e} overflows "
                              "their covariance")
    # a variance below the least normal double has lost bits to underflow,
    # and its inverse overflows or does not exist
    if np.diag(cov).min() < _NORMAL_MIN:
        raise DegenerateInput(f"the points' spread {spread:.3e} underflows "
                              "their covariance")
    shape = np.linalg.inv(cov) / n
    ell = Ellipsoid(center, 0.5 * (shape + shape.T))
    return ell, pruned_certificate(ell, pts, n * w, "ce")


# ---------------------------------------------------------------------------
# MVIE of an H-polytope.

def _to_boundary(v, dv):
    """The step along dv, at most 1, that keeps v > 0 with 1% to spare."""
    falling = dv < 0.0
    return min(1.0, 0.99 * float(np.min(v[falling] / -dv[falling],
                                        initial=math.inf)))


def _analytic_center(a_hat, b_hat):
    """The analytic center x of {x : a_hat x <= b_hat}, its slacks, and the
    lower Cholesky factor of H = a_hat^T diag(1/slack^2) a_hat there.

    Infeasible-start Newton steps on the optimality system of
    minimize -sum log s_i subject to a_hat x + s = b_hat: a_hat x + s = b,
    a_hat^T y = 0 and s_i y_i = 1, from x = 0, s_i = |b_i| (1 where
    b_i = 0) and y = 1/s.  s and y each take the longest step that keeps
    them 1% off zero.  A full step in s solves the constraint; from then on
    s is read back as b - a x and y as 1/s, which makes the step the
    primal Newton step, and the loop stops once its decrement is at most
    0.1: the center is only the start and the frame of the MVIE solve,
    which took 20.7 Newton steps on average over 400 affine box cuts for
    any stop from 0.3 to 1e-4.  An empty or unbounded body has no analytic
    center: it raises Unconverged at _CENTER_BUDGET steps, or LinAlgError
    on a Hessian that is not positive definite.
    """
    x = np.zeros(a_hat.shape[1])
    s = np.where(b_hat == 0.0, 1.0, np.abs(b_hat))
    y = 1.0 / s
    gap = s - b_hat  # a x + s - b
    for _ in range(_CENTER_BUDGET):
        feasible = not gap.any()
        if feasible:
            s = b_hat - a_hat @ x
            if not np.all(s > 0.0):
                break
            y = 1.0 / s
        lower = np.linalg.cholesky((a_hat.T * (y / s)) @ a_hat)
        half = np.linalg.solve(lower, -a_hat.T @ ((1.0 + y * gap) / s))
        if feasible and half @ half <= 1e-2:
            return x, s, lower
        dx = np.linalg.solve(lower.T, half)
        ds = -gap - a_hat @ dx
        dy = (1.0 - y * (s + ds)) / s
        t, t_dual = _to_boundary(s, ds), _to_boundary(y, dy)
        x, s, gap = x + t * dx, s + t * ds, (1.0 - t) * gap
        y = y + t_dual * dy
    raise Unconverged("no analytic center within its step budget")


def _slacks(a_hat, b_hat, c, lower):
    """g = a_hat L, whose row i is L^T a_i, s_i = |L^T a_i| and the slacks
    r_i = b_i - a_i^T c - s_i."""
    g = a_hat @ lower
    s = np.linalg.norm(g, axis=1)
    return g, s, b_hat - a_hat @ c - s


def _barrier_value(a_hat, b_hat, c, lower, t):
    """The barrier value at t, inf off its domain, and the _slacks it read,
    which the next Newton system reuses when the line search accepts."""
    diag = np.diag(lower)
    if np.any(diag <= 0.0):
        return math.inf, None
    slacks = _slacks(a_hat, b_hat, c, lower)
    if np.any(slacks[2] <= 0.0):
        return math.inf, None
    return _barrier_at(diag, slacks[2], t), slacks


def _barrier_at(diag, r, t):
    return float(-t * np.log(diag).sum() - np.log(r).sum())


def _packing(a_hat):
    """The loop invariants of _newton_system's one product for unit normals
    a_hat (m x n), whose D = n + n(n+1)/2 unknowns are c and the packed
    (row, col) entries of lower(L): the packed rows and cols, the positions
    of L's diagonal among the unknowns, a_hat[:, rows], and, for each pair
    of packed entries in one column, its flat position in the D x D matrix
    and that of its (row, row) pair in an n x n one, from which the
    curvature term is gathered with no P x P mask."""
    n = a_hat.shape[1]
    rows, cols = np.tril_indices(n)
    size = n + rows.shape[0]
    p, q = np.nonzero(cols[:, None] == cols[None, :])
    return (rows, cols, n + np.flatnonzero(rows == cols), a_hat[:, rows],
            (n + p) * size + n + q, rows[p] * n + rows[q])


def _newton_system(a_hat, lower, slacks, lam, packing):
    """The primal-dual Newton system over (c, packed lower(L)), in one
    product: the gradient of f = -log det L, the Jacobian dr of the _slacks
    r_i = b_i - a_i^T c - s_i, s_i = |L^T a_i|, and the positive definite
    matrix grad^2 f + sum_i lam_i grad^2 s_i + dr^T diag(lam/r) dr, which
    _spd_solve factors by Cholesky.

    With u_i = L^T a_i / s_i, the row dr_i is (-a_i, -a_i[rows] u_i[cols]),
    and s_i curves L by (a_i a_i^T) (x) (I - u_i u_i^T) / s_i on the packed
    entries.  Its u_i u_i^T part is the L block of dr_i^T dr_i / s_i, so one
    m x D x D product with weights lam/r on the c columns of dr and
    lam/r - lam/s on its L columns makes every block but (L, c), which is
    copied from (c, L).  The a_i a_i^T part lives only on pairs of packed
    entries in one column, gathered from the n x n sum_i (lam_i/s_i)
    a_i a_i^T.  At lam = mu/r the matrix is mu times the Hessian of the
    barrier value at t = 1/mu.  ``packing`` is _packing(a_hat).
    """
    n = a_hat.shape[1]
    _, cols, diag_idx, a_rows, pairs, pair_rows = packing
    g, s, r = slacks
    w = lam / s
    weight = lam / r
    dr = np.hstack([-a_hat, -a_rows * (g / s[:, None])[:, cols]])
    weighted = dr * (weight - w)[:, None]
    weighted[:, :n] = dr[:, :n] * weight[:, None]
    matrix = weighted.T @ dr
    matrix[n:, :n] = matrix[:n, n:].T
    flat = matrix.reshape(-1)
    flat[pairs] += ((a_hat.T * w) @ a_hat).reshape(-1)[pair_rows]
    grad_f = np.zeros(dr.shape[1])
    grad_f[diag_idx] = -1.0 / np.diag(lower)
    matrix[diag_idx, diag_idx] += grad_f[diag_idx] ** 2
    return grad_f, dr, matrix


def _spd_solve(matrix, rhs):
    """matrix^-1 rhs by Cholesky; LinAlgError when the symmetric matrix,
    read from its lower triangle, is not positive definite."""
    from scipy.linalg.lapack import dpotrf, dpotrs

    factor, info = dpotrf(matrix, lower=1, clean=0)
    if info != 0:
        raise np.linalg.LinAlgError("Newton matrix is not positive definite")
    return dpotrs(factor, rhs, lower=1)[0]


def _mvie_newton(a_hat, b_hat, max_iter):
    """Minimize -log det L subject to r_i(c, L) >= 0 from c = 0, L = I/2.

    One primal-dual Newton step per iteration, solved by Cholesky: the
    (c, L) step is backtracked by Armijo on the barrier value at t = 1/mu,
    whose accepted trial's slacks the next system reuses, and the
    multipliers take their own step, kept 1% off zero.  mu falls tenfold
    once the iterate is centred (every lam_i r_i / mu in [1/2, 2] and the
    dual residual grad f - dr^T lam at most |grad f| / 2).  The loop stops
    at lam^T r <= 1e-12 n once the dual residual is below 1e-9 |grad f| or
    stops falling.
    """
    n = a_hat.shape[1]
    packing = _packing(a_hat)
    rows, cols = packing[:2]
    c = np.zeros(n)
    lower = 0.5 * np.eye(n)
    slacks = _slacks(a_hat, b_hat, c, lower)
    mu = 1.0
    lam = mu / (b_hat - 0.5)  # unit normals: every s_i is 1/2
    prev = math.inf
    for _ in range(max_iter):
        r = slacks[2]
        grad_f, dr, matrix = _newton_system(a_hat, lower, slacks, lam,
                                            packing)
        dual = float(np.linalg.norm(grad_f - dr.T @ lam))
        size = float(np.linalg.norm(grad_f))
        if lam @ r <= 1e-12 * n and (dual <= 1e-9 * size or dual >= prev):
            return c, lower, lam
        prev = dual
        ratio = lam * r / mu
        if ratio.min() >= 0.5 and ratio.max() <= 2.0 and dual <= 0.5 * size:
            mu *= 0.1
        rhs = dr.T @ (mu / r) - grad_f
        step = _spd_solve(matrix, rhs)
        dlam = mu / r - lam - lam / r * (dr @ step)

        t = 1.0 / mu
        phi = _barrier_at(np.diag(lower), r, t)
        decrease = 0.25 * t * float(rhs @ step)
        alpha = 1.0
        for _ in range(60):
            c_try = c + alpha * step[:n]
            l_try = lower.copy()
            l_try[rows, cols] += alpha * step[n:]
            value, tried = _barrier_value(a_hat, b_hat, c_try, l_try, t)
            if value <= phi - alpha * decrease:
                c, lower, slacks = c_try, l_try, tried
                break
            alpha *= 0.5
        lam = lam + _to_boundary(lam, dlam) * dlam
    raise Unconverged("mvie Newton method exceeded its step budget")


def _certified_mvie(a_hat, b_hat, max_iter):
    """(ellipsoid, contacts, multipliers) over all m facets, whose Fritz
    John residuals are at most CERT_TOL; raises Unconverged otherwise.

    Solved in the frame C^-T, for the Hessian H = C C^T at the analytic
    center, where the Dikin ellipsoid there is the unit ball: the body is
    round, so the slacks and the Newton system keep their precision on
    thin bodies.
    """
    c0, slack, chol = _analytic_center(a_hat, b_hat)
    frame = np.linalg.inv(chol).T
    a_frame = a_hat @ frame
    norms = np.linalg.norm(a_frame, axis=1)
    a_frame /= norms[:, None]
    c, lower, lam = _mvie_newton(a_frame, slack / norms, max_iter)

    g = a_frame @ lower
    s = np.linalg.norm(g, axis=1)
    lam = lam * s
    contacts = c0 + (c + (g / s[:, None]) @ lower.T) @ frame.T
    ell = Ellipsoid.from_factor(c0 + frame @ c, frame @ lower)
    # the residuals are read in the frame of the factor frame @ lower, the
    # solver's own, where they keep their precision however thin the body
    if max(fritz_john_residuals(ell, contacts, lam).values()) > CERT_TOL:
        raise Unconverged("mvie stopped short of the Fritz John system")
    return ell, contacts, lam


def mvie_polytope(h: Polytope, cfg: SolverConfig = SolverConfig()):
    """Maximum-volume inscribed ellipsoid of a bounded H-polytope.

    Solved with no LP, in the frame where the Dikin ellipsoid at the
    analytic center is the unit ball.  The multipliers lam_i s_i of the
    facets' tangency points are the Fritz John certificate, since
    stationarity in L reads sum_i lam_i a_i a_i^T / s_i = Y^(-1).  Its
    check at CERT_TOL over all facets also proves the body bounded.  Read in
    the frame of the result's factor F, the contact of facet i is
    u_i = F^T a_i / |F^T a_i|; a recession direction d (a_i^T d <= 0 for
    every i) and e = F^-1 d / |F^-1 d| would give u_i . e <= 0 for all i,
    so sum lam_i (u_i . e)^2 <= |sum lam_i u_i| <= CERT_TOL, where the
    matrix equation needs at least 1 - sqrt(n) CERT_TOL.  LPs run only after
    a failed solve, to name the rejection: InvalidBody for an unbounded
    body, empty or not, EmptyBody for an empty one, Unconverged otherwise.
    """
    if h.is_vform:
        raise InvalidBody("mvie needs an H-form polytope")
    scale = facet_norms(h)
    a_hat = h.normals / scale[:, None]
    b_hat = h.offsets / scale
    try:
        # a failed solve may overflow (an empty body drives y to infinity):
        # it raises here, and the LPs below name the rejection
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            ell, contacts, lam = _certified_mvie(
                a_hat, b_hat, min(cfg.max_iter, _NEWTON_BUDGET))
    except (Unconverged, np.linalg.LinAlgError, FloatingPointError,
            InvalidEllipsoid) as exc:
        if not bounded_by_normals(h.normals):
            raise InvalidBody("polytope is unbounded") from exc
        chebyshev_center(h)  # raises EmptyBody on an empty body
        if isinstance(exc, Unconverged):
            raise
        raise Unconverged(f"mvie solve failed: {exc}") from exc
    return ell, pruned_certificate(ell, contacts, lam, "ie")


# ---------------------------------------------------------------------------
# Grid oracle for slabs and cones.

def _hull_workspace(taus, size):
    """Buffers for ``_hull_inner`` on up to ``taus`` values of tau against
    ``size`` samples: six (taus, size) arrays of doubles and one of bools."""
    return np.empty((6, taus, size)), np.empty((taus, size), dtype=bool)


def _edges(v, out):
    """``out[..., j] = v[..., j+1] - v[..., j]``, the last entry closing
    the cycle, ``v[..., 0] - v[..., -1]``."""
    np.subtract(v[..., 1:], v[..., :-1], out=out[..., :-1])
    np.subtract(v[..., 0], v[..., -1], out=out[..., -1])
    return out


def _hull_inner(tau, sample, n, planes=None, work=None):
    """Best (a, b) and objective log a + (n-1) log b per tau.

    CE and CONE (``planes`` None) keep the sphere points x_1 = y_j inside
    the shape (a, b): a (y_j - tau)^2 + b (1 - y_j^2) <= 1.  IE
    (``planes = (alpha, beta)``) keeps the semi-axes (a, b) inside the
    tangent halfspaces of the ball with normal u_1 = c_j, where the support
    function reads a^2 c_j^2 + b^2 (1 - c_j^2) <= (1 - tau c_j)^2, and
    between the slab planes, a <= min(tau - alpha, beta - tau).  Either way
    the rows read A p_j + B q_j <= 1 for the maximum of log A + (n-1) log B.
    Its Lagrange dual maximizes log P + (n-1) log Q over the hull of the
    points (p_j, q_j), and the optimum is A = 1/(nP), B = (n-1)/(nQ).  Both
    p and q are quadratics in one parameter monotone in the sample (y_j, or
    1/(1 - tau c_j)), so the points lie on a parabola in sample order, or on
    the segment p + q = 1 when tau = 0; the consecutive pairs and the
    closing chord then cover every hull edge, and the optimum is a vertex
    or the stationary point of an edge, in closed form.  An IE optimum past
    the cap moves to the cap, with B the least over the rows.

    Every (tau, sample) intermediate is written into ``work``, from
    ``_hull_workspace`` with at least ``len(tau)`` rows, or into a fresh
    one when it is None.  For CE and CONE, q and its edges do not depend on
    tau and are formed once on the sample.  The operations and their order
    are those of the plain expressions, so the results are the same to the
    bit with or without a workspace.
    """
    tau = np.atleast_1d(np.asarray(tau, dtype=float))[:, None]
    rows = tau.shape[0]
    if work is None:
        work = _hull_workspace(rows, sample.size)
    p, q, dp, dq, t, z = work[0][:, :rows]
    mask = work[1][:rows]
    # the log of big Q goes to dq's buffer, free by then (unused for CE)
    log_q = dq
    with np.errstate(divide="ignore", invalid="ignore"):
        q_sample = 1.0 - sample ** 2
        if planes is None:
            np.subtract(sample, tau, out=p)
            np.square(p, out=p)
            q = q_sample
            dq = _edges(q, np.empty_like(q))
        else:
            # the row scale (1 - tau c_j)^-2, in z until the edges are formed
            np.multiply(tau, sample, out=z)
            np.subtract(1.0, z, out=z)
            np.power(z, -2.0, out=z)
            np.multiply(sample ** 2, z, out=p)
            np.multiply(q_sample, z, out=q)
            _edges(q, dq)
        _edges(p, dp)
        # the stationary point t = (dp q + (n-1) dq p) / (-n dp dq) of each
        # edge (negation is exact, so the sign may sit in the denominator),
        # kept (clipped to the edge) only where dp dq < 0
        np.multiply(dp, q, out=t)
        np.multiply(n - 1, dq, out=z)
        np.multiply(z, p, out=z)
        np.add(t, z, out=t)
        np.multiply(-n, dp, out=z)
        np.multiply(z, dq, out=z)
        np.divide(t, z, out=t)
        np.multiply(dp, dq, out=z)
        np.less(z, 0.0, out=mask)
        np.clip(t, 0.0, 1.0, out=t)
        np.logical_not(mask, out=mask)
        np.copyto(t, 0.0, where=mask)
        # big P = p + t dp into dp, big Q = q + t dq into z
        np.multiply(t, dp, out=dp)
        np.add(p, dp, out=dp)
        np.multiply(t, dq, out=z)
        np.add(q, z, out=z)
        np.log(dp, out=t)
        np.log(z, out=log_q)
        np.multiply(n - 1, log_q, out=log_q)
        np.add(t, log_q, out=t)
        at = np.arange(rows), np.argmax(t, axis=1)
        a = 1.0 / (n * dp[at])
        b = (n - 1) / (n * z[at])
        if planes is not None:
            cap = np.maximum(np.minimum(tau[:, 0] - planes[0],
                                        planes[1] - tau[:, 0]), 0.0) ** 2
            # b at the cap: the least (1 - cap p) / q over rows with q > 0
            np.multiply(cap[:, None], p, out=z)
            np.subtract(1.0, z, out=z)
            np.divide(z, q, out=z)
            np.greater(q, 0.0, out=mask)
            np.logical_not(mask, out=mask)
            np.copyto(z, np.inf, where=mask)
            b_cap = np.min(z, axis=1)
            a, b = np.minimum(a, cap), np.where(a > cap, b_cap, b)
        f = np.log(a) + (n - 1) * np.log(b)
    if planes is not None:
        # nothing fits a center on or past a plane, where at |tau| = 1 the
        # rows themselves are undefined
        f = np.where(cap > 0.0, f, -np.inf)
        a, b = np.sqrt(a), np.sqrt(b)
    return a, b, f


def _zoom_tau(sample, n, planes, lo, hi, width):
    """(tau, a, b) at the best of _ZOOM_POINTS tau values on [lo, hi], each
    step narrowing [lo, hi] to the neighbours of the best until it is at most
    ``width`` wide.  The step count is fixed up front, since a bracket a few
    ulps wide stops shrinking.  ``np.linspace`` returns its endpoints
    exactly, and they are the neighbours already solved, so a step after the
    first solves only the interior taus and carries (a, b, f) over at the
    ends: _ZOOM_POINTS + (_ZOOM_POINTS - 2) (steps - 1) taus per call, all
    into one workspace."""
    last = _ZOOM_POINTS - 1
    steps = max(1, math.ceil(math.log((hi - lo) / width, last / 2)))
    work = _hull_workspace(_ZOOM_POINTS, sample.size)
    taus = np.linspace(lo, hi, _ZOOM_POINTS)
    abf = np.array(_hull_inner(taus, sample, n, planes, work))
    for _ in range(steps - 1):
        k = int(np.argmax(abf[2]))
        ends = [max(k - 1, 0), min(k + 1, last)]
        taus = np.linspace(taus[ends[0]], taus[ends[1]], _ZOOM_POINTS)
        abf[:, [0, last]] = abf[:, ends]
        abf[:, 1:last] = _hull_inner(taus[1:last], sample, n, planes, work)
    k = int(np.argmax(abf[2]))
    return float(taus[k]), float(abf[0, k]), float(abf[1, k])


def grid_oracle_slab(s: SlabSpec, problem: str, resolution: int = 512
                     ) -> AxialEllipsoidParams:
    """Brute-force axial-ellipsoid search used as an independent reference.

    ``problem`` is "CE", "IE", or "CONE".  The sample is ``resolution``
    values of x_1 evenly spaced on [alpha, beta] (endpoints included).  CE
    keeps the sphere points at those x_1 inside the ellipsoid; CONE keeps
    the two rim circles only.  IE keeps the ellipsoid between the slab
    planes and inside the ball's tangent halfspaces at those x_1: with the
    planes, they are the slab's supporting halfspaces, since every contact
    with the sphere lies in the slab.  The center tau is found by a zooming
    grid: 17 values of tau at a time, narrowed to the neighbours of the
    best until the bracket is 2e-8 (beta - alpha) wide; after the first
    step the two ends are carried over and only 15 taus are solved
    (``_zoom_tau``).  Per tau, the best (a, b) against the sampled
    constraints is exact, from the Lagrange dual over the hull of the
    constraint rows (``_hull_inner``), in one workspace of 17 x samples
    buffers per pass.  When a contact falls between samples, it is added
    to the sample and tau is searched again near the last one, within the
    slab.  ``resolution`` must lie in [64, 65 536], checked before anything
    is allocated; otherwise ValueError.  A slab too thin for
    ``resolution`` distinct samples (width below about ``resolution`` ulps)
    raises InvalidEllipsoid.
    """
    problem = problem.upper()
    if problem not in ("CE", "IE", "CONE"):
        raise ValueError(f"problem must be CE, IE or CONE, got {problem!r}")
    if resolution < 64:
        raise ValueError("resolution must be at least 64")
    if resolution > _MAX_RESOLUTION:
        raise ValueError(f"resolution must be at most {_MAX_RESOLUTION}")
    n = s.n
    alpha, beta = s.alpha, s.beta
    sample = (np.array([alpha, beta]) if problem == "CONE"
              else np.linspace(alpha, beta, resolution))
    planes = (alpha, beta) if problem == "IE" else None
    if np.any(np.diff(sample) <= 0.0):
        raise InvalidEllipsoid(f"slab [{alpha!r}, {beta!r}] is too thin for "
                               f"{resolution} distinct samples")

    margin = 1e-9 * (beta - alpha)
    lo, hi = alpha + margin, beta - margin
    width = 2e-8 * (beta - alpha)
    radius = max(1e-3 * (beta - alpha), 1e-4)
    # interior contacts can fall between samples: a pass that finds one
    # adds it to the sample, and the next pass searches near the last tau
    rounds = 4 if problem == "IE" else 3
    for _ in range(rounds + 1):
        tau, a_val, b_val = _zoom_tau(sample, n, planes, lo, hi, width)
        worst = _worst_sample(problem, tau, a_val, b_val, alpha, beta)
        if worst is None or np.min(np.abs(sample - worst)) < 1e-10:
            break
        sample = np.sort(np.append(sample, worst))
        lo = max(tau - radius, alpha + margin)
        hi = min(tau + radius, beta - margin)
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
    # IE: the support excess a^2 c^2 + b^2 (1 - c^2) - (1 - tau c)^2 over
    # the normal's axial part c peaks inside only when it is concave
    curve = b * b + tau * tau - a * a
    if curve <= 0.0:
        return None
    return float(np.clip(tau / curve, alpha, beta))
