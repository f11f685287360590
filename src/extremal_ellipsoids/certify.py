"""Fritz John optimality certification.

Both extremal-ellipsoid problems share one optimality system: an ellipsoid
E(X, c) is extremal for a body K exactly when there are contact points
u_i on the boundary of both K and E and multipliers lambda_i >= 0 with

    sum_i lambda_i (u_i - c)(u_i - c)^T = X^(-1)
    sum_i lambda_i (u_i - c) = 0

(taking traces gives sum lambda_i = n).  These conditions are sufficient,
so a passing certificate establishes optimality, not just feasibility.
The system is affine invariant: in the frame of E = {c + F u : |u| <= 1},
with u_bar_i = F^(-1)(u_i - c), it reads sum_i lambda_i u_bar_i
u_bar_i^T = I and sum_i lambda_i u_bar_i = 0, and the residuals are
measured there.

``certify_ce`` and ``certify_ie`` take one path.  The candidate contacts
are a CE body's points whose quadratic form reaches 1 - sqrt(tol), or the
support points (``core.support_points``) of an IE body's facets that lie
within sqrt(tol) of the ellipsoid.  NNLS fits their multipliers, and
``pruned_certificate`` drops those at most MULTIPLIER_PRUNE, as it does
for the solvers; a support above John's bound n(n+3)/2 it refits on
John's n(n+3)/2 equations alone, so at most that many contacts remain.
The residuals are matrix_eq = |sum lambda u_bar u_bar^T - I|_F / sqrt(n),
centroid_eq = |sum lambda u_bar| and multiplier_sum = |sum lambda - n|; a
pass needs feasibility and matrix_eq <= tol, centroid_eq and
multiplier_sum <= n tol and contact_membership <= sqrt(tol).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (Ellipsoid, Polytope, facet_norms, finite_points,
                   support_points, unit_ball)
from .errors import NotNonnegative, NotOptimal

MULTIPLIER_PRUNE = 1e-10
# the one certification tolerance: each check's default and each solver's stop
CERT_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class ContactCertificate:
    """Contact points and multipliers witnessing extremality."""

    contacts: np.ndarray
    multipliers: np.ndarray
    kind: str  # "ce" or "ie"

    def __post_init__(self):
        u = np.atleast_2d(np.asarray(self.contacts, dtype=float))
        lam = np.atleast_1d(np.asarray(self.multipliers, dtype=float))
        object.__setattr__(self, "contacts", u)
        object.__setattr__(self, "multipliers", lam)
        if self.kind not in ("ce", "ie"):
            raise ValueError(f"kind must be 'ce' or 'ie', got {self.kind!r}")
        k, n = u.shape
        if lam.shape[0] != k:
            raise ValueError("one multiplier per contact point required")
        if k < 1 or k > n * (n + 3) // 2:
            raise ValueError(f"contact count {k} outside [1, {n * (n + 3) // 2}]")
        if np.any(lam < 0.0):
            raise ValueError("multipliers must be nonnegative")


@dataclass(frozen=True, eq=False)
class CertResult:
    """Outcome of a certification run; passed iff every residual is in tolerance."""

    passed: bool
    residuals: dict
    certificate: ContactCertificate | None = None
    worst_point: np.ndarray | None = None

    def to_dict(self) -> dict:
        out = {
            "passed": bool(self.passed),
            "residuals": {k: float(v) for k, v in sorted(self.residuals.items())},
            "contacts": [],
            "multipliers": [],
        }
        if self.certificate is not None:
            out["contacts"] = [[float(v) for v in row]
                               for row in self.certificate.contacts]
            out["multipliers"] = [float(v) for v in self.certificate.multipliers]
        return out


_EPS = float(np.finfo(float).eps)


class _PassiveQR:
    """Householder QR of the passive columns, grown one column at a time:
    q^T [a[:, cols] | b] = [r | c] with q orthogonal and r upper
    triangular, so it holds at most as many columns as ``a`` has rows.
    The inverse of r grows with it."""

    def __init__(self, a: np.ndarray, b: np.ndarray):
        m = a.shape[0]
        self.a = a
        self.qc = np.empty((m, m + 1))  # [q^T | c], reflected together
        self.qt, self.c = self.qc[:, :m], self.qc[:, m]
        self.qt[...] = np.eye(m)
        self.c[...] = b
        self.r = np.zeros((m, m))
        self.rinv = np.zeros((m, m))
        self.cols = []

    def add(self, j: int, signed: bool) -> bool:
        """Append column j, unless it is nearly in the span of the passive
        columns (Lawson and Hanson's test) or, when ``signed``, its
        coefficient in the new least-squares solution, c_p / r_pp, the
        last of the back substitution, is not positive."""
        p = len(self.cols)
        v = self.qt.dot(self.a[:, j])
        head, tail = v[:p], v[p:]
        size = math.sqrt(tail.dot(tail))
        inside = math.sqrt(head.dot(head))
        if not inside + 0.01 * size > inside:
            return False
        t0 = float(tail[0])
        diag = -size if t0 >= 0.0 else size
        tail[0] = t0 - diag  # now the Householder vector h
        rows = self.qc[p:]
        hq = tail.dot(rows)
        hq *= 1.0 / (size * (size + abs(t0)))
        if signed and not (rows[0, -1] - hq[-1] * (t0 - diag)) / diag > 0.0:
            return False
        rows -= tail[:, None] * hq
        self.r[:p, p] = head
        self.r[p, p] = diag
        self.rinv[:p, p] = self.rinv[:p, :p].dot(head) * (-1.0 / diag)
        self.rinv[p, p] = 1.0 / diag
        self.cols.append(j)
        return True

    def residual(self) -> np.ndarray:
        """b less its least-squares fit by the passive columns, as q holds
        it: orthogonal to those columns to rounding, whatever its size."""
        p = len(self.cols)
        return self.c[p:].dot(self.qt[p:])

    def solve(self, refine: bool = False) -> np.ndarray:
        """The least-squares coefficients of the passive columns, r^-1 c,
        refined once against r when asked."""
        p = len(self.cols)
        rinv, c = self.rinv[:p, :p], self.c[:p]
        z = rinv.dot(c)
        if refine:
            z += rinv.dot(c - self.r[:p, :p].dot(z))
        return z


def nnls(a, b):
    """(x, |a x - b|) for an x >= 0 that minimizes |a x - b|.

    Lawson and Hanson's active-set method (Solving Least Squares Problems,
    SIAM 1995, ch. 23) from x = 0.  Each outer step prices every column
    with one product a^T r, r = b - a x, and the best column, the lowest
    index among ties, enters the passive set; one that ``_PassiveQR.add``
    refuses gives way to the next best.  The least-squares subproblem is
    solved on the passive columns only, never more than a has rows, and a
    coefficient that turns nonpositive sends its column back.  r is taken
    from the QR, where it stays orthogonal to the passive columns, so a
    price far below the rounding of b still has its sign.  The steps stop
    when no price exceeds m eps max_j |a_j| |r|, when |r| is at most
    m eps |b|, when |r| stops falling, or after 3k + 1 steps, k the column
    count.  With no more columns than rows and a positive least-squares
    solution, the least-norm one if a is rank deficient, that one solve
    is the answer (KKT).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m, k = a.shape
    if 0 < k <= m:
        z = np.linalg.lstsq(a, b)[0]
        if z[z.argmin()] > 0.0:
            res = b - a.dot(z)
            return z, math.sqrt(res.dot(res))
    x = np.zeros(k)
    if k == 0:
        return x, math.sqrt(b.dot(b))
    exact = m * _EPS * math.sqrt(b.dot(b))
    column = m * _EPS * math.sqrt(np.einsum("ij,ij->j", a, a).max())
    qr = _PassiveQR(a, b)
    free = np.ones(k)
    z = np.zeros(0)
    last = math.inf
    for _ in range(3 * k + 1):
        residual = qr.residual()
        size = math.sqrt(residual.dot(residual))
        if size <= exact or not size < last:
            break
        last = size
        w = residual.dot(a)
        w *= free
        tol = column * size
        while True:
            j = int(w.argmax())  # the lowest index among equal prices
            if not w[j] > tol or qr.add(j, signed=True):
                break
            w[j] = 0.0  # refused: the next best
        if not w[j] > tol:
            break
        free[j] = 0.0
        xp, z = z, qr.solve()
        if z[z.argmin()] <= 0.0:
            xp = np.append(xp, 0.0)
        while z[z.argmin()] <= 0.0:
            # from xp towards z until a coefficient reaches zero; the
            # columns at zero go back to the free set
            neg = np.flatnonzero(z <= 0.0)
            steps = xp[neg] / (xp[neg] - z[neg])
            first = steps.argmin()
            xp += steps[first] * (z - xp)
            xp[neg[first]] = 0.0
            cols = qr.cols
            qr = _PassiveQR(a, b)
            xp = np.array([xi for i, xi in zip(cols, xp)
                           if xi > 0.0 and qr.add(i, signed=False)])
            free[cols] = 1.0
            free[qr.cols] = 0.0
            z = qr.solve()
    # refined once, where a coefficient near rounding may cross zero
    z = np.maximum(qr.solve(refine=True), 0.0)
    x[qr.cols] = z
    res = b - a[:, qr.cols].dot(z)
    return x, math.sqrt(res.dot(res))


def _fritz_john_rows(e: Ellipsoid, contacts: np.ndarray):
    """(A, b) of the Fritz John system, in the frame u_bar = F^(-1)(u - c)
    where the target matrix is the identity.  Rows: John's n(n+3)/2
    equations, the upper triangle of u_bar u_bar^T (off-diagonal weighted
    by sqrt(2) so the residual matches the Frobenius norm) and the
    centroid rows, then last the trace row sum(lambda) = n."""
    n = e.dim
    ubar = (np.atleast_2d(contacts) - e.center) @ e._factor_inv.T
    iu, ju = np.triu_indices(n)
    weights = np.where(iu == ju, 1.0, math.sqrt(2.0))
    a = np.vstack([(ubar[:, iu] * ubar[:, ju] * weights).T, ubar.T,
                   np.ones(len(ubar))])
    return a, np.concatenate([np.where(iu == ju, 1.0, 0.0), np.zeros(n), [n]])


def recover_multipliers(e: Ellipsoid, contacts: np.ndarray) -> np.ndarray:
    """NNLS fit of every row of the Fritz John system, trace row included."""
    return nnls(*_fritz_john_rows(e, contacts))[0]


def fritz_john_residuals(e: Ellipsoid, contacts: np.ndarray,
                         multipliers: np.ndarray) -> dict:
    """Residuals of the two Fritz John equations plus the trace identity,
    in the frame u_bar = F^(-1)(u - c), as the module docstring defines."""
    n = e.dim
    ubar = (np.atleast_2d(contacts) - e.center) @ e._factor_inv.T
    lam = np.asarray(multipliers, dtype=float)
    outer = (ubar.T * lam) @ ubar
    return {
        "matrix_eq": float(np.linalg.norm(outer - np.eye(n)) / math.sqrt(n)),
        "centroid_eq": float(np.linalg.norm(lam @ ubar)),
        "multiplier_sum": float(abs(lam.sum() - n)),
    }


def _body_points(body) -> np.ndarray:
    if isinstance(body, Polytope):
        if not body.is_vform:
            raise NotOptimal("circumscription certificates need points, not halfspaces")
        return body.vertices
    return finite_points(body)


def pruned_certificate(e: Ellipsoid, contacts: np.ndarray,
                       lam: np.ndarray, kind: str) -> ContactCertificate | None:
    """The contacts whose multipliers exceed MULTIPLIER_PRUNE, or None when
    none does.  A support longer than John's bound n(n+3)/2 (many nearly
    parallel facets or cospherical points) is refit by NNLS on John's
    n(n+3)/2 equations alone, whose passive columns stay independent, so
    at most n(n+3)/2 remain; the trace identity stays a checked residual."""
    keep = lam > MULTIPLIER_PRUNE
    contacts, lam = contacts[keep], lam[keep]
    if contacts.shape[0] > e.dim * (e.dim + 3) // 2:
        a, b = _fritz_john_rows(e, contacts)
        lam = nnls(a[:-1], b[:-1])[0]
        keep = lam > MULTIPLIER_PRUNE
        contacts, lam = contacts[keep], lam[keep]
    if lam.size == 0:
        return None
    return ContactCertificate(contacts, lam, kind)


def _fritz_john_check(e: Ellipsoid, candidates: np.ndarray,
                      feasibility: float, kind: str, tol: float):
    """(passed, residuals, certificate) from the candidate contacts and the
    body's feasibility residual.  Without a contact that keeps a multiplier
    the certificate is None and the other residuals are inf."""
    residuals = dict.fromkeys(("matrix_eq", "centroid_eq", "multiplier_sum",
                               "contact_membership"), math.inf)
    residuals["feasibility"] = feasibility
    cert = None
    if candidates.shape[0]:
        cert = pruned_certificate(e, candidates,
                                  recover_multipliers(e, candidates), kind)
    if cert is None:
        return False, residuals, None
    residuals.update(fritz_john_residuals(e, cert.contacts, cert.multipliers))
    residuals["contact_membership"] = float(
        np.max(np.abs(e.quadratic_form(cert.contacts) - 1.0)))
    return not failed_residuals(residuals, e.dim, tol), residuals, cert


def certify_ce(body, e: Ellipsoid, tol: float = CERT_TOL) -> CertResult:
    """Certify E as the minimum-volume ellipsoid circumscribing the body.

    The body is a V-polytope or a sampled boundary (stack of points).
    Contact candidates are the points whose quadratic form reaches
    1 - sqrt(tol); form error is second order in boundary displacement,
    hence the square root.  A failed check names the point of largest
    form, or the first candidate when every multiplier was pruned.
    """
    pts = _body_points(body)
    forms = e.quadratic_form(pts)
    candidates = pts[forms >= 1.0 - math.sqrt(tol)]
    passed, residuals, cert = _fritz_john_check(
        e, candidates, float(max(forms.max() - 1.0, 0.0)), "ce", tol)
    if passed:
        worst = None
    elif cert is None and candidates.shape[0]:
        worst = candidates[0]
    else:
        worst = pts[int(np.argmax(forms))]
    return CertResult(passed, residuals, cert, worst)


def certify_ie(body: Polytope, e: Ellipsoid, tol: float = CERT_TOL) -> CertResult:
    """Certify E as the maximum-volume ellipsoid inscribed in an H-polytope.

    Feasibility is the per-facet support inequality
    <c, a_i> + |F^T a_i| <= b_i on unit normals; contacts
    are the tangency points of the facets within sqrt(tol) of it.
    """
    if not isinstance(body, Polytope) or body.is_vform:
        raise NotOptimal("inscription certificates need an H-form polytope")
    scale = facet_norms(body)
    support, points = support_points(e, body.normals / scale[:, None])
    gaps = body.offsets / scale - support
    passed, residuals, cert = _fritz_john_check(
        e, points[gaps <= math.sqrt(tol)], float(max(-gaps.min(), 0.0)),
        "ie", tol)
    return CertResult(passed, residuals, cert, None)


def failed_residuals(residuals: dict, n: int, tol: float) -> list:
    """The names of the residuals out of tolerance, sorted; NaN is out."""
    bounds = {"feasibility": tol, "contact_membership": math.sqrt(tol),
              "matrix_eq": tol, "centroid_eq": tol * n,
              "multiplier_sum": tol * n}
    return [k for k in sorted(bounds) if not residuals[k] <= bounds[k]]


def _scaled(e: Ellipsoid, factor: float) -> Ellipsoid:
    """Scale the ellipsoid about its center by ``factor`` (semi-axes times factor)."""
    return Ellipsoid.from_factor(e.center, factor * e.factor())


def john_factors(body, e: Ellipsoid, kind: str, symmetric: bool,
                 tol: float = CERT_TOL) -> CertResult:
    """Containment checks for the John shrink/blow factors.

    CE: the ellipsoid shrunk by n (sqrt(n) for centrally symmetric bodies)
    must fit inside the body.  IE: the ellipsoid blown up by the same
    factor must contain the body.  CE on a point set needs the facets of
    its convex hull, which qhull builds at a cost exponential in n.
    """
    n = e.dim
    factor = math.sqrt(n) if symmetric else float(n)
    if kind == "ce":
        shrunk = _scaled(e, 1.0 / factor)
        if isinstance(body, Polytope) and not body.is_vform:
            normals, offsets = body.normals, body.offsets
        else:
            from scipy.spatial import ConvexHull

            pts = _body_points(body)
            hull = ConvexHull(pts)
            normals = hull.equations[:, :-1]
            offsets = -hull.equations[:, -1]
        support, points = support_points(shrunk, normals)
        viol = support - offsets
        worst = int(np.argmax(viol))
        residual = float(max(viol[worst], 0.0) / np.linalg.norm(normals[worst]))
        point = points[worst]
    elif kind == "ie":
        blown = _scaled(e, factor)
        if isinstance(body, Polytope) and not body.is_vform:
            from scipy.spatial import HalfspaceIntersection

            from .core import chebyshev_center

            interior, _ = chebyshev_center(body)
            halfspaces = np.hstack([body.normals, -body.offsets[:, None]])
            pts = HalfspaceIntersection(halfspaces, interior).intersections
        else:
            pts = _body_points(body)
        forms = blown.quadratic_form(pts)
        worst = int(np.argmax(forms))
        residual = float(max(forms[worst] - 1.0, 0.0))
        point = pts[worst]
    else:
        raise ValueError(f"kind must be 'ce' or 'ie', got {kind!r}")
    passed = residual <= tol
    residuals = {"feasibility": residual}
    return CertResult(passed, residuals, None, None if passed else point)


def breadth_diameter(body, tol: float = 1e-6, directions: int = 500) -> float:
    """Minimal breadth of the contact polytope of a body in John position.

    The body must already be normalized so that its circumscribed ellipsoid
    is the unit ball (certified here).  Returns min over random unit d of
    s(d) + s(-d) evaluated on the contact points, which is at least
    2/sqrt(n); violation raises NotOptimal.
    """
    pts = _body_points(body)
    n = pts.shape[1]
    result = certify_ce(pts, unit_ball(n))
    if not result.passed:
        raise NotOptimal("body is not in circumscribed-unit-ball position")
    # the full touching set, not the sparse multiplier support: the breadth
    # statement is about every contact point
    ball = unit_ball(n)
    u = pts[ball.quadratic_form(pts) >= 1.0 - math.sqrt(CERT_TOL)]
    rng = np.random.default_rng(0)
    d = rng.standard_normal((directions, n))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    sums = np.max(d @ u.T, axis=1) + np.max(-d @ u.T, axis=1)
    value = float(sums.min())
    bound = 2.0 / math.sqrt(n)
    if value < bound - tol:
        raise NotOptimal(f"breadth {value:.12g} below bound {bound:.12g}")
    return value


def lukacs_certificate(q, interval) -> tuple[float, float, float]:
    """Write a quadratic nonnegative on [a, b] as (c u + d)^2 + g (u-a)(b-u).

    ``q`` is (q2, q1, q0) for q(u) = q2 u^2 + q1 u + q0.  Returns (c, d, g)
    with g >= 0; raises NotNonnegative when q dips below zero on the
    interval.
    """
    q2, q1, q0 = (float(v) for v in q)
    a, b = (float(v) for v in interval)
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")

    def q_at(u):
        return (q2 * u + q1) * u + q0

    scale = max(abs(q2), abs(q1), abs(q0), 1.0)
    lowest = min(q_at(a), q_at(b))
    if q2 > 0.0:
        vertex = -q1 / (2.0 * q2)
        if a < vertex < b:
            lowest = min(lowest, q_at(vertex))
    if lowest < -1e-12 * scale:
        raise NotNonnegative(f"q reaches {lowest:.3e} on [{a}, {b}]")

    qa = math.sqrt(max(q_at(a), 0.0))
    qb = math.sqrt(max(q_at(b), 0.0))
    c = (qa + qb) / (b - a)
    d = -(qa * b + qb * a) / (b - a)
    g = c * c - q2
    if g < -1e-10 * scale:
        raise NotNonnegative(f"negative interval weight {g:.3e}")
    g = max(g, 0.0)
    # coefficient identity check: q(u) == (c u + d)^2 + g (u - a)(b - u)
    r2 = c * c - g - q2
    r1 = 2.0 * c * d + g * (a + b) - q1
    r0 = d * d - g * a * b - q0
    if max(abs(r2), abs(r1), abs(r0)) > 1e-10 * scale:
        raise NotNonnegative("certificate coefficients failed to match")
    return c, d, g
