"""Closed-form extremal ellipsoids of ball slabs and truncated cones.

The normalized slab is ``B = {x : |x| <= 1, alpha <= x_1 <= beta}``; the
truncated cone (cylinder when ``alpha = -beta``) is the convex hull of the
two discs where the planes ``x_1 = alpha`` and ``x_1 = beta`` meet the unit
ball.  Both inherit the axial symmetry group, so their extremal ellipsoids
are axial: center ``tau * e_1`` and axis-aligned shape ``diag(a, b, ..., b)``.

``ce_slab`` and ``ce_cone`` return shape-form coefficients (a, b are the
inverse squared semi-axes); ``ie_slab`` returns factor-form coefficients
(a, b are the semi-axes themselves).  ``AxialEllipsoidParams.expand``
converts either form into an ``Ellipsoid``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (AffineMap, Ellipsoid, cholesky_spd, map_ellipsoid,
                   unit_directions)
from .errors import DegenerateInput, EmptyBody, InvalidEllipsoid

# Case-dispatch guards. A nearly-symmetric interval is routed to the
# symmetric branch and a product within 1e-12 of -1/n to the boundary
# branch, keeping the tau quadratic away from cancellation.
SYMMETRIC_TOL = 1e-12
BOUNDARY_TOL = 1e-12
_CONJUGATE_GUARD = 1e-8


@dataclass(frozen=True)
class SlabSpec:
    """Normalized slab parameters with the beta^2 >= alpha^2 convention."""

    n: int
    alpha: float
    beta: float
    reflected: bool = False

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("slab formulas need ambient dimension >= 2")
        if not (-1.0 <= self.alpha < self.beta <= 1.0):
            raise ValueError(
                f"need -1 <= alpha < beta <= 1, got ({self.alpha}, {self.beta})")
        if self.beta ** 2 < self.alpha ** 2 - 1e-15:
            raise ValueError("convention beta^2 >= alpha^2 violated; reflect first")


def oriented(n: int, alpha: float, beta: float) -> tuple[SlabSpec, float]:
    """SlabSpec of [alpha, beta] under the convention beta^2 >= alpha^2.

    Returns ``(spec, sign)``: sign is 1.0 when the convention holds, else
    -1.0 and spec is the reflected slab [-beta, -alpha] along -e_1.
    """
    if beta ** 2 < alpha ** 2:
        return SlabSpec(n, -beta, -alpha, reflected=True), -1.0
    return SlabSpec(n, alpha, beta), 1.0


@dataclass(frozen=True)
class AxialEllipsoidParams:
    """Axial ellipsoid E = E(diag(a, b, ..., b), tau * e_1).

    ``form`` records whether (a, b) are shape entries ("shape") or semi-axes
    ("axes"); ``case`` records which formula branch produced the values.
    """

    tau: float
    a: float
    b: float
    n: int
    form: str = "shape"
    case: str = ""

    def __post_init__(self):
        if not (math.isfinite(self.tau) and 0.0 < self.a < math.inf
                and 0.0 < self.b < math.inf):
            raise InvalidEllipsoid(f"axial coefficients must be finite and a, b "
                                   f"positive, got tau={self.tau}, a={self.a}, "
                                   f"b={self.b}")
        if self.form not in ("shape", "axes"):
            raise ValueError(f"unknown form {self.form!r}")

    def shape_diagonal(self) -> np.ndarray:
        d = np.full(self.n, self.b, dtype=float)
        d[0] = self.a
        if self.form == "axes":
            d = 1.0 / d ** 2
        return d

    def semi_axes(self) -> np.ndarray:
        d = np.full(self.n, self.b, dtype=float)
        d[0] = self.a
        if self.form == "shape":
            d = 1.0 / np.sqrt(d)
        return d

    def expand(self) -> Ellipsoid:
        center = np.zeros(self.n)
        center[0] = self.tau
        return Ellipsoid(center, np.diag(self.shape_diagonal()))


@dataclass(frozen=True, eq=False)
class GeneralSlab:
    """Slice of a general ellipsoid: {x in E(X0, c0) : lo <= <p, x-c0> <= hi}."""

    shape0: np.ndarray
    center0: np.ndarray
    normal: np.ndarray
    lo: float
    hi: float

    def __post_init__(self):
        x0 = np.atleast_2d(np.asarray(self.shape0, dtype=float))
        c0 = np.atleast_1d(np.asarray(self.center0, dtype=float))
        p = np.atleast_1d(np.asarray(self.normal, dtype=float))
        object.__setattr__(self, "shape0", x0)
        object.__setattr__(self, "center0", c0)
        object.__setattr__(self, "normal", p)
        cholesky_spd(x0)
        if not np.linalg.norm(p) > 0.0:
            raise ValueError("slab normal must be nonzero")
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def dim(self) -> int:
        return self.center0.shape[0]


def normalize(g: GeneralSlab) -> tuple[SlabSpec, AffineMap]:
    """Reduce a general ellipsoid slab to the normalized form B_alpha_beta.

    With E(X0, c0) = {c0 + F u : |u| <= 1} and q = F^T p, the map is
    x = c0 + F H u, where the Householder reflection H sends e_1 to q/|q|.
    Returns ``(spec, m)`` with ``body = m(B_spec)``.  When the convention
    beta^2 >= alpha^2 forces the reflection x_1 -> -x_1, the reflection is
    composed into ``m`` and recorded in ``spec.reflected``.
    """
    factor = Ellipsoid(g.center0, g.shape0).factor()
    q = g.normal @ factor  # F^T p
    qn = float(np.linalg.norm(q))
    alpha = g.lo / qn
    beta = g.hi / qn
    if alpha >= 1.0 or beta <= -1.0:
        raise EmptyBody(f"slab [{alpha:.6g}, {beta:.6g}] misses the unit ball")
    alpha = max(alpha, -1.0)
    beta = min(beta, 1.0)

    # Householder reflection sending e_1 to the normalized cut direction.
    n = g.dim
    pbar = q / qn
    e1 = np.zeros(n)
    e1[0] = 1.0
    v = pbar - e1
    vn = float(v @ v)
    if vn > 0.0:
        qmat = np.eye(n) - 2.0 * np.outer(v, v) / vn
    else:
        qmat = np.eye(n)

    linear = factor @ qmat
    spec, sign = oriented(n, alpha, beta)
    linear[:, 0] *= sign
    return spec, AffineMap(linear, g.center0)


def denormalize(p: AxialEllipsoidParams, m: AffineMap) -> Ellipsoid:
    """Push an axial result through the normalizing map.

    Maps produced by ``normalize`` already compose the convention
    reflection, so no extra transform is needed here.
    """
    return map_ellipsoid(m, p.expand())


def _ce_branch(n: int, alpha: float, beta: float) -> tuple[float, float, float, str]:
    """(tau, a, b, case) from the symmetric (ii) or general (iii) CE formula."""
    if abs(alpha + beta) <= SYMMETRIC_TOL:
        # alpha = -beta with alpha*beta > -1/n, i.e. beta < 1/sqrt(n)
        return (0.0, 1.0 / (n * beta * beta),
                (n - 1.0) / (n * (1.0 - beta * beta)), "ii")
    ssum = alpha + beta
    prod = alpha * beta
    delta = (n * n * (beta * beta - alpha * alpha) ** 2
             + 4.0 * (1.0 - alpha * alpha) * (1.0 - beta * beta))
    root = math.sqrt(delta)
    p = n * ssum * ssum + 2.0 * (1.0 + prod)
    num = p - root
    if abs(num) < _CONJUGATE_GUARD * root:
        # conjugate form of the same root, stable when p and sqrt(delta) cancel
        tau = 2.0 * ssum * (1.0 + n * prod) / (p + root)
    else:
        tau = num / (2.0 * (n + 1.0) * ssum)
    a = 1.0 / (n * (tau - alpha) * (beta - tau))
    b = (1.0 - a * (tau - alpha) ** 2) / (1.0 - alpha * alpha)
    return tau, a, b, "iii"


def ce_slab(s: SlabSpec) -> AxialEllipsoidParams:
    """Minimum-volume circumscribed ellipsoid of the slab, shape form.

    Branches: (i) deep slab (alpha*beta <= -1/n): the unit ball itself;
    (ii) symmetric slab: centered with axial shape 1/(n beta^2);
    (iii) general: tau is the smaller root of its quadratic, then (a, b)
    follow in closed form.
    """
    n = s.n
    alpha, beta = s.alpha, s.beta
    if alpha * beta + 1.0 / n <= BOUNDARY_TOL:
        return AxialEllipsoidParams(0.0, 1.0, 1.0, n, "shape", "i")
    tau, a, b, case = _ce_branch(n, alpha, beta)
    if not (alpha < tau < beta and a >= b > 0.0):
        raise InvalidEllipsoid(
            f"slab CE formula left its validity window: tau={tau}, a={a}, b={b}")
    return AxialEllipsoidParams(tau, a, b, n, "shape", case)


def ce_cone(s: SlabSpec) -> AxialEllipsoidParams:
    """Circumscribed ellipsoid of the truncated cone co(S_alpha u S_beta).

    The unit ball branch fires only at alpha*beta = -1/n exactly; away from
    it the slab formulas apply.  Unlike the slab, a >= b may fail (wide
    cylinders), so only positivity and the center window are enforced.
    """
    n = s.n
    alpha, beta = s.alpha, s.beta
    if 1.0 - alpha * alpha <= 0.0 and 1.0 - beta * beta <= 0.0:
        raise DegenerateInput("both rims are points; the hull is a segment")
    if abs(alpha * beta + 1.0 / n) <= BOUNDARY_TOL:
        return AxialEllipsoidParams(0.0, 1.0, 1.0, n, "shape", "i")
    tau, a, b, case = _ce_branch(n, alpha, beta)
    if not (alpha < tau < beta and a > 0.0 and b > 0.0):
        raise InvalidEllipsoid(
            f"cone CE formula left its validity window: tau={tau}, a={a}, b={b}")
    return AxialEllipsoidParams(tau, a, b, n, "shape", case)


def ie_slab(s: SlabSpec) -> AxialEllipsoidParams:
    """Maximum-volume inscribed ellipsoid of the slab, factor form.

    Branches: (i) symmetric slab: semi-axes (beta, 1, ..., 1); (ii) thin
    off-center slab (4n(1-alpha^2) < (n+1)^2 (beta^2-alpha^2)): tangent to
    the lower plane and the sphere; (iii) otherwise: tangent to both
    planes, tau = (alpha+beta)/2.
    """
    n = s.n
    alpha, beta = s.alpha, s.beta
    if abs(alpha + beta) <= SYMMETRIC_TOL:
        tau, a, b = 0.0, beta, 1.0
        case = "i"
    elif 4.0 * n * (1.0 - alpha * alpha) < (n + 1.0) ** 2 * (beta * beta - alpha * alpha):
        tau = 0.5 * (alpha + math.sqrt(alpha * alpha
                                       + 4.0 * n * (1.0 - alpha * alpha) / (n + 1.0) ** 2))
        a = tau - alpha
        b = math.sqrt(a * (a + n * tau))
        case = "ii"
    else:
        tau = 0.5 * (alpha + beta)
        a = 0.5 * (beta - alpha)
        # Stable equivalent of (beta^2-alpha^2) / (2(sqrt(1-alpha^2)-sqrt(1-beta^2)))
        half = 0.5 * (math.sqrt(1.0 - alpha * alpha) + math.sqrt(1.0 - beta * beta))
        b = math.sqrt(a * a + half * half)
        case = "iii"
    if not (b >= a > 0.0 and alpha <= tau - a + 1e-12 and tau + a <= beta + 1e-12):
        raise InvalidEllipsoid(
            f"slab IE formula left its validity window: tau={tau}, a={a}, b={b}")
    return AxialEllipsoidParams(tau, a, b, n, "axes", case)


# ---------------------------------------------------------------------------
# Boundary samples and analytic contact data, consumed by the certifier.

def _cross_frame(n: int) -> np.ndarray:
    """The 2(n-1) unit vectors +-e_j of the transverse subspace R^(n-1)."""
    frame = np.zeros((2 * (n - 1), n - 1))
    for j in range(n - 1):
        frame[2 * j, j] = 1.0
        frame[2 * j + 1, j] = -1.0
    return frame


def _rim_points(n: int, y: float, transverse_dirs: np.ndarray) -> np.ndarray:
    r = math.sqrt(max(1.0 - y * y, 0.0))
    pts = np.empty((transverse_dirs.shape[0], n))
    pts[:, 0] = y
    pts[:, 1:] = r * transverse_dirs
    return pts


def slab_boundary_points(s: SlabSpec, count: int) -> np.ndarray:
    """Deterministic sample of the slab boundary.

    Rays from the interior point ((alpha+beta)/2) e_1 along a
    low-discrepancy direction sequence, stopped at the first of the sphere
    or the two cutting planes.
    """
    n = s.n
    mid = np.zeros(n)
    mid[0] = 0.5 * (s.alpha + s.beta)
    dirs = unit_directions(n, count)
    t_hit = np.empty(count)
    # sphere intersection: |mid + t d| = 1
    b_lin = dirs @ mid
    c0 = float(mid @ mid) - 1.0
    disc = b_lin ** 2 - c0  # |d|=1
    t_hit[:] = -b_lin + np.sqrt(np.maximum(disc, 0.0))
    # plane intersections in the direction of travel
    d1 = dirs[:, 0]
    going_up = d1 > 1e-15
    going_dn = d1 < -1e-15
    t_up = np.where(going_up, (s.beta - mid[0]) / np.where(going_up, d1, 1.0), np.inf)
    t_dn = np.where(going_dn, (s.alpha - mid[0]) / np.where(going_dn, d1, 1.0), np.inf)
    t_hit = np.minimum(t_hit, np.minimum(t_up, t_dn))
    return mid + t_hit[:, None] * dirs


def cone_boundary_points(s: SlabSpec, count: int) -> np.ndarray:
    """Deterministic sample of the two rim circles bounding the cone."""
    n = s.n
    half = max(count // 2, 1)
    if n == 2:
        signs = np.array([1.0 if i % 2 == 0 else -1.0 for i in range(half)])
        dirs = signs[:, None]
    else:
        dirs = unit_directions(n - 1, half)
    return np.vstack([_rim_points(n, s.alpha, dirs), _rim_points(n, s.beta, dirs)])


def ce_contact_points(s: SlabSpec, p: AxialEllipsoidParams) -> np.ndarray:
    """Analytic contact candidates for the circumscribed ellipsoid.

    The touching set lies on the rim circles x_1 in {alpha, beta}; a deep
    slab additionally touches along the equator x_1 = 0.  A symmetric
    +-e_j frame per circle is enough for multiplier recovery.
    """
    n = s.n
    frame = _cross_frame(n)
    pts = [_rim_points(n, s.alpha, frame), _rim_points(n, s.beta, frame)]
    if p.case == "i" and s.alpha * s.beta + 1.0 / n < -BOUNDARY_TOL:
        pts.append(_rim_points(n, 0.0, frame))
    return np.vstack(pts)


def cone_contact_points(s: SlabSpec, p: AxialEllipsoidParams) -> np.ndarray:
    """Contact candidates for the cone: rim circles only."""
    del p
    frame = _cross_frame(s.n)
    return np.vstack([_rim_points(s.n, s.alpha, frame),
                      _rim_points(s.n, s.beta, frame)])


def ie_support_polytope(s: SlabSpec, p: AxialEllipsoidParams):
    """Supporting halfspaces of the slab at the inscribed ellipsoid's contacts.

    The slab planes plus the sphere's tangent planes along the touching
    circle; certifying against these halfspaces checks the Fritz John
    system of the slab itself, since only supporting hyperplanes at the
    contacts enter the conditions.
    """
    from .core import Polytope

    n = s.n
    tau, a, b = p.tau, p.a, p.b
    normals = []
    offsets = []
    e1 = np.zeros(n)
    e1[0] = 1.0
    normals += [-e1, e1]
    offsets += [-s.alpha, s.beta]
    # sphere contact circle: the ellipsoid point maximizing |x| sits at
    # v1 = a*tau/(b^2-a^2) when b > a (v1 = 0 for the symmetric branch)
    if b > a:
        v1 = a * tau / (b * b - a * a)
    else:
        v1 = 0.0
    v1 = min(max(v1, -1.0), 1.0)
    x1 = tau + a * v1
    r = b * math.sqrt(max(1.0 - v1 * v1, 0.0))
    circle = np.empty((2 * (n - 1), n))
    circle[:, 0] = x1
    circle[:, 1:] = r * _cross_frame(n)
    norms = np.linalg.norm(circle, axis=1)
    for row, nn in zip(circle, norms):
        if nn > 0.0:
            normals.append(row / nn)
            offsets.append(1.0)
    return Polytope(normals=np.array(normals), offsets=np.array(offsets))
