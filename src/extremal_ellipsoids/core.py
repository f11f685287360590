"""Ellipsoid algebra: representation, volume, support functions, polarity,
affine maps, and membership predicates.

An ellipsoid is stored as a center ``c`` and a symmetric positive definite
shape matrix ``X`` and denotes the set ``{x : <X(x-c), x-c> <= 1}``.  The
factor form ``A = X^(-1/2)`` (whose columns scale the unit ball onto the
ellipsoid) is derived on demand from a symmetric eigendecomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyBody,
    InvalidDirection,
    InvalidEllipsoid,
    SingularMap,
)

# Default tolerances; certification code overrides them explicitly.
SYMMETRY_TOL = 1e-12
MEMBERSHIP_TOL = 1e-9
_REL_PIVOT_TOL = 1e-12


def unit_ball_volume(n: int) -> float:
    """Volume of the Euclidean unit ball in dimension n."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def _as_immutable(a, dtype=float):
    out = np.array(a, dtype=dtype)
    out.flags.writeable = False
    return out


def cholesky_spd(x: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of ``x``, rejecting non-SPD input.

    Pivots are required to exceed ``_REL_PIVOT_TOL * trace(x)/n`` so the
    check is scale aware.  Raises InvalidEllipsoid on failure.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    floor = _REL_PIVOT_TOL * max(np.trace(x) / n, 0.0)
    if not np.isfinite(x).all():
        raise InvalidEllipsoid("shape matrix has non-finite entries")
    try:
        lower = np.linalg.cholesky(x)
    except np.linalg.LinAlgError as exc:
        raise InvalidEllipsoid("shape matrix is not positive definite") from exc
    pivots = np.diag(lower) ** 2
    low = np.flatnonzero(~(pivots > floor))
    if low.size:
        j = int(low[0])
        raise InvalidEllipsoid(f"pivot {j} is {pivots[j]:.3e}, below {floor:.3e}")
    return lower


def symmetric_roots(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(X^(1/2), X^(-1/2)) of a symmetric positive definite X, via eigh."""
    w, v = np.linalg.eigh(x)
    return (v * np.sqrt(w)) @ v.T, (v / np.sqrt(w)) @ v.T


@dataclass(frozen=True, eq=False)
class Ellipsoid:
    """Ellipsoid {x : <X(x-c), x-c> <= 1} with SPD shape X."""

    center: np.ndarray
    shape: np.ndarray

    def __post_init__(self):
        c = _as_immutable(np.atleast_1d(self.center))
        x = _as_immutable(np.atleast_2d(self.shape))
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "shape", x)
        n = c.shape[0]
        if x.shape != (n, n):
            raise InvalidEllipsoid(f"shape is {x.shape}, expected ({n}, {n})")
        if not np.isfinite(x).all():
            raise InvalidEllipsoid("shape matrix has non-finite entries")
        asym = float(np.max(np.abs(x - x.T))) if n else 0.0
        if asym > SYMMETRY_TOL:
            raise InvalidEllipsoid(f"asymmetry {asym:.3e} exceeds {SYMMETRY_TOL}")
        cholesky_spd(x)  # raises if not positive definite

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def quadratic_form(self, points) -> np.ndarray:
        """Values of <X(x-c), x-c> for one point or a stack of points."""
        p = np.asarray(points, dtype=float)
        diff = p - self.center
        if diff.ndim == 1:
            return float(diff @ self.shape @ diff)
        return np.einsum("ij,jk,ik->i", diff, self.shape, diff)

    def factor(self) -> np.ndarray:
        """Symmetric A = X^(-1/2); maps the unit ball onto E - c."""
        return symmetric_roots(self.shape)[1]

    def boundary_points(self, directions) -> np.ndarray:
        """Boundary points c + A d/|d| for each row of ``directions``."""
        d = np.atleast_2d(np.asarray(directions, dtype=float))
        d = d / np.linalg.norm(d, axis=1, keepdims=True)
        return self.center + d @ self.factor().T


def unit_ball(n: int) -> Ellipsoid:
    return Ellipsoid(np.zeros(n), np.eye(n))


def volume(e: Ellipsoid) -> float:
    """det(X)^(-1/2) times the unit-ball volume."""
    return factor_volume(cholesky_spd(e.shape))


def factor_volume(lower: np.ndarray) -> float:
    """Volume of the ellipsoid whose shape X has Cholesky factor ``lower``."""
    # det(X)^(-1/2) = prod(diag(L))^(-1), computed in log space
    log_det_root = float(np.sum(np.log(np.diag(lower))))
    return math.exp(-log_det_root) * unit_ball_volume(lower.shape[0])


def support_points(e: Ellipsoid, normals) -> tuple[np.ndarray, np.ndarray]:
    """Support values <c, a_i> + <X^(-1) a_i, a_i>^(1/2) for the rows a_i
    of ``normals``, and the points c + X^(-1) a_i / <X^(-1) a_i, a_i>^(1/2)
    of E where they are attained."""
    a = np.atleast_2d(np.asarray(normals, dtype=float))
    ya = a @ np.linalg.inv(e.shape)  # rows X^(-1) a_i
    s = np.sqrt(np.einsum("ij,ij->i", ya, a))
    return a @ e.center + s, e.center + ya / s[:, None]


def support_function(e: Ellipsoid, d) -> float:
    """s_E(d) = <c, d> + <X^(-1) d, d>^(1/2)."""
    d = np.asarray(d, dtype=float)
    if not np.linalg.norm(d) > 0.0:
        raise InvalidDirection("support direction must be nonzero")
    return float(support_points(e, d)[0][0])


def contains(e: Ellipsoid, x, tol: float = MEMBERSHIP_TOL) -> bool:
    """Membership test <X(x-c), x-c> <= 1 + tol."""
    return bool(e.quadratic_form(np.asarray(x, dtype=float)) <= 1.0 + tol)


@dataclass(frozen=True, eq=False)
class AffineMap:
    """x -> offset + linear @ x with invertible linear part."""

    linear: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        a = _as_immutable(np.atleast_2d(self.linear))
        t = _as_immutable(np.atleast_1d(self.offset))
        object.__setattr__(self, "linear", a)
        object.__setattr__(self, "offset", t)
        if a.shape[0] != a.shape[1] or a.shape[0] != t.shape[0]:
            raise SingularMap(f"inconsistent shapes {a.shape} and {t.shape}")
        sign, logdet = np.linalg.slogdet(a)
        if sign == 0 or not np.isfinite(logdet):
            raise SingularMap("linear part is singular")

    @property
    def dim(self) -> int:
        return self.offset.shape[0]

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return self.offset + self.linear @ x
        return x @ self.linear.T + self.offset

    def inverse(self) -> "AffineMap":
        inv = np.linalg.inv(self.linear)
        return AffineMap(inv, -inv @ self.offset)

    def compose(self, other: "AffineMap") -> "AffineMap":
        """self after other: x -> self(other(x))."""
        return AffineMap(self.linear @ other.linear,
                         self.offset + self.linear @ other.offset)


def identity_map(n: int) -> AffineMap:
    return AffineMap(np.eye(n), np.zeros(n))


def map_ellipsoid(t: AffineMap, e: Ellipsoid) -> Ellipsoid:
    """Image of E(X, c) under x -> a + Ax, namely E(A^-T X A^-1, a + Ac)."""
    if t.dim != e.dim:
        raise SingularMap(f"map dim {t.dim} does not match ellipsoid dim {e.dim}")
    a_inv = np.linalg.inv(t.linear)
    x_new = a_inv.T @ e.shape @ a_inv
    x_new = 0.5 * (x_new + x_new.T)  # symmetrize rounding noise
    return Ellipsoid(t(e.center), x_new)


@dataclass(frozen=True, eq=False)
class Polytope:
    """Convex polytope in vertex form or halfspace form.

    V-form: ``vertices`` is a (k, n) stack of points, the body co({u_i}).
    H-form: ``normals`` (m, n) and ``offsets`` (m,) encode <a_i, x> <= b_i.
    """

    vertices: np.ndarray | None = None
    normals: np.ndarray | None = None
    offsets: np.ndarray | None = None

    def __post_init__(self):
        if self.vertices is not None:
            v = _as_immutable(np.atleast_2d(self.vertices))
            if v.size == 0:
                raise EmptyBody("vertex list is empty")
            object.__setattr__(self, "vertices", v)
        elif self.normals is not None and self.offsets is not None:
            a = _as_immutable(np.atleast_2d(self.normals))
            b = _as_immutable(np.atleast_1d(self.offsets))
            if a.shape[0] != b.shape[0]:
                raise EmptyBody("normals and offsets disagree in length")
            if a.shape[0] == 0:
                raise EmptyBody("halfspace list is empty")
            object.__setattr__(self, "normals", a)
            object.__setattr__(self, "offsets", b)
        else:
            raise EmptyBody("polytope needs vertices or normals+offsets")

    @property
    def is_vform(self) -> bool:
        return self.vertices is not None

    @property
    def dim(self) -> int:
        if self.is_vform:
            return self.vertices.shape[1]
        return self.normals.shape[1]

    def support(self, d) -> float:
        """Support function max <d, x>; V-form only."""
        if not self.is_vform:
            raise InvalidDirection("support of an H-form needs an LP; see solve")
        return float(np.max(self.vertices @ np.asarray(d, dtype=float)))

    def contains_point(self, x, tol: float = MEMBERSHIP_TOL) -> bool:
        """H-form membership; each <a_i, x> <= b_i + tol*|a_i|."""
        if self.is_vform:
            raise InvalidDirection("membership in a V-form needs an LP; see solve")
        scale = np.linalg.norm(self.normals, axis=1)
        return bool(np.all(self.normals @ np.asarray(x, dtype=float)
                           <= self.offsets + tol * scale))


def polar(p: Polytope) -> Polytope:
    """Polar of a V-polytope: {x : <u_i, x> <= 1 for all vertices u_i}."""
    if not p.is_vform:
        raise InvalidDirection("polar takes a V-form polytope")
    return Polytope(normals=p.vertices, offsets=np.ones(p.vertices.shape[0]))


def chebyshev_center(p: Polytope) -> tuple[np.ndarray, float]:
    """Center and radius of the largest ball in an H-polytope (via an LP)."""
    from scipy.optimize import linprog

    if p.is_vform:
        raise InvalidDirection("chebyshev_center takes an H-form polytope")
    a = np.asarray(p.normals, dtype=float)
    b = np.asarray(p.offsets, dtype=float)
    scale = np.linalg.norm(a, axis=1)
    if np.any(scale == 0.0):
        raise EmptyBody("zero normal in halfspace list")
    n = p.dim
    # maximize r subject to a_i x + |a_i| r <= b_i
    cost = np.zeros(n + 1)
    cost[-1] = -1.0
    a_ub = np.hstack([a, scale[:, None]])
    res = linprog(cost, A_ub=a_ub, b_ub=b, bounds=[(None, None)] * (n + 1),
                  method="highs")
    if not res.success or res.x[-1] <= 0.0:
        raise EmptyBody("polytope has empty interior")
    return res.x[:-1], float(res.x[-1])


def polytope_is_bounded(p: Polytope) -> bool:
    """Whether a nonempty {x : Ax <= b} is bounded, in two LPs.

    A feasibility LP rejects an empty body; the body is then bounded iff
    rank A = n and some y >= 1 has A^T y = 0 (Stiemke's alternative: no
    x != 0 has Ax <= 0).  A V-form body is bounded.
    """
    from scipy.optimize import linprog

    if p.is_vform:
        return True
    a = np.asarray(p.normals, dtype=float)
    m, n = a.shape
    res = linprog(np.zeros(n), A_ub=a, b_ub=p.offsets,
                  bounds=[(None, None)] * n, method="highs")
    if not res.success:
        raise EmptyBody("polytope is infeasible")
    if np.linalg.matrix_rank(a) < n:
        return False
    res = linprog(np.zeros(m), A_eq=a.T, b_eq=np.zeros(n),
                  bounds=[(1.0, None)] * m, method="highs")
    return bool(res.success)


# ---------------------------------------------------------------------------
# Deterministic direction sequences and JSON plumbing.

def unit_directions(n: int, count: int) -> np.ndarray:
    """Deterministic low-discrepancy sequence of unit vectors in R^n.

    Unscrambled Halton points pushed through the normal quantile and
    normalized; reproducible across runs and platforms.
    """
    from scipy.stats import qmc, norm

    sampler = qmc.Halton(d=n, scramble=False)
    u = sampler.random(count + 1)[1:]  # drop the origin-ish first point
    u = np.clip(u, 1e-12, 1.0 - 1e-12)
    g = norm.ppf(u)
    norms = np.linalg.norm(g, axis=1)
    norms[norms == 0.0] = 1.0
    return g / norms[:, None]


def ellipsoid_to_dict(e: Ellipsoid) -> dict:
    return {
        "dim": e.dim,
        "center": [float(v) for v in e.center],
        "shape": [[float(v) for v in row] for row in e.shape],
    }


def ellipsoid_from_dict(d: dict) -> Ellipsoid:
    e = Ellipsoid(np.asarray(d["center"], dtype=float),
                  np.asarray(d["shape"], dtype=float))
    if "dim" in d and int(d["dim"]) != e.dim:
        raise InvalidEllipsoid(f"declared dim {d['dim']} but center has {e.dim}")
    return e
