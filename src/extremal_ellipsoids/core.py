"""Ellipsoid algebra: representation, volume, support functions, polarity,
affine maps, and membership predicates.

An ellipsoid is a center ``c`` and a nonsingular factor ``F``: the set
``{c + F u : |u| <= 1}``, which is also ``{x : <X(x-c), x-c> <= 1}`` for
the shape ``X = (F F^T)^(-1)``.  Support points, volumes, affine images,
cuts and certificates read F; X serves membership tests and output.  This
module is the one place that converts between the two: from X = L L^T
the factor is F = L^(-T), and from F the shape is X = G^T G with G = F^(-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
# scipy is a hard dependency whose subpackages are imported where they are
# used, which keeps them out of the CLI's start-up.  The bare package loads
# none of them: importing it here fails a missing install at import time and
# puts scipy in sys.modules, where perfbench/run.py reads its version.
import scipy  # noqa: F401

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


def _center_and_matrix(center, matrix, name: str):
    """Immutable copies of a center and a finite square matrix matching it."""
    c = _as_immutable(np.atleast_1d(center))
    m = _as_immutable(np.atleast_2d(matrix))
    n = c.shape[0]
    if m.shape != (n, n):
        raise InvalidEllipsoid(f"{name} is {m.shape}, expected ({n}, {n})")
    if not np.isfinite(m).all():
        raise InvalidEllipsoid(f"{name} has non-finite entries")
    return c, m


class Ellipsoid:
    """Ellipsoid {c + F u : |u| <= 1} = {x : <X(x-c), x-c> <= 1}, F F^T = X^-1.

    ``Ellipsoid(center, shape)`` takes an SPD shape X and keeps its bytes;
    ``Ellipsoid.from_factor(center, factor)`` takes F and derives X and
    F^-1 at most once, on first use.  Instances are immutable.
    """

    def __init__(self, center, shape):
        c, x = _center_and_matrix(center, shape, "shape")
        asym = float(np.max(np.abs(x - x.T))) if x.size else 0.0
        if asym > SYMMETRY_TOL:
            raise InvalidEllipsoid(f"asymmetry {asym:.3e} exceeds {SYMMETRY_TOL}")
        lower = cholesky_spd(x)  # raises if not positive definite
        # X = L L^T, so F = L^-T, F^-1 = L^T and log|det F| = -sum log L_ii
        self.__dict__.update(center=c, shape=x,
                             _factor=_as_immutable(np.linalg.inv(lower).T),
                             _factor_inv=_as_immutable(lower.T),
                             _log_det=-float(np.sum(np.log(np.diag(lower)))))

    @classmethod
    def from_factor(cls, center, factor) -> "Ellipsoid":
        """The ellipsoid {center + factor u : |u| <= 1}; ``factor`` must be
        square, finite and nonsingular."""
        c, f = _center_and_matrix(center, factor, "factor")
        sign, log_det = np.linalg.slogdet(f)
        if sign == 0 or not np.isfinite(log_det):
            raise InvalidEllipsoid("factor is singular")
        e = cls.__new__(cls)
        e.__dict__.update(center=c, _factor=f, _log_det=float(log_det))
        return e

    def __setattr__(self, name, value):
        raise AttributeError(f"Ellipsoid is immutable; cannot set {name!r}")

    def __repr__(self) -> str:
        return f"Ellipsoid(center={self.center!r}, factor={self._factor!r})"

    @cached_property
    def shape(self) -> np.ndarray:
        """X = G^T G with G = F^-1, symmetrized."""
        g = self._factor_inv
        x = g.T @ g
        return _as_immutable(0.5 * (x + x.T))

    @cached_property
    def _factor_inv(self) -> np.ndarray:
        """F^-1, the map of E - c onto the unit ball; certify reads it."""
        return _as_immutable(np.linalg.inv(self._factor))

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
        """F, with F F^T = X^-1; maps the unit ball onto E - c."""
        return self._factor

    def boundary_points(self, directions) -> np.ndarray:
        """Boundary points c + F d/|d| for each row of ``directions``."""
        d = np.atleast_2d(np.asarray(directions, dtype=float))
        d = d / np.linalg.norm(d, axis=1, keepdims=True)
        return self.center + d @ self._factor.T


def unit_ball(n: int) -> Ellipsoid:
    return Ellipsoid(np.zeros(n), np.eye(n))


def volume(e: Ellipsoid) -> float:
    """|det F| times the unit-ball volume."""
    return math.exp(e._log_det) * unit_ball_volume(e.dim)


def support_points(e: Ellipsoid, normals) -> tuple[np.ndarray, np.ndarray]:
    """Support values <c, a_i> + |F^T a_i| for the rows a_i of ``normals``,
    and the points c + F F^T a_i / |F^T a_i| of E where they are attained."""
    a = np.atleast_2d(np.asarray(normals, dtype=float))
    v = a @ e.factor()  # rows F^T a_i
    s = np.linalg.norm(v, axis=1)
    return a @ e.center + s, e.center + (v / s[:, None]) @ e.factor().T


def support_function(e: Ellipsoid, d) -> float:
    """s_E(d) = <c, d> + |F^T d|."""
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
    """Image of {c + F u : |u| <= 1} under x -> a + Ax: {a + Ac + AF u}."""
    if t.dim != e.dim:
        raise SingularMap(f"map dim {t.dim} does not match ellipsoid dim {e.dim}")
    return Ellipsoid.from_factor(t(e.center), t.linear @ e.factor())


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
