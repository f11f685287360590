"""Finite symmetry groups acting on R^n and group-averaged ellipsoids.

A finite group of isometries determines a circumscribed ellipsoid of an
orbit polytope directly: the center is the orbit average and the inverse
shape matrix is n times the averaged outer product of the centered orbit.
Both are exactly invariant under the group by construction, which makes
this an independent route to the same ellipsoid a numerical solver finds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import AffineMap, Ellipsoid
from .errors import SingularShape

_CLOSURE_TOL = 1e-10
_ORBIT_TOL = 1e-9
_INVARIANCE_TOL = 1e-9


class _Lookup:
    """Exact max-norm neighbour search among the rows of a table.

    The rows are projected once onto a fixed direction r and sorted.  A
    row within ``tol`` of a query in the max-norm projects within
    tol |r|_1 of it, so a window of that half-width, widened by the
    rounding of both projections, around each query's projection holds
    every match; each hit in the window is then verified in the max-norm.
    A query that matches a row is at most tol larger than the rows, which
    bounds the rounding of its projection.
    """

    def __init__(self, rows: np.ndarray, tol: float):
        self.rows, self.tol = rows, tol
        # sin(1), ..., sin(d) are linearly independent over the rationals,
        # so distinct rows of small-integer tables rarely share a projection
        self.direction = np.sin(np.arange(1.0, rows.shape[1] + 1.0))
        keys = rows @ self.direction
        self.by_key = np.argsort(keys, kind="stable")
        self.keys = keys[self.by_key]
        # 4 d eps (max|row| + tol) |r|_1 covers the rounding of both
        # projections and of the window bounds
        self.slack = float(np.abs(self.direction).sum()) * (tol + 4.0 * (
            rows.shape[1] * np.finfo(float).eps * (np.abs(rows).max() + tol)))

    def index(self, queries: np.ndarray, message: str) -> np.ndarray:
        """First row within tol of each query; ValueError(message) if none."""
        proj = queries @ self.direction
        lo = np.searchsorted(self.keys, proj - self.slack)
        hits = np.searchsorted(self.keys, proj + self.slack, "right") - lo
        q = np.repeat(np.arange(len(queries)), hits)
        r = self.by_key[np.arange(len(q)) + (lo + hits - np.cumsum(hits))[q]]
        near = np.abs(queries[q] - self.rows[r]).max(axis=1) <= self.tol
        first = np.full(len(queries), len(self.rows))
        np.minimum.at(first, q[near], r[near])
        if np.any(first == len(self.rows)):
            raise ValueError(message)
        return first


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """Finite collection of affine isometries, closed under the group laws.

    ``form`` optionally supplies an SPD matrix M = R R^T whose Cholesky
    factor conjugates the linear parts to orthogonal ones, R^T g R^-T;
    without it the linear parts must be orthogonal as given.  Closure,
    inverses, and the identity are verified eagerly since everything
    downstream relies on them, up to _CLOSURE_TOL in the max-norm over the
    linear part and the offset, with offsets in units of 1 + max|offset|;
    ``identity_index`` is the first element within that tolerance of the
    identity map.

    Closure is checked on generators: the first element not yet reached
    from the identity becomes a generator t, one exact lookup (the element
    table projected onto a fixed direction and sorted, a searchsorted
    window around each product, every hit verified in the max-norm) finds
    every product g o t, and right multiplication by the generators so far
    extends the reached set.  A set with the identity and G o t in G for
    each t of a generating set T is a group, and each new generator at
    least doubles the reached subgroup, so the check costs at most
    ceil(log2 |G|) lookups of |G| products, plus one for the inverses; the
    signed permutations of order 46 080 build in a few seconds.
    ``linears`` (|G|, n, n) and ``offsets`` (|G|, n) stack the elements.
    """

    elements: tuple
    form: np.ndarray | None = None
    identity_index: int = field(init=False)
    linears: np.ndarray = field(init=False, repr=False, compare=False)
    offsets: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.elements:
            raise ValueError("a group needs at least one element")
        elements = tuple(self.elements)
        object.__setattr__(self, "elements", elements)
        n = elements[0].dim
        if any(g.dim != n for g in elements):
            raise ValueError("group elements must share one dimension")
        linears = np.array([g.linear for g in elements])
        offsets = np.array([g.offset for g in elements])
        linears.setflags(write=False)
        offsets.setflags(write=False)
        object.__setattr__(self, "linears", linears)
        object.__setattr__(self, "offsets", offsets)

        if self.form is not None:
            form = np.asarray(self.form, dtype=float)
            object.__setattr__(self, "form", form)
            if not np.isfinite(form).all():
                raise ValueError("invariant form must be finite")
            try:
                root = np.linalg.cholesky(0.5 * (form + form.T))
            except np.linalg.LinAlgError as exc:
                raise ValueError("invariant form must be positive definite") \
                    from exc
        else:
            root = np.eye(n)
        conj = root.T @ linears @ np.linalg.inv(root).T
        if np.max(np.abs(conj.transpose(0, 2, 1) @ conj - np.eye(n))) \
                > _CLOSURE_TOL or not np.isfinite(offsets).all():
            raise ValueError("group element is not a finite isometry")

        # the identity, every product and every inverse must be elements
        unit = 1.0 + float(np.max(np.abs(offsets)))

        def flat(lin, off):
            return np.hstack([lin.reshape(len(lin), -1), off / unit])

        lookup = _Lookup(flat(linears, offsets), _CLOSURE_TOL)
        ident = np.flatnonzero(np.abs(lookup.rows - flat(
            np.eye(n)[None], np.zeros((1, n)))).max(axis=1) <= _CLOSURE_TOL)
        if ident.size == 0:
            raise ValueError("identity element missing")
        object.__setattr__(self, "identity_index", int(ident[0]))
        reached = np.zeros(len(elements), dtype=bool)
        reached[self.identity_index] = True
        right = []  # right[k][i]: index of the element (element i) o t_k
        while not reached.all():
            t = int(np.argmin(reached))
            right.append(lookup.index(
                flat(linears @ linears[t], offsets + linears @ offsets[t]),
                "group is not closed under composition"))
            reached[t] = True
            # close under the generators so far: the subgroup they span
            size = 0
            while size < np.count_nonzero(reached):
                size = np.count_nonzero(reached)
                for step in right:
                    reached[step[reached]] = True
        inv_lin = np.linalg.inv(linears)
        lookup.index(flat(inv_lin, -np.einsum("mij,mj->mi", inv_lin, offsets)),
                     "group is not closed under inversion")

    @property
    def dim(self) -> int:
        return self.elements[0].dim

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def _images(group: FiniteGroup, x) -> np.ndarray:
    """(|G|, n) array whose row k is the k-th element applied to x."""
    return group.offsets + group.linears @ np.asarray(x, dtype=float)


def orbit(group: FiniteGroup, x) -> list:
    """Deduplicated orbit {g(x) : g in G}; its size divides the group order.

    An image is dropped iff it lies within _ORBIT_TOL (max-norm) of an
    earlier kept image.  A repeat of an earlier image is always dropped, so
    only first occurrences are candidates.  Two candidates that near lie in
    one run of the sorted projection of the lookup, a run ending where two
    consecutive projections are more than its window apart.  A candidate
    alone in its run is kept, and the rule settles the candidates of each
    longer run in index order: a point nearly fixed by all of G costs one
    pass over its images, not |G|^2 / 2 near pairs.
    """
    images = _images(group, x)
    if not np.isfinite(images).all():
        raise ValueError("orbit point must be finite")
    cand = images[np.sort(np.unique(images, axis=0, return_index=True)[1])]
    lookup = _Lookup(cand, _ORBIT_TOL)
    run = np.cumsum(np.diff(lookup.keys, prepend=-np.inf) > lookup.slack)
    shared = np.bincount(run)[run] > 1
    kept = (~shared)[np.argsort(lookup.by_key)]  # back to candidate order
    for part in np.split(lookup.by_key[shared],
                         np.flatnonzero(np.diff(run[shared])) + 1):
        chosen = []
        for i in np.sort(part):
            if np.all(np.abs(cand[chosen] - cand[i]).max(axis=1) > _ORBIT_TOL):
                chosen.append(i)
        kept[chosen] = True
    return list(cand[kept])


def invariant_center(group: FiniteGroup, x) -> np.ndarray:
    """Group average of x; fixed by every element."""
    return _images(group, x).sum(axis=0) / len(group)


def invariant_shape(group: FiniteGroup, x, c) -> np.ndarray:
    """Shape matrix of the averaged circumscribed ellipsoid at center c.

    X^(-1) = n * avg_g (g(x) - c)(g(x) - c)^T.  Invariance under every group
    element holds exactly because left multiplication permutes the terms.
    Raises SingularShape when the orbit fails to span around c.
    """
    dev = _images(group, x) - np.asarray(c, dtype=float)
    avg = (dev[:, :, None] * dev[:, None, :]).sum(axis=0) / len(group)
    vals = np.linalg.eigvalsh(0.5 * (avg + avg.T))
    if vals[-1] <= 0.0 or vals[0] <= 1e-12 * vals[-1]:
        raise SingularShape("orbit does not span the space around the center")
    shape = np.linalg.inv(group.dim * avg)
    return 0.5 * (shape + shape.T)


def check_invariant_ellipsoid(group: FiniteGroup, e: Ellipsoid,
                              tol: float = _INVARIANCE_TOL) -> bool:
    """True iff every element fixes the center and conjugates X to itself."""
    if group.dim != e.dim:
        raise ValueError("group and ellipsoid dimensions differ")
    x = e.shape
    scale_x = np.linalg.norm(x)
    scale_c = 1.0 + float(np.linalg.norm(e.center))
    moved = np.linalg.norm(_images(group, e.center) - e.center, axis=1)
    lin = group.linears
    turned = np.linalg.norm(lin.transpose(0, 2, 1) @ x @ lin - x,
                            axis=(1, 2))
    return not (np.any(moved > tol * scale_c)
                or np.any(turned > tol * scale_x))


# ---------------------------------------------------------------------------
# Built-in groups.

def _linear_group(matrices) -> FiniteGroup:
    zero = np.zeros(matrices[0].shape[0])
    return FiniteGroup(tuple(AffineMap(m, zero) for m in matrices))


def _signed_permutations(n: int) -> np.ndarray:
    """(n! 2^n, n, n) matrices diag(s) P, s inner to the permutation P."""
    perms = np.eye(n)[list(itertools.permutations(range(n)))]
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=n)))
    # adding 0.0 turns the products' -0.0 into the +0.0 diag(s) @ P gives
    return (signs[None, :, :, None] * perms[:, None]).reshape(-1, n, n) + 0.0


def _rotations(m: int) -> list:
    if m < 1:
        raise ValueError("order must be positive")
    turns = [2.0 * math.pi * k / m for k in range(1, m)]
    return [np.eye(2)] + [np.array([[math.cos(t), -math.sin(t)],
                                    [math.sin(t), math.cos(t)]]) for t in turns]


def permutation_group(n: int) -> FiniteGroup:
    """All n! coordinate permutations."""
    return _linear_group(np.eye(n)[list(itertools.permutations(range(n)))])


def signed_permutation_group(n: int) -> FiniteGroup:
    """Hyperoctahedral group: coordinate permutations with sign flips."""
    return _linear_group(_signed_permutations(n))


def cyclic_group(m: int) -> FiniteGroup:
    """Planar rotations by multiples of 2*pi/m."""
    return _linear_group(_rotations(m))


def dihedral_group(m: int) -> FiniteGroup:
    """Planar rotations and reflections of a regular m-gon."""
    rots = _rotations(m)
    return _linear_group(rots + [r @ np.diag([1.0, -1.0]) for r in rots])


def slab_symmetry_group(n: int, flip_axis: bool = False) -> FiniteGroup:
    """Symmetries fixing the first axis: signed permutations transverse to it.

    ``flip_axis`` adds the sign flip of the first coordinate, valid only for
    bodies symmetric about the transverse hyperplane through the origin.
    """
    if n < 2:
        raise ValueError("need dimension at least 2")
    firsts = (1.0, -1.0) if flip_axis else (1.0,)
    blocks = _signed_permutations(n - 1)
    mats = np.zeros((len(blocks), len(firsts), n, n))
    mats[:, :, 1:, 1:] = blocks[:, None]
    mats[:, :, 0, 0] = firsts
    return _linear_group(mats.reshape(-1, n, n))


def named_group(name: str, n: int | None = None,
                order: int | None = None) -> FiniteGroup:
    """Build a built-in group from a string key, for serialized inputs."""
    key = name.replace("_", "-").lower()
    if key == "permutation":
        return permutation_group(_require(n, "dim"))
    if key == "signed-permutation":
        return signed_permutation_group(_require(n, "dim"))
    if key == "cyclic":
        return cyclic_group(_require(order, "order"))
    if key == "dihedral":
        return dihedral_group(_require(order, "order"))
    if key == "slab":
        return slab_symmetry_group(_require(n, "dim"))
    if key == "slab-symmetric":
        return slab_symmetry_group(_require(n, "dim"), flip_axis=True)
    raise ValueError(f"unknown group name {name!r}")


def _require(value, what):
    if value is None:
        raise ValueError(f"group requires {what}")
    return value


def group_to_dict(group: FiniteGroup) -> dict:
    return {"elements": [{"linear": g.linear.tolist(),
                          "offset": g.offset.tolist()} for g in group]}


def group_from_dict(payload: dict) -> FiniteGroup:
    return FiniteGroup(tuple(
        AffineMap(np.asarray(item["linear"], dtype=float),
                  np.asarray(item["offset"], dtype=float))
        for item in payload["elements"]))
