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

from .core import AffineMap, Ellipsoid, symmetric_roots
from .errors import SingularShape

_CLOSURE_TOL = 1e-10
_ORBIT_TOL = 1e-9
_INVARIANCE_TOL = 1e-9


@dataclass(frozen=True)
class FiniteGroup:
    """Finite collection of affine isometries, closed under the group laws.

    ``form`` optionally supplies an SPD matrix whose square root conjugates
    the linear parts to orthogonal ones; without it the linear parts must be
    orthogonal as given.  Closure, inverses, and the identity are verified
    eagerly since everything downstream relies on them; ``identity_index``
    is the first element within _CLOSURE_TOL of the identity map.

    Closure is checked on generators: the first element not yet reached
    from the identity becomes a generator t, one k-d tree query looks up
    every product g o t, and right multiplication by the generators so far
    extends the reached set.  A set with the identity and G o t in G for
    each t of a generating set T is a group, and each new generator at
    least doubles the reached subgroup, so the check costs at most
    ceil(log2 |G|) queries of |G| products, plus one for the inverses.
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
            form = 0.5 * (form + form.T)
            if np.any(np.linalg.eigvalsh(form) <= 0.0):
                raise ValueError("invariant form must be positive definite")
            root, root_inv = symmetric_roots(form)
        else:
            root = root_inv = np.eye(n)
        conj = root @ linears @ root_inv
        if np.max(np.abs(conj.transpose(0, 2, 1) @ conj - np.eye(n))) \
                > _CLOSURE_TOL:
            raise ValueError("group element is not an isometry")

        # the identity, every product and every inverse must be elements,
        # up to _CLOSURE_TOL in the max-norm over linear part and offset
        order = len(elements)
        flat = np.hstack([linears.reshape(order, -1), offsets])
        unit = np.concatenate([np.eye(n).ravel(), np.zeros(n)])
        ident = np.flatnonzero(np.max(np.abs(flat - unit), axis=1)
                               <= _CLOSURE_TOL)
        if ident.size == 0:
            raise ValueError("identity element missing")
        object.__setattr__(self, "identity_index", int(ident[0]))

        from scipy.spatial import cKDTree

        tree = cKDTree(flat)
        reached = np.zeros(order, dtype=bool)
        reached[self.identity_index] = True
        right = []  # right[k][i]: index of the element (element i) o t_k
        while not reached.all():
            t = int(np.argmin(reached))
            prod = np.hstack([(linears @ linears[t]).reshape(order, -1),
                              offsets + linears @ offsets[t]])
            dist, index = tree.query(prod, p=np.inf)
            if np.any(dist > _CLOSURE_TOL):
                raise ValueError("group is not closed under composition")
            right.append(index)
            reached[t] = True
            # close under the generators so far: the subgroup they span
            size = 0
            while size < np.count_nonzero(reached):
                size = np.count_nonzero(reached)
                for step in right:
                    reached[step[reached]] = True
        inv_lin = np.linalg.inv(linears)
        inverses = np.hstack([inv_lin.reshape(order, -1),
                              -np.einsum("mij,mj->mi", inv_lin, offsets)])
        if np.any(tree.query(inverses, p=np.inf)[0] > _CLOSURE_TOL):
            raise ValueError("group is not closed under inversion")

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
    only first occurrences are candidates (a point fixed by all of G would
    otherwise give |G|^2 / 2 near pairs); each round then settles every
    candidate whose earlier neighbours are settled.
    """
    from scipy.spatial import cKDTree

    images = _images(group, x)
    cand = images[np.sort(np.unique(images, axis=0, return_index=True)[1])]
    pairs = cKDTree(cand).query_pairs(_ORBIT_TOL, p=np.inf,
                                      output_type="ndarray")
    earlier, later = pairs[:, 0], pairs[:, 1]
    kept = np.zeros(len(cand), dtype=bool)
    open_ = np.ones(len(cand), dtype=bool)
    while open_.any():
        open_[later[kept[earlier]]] = False
        waiting = np.zeros_like(open_)
        waiting[later[open_[earlier]]] = True
        kept |= open_ & ~waiting
        open_ &= waiting
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


def permutation_group(n: int) -> FiniteGroup:
    """All n! coordinate permutations."""
    eye = np.eye(n)
    mats = [eye[list(p)].copy() for p in itertools.permutations(range(n))]
    return _linear_group(mats)


def signed_permutation_group(n: int) -> FiniteGroup:
    """Hyperoctahedral group: coordinate permutations with sign flips."""
    eye = np.eye(n)
    mats = []
    for p in itertools.permutations(range(n)):
        base = eye[list(p)]
        for signs in itertools.product((1.0, -1.0), repeat=n):
            mats.append(np.diag(signs) @ base)
    return _linear_group(mats)


def cyclic_group(m: int) -> FiniteGroup:
    """Planar rotations by multiples of 2*pi/m."""
    if m < 1:
        raise ValueError("order must be positive")
    mats = []
    for k in range(m):
        t = 2.0 * math.pi * k / m
        mats.append(np.array([[math.cos(t), -math.sin(t)],
                              [math.sin(t), math.cos(t)]]))
    mats[0] = np.eye(2)
    return _linear_group(mats)


def dihedral_group(m: int) -> FiniteGroup:
    """Planar rotations and reflections of a regular m-gon."""
    if m < 1:
        raise ValueError("order must be positive")
    flip = np.diag([1.0, -1.0])
    rots = list(cyclic_group(m).elements)
    mats = [g.linear for g in rots] + [g.linear @ flip for g in rots]
    return _linear_group(mats)


def slab_symmetry_group(n: int, flip_axis: bool = False) -> FiniteGroup:
    """Symmetries fixing the first axis: signed permutations transverse to it.

    ``flip_axis`` adds the sign flip of the first coordinate, valid only for
    bodies symmetric about the transverse hyperplane through the origin.
    """
    if n < 2:
        raise ValueError("need dimension at least 2")
    mats = []
    firsts = (1.0, -1.0) if flip_axis else (1.0,)
    for g in signed_permutation_group(n - 1):
        block = np.zeros((n, n))
        block[1:, 1:] = g.linear
        for eps in firsts:
            mat = block.copy()
            mat[0, 0] = eps
            mats.append(mat)
    return _linear_group(mats)


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
