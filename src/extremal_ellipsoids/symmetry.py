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

import numpy as np

from .core import AffineMap, Ellipsoid
from .errors import SingularMap, SingularShape

_CLOSURE_TOL = 1e-10
_ORBIT_TOL = 1e-9
_INVARIANCE_TOL = 1e-9
# _Lookup.index verifies this many window hits per pass: at least the
# 48 x 48 a group of order 48 can have, so those take one pass
_HIT_CHUNK = 4096
# named_group refuses a group whose stacked linear parts take more bytes
_GROUP_BYTES = 64 * 10 ** 6


class _Lookup:
    """Exact max-norm neighbour search among the rows of a table.

    The rows are projected once onto a fixed direction r and sorted.  A
    row within ``tol`` of a query in the max-norm projects within
    tol |r|_1 of it, so a window of that half-width, widened by the
    rounding of both projections, around each query's projection holds
    every match; each hit in the window is then verified in the max-norm,
    _HIT_CHUNK hits at a time, so the gathered copies stay small.
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
        first = np.full(len(queries), len(self.rows))
        for at in range(0, len(q), _HIT_CHUNK):
            qc, rc = q[at:at + _HIT_CHUNK], r[at:at + _HIT_CHUNK]
            near = np.abs(queries[qc] - self.rows[rc]).max(axis=1) <= self.tol
            np.minimum.at(first, qc[near], rc[near])
        if np.any(first == len(self.rows)):
            raise ValueError(message)
        return first


class FiniteGroup:
    """Finite group of affine isometries, held as two stacked arrays.

    ``linears`` (|G|, n, n) and ``offsets`` (|G|, n) stack the elements
    x -> offset + linear @ x, and there is no object per element:
    ``elements`` and iteration build ``AffineMap``s only when asked.
    ``FiniteGroup(elements, form)`` stacks a sequence of ``AffineMap``s
    once; the built-in groups and ``group_from_dict`` hand their stacks to
    the same validation.

    ``form`` optionally supplies an SPD matrix M = R R^T whose Cholesky
    factor conjugates the linear parts to orthogonal ones, R^T g R^-T;
    without it the linear parts must be orthogonal as given, which also
    makes them nonsingular.  Closure, inverses, and the identity are
    verified eagerly since everything downstream relies on them, up to
    _CLOSURE_TOL in the max-norm over the linear part and the offset, with
    offsets in units of 1 + max|offset|; ``identity_index`` is the first
    element within that tolerance of the identity map.

    Closure is checked on generators: the first element not yet reached
    from the identity becomes a generator t, one exact lookup (the element
    table projected onto a fixed direction and sorted, a searchsorted
    window around each product, every hit verified in the max-norm) finds
    every product g o t, and right multiplication by the generators so far
    extends the reached set.  A set with the identity and G o t in G for
    each t of a generating set T is a group, and each new generator at
    least doubles the reached subgroup, so the check costs at most
    ceil(log2 |G|) lookups of |G| products, plus one for the inverses.
    The signed permutations of order 46 080 build in about 1.0 s with one
    BLAS thread on 2 CPUs, 0.6 s of it the 12 lookups, and hold 16 MB at a
    tracemalloc peak of 70 MB.
    """

    def __init__(self, elements, form=None):
        self._validate(*_stacked([(g.linear, g.offset) for g in elements]),
                       form)

    def _validate(self, linears, offsets, form):
        """Keep the stacks once they hold a group, else raise."""
        linears = np.asarray(linears, dtype=float)
        offsets = np.asarray(offsets, dtype=float)
        if len(linears) == 0:
            raise ValueError("a group needs at least one element")
        n = offsets.shape[-1]
        if linears.shape[1:] != (n, n) or offsets.shape != (len(linears), n):
            raise SingularMap(f"inconsistent shapes {linears.shape[1:]} "
                              f"and {offsets.shape[1:]}")
        conj = linears
        if form is not None:
            form = np.asarray(form, dtype=float)
            if not np.isfinite(form).all():
                raise ValueError("invariant form must be finite")
            try:
                root = np.linalg.cholesky(0.5 * (form + form.T))
            except np.linalg.LinAlgError as exc:
                raise ValueError("invariant form must be positive definite") \
                    from exc
            conj = root.T @ linears @ np.linalg.inv(root).T
        linears.flags.writeable = offsets.flags.writeable = False
        self.linears, self.offsets, self.form = linears, offsets, form
        if not (np.isfinite(linears).all() and np.isfinite(offsets).all()):
            raise ValueError("group element is not a finite isometry")
        if np.max(np.abs(conj.transpose(0, 2, 1) @ conj - np.eye(n))) \
                > _CLOSURE_TOL:
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
        self.identity_index = int(ident[0])
        reached = np.zeros(len(linears), dtype=bool)
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
        return self

    @property
    def dim(self) -> int:
        return self.offsets.shape[1]

    @property
    def elements(self) -> tuple:
        """The elements as ``AffineMap``s, built on each access."""
        return tuple(self)

    def __len__(self) -> int:
        return len(self.linears)

    def __iter__(self):
        return map(AffineMap, self.linears, self.offsets)


def _images(group: FiniteGroup, x) -> np.ndarray:
    """(|G|, n) array whose row k is the k-th element applied to x."""
    return group.offsets + group.linears @ np.asarray(x, dtype=float)


def orbit(group: FiniteGroup, x) -> np.ndarray:
    """Deduplicated orbit {g(x) : g in G} as a (k, n) array.

    An image is dropped iff it lies within _ORBIT_TOL (max-norm) of an
    earlier kept image.  A repeat of an earlier image is always dropped, so
    only first occurrences are candidates.  Two candidates that near lie in
    one run of the sorted projection of the lookup, a run ending where two
    consecutive projections are more than its window apart.  A candidate
    alone in its run is kept, and the rule settles the candidates of each
    longer run in index order: a point nearly fixed by all of G costs one
    pass over its images, not |G|^2 / 2 near pairs.

    The orbit size divides the group order except within a few _ORBIT_TOL
    of a point that G moves by less than that, where near images chain:
    ``orbit(signed_permutation_group(2), [-1.2e-9, -5e-10])`` and
    ``orbit(cyclic_group(8), [0.8e-9, 0])`` each keep 3 points.
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
    return cand[kept]


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


def _stacked(pairs) -> tuple:
    """(linears, offsets) stacks of (linear, offset) pairs.

    Pairs that do not stack raise as building them one by one would:
    SingularMap for the first pair whose shapes disagree, else ValueError.
    """
    try:
        return (np.array([a for a, _ in pairs], dtype=float),
                np.array([t for _, t in pairs], dtype=float))
    except ValueError:
        for a, t in pairs:
            AffineMap(a, t)
        raise ValueError("group elements must share one dimension") from None


def _group(linears, offsets=None) -> FiniteGroup:
    """The group of the stacked elements; zero offsets when None."""
    return FiniteGroup.__new__(FiniteGroup)._validate(
        linears, np.zeros(np.shape(linears)[:2]) if offsets is None
        else offsets, None)


# ---------------------------------------------------------------------------
# Built-in groups.

def _signed_permutations(n: int) -> np.ndarray:
    """(n! 2^n, n, n) matrices diag(s) P, s inner to the permutation P."""
    perms = np.eye(n)[list(itertools.permutations(range(n)))]
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=n)))
    # adding 0.0 turns the products' -0.0 into the +0.0 diag(s) @ P gives
    return (signs[None, :, :, None] * perms[:, None]).reshape(-1, n, n) + 0.0


def _rotations(m: int) -> np.ndarray:
    """(m, 2, 2) rotations by multiples of 2 pi / m, the identity first."""
    if m < 1:
        raise ValueError("order must be positive")
    turns = [2.0 * math.pi * k / m for k in range(1, m)]
    return np.array([np.eye(2)] + [[[math.cos(t), -math.sin(t)],
                                    [math.sin(t), math.cos(t)]]
                                   for t in turns])


def permutation_group(n: int) -> FiniteGroup:
    """All n! coordinate permutations."""
    return _group(np.eye(n)[list(itertools.permutations(range(n)))])


def signed_permutation_group(n: int) -> FiniteGroup:
    """Hyperoctahedral group: coordinate permutations with sign flips."""
    return _group(_signed_permutations(n))


def cyclic_group(m: int) -> FiniteGroup:
    """Planar rotations by multiples of 2*pi/m."""
    return _group(_rotations(m))


def dihedral_group(m: int) -> FiniteGroup:
    """Planar rotations and reflections of a regular m-gon."""
    rots = _rotations(m)
    return _group(np.concatenate([rots, rots @ np.diag([1.0, -1.0])]))


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
    return _group(mats.reshape(-1, n, n))


def named_group(name: str, n: int | None = None,
                order: int | None = None) -> FiniteGroup:
    """Build a built-in group from a string key, for serialized inputs.

    Before any element is built, a ``dim`` or ``order`` that is not an
    integer of at least 1 raises ValueError, as does a group whose stacked
    linear parts, |G| n^2 doubles, would exceed _GROUP_BYTES.
    """
    # key: (build, the field it reads, the factors of |G| for its value k):
    # k!, 2^k k!, k, 2k, 2^(k-1) (k-1)! and 2^k (k-1)!
    builds = {
        "permutation": (permutation_group, "dim", lambda k: range(1, k + 1)),
        "signed-permutation": (signed_permutation_group, "dim",
                               lambda k: range(2, 2 * k + 1, 2)),
        "cyclic": (cyclic_group, "order", lambda k: (k,)),
        "dihedral": (dihedral_group, "order", lambda k: (2 * k,)),
        "slab": (slab_symmetry_group, "dim", lambda k: range(2, 2 * k - 1, 2)),
        "slab-symmetric": (lambda k: slab_symmetry_group(k, True), "dim",
                           lambda k: itertools.chain(
                               (2,), range(2, 2 * k - 1, 2))),
    }
    key = str(name).replace("_", "-").lower()
    if key not in builds:
        raise ValueError(f"unknown group name {name!r}")
    build, what, factors = builds[key]
    value = order if what == "order" else n
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"group requires an integer {what}, not {value!r}")
    if value < 1:
        raise ValueError(f"group {what} must be at least 1, not {value}")
    dim = int(value) if what == "dim" else 2
    most, count = _GROUP_BYTES // (8 * dim * dim), 1
    for factor in factors(int(value)):  # stops within about log2(most)
        count *= factor
        if count > most:
            raise ValueError(f"{key} group of {what} {value} would hold more "
                             f"than {_GROUP_BYTES // 10 ** 6} MB of elements")
    return build(value)


def group_to_dict(group: FiniteGroup) -> dict:
    return {"elements": [{"linear": a, "offset": t} for a, t in
                         zip(group.linears.tolist(), group.offsets.tolist())]}


def group_from_dict(payload: dict) -> FiniteGroup:
    """The group of a ``group_to_dict`` payload.

    A missing key raises KeyError and a non-list TypeError; stacks that do
    not form a group raise ValueError, or SingularMap when an element's
    linear part and offset differ in shape.
    """
    return _group(*_stacked([(item["linear"], item["offset"])
                             for item in payload["elements"]]))
