"""The four workloads: their inputs, the program calls that are timed, and
the checks applied to each output.

A workload is a fixed list of cases.  ``case.call()`` makes only program
calls and is what the timer covers; ``case.check(output)`` returns the
problems found by ``checks`` (empty when correct); ``case.plant(output)``
returns deliberately wrong variants of a correct output, which the check
must reject.

Inputs come from the run's seed in two parts.  The combinatorial make-up
of each case (dimension, size, point cloud or facet set, lattice cell) is
drawn from fixed streams, and the seed picks a frame for it or, for the
closed forms, a jitter inside the lattice cell.  The frames are those
under which the program does the same work: general affine maps for the
ellipsoid method and for MVEE of small orbits, x -> s x + t for the qhull
prefilter of point clouds (rotating one n = 8 cloud moved its hull's time
between 2.6 and 3.5 s), and none at all for MVIE (see ``mvie``).  So runs with different
seeds do the same work on different numbers.  Classes hold only one or
two expensive cases, and without this a class median would mostly say
which cases the seed drew.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
from extremal_ellipsoids import (FeasibilityProblem, Polytope, SlabSpec,
                                 ce_cone, ce_contact_points, ce_slab,
                                 certify_ce, certify_ie, cone_boundary_points,
                                 cone_contact_points, grid_oracle_slab,
                                 ie_slab, ie_support_polytope,
                                 invariant_center, invariant_shape,
                                 mvee_points, mvie_polytope, named_group, orbit,
                                 slab_boundary_points, solve_feasibility)
from extremal_ellipsoids.core import Ellipsoid

PLANT_SCALE = 1e-6   # shape scaled by 1 + this, center moved by this


@dataclass
class Case:
    label: str
    cls: str                      # "small", "mid" or "large"
    call: Callable[[], object]
    check: Callable[[object], list]
    plant: Callable[[object], list]


def _base_rng(*key):
    """Fixed stream for a case's make-up, independent of the run's seed."""
    return np.random.default_rng([20070709, *key])


def _unit_rows(rng, m, n):
    g = rng.standard_normal((m, n))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


@dataclass(frozen=True)
class Frame:
    """The affine map x -> A x + t, and its action on the inputs."""

    a: np.ndarray
    t: np.ndarray

    @staticmethod
    def draw(rng, n):
        """A = Q diag(s) R^T with random rotations Q, R and s in [1/2, 2]."""
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        r, _ = np.linalg.qr(rng.standard_normal((n, n)))
        s = np.exp(rng.uniform(-math.log(2.0), math.log(2.0), n))
        return Frame((q * s) @ r.T, rng.uniform(-1.0, 1.0, n))

    @staticmethod
    def scaled(rng, n):
        """x -> s x + t with s in [1/2, 2]: no rotation, no shear."""
        s = math.exp(rng.uniform(-math.log(2.0), math.log(2.0)))
        return Frame(s * np.eye(n), rng.uniform(-1.0, 1.0, n))

    def points(self, p):
        return p @ self.a.T + self.t

    def ellipsoid(self, center, shape):
        a_inv = np.linalg.inv(self.a)
        image = a_inv.T @ shape @ a_inv
        return self.a @ center + self.t, 0.5 * (image + image.T)

    def halfspaces(self, normals, offsets):
        image = normals @ np.linalg.inv(self.a)
        return image, offsets + image @ self.t

    @property
    def det(self):
        return abs(float(np.linalg.det(self.a)))


def _ellipsoid_plants(center, shape, rebuild):
    """Wrong answers: shape scaled by 1 + 1e-6; center moved along the
    shortest semi-axis by 1e-6 of its length."""
    w, v = np.linalg.eigh(shape)
    step = PLANT_SCALE * v[:, -1] / math.sqrt(w[-1])
    return [rebuild(center, shape * (1.0 + PLANT_SCALE)),
            rebuild(center + step, shape)]


# ---------------------------------------------------------------------------
# oracle-sweep: closed forms against the grid oracle.

LATTICE = np.linspace(-1.0, 1.0, 15)   # the release gate's lattice
# lattice cells (alpha, beta), as indices into LATTICE: a wide off-center
# slab (deep for n >= 3), a symmetric one, and a thin one at the pole; they
# reach all three branches of each closed form
CELLS = ((3, 13), (4, 10), (10, 14))
JITTER = 0.01
# looked up by name at call time, so a traced run sees the wrapped functions
CLOSED = {"CE": "ce_slab", "IE": "ie_slab", "CONE": "ce_cone"}


def _slab_instance(rng, n, cell):
    """A lattice cell moved by at most JITTER; symmetric cells stay
    symmetric, and the beta^2 >= alpha^2 convention is kept."""
    alpha, beta = float(LATTICE[cell[0]]), float(LATTICE[cell[1]])
    if abs(alpha + beta) < 1e-12:
        beta = min(beta + rng.uniform(-JITTER, JITTER), 1.0)
        return SlabSpec(n, -beta, beta)
    alpha = min(max(alpha + rng.uniform(-JITTER, JITTER), -1.0), 1.0)
    beta = min(max(beta + rng.uniform(-JITTER, JITTER), -1.0), 1.0)
    if beta * beta < alpha * alpha:
        beta = -alpha
    return SlabSpec(n, alpha, beta)


def _axial_call(problem, spec, resolution=512):
    def call():
        closed = globals()[CLOSED[problem]](spec)
        oracle = grid_oracle_slab(spec, problem, resolution)
        ell = closed.expand()
        if problem == "IE":
            cert = certify_ie(ie_support_polytope(spec, closed), ell)
        elif problem == "CE":
            cert = certify_ce(np.vstack([slab_boundary_points(spec, 200),
                                         ce_contact_points(spec, closed)]), ell)
        else:
            cert = certify_ce(np.vstack([cone_boundary_points(spec, 200),
                                         cone_contact_points(spec, closed)]), ell)
        return (closed.tau, closed.a, closed.b), oracle, cert.passed
    return call


def _axial_check(problem, spec, samples):
    def check(out):
        (tau, a, b), oracle, passed = out
        problems = checks.oracle_gap((tau, a, b), oracle)
        if not passed:
            problems.append("the program's own certificate failed")
        if problem == "IE":
            problems += checks.inscribed_axial(spec.alpha, spec.beta, tau, a, b)
        else:
            center, shape = checks.axial_shape(problem, tau, a, b, spec.n)
            problems += checks.circumscribed_axial(samples, center, shape)
        return problems
    return check


def _axial_plant(problem):
    def plant(out):
        (tau, a, b), oracle, passed = out
        if problem == "IE":  # semi-axes: shape scaled by 1 + eps
            k = (1.0 + PLANT_SCALE) ** -0.5
            scaled = (tau, a * k, b * k)
        else:
            scaled = (tau, a * (1.0 + PLANT_SCALE), b * (1.0 + PLANT_SCALE))
        moved = (tau + PLANT_SCALE, a, b)
        return [(scaled, oracle, passed), (moved, oracle, passed)]
    return plant


def oracle_sweep(seed):
    rng = np.random.default_rng(seed)
    cases = []
    for n, cls in ((2, "small"), (3, "mid"), (5, "large")):
        directions = (np.array([[1.0], [-1.0]]) if n == 2
                      else _unit_rows(rng, 64, n - 1))
        for problem in ("CE", "IE", "CONE"):
            for cell in CELLS:
                spec = _slab_instance(rng, n, cell)
                samples = checks.rim_and_sphere_points(
                    n, spec.alpha, spec.beta, directions, 64, problem == "CONE")
                cases.append(Case(
                    f"{problem} n={n} ({spec.alpha:.4f}, {spec.beta:.4f})", cls,
                    _axial_call(problem, spec),
                    _axial_check(problem, spec, samples), _axial_plant(problem)))
    return cases


def oracle_sweep_warmup(seed):
    rng = np.random.default_rng(seed)
    spec = _slab_instance(rng, 2, CELLS[0])
    samples = checks.rim_and_sphere_points(2, spec.alpha, spec.beta,
                                           np.array([[1.0], [-1.0]]), 16, False)
    # the coarsest grid the oracle takes: same code path, a fifth of the time
    return [Case(f"warm-up {p}", "small", _axial_call(p, spec, 64),
                 _axial_check(p, spec, samples), _axial_plant(p))
            for p in ("CE", "IE")]


# ---------------------------------------------------------------------------
# cut-loop: ellipsoid-method feasibility on halfspace systems.

class Constraints:
    """The benchmark's separation oracle for {x : Ax <= b}: the first
    violated row, as the CLI's cut-solve uses."""

    def __init__(self, normals, offsets):
        self.normals = normals
        self.offsets = offsets

    def __call__(self, x):
        bad = np.flatnonzero(self.offsets - self.normals @ x < -1e-12)
        if bad.size == 0:
            return None
        j = int(bad[0])
        return self.normals[j], self.offsets[j]


# known-ball radius and contradiction depth per dimension, in the frame
# where the initial ellipsoid is the unit ball
CUT_MARGIN = {2: 1e-7, 10: 1e-3, 30: 1e-2}
CUT_MAX_ITER = 100_000


def _cut_case(n, index, feasible, frame_rng, cls):
    base = _base_rng(1, n, index)
    # 2n random unit normals and one more that cancels their sum: the
    # weights y = (1, ..., 1, |sum|) give sum y_i a_i = 0
    normals = _unit_rows(base, 2 * n, n)
    total = normals.sum(axis=0)
    normals = np.vstack([normals, -total / np.linalg.norm(total)])
    margin = CUT_MARGIN[n]
    x0 = _unit_rows(base, 1, n)[0] * 0.6
    if feasible:
        # the ball B(x0, margin) satisfies every row and lies in the unit ball
        offsets = normals @ x0 + margin
    else:
        # sum y_i b_i = -margin * sum y_i < 0 = sum y_i <a_i, x>
        offsets = normals @ x0 - margin
    floor = 0.5 * math.exp(checks.log_volume(np.eye(n) / margin ** 2))
    frame = Frame.draw(frame_rng, n)
    normals, offsets = frame.halfspaces(normals, offsets)
    center, shape = frame.ellipsoid(np.zeros(n), np.eye(n))
    floor *= frame.det
    expected = "FEASIBLE" if feasible else "INFEASIBLE"

    def call():
        problem = FeasibilityProblem(Constraints(normals, offsets),
                                     Ellipsoid(center, shape), floor)
        res = solve_feasibility(problem, max_iter=CUT_MAX_ITER)
        return (res.status, res.point, res.volume,
                [r.ratio for r in res.records],
                ([r.volume_before for r in res.records],
                 [r.volume_after for r in res.records]))

    def check(out):
        status, point, volume, ratios, volumes = out
        return checks.feasibility(status, point, volume, ratios, volumes,
                                  expected, normals, offsets, shape, floor)

    def plant(out):
        flipped = "INFEASIBLE" if out[0] == "FEASIBLE" else "FEASIBLE"
        return [(flipped,) + tuple(out[1:])]

    label = f"{'feasible' if feasible else 'infeasible'} n={n} #{index}"
    return Case(label, cls, call, check, plant)


def cut_loop(seed):
    rng = np.random.default_rng(seed)
    cases = []
    for n, count, cls in ((2, 4, "small"), (10, 2, "mid"), (30, 1, "large")):
        for index in range(count):
            for feasible in (True, False):
                cases.append(_cut_case(n, index, feasible, rng, cls))
    return cases


def cut_loop_warmup(seed):
    rng = np.random.default_rng(seed)
    return [_cut_case(n, 99, f, rng, "small") for n in (2, 10) for f in (True, False)]


# ---------------------------------------------------------------------------
# mvee: point clouds and symmetric orbits.

MVEE_CLOUDS = (((2, 500), (2, 2000), (3, 500), (3, 2000), (4, 500), (4, 2000),
                (5, 500), (5, 2000)), ((8, 300),))
# (group name, dim, order); orders stay below the 384 at which building
# the group becomes the cost
MVEE_ORBITS = (("signed-permutation", 2, None), ("signed-permutation", 3, None),
               ("dihedral", 2, 5), ("dihedral", 2, 6), ("dihedral", 2, 8),
               ("cyclic", 2, 7))


def _ce_case(label, cls, points, known=None):
    def call():
        ell, cert = mvee_points(points)
        passed = certify_ce(points, ell).passed
        return ell.center, ell.shape, cert.contacts, cert.multipliers, passed

    def check(out):
        center, shape, contacts, lam, passed = out
        problems = checks.ce_points(points, center, shape, contacts, lam)
        if not passed:
            problems.append("the program's own certificate failed")
        if known is not None:
            problems += checks.known_answer(center, shape, *known)
        return problems

    def plant(out):
        center, shape, contacts, lam, passed = out
        return _ellipsoid_plants(center, shape, lambda c, x: (c, x, contacts, lam, passed))

    return Case(label, cls, call, check, plant)


def _orbit_case(name, dim, order, x, frame):
    def call():
        group = named_group(name, n=dim, order=order)
        pts = np.array(orbit(group, x))
        center = invariant_center(group, x)
        shape = invariant_shape(group, x, center)
        image = frame.points(pts)
        ell, cert = mvee_points(image)
        passed = certify_ce(image, ell).passed
        return image, (center, shape), (ell.center, ell.shape, cert.contacts,
                                        cert.multipliers, passed)

    radius2 = float(x @ x)
    known = frame.ellipsoid(np.zeros(dim), np.eye(dim) / radius2)

    def check(out):
        image, (center, shape), solved = out
        # a hyperoctahedral or planar rotation group fixes only balls about
        # the origin, so both routes must give the ball of radius |x|
        problems = checks.known_answer(center, shape, np.zeros(dim),
                                       np.eye(dim) / radius2)
        return problems + _ce_case("", "", image, known).check(solved)

    def plant(out):
        image, invariant, solved = out
        return [(image, invariant, wrong) for wrong in
                _ce_case("", "", image, known).plant(solved)]

    label = f"orbit {name} dim={dim}" + (f" order={order}" if order else "")
    return Case(label, "small", call, check, plant)


def mvee(seed):
    rng = np.random.default_rng(seed)
    cases = []
    for clouds, cls in zip(MVEE_CLOUDS, ("small", "large")):
        for n, m in clouds:
            base = _base_rng(2, n, m).standard_normal((m, n))
            cases.append(_ce_case(f"cloud n={n} m={m}", cls,
                                  Frame.scaled(rng, n).points(base)))
    for name, dim, order in MVEE_ORBITS:
        x = rng.uniform(0.5, 1.5, dim) * rng.choice([-1.0, 1.0], dim)
        cases.append(_orbit_case(name, dim, order, x, Frame.draw(rng, dim)))
    return cases


def mvee_warmup(seed):
    rng = np.random.default_rng(seed)
    return [_ce_case(f"warm-up n={n}", "small",
                     Frame.scaled(rng, n).points(_base_rng(2, n, 40).standard_normal((40, n))))
            for n in (3, 8)] + [
        _orbit_case("signed-permutation", 2, None, np.array([0.3, 1.1]),
                    Frame.draw(rng, 2))]


# ---------------------------------------------------------------------------
# mvie: polytopes bounded by construction.

MVIE_RANDOM = (((2, 8), (2, 20), (3, 12), (3, 30), (4, 16), (4, 40)),
               ((7, 60),), ((12, 150),))


def _random_polytope(n, m):
    """The box |x_i| <= 3/2 cut by m - 2n random facets at depths in
    [1/2, 1]: bounded by the box, and it holds the ball of radius 1/2."""
    base = _base_rng(3, n, m)
    normals = np.vstack([np.eye(n), -np.eye(n), _unit_rows(base, m - 2 * n, n)])
    offsets = np.concatenate([np.full(2 * n, 1.5),
                              base.uniform(0.5, 1.0, m - 2 * n)])
    return normals, offsets


def _cube(n):
    return np.vstack([np.eye(n), -np.eye(n)]), np.ones(2 * n)


def _cross_polytope(n):
    signs = np.array(np.meshgrid(*[[1.0, -1.0]] * n)).reshape(n, -1).T
    return signs / math.sqrt(n), np.full(signs.shape[0], 1.0 / math.sqrt(n))


def _ie_case(label, cls, normals, offsets, known=None):
    body = Polytope(normals=normals, offsets=offsets)

    def call():
        ell, cert = mvie_polytope(body)
        passed = certify_ie(body, ell).passed
        return ell.center, ell.shape, cert.contacts, cert.multipliers, passed

    def check(out):
        center, shape, contacts, lam, passed = out
        problems = checks.ie_halfspaces(normals, offsets, center, shape,
                                        contacts, lam)
        if not passed:
            problems.append("the program's own certificate failed")
        if known is not None:
            problems += checks.known_answer(center, shape, *known)
        return problems

    def plant(out):
        center, shape, contacts, lam, passed = out
        return _ellipsoid_plants(center, shape, lambda c, x: (c, x, contacts, lam, passed))

    return Case(label, cls, call, check, plant)


def mvie(seed):
    # The seed is not used here.  The barrier's work depends on the last bits
    # of its input: shifting one polytope changed its time from 0.27 s to
    # 0.43 s, and seeded frames moved the n=12 case between 1.8 and 3.4 s.
    # So the frames come from a fixed stream and every run solves the same
    # polytopes.
    rng = _base_rng(4)
    cases = []
    for sizes, cls in zip(MVIE_RANDOM, ("small", "mid", "large")):
        for n, m in sizes:
            frame = Frame.draw(rng, n)
            cases.append(_ie_case(f"random n={n} m={m}", cls,
                                  *frame.halfspaces(*_random_polytope(n, m))))
    for n in (2, 3, 4):
        for name, body, radius in (("cube", _cube, 1.0),
                                   ("cross-polytope", _cross_polytope, 1.0 / math.sqrt(n))):
            frame = Frame.draw(rng, n)
            known = frame.ellipsoid(np.zeros(n), np.eye(n) / radius ** 2)
            cases.append(_ie_case(f"{name} n={n}", "small",
                                  *frame.halfspaces(*body(n)), known))
    return cases


def mvie_warmup(seed):
    rng = _base_rng(5)
    frame = Frame.draw(rng, 3)
    return [_ie_case("warm-up", "small", *frame.halfspaces(*_random_polytope(3, 10)))]


WORKLOADS = {
    "oracle-sweep": (oracle_sweep, oracle_sweep_warmup),
    "cut-loop": (cut_loop, cut_loop_warmup),
    "mvee": (mvee, mvee_warmup),
    "mvie": (mvie, mvie_warmup),
}
