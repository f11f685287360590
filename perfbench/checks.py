"""Correctness checks made apart from the program.

Every check here uses only numpy and the benchmark's own arithmetic; none
calls a solver, a closed form or a certifier of ``extremal_ellipsoids``.
Each returns a list of problems, empty when the output is correct.
"""

from __future__ import annotations

import math

import numpy as np

TOL = 1e-8          # Fritz John residuals, containment, contact membership
KNOWN_TOL = 1e-8    # relative distance to a known answer
ORACLE_GAP = 1e-4   # closed form against the grid oracle, on (tau, a, b)


def _root(shape):
    """(X^(1/2), X^(-1/2)) of a symmetric positive definite X, or None."""
    w, v = np.linalg.eigh(0.5 * (shape + shape.T))
    if not w[0] > 0.0:
        return None
    return (v * np.sqrt(w)) @ v.T, (v / np.sqrt(w)) @ v.T


def _fritz_john(center, shape, contacts, multipliers):
    """Fritz John equations in the frame u -> X^(1/2)(u - c).

    There the contacts lie on the unit sphere, sum lambda_i u_i u_i^T is
    the identity and sum lambda_i u_i is zero; with contacts taken from the
    body these equations are sufficient for optimality.
    """
    roots = _root(shape)
    if roots is None:
        return ["shape matrix is not positive definite"]
    root, _ = roots
    n = center.shape[0]
    lam = np.asarray(multipliers, dtype=float)
    u = (np.atleast_2d(contacts) - center) @ root
    problems = []
    if lam.shape[0] != u.shape[0] or lam.shape[0] == 0:
        return ["certificate has no contacts or mismatched multipliers"]
    if np.any(lam < 0.0):
        problems.append("negative multiplier")
    membership = float(np.max(np.abs(np.einsum("ij,ij->i", u, u) - 1.0)))
    if membership > TOL:
        problems.append(f"contact off the ellipsoid boundary by {membership:.2e}")
    matrix = float(np.linalg.norm((u.T * lam) @ u - np.eye(n)) / math.sqrt(n))
    if matrix > TOL:
        problems.append(f"matrix equation residual {matrix:.2e}")
    centroid = float(np.linalg.norm(lam @ u))
    if centroid > TOL * n:
        problems.append(f"centroid equation residual {centroid:.2e}")
    total = abs(float(lam.sum()) - n)
    if total > TOL * n:
        problems.append(f"multiplier sum off n by {total:.2e}")
    return problems


def ce_points(points, center, shape, contacts, multipliers):
    """Minimum-volume ellipsoid of a point set, with its certificate."""
    roots = _root(shape)
    if roots is None:
        return ["shape matrix is not positive definite"]
    diff = points - center
    forms = np.einsum("ij,jk,ik->i", diff, shape, diff)
    problems = []
    worst = float(forms.max()) - 1.0
    if worst > TOL:
        problems.append(f"an input point lies outside, form 1 + {worst:.2e}")
    for u in np.atleast_2d(contacts):
        gap = np.max(np.abs(points - u), axis=1).min()
        if gap > 1e-12 * (1.0 + np.abs(u).max()):
            problems.append("a contact is not an input point")
            break
    return problems + _fritz_john(center, shape, contacts, multipliers)


def ie_halfspaces(normals, offsets, center, shape, contacts, multipliers):
    """Maximum-volume ellipsoid in {x : Ax <= b}, with its certificate.

    Containment is the support inequality per facet, in units of the
    ellipsoid's own width along the facet normal.  Each contact must lie on
    a facet, inside every other one, and be the tangency point of that
    facet: the facet normal is parallel to X (u - c).
    """
    roots = _root(shape)
    if roots is None:
        return ["shape matrix is not positive definite"]
    _, inv_root = roots
    scale = np.linalg.norm(normals, axis=1)
    a_hat = normals / scale[:, None]
    b_hat = offsets / scale
    width = np.linalg.norm(a_hat @ inv_root, axis=1)  # (a^T X^-1 a)^(1/2)
    slack = (b_hat - a_hat @ center - width) / width
    problems = []
    if slack.min() < -TOL:
        problems.append(f"the ellipsoid crosses a facet by {-slack.min():.2e}")
    for u in np.atleast_2d(contacts):
        dist = (b_hat - a_hat @ u) / width
        facet = int(np.argmin(np.abs(dist)))
        if abs(dist[facet]) > TOL or dist.min() < -TOL:
            problems.append("a contact is not on the polytope boundary")
            break
        grad = shape @ (u - center)
        cosine = float(grad @ a_hat[facet]) / float(np.linalg.norm(grad))
        if 1.0 - cosine > TOL:
            problems.append(f"a contact is not a tangency point ({1.0 - cosine:.2e})")
            break
    return problems + _fritz_john(center, shape, contacts, multipliers)


def known_answer(center, shape, center_ref, shape_ref):
    """Distance to the image of a known extremal ellipsoid."""
    problems = []
    rel = float(np.linalg.norm(shape - shape_ref) / np.linalg.norm(shape_ref))
    if rel > KNOWN_TOL:
        problems.append(f"shape differs from the known answer by {rel:.2e}")
    root, _ = _root(shape_ref)
    # center error measured in the frame where the known answer is the ball
    dist = float(np.linalg.norm(root @ (center - center_ref)))
    if dist > KNOWN_TOL:
        problems.append(f"center differs from the known answer by {dist:.2e}")
    return problems


# ---------------------------------------------------------------------------
# Axial ellipsoids of a normalized slab or truncated cone.

def axial_shape(problem, tau, a, b, n):
    """(center, shape) of E(diag(a, b, ..., b), tau e_1); IE gives semi-axes."""
    diag = np.full(n, b, dtype=float)
    diag[0] = a
    if problem == "IE":
        diag = 1.0 / diag ** 2
    center = np.zeros(n)
    center[0] = tau
    return center, np.diag(diag)


def rim_and_sphere_points(n, alpha, beta, directions, levels, cone):
    """Boundary samples: both rim circles, plus the sphere between them.

    ``directions`` are unit vectors of R^(n-1); the sphere zone is sampled
    at ``levels`` values of x_1 (a slab only; a cone's extreme points are
    its rims).
    """
    heights = [alpha, beta]
    if not cone:
        heights += list(np.linspace(alpha, beta, levels + 2)[1:-1])
    pts = []
    for y in heights:
        r = math.sqrt(max(1.0 - y * y, 0.0))
        rim = np.empty((directions.shape[0], n))
        rim[:, 0] = y
        rim[:, 1:] = r * directions
        pts.append(rim)
    return np.vstack(pts)


def circumscribed_axial(samples, center, shape):
    """Every sample inside the ellipsoid, and the ellipsoid touches them."""
    diff = samples - center
    forms = np.einsum("ij,jk,ik->i", diff, shape, diff)
    top = float(forms.max())
    if top > 1.0 + TOL:
        return [f"a body point lies outside, form 1 + {top - 1.0:.2e}"]
    if top < 1.0 - TOL:
        return [f"the ellipsoid does not touch the body (form {top:.12f})"]
    return []


def inscribed_axial(alpha, beta, tau, a, b):
    """Semi-axes (a, b, ..., b) at tau e_1: between the planes, in the ball,
    and touching at least one of them."""
    lower = (tau - a) - alpha
    upper = beta - (tau + a)
    # max |x|^2 over the ellipse x_1 = tau + a cos t, |x_perp| = b sin t
    cosines = [1.0, -1.0]
    if b * b != a * a:
        vertex = a * tau / (b * b - a * a)
        if abs(vertex) <= 1.0:
            cosines.append(vertex)
    reach = max((tau + a * c) ** 2 + b * b * (1.0 - c * c) for c in cosines)
    sphere = 1.0 - math.sqrt(reach)
    slack = min(lower, upper, sphere)
    if slack < -TOL:
        return [f"the inscribed ellipsoid leaves the slab by {-slack:.2e}"]
    if slack > TOL:
        return [f"the inscribed ellipsoid does not touch the slab ({slack:.2e})"]
    return []


def oracle_gap(closed, oracle):
    """``closed`` is (tau, a, b); ``oracle`` the grid oracle's parameters."""
    gap = max(abs(x - y) for x, y in zip(closed, (oracle.tau, oracle.a, oracle.b)))
    if gap > ORACLE_GAP:
        return [f"closed form and grid oracle differ by {gap:.2e}"]
    return []


# ---------------------------------------------------------------------------
# Ellipsoid-method feasibility.

def log_volume(shape):
    """log of det(X)^(-1/2) times the unit-ball volume."""
    n = shape.shape[0]
    sign, logdet = np.linalg.slogdet(shape)
    if sign <= 0:
        return math.nan
    return -0.5 * logdet + 0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n + 1.0)


def feasibility(result_status, point, volume, ratios, volumes, expected,
                normals, offsets, initial_shape, floor):
    """Status fixed by construction; a FEASIBLE point satisfies every
    constraint; every ratio is at most 1; the reported volumes chain from
    the initial volume by the recorded ratios."""
    problems = []
    if result_status != expected:
        problems.append(f"status {result_status}, constructed {expected}")
        return problems
    if result_status == "FEASIBLE":
        scale = np.linalg.norm(normals, axis=1)
        viol = float(np.max((normals @ point - offsets) / scale))
        if viol > 1e-9:
            problems.append(f"the FEASIBLE point violates a constraint by {viol:.2e}")
    if ratios and max(ratios) > 1.0:
        problems.append(f"a cut grew the volume (ratio {max(ratios)!r})")
    log_start = log_volume(initial_shape)
    log_chain = log_start + float(np.sum(np.log(ratios))) if ratios else log_start
    befores, afters = volumes
    if befores and abs(math.log(befores[0]) - log_start) > 1e-9:
        problems.append("the first cut does not start from the initial volume")
    if abs(log_chain - math.log(afters[-1] if afters else math.exp(log_start))) > 1e-8:
        problems.append("the volumes do not chain by the recorded ratios")
    if volume > 0.0 and abs(math.log(volume) - log_chain) > 1e-8:
        problems.append("final volume is not the initial volume times the ratios")
    if result_status == "INFEASIBLE" and volume > 0.0 and not volume < floor:
        problems.append("INFEASIBLE above the volume floor")
    return problems
