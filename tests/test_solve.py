"""Numerical solvers: point-set MVEE, polytope MVIE, and the grid oracle."""

import math

import numpy as np
import pytest

from extremal_ellipsoids import (
    AffineMap,
    DegenerateInput,
    Ellipsoid,
    EmptyBody,
    InvalidBody,
    InvalidEllipsoid,
    Polytope,
    SlabSpec,
    SolverConfig,
    Unconverged,
    ce_cone,
    ce_slab,
    certify_ce,
    certify_ie,
    contains,
    grid_oracle_slab,
    ie_slab,
    john_factors,
    map_ellipsoid,
    mvee_points,
    mvie_polytope,
    named_group,
    orbit,
    polar,
    unit_ball_volume,
    volume,
)
from extremal_ellipsoids.solve import _dedup_rows, _golden_max_log

SQUARE = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])


def _axes_gap(p, q):
    return max(abs(p.tau - q.tau), abs(p.a - q.a), abs(p.b - q.b))


def _hcube(n):
    return Polytope(normals=np.vstack([np.eye(n), -np.eye(n)]),
                    offsets=np.ones(2 * n))


# ---------------------------------------------------------------------------
# Solver configuration.

def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(eps=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)


# ---------------------------------------------------------------------------
# MVEE.

def test_mvee_square():
    e, cert = mvee_points(SQUARE)
    np.testing.assert_allclose(e.center, np.zeros(2), atol=1e-12)
    np.testing.assert_allclose(e.shape, np.eye(2) / 2.0, atol=1e-12)
    np.testing.assert_allclose(np.sort(cert.multipliers), 0.5, atol=1e-10)
    # repeated rows, and -0.0 next to 0.0, are one point each
    repeated = np.vstack([SQUARE, [[0.0, -0.0], [0.0, 0.0]], SQUARE[::-1]])
    np.testing.assert_array_equal(
        _dedup_rows(repeated), np.vstack([SQUARE, [[0.0, 0.0]]]))
    e2, cert2 = mvee_points(repeated)
    np.testing.assert_array_equal(e2.center, e.center)
    np.testing.assert_array_equal(e2.shape, e.shape)
    np.testing.assert_array_equal(cert2.multipliers, cert.multipliers)


def test_mvee_equilateral_triangle_is_circumcircle():
    tri = np.array([[1.0, 0.0],
                    [-0.5, math.sqrt(3.0) / 2.0],
                    [-0.5, -math.sqrt(3.0) / 2.0]])
    e, cert = mvee_points(tri)
    np.testing.assert_allclose(e.center, np.zeros(2), atol=1e-12)
    np.testing.assert_allclose(e.shape, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(cert.multipliers, 2.0 / 3.0, atol=1e-10)


def test_mvee_random_cloud_certifies_and_is_stable():
    rng = np.random.default_rng(7)
    pts = rng.standard_normal((200, 4))
    e, cert = mvee_points(pts)
    result = certify_ce(pts, e, tol=1e-8)
    assert result.passed, result.residuals
    assert cert.contacts.shape[0] <= 4 * (4 + 3) // 2
    # a much tighter duality gap moves the volume by at most (1+5 eps)^n
    tight, _ = mvee_points(pts, SolverConfig(eps=1e-9))
    ratio = volume(e) / volume(tight)
    assert 1.0 - 1e-9 <= ratio <= (1.0 + 5e-7) ** 4


def test_mvee_interior_points_do_not_matter():
    rng = np.random.default_rng(9)
    pts = rng.standard_normal((40, 3))
    e, _ = mvee_points(pts)
    inner = 0.5 * pts[:10] + 0.5 * e.center
    e2, _ = mvee_points(np.vstack([pts, inner]))
    assert volume(e2) == pytest.approx(volume(e), rel=1e-9)
    np.testing.assert_allclose(e2.center, e.center, atol=1e-7)


def test_mvee_new_outer_point_grows_volume():
    rng = np.random.default_rng(10)
    pts = rng.standard_normal((40, 3))
    e, _ = mvee_points(pts)
    far = e.center + 10.0 * np.array([1.0, 0.0, 0.0])
    e2, _ = mvee_points(np.vstack([pts, far]))
    assert volume(e2) > volume(e)
    assert contains(e2, far, tol=1e-7)


def test_mvee_affine_equivariance():
    rng = np.random.default_rng(12)
    pts = rng.standard_normal((60, 3))
    lin = rng.standard_normal((3, 3)) + 2.0 * np.eye(3)
    t = AffineMap(lin, rng.standard_normal(3))
    direct, _ = mvee_points(t(pts))
    mapped = map_ellipsoid(t, mvee_points(pts)[0])
    assert volume(direct) == pytest.approx(
        abs(np.linalg.det(lin)) * volume(mvee_points(pts)[0]), rel=1e-6)
    np.testing.assert_allclose(direct.center, mapped.center, atol=1e-6)
    np.testing.assert_allclose(direct.shape, mapped.shape,
                               atol=1e-6 * np.linalg.norm(mapped.shape))


def test_mvee_rejects_flat_input():
    line = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    with pytest.raises(DegenerateInput):
        mvee_points(line)


def test_mvee_starts_when_the_extreme_points_are_collinear():
    # both axes' extremes are (0, 0) and (2, 2), a singular design
    pts = np.array([[0.0, 0.0], [2.0, 2.0], [1.0, 0.5], [1.5, 1.2]])
    e, _ = mvee_points(pts)
    assert certify_ce(pts, e, tol=1e-8).passed


def test_mvee_budget_exhaustion_raises():
    rng = np.random.default_rng(14)
    pts = rng.standard_normal((50, 3))
    with pytest.raises(Unconverged) as err:
        mvee_points(pts, SolverConfig(eps=1e-12, max_iter=2))
    assert err.value.gap is not None and err.value.gap > 0.0


def test_mvee_duality_roundtrip():
    # normalize the solved ellipsoid to the unit ball; the inscribed
    # ellipsoid of the polar of the mapped contacts is that same ball
    rng = np.random.default_rng(15)
    pts = rng.standard_normal((30, 2))
    e, cert = mvee_points(pts, SolverConfig(eps=1e-9))
    lower = np.linalg.cholesky(e.shape)
    mapped = (cert.contacts - e.center) @ lower
    dual = polar(Polytope(vertices=mapped))
    ball, _ = mvie_polytope(dual, SolverConfig(eps=1e-9))
    assert np.max(np.abs(ball.center)) <= 1e-5
    assert np.max(np.abs(ball.shape - np.eye(2))) <= 1e-5


@pytest.mark.parametrize("n", [10, 20])
def test_mvee_high_dimensional_cloud_certifies_within_a_step_budget(n):
    # seed 0 takes 1964 steps at n = 10 and 3892 at n = 20; over seeds
    # 0-19 the counts run 909-5199 and 2433-4016
    pts = np.random.default_rng(0).standard_normal((2000, n))
    e, cert = mvee_points(pts, SolverConfig(max_iter=4000))
    result = certify_ce(pts, e, tol=1e-8)
    assert result.passed, result.residuals
    assert cert.contacts.shape[0] <= n * (n + 3) // 2


@pytest.mark.parametrize("name, dim, order", [
    ("signed-permutation", 2, None),
    ("signed-permutation", 3, None),
    ("dihedral", 2, 6),
])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_mvee_orbit_images_are_solved_at_the_start(name, dim, order, seed):
    # uniform weights are optimal on an orbit, so the start already stops;
    # the answer is the image of the ball of radius |x|
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.5, 1.5, dim) * rng.choice([-1.0, 1.0], dim)
    t = AffineMap(rng.standard_normal((dim, dim)) + 2.0 * np.eye(dim),
                  rng.uniform(-1.0, 1.0, dim))
    pts = t(np.array(orbit(named_group(name, n=dim, order=order), x)))
    e, _ = mvee_points(pts, SolverConfig(max_iter=5))
    result = certify_ce(pts, e, tol=1e-8)
    assert result.passed, result.residuals
    known = map_ellipsoid(t, Ellipsoid(np.zeros(dim), np.eye(dim) / (x @ x)))
    np.testing.assert_allclose(e.shape, known.shape,
                               rtol=0, atol=1e-10 * np.abs(known.shape).max())
    np.testing.assert_allclose(e.center, known.center, atol=1e-10)


def test_mvee_builds_no_convex_hull(monkeypatch):
    import scipy.spatial

    calls = []
    hull = scipy.spatial.ConvexHull

    def counted(*args, **kwargs):
        calls.append(1)
        return hull(*args, **kwargs)

    monkeypatch.setattr(scipy.spatial, "ConvexHull", counted)
    pts = np.random.default_rng(16).standard_normal((100, 3))
    e, _ = mvee_points(pts)
    assert certify_ce(pts, e, tol=1e-8).passed
    assert calls == []


# ---------------------------------------------------------------------------
# MVIE.

def test_mvie_cube_unit_ball():
    for n in (2, 3):
        e, cert = mvie_polytope(_hcube(n))
        np.testing.assert_allclose(e.center, np.zeros(n), atol=1e-9)
        np.testing.assert_allclose(e.shape, np.eye(n), atol=1e-8)
        assert certify_ie(_hcube(n), e).passed


def test_mvie_simplex_matches_midpoint_inellipse():
    # the maximum-area inscribed ellipse of a triangle touches the edge
    # midpoints and has area pi/(3 sqrt(3)) times the triangle area
    simplex = Polytope(normals=np.array([[-1.0, 0.0], [0.0, -1.0],
                                         [1.0, 1.0]]),
                       offsets=np.array([0.0, 0.0, 1.0]))
    e, cert = mvie_polytope(simplex)
    np.testing.assert_allclose(e.center, [1 / 3, 1 / 3], atol=1e-10)
    assert volume(e) == pytest.approx(math.pi / (6.0 * math.sqrt(3.0)),
                                      rel=1e-10)
    mids = cert.contacts[np.lexsort((cert.contacts[:, 1],
                                     cert.contacts[:, 0]))]
    np.testing.assert_allclose(
        mids, [[0.0, 0.5], [0.5, 0.0], [0.5, 0.5]], atol=1e-9)


def test_mvie_tangent_polygon_approximates_slab():
    # 254 tangent lines of the disc plus the two cut planes: the inscribed
    # ellipse approaches the slab's own (0, 0.5, 1)
    k = 254
    ang = np.linspace(0.0, 2.0 * math.pi, k, endpoint=False)
    normals = np.vstack([np.column_stack([np.cos(ang), np.sin(ang)]),
                         [[1.0, 0.0], [-1.0, 0.0]]])
    offsets = np.concatenate([np.ones(k), [0.5, 0.5]])
    e, cert = mvie_polytope(Polytope(normals=normals, offsets=offsets))
    semi = np.sqrt(1.0 / np.diag(e.shape))
    assert np.max(np.abs(e.center)) <= 1e-6
    assert semi[0] == pytest.approx(0.5, abs=1e-3)
    assert semi[1] == pytest.approx(1.0, abs=1e-3)
    assert cert.contacts.shape[0] <= 2 * (2 + 3) // 2


def test_mvie_random_polytope_certifies_and_blows_up():
    rng = np.random.default_rng(21)
    normals = rng.standard_normal((14, 3))
    offsets = normals @ rng.uniform(-0.2, 0.2, size=3) + 1.0
    body = Polytope(normals=normals, offsets=offsets)
    e, _ = mvie_polytope(body)
    assert certify_ie(body, e).passed
    assert john_factors(body, e, "ie", symmetric=False).passed


def test_mvie_rejects_bad_bodies():
    with pytest.raises(InvalidBody):
        mvie_polytope(Polytope(vertices=SQUARE))
    unbounded = Polytope(normals=np.array([[1.0, 0.0]]),
                         offsets=np.array([1.0]))
    with pytest.raises(InvalidBody):
        mvie_polytope(unbounded)


def test_mvie_budget_exhaustion_raises():
    with pytest.raises(Unconverged):
        mvie_polytope(_hcube(3), SolverConfig(max_iter=3))


def test_sandwich_between_solvers():
    from scipy.spatial import HalfspaceIntersection

    rng = np.random.default_rng(25)
    normals = rng.standard_normal((10, 2))
    offsets = np.ones(10)
    body = Polytope(normals=normals, offsets=offsets)
    inner, _ = mvie_polytope(body)
    hs = np.hstack([normals, -offsets[:, None]])
    verts = HalfspaceIntersection(hs, np.zeros(2)).intersections
    outer, _ = mvee_points(verts)
    assert volume(inner) < volume(outer)
    for v in verts:
        assert contains(outer, v, tol=1e-7)
    for d in np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False):
        x = inner.boundary_points(np.array([[math.cos(d), math.sin(d)]]))[0]
        assert body.contains_point(x, tol=1e-7)
        assert contains(outer, x, tol=1e-7)


def _box_cut(n, m, seed):
    """The box |x_i| <= 3/2 cut by m - 2n unit-normal facets at depths in
    [1/2, 1]: bounded, and it holds the ball of radius 1/2.  ``seed`` may
    be a Generator, which then draws the facets."""
    rng = np.random.default_rng(seed)
    cuts = rng.standard_normal((m - 2 * n, n))
    normals = np.vstack([np.eye(n), -np.eye(n),
                         cuts / np.linalg.norm(cuts, axis=1, keepdims=True)])
    offsets = np.concatenate([np.full(2 * n, 1.5),
                              rng.uniform(0.5, 1.0, m - 2 * n)])
    return normals, offsets


def _per_facet_hessian(a_hat, b_hat, c, lower, t):
    """The barrier Hessian summed facet by facet, as d r_i d r_i^T / r_i^2
    plus the curvature of s_i = |L^T a_i| on the packed entries of L."""
    n = c.shape[0]
    rows, cols = np.tril_indices(n)
    nvar = n + rows.shape[0]
    hess = np.zeros((nvar, nvar))
    for a, b in zip(a_hat, b_hat):
        g = lower.T @ a
        s = np.linalg.norm(g)
        r = b - a @ c - s
        u = g / s
        dr = np.concatenate([-a, -np.outer(a, u)[rows, cols]])
        hess += np.outer(dr, dr) / r ** 2
        proj = np.eye(n) - np.outer(u, u)
        hess[n:, n:] += (np.outer(a[rows], a[rows]) * proj[np.ix_(cols, cols)]
                         / (r * s))
    diag_idx = n + np.flatnonzero(rows == cols)
    hess[diag_idx, diag_idx] += t / np.diag(lower) ** 2
    return hess


@pytest.mark.parametrize("n", [2, 5, 12])
def test_packed_barrier_hessian_matches_per_facet_formula(n):
    # at lam = mu / r the primal-dual matrix is mu times the barrier Hessian
    from extremal_ellipsoids.solve import _newton_system

    rng = np.random.default_rng(40 + n)
    a_hat, b_hat = _box_cut(n, 4 * n + 6, 40 + n)
    c = rng.uniform(-0.02, 0.02, n)
    lower = 0.3 * np.eye(n) + np.tril(rng.uniform(-0.02, 0.02, (n, n)))
    mu = 1.0 / 3.0

    def system(c, lower):
        slack = b_hat - a_hat @ c - np.linalg.norm(a_hat @ lower, axis=1)
        grad_f, r, dr, matrix = _newton_system(a_hat, b_hat, c, lower,
                                               mu / slack)
        return grad_f - dr.T @ (mu / r), matrix

    _, matrix = system(c, lower)
    want = mu * _per_facet_hessian(a_hat, b_hat, c, lower, 1.0 / mu)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(matrix - want)) <= 1e-12 * scale

    # columns of the matrix are central differences of mu times the
    # barrier gradient, grad f - dr^T (mu / r)
    rows, cols = np.tril_indices(n)
    h = 1e-6
    fd = np.empty_like(matrix)
    for j in range(matrix.shape[0]):
        moved = []
        for sign in (1.0, -1.0):
            c_j, l_j = c.copy(), lower.copy()
            if j < n:
                c_j[j] += sign * h
            else:
                l_j[rows[j - n], cols[j - n]] += sign * h
            moved.append(system(c_j, l_j)[0])
        fd[:, j] = (moved[0] - moved[1]) / (2.0 * h)
    assert np.max(np.abs(fd - matrix)) <= 1e-6 * scale


def _count_barrier_values(monkeypatch):
    from extremal_ellipsoids import solve

    calls = []
    value = solve._barrier_value

    def counted(*args):
        calls.append(None)
        return value(*args)

    monkeypatch.setattr(solve, "_barrier_value", counted)
    return calls


def test_mvie_work_does_not_depend_on_a_shift(monkeypatch):
    # moving a polytope moves the barrier path with it; the centering stop
    # must not hinge on rounding, or the work swings by a factor of two
    normals, offsets = _box_cut(3, 30, 2)
    shifts = np.random.default_rng(1002).uniform(-0.1, 0.1, (5, 3))
    calls = _count_barrier_values(monkeypatch)
    counts = []
    for shift in [np.zeros(3), *shifts]:
        calls.clear()
        body = Polytope(normals=normals, offsets=offsets + normals @ shift)
        e, _ = mvie_polytope(body)
        assert certify_ie(body, e, tol=1e-8).passed
        counts.append(len(calls))
    assert max(counts) <= 400
    assert max(counts) <= 1.1 * min(counts)


def test_mvie_twelve_dimensions_certifies_within_a_call_budget(monkeypatch):
    # the time of this solve varies with the machine; its work does not
    normals, offsets = _box_cut(12, 150, 12)
    body = Polytope(normals=normals, offsets=offsets)
    calls = _count_barrier_values(monkeypatch)
    e, _ = mvie_polytope(body)
    assert certify_ie(body, e, tol=1e-8).passed
    assert len(calls) <= 400


def _affine_box_cuts(count):
    """Images x -> M x + t of box-cut polytopes, all drawn from one stream:
    n in [2, 7], m in [2n + 2, 6n + 5], M = N(0, 1) + 2I, t in [-1, 1]^n."""
    rng = np.random.default_rng(2024)
    for _ in range(count):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(2 * n + 2, 6 * n + 6))
        normals, offsets = _box_cut(n, m, rng)
        lin = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
        shift = rng.uniform(-1.0, 1.0, n)
        image = normals @ np.linalg.inv(lin)
        yield Polytope(normals=image, offsets=offsets + image @ shift)


def test_mvie_certifies_affine_images_of_box_cuts():
    # an absolute 1e-13 stop on the optimality residual raised Unconverged
    # on 9 of these 100 bodies (cases 1, 16, 37, 40, 43, 51, 63, 68, 87),
    # and a Fritz John check in the input coordinates, which round to
    # cond(X) eps, raised it on case 63 (cond X = 2e9); the stop and the
    # check must hold up under the conditioning an affine image brings
    unconverged = 0
    for body in _affine_box_cuts(100):
        try:
            e, _ = mvie_polytope(body)
        except Unconverged:
            unconverged += 1
            continue
        assert certify_ie(body, e, tol=1e-8).passed
    assert unconverged == 0


def test_mvie_rejects_unbounded_and_empty_bodies():
    cone = Polytope(normals=np.array([[-1.0, 1.0], [-1.0, -1.0]]),
                    offsets=np.zeros(2))
    with pytest.raises(InvalidBody):
        mvie_polytope(cone)
    empty = Polytope(normals=np.vstack([np.eye(2), -np.eye(2)]),
                     offsets=np.array([1.0, 1.0, -2.0, 1.0]))
    with pytest.raises(EmptyBody):
        mvie_polytope(empty)


# ---------------------------------------------------------------------------
# Grid oracle.

def test_golden_section_finds_kinked_maxima_with_one_evaluation_per_step():
    # log-concave profiles with a kink at m, the form the oracle's inner
    # profiles take where a sampled constraint binds; on half the rows the
    # objective is -inf from 1.5 m to the top of the bracket
    rng = np.random.default_rng(7)
    rows = 200
    m = np.exp(rng.uniform(np.log(1e-5), np.log(5.0), rows))
    edge = np.where(np.arange(rows) % 2 == 0, 1.5 * m, np.inf)
    calls = []

    def f(x):
        calls.append(1)
        r = np.log(x / m)
        return np.where(x < edge, np.minimum(r, -3.0 * r), -np.inf)

    iters = 70
    best, value = _golden_max_log(f, np.full(rows, 1e-6), np.full(rows, 10.0),
                                  iters)
    assert np.max(np.abs(best / m - 1.0)) <= 1e-12
    assert np.all(np.isfinite(value))
    assert len(calls) == iters + 3


def test_oracle_validates_inputs():
    with pytest.raises(ValueError):
        grid_oracle_slab(SlabSpec(2, -0.5, 0.5), "XX")
    with pytest.raises(ValueError):
        grid_oracle_slab(SlabSpec(2, -0.5, 0.5), "CE", resolution=32)
    # a slab a few ulps wide drives the inner search to a = inf
    with pytest.raises(InvalidEllipsoid):
        grid_oracle_slab(SlabSpec(2, 0.5, 0.5 + 1e-15), "CE")


def test_oracle_recovers_deep_slab_ball():
    p = grid_oracle_slab(SlabSpec(2, -0.8, 0.9), "CE")
    assert _axes_gap(p, ce_slab(SlabSpec(2, -0.8, 0.9))) <= 1e-4


def test_oracle_refines_symmetric_slab_to_high_accuracy():
    p = grid_oracle_slab(SlabSpec(2, -0.5, 0.5), "CE")
    assert abs(p.tau) <= 1e-6
    assert abs(p.a - 2.0) <= 1e-6
    assert abs(p.b - 2.0 / 3.0) <= 1e-6


def test_oracle_matches_ie_closed_form():
    s = SlabSpec(2, -0.2, 0.95)
    p = grid_oracle_slab(s, "IE")
    assert p.form == "axes"
    assert _axes_gap(p, ie_slab(s)) <= 1e-4


def test_oracle_matches_cone_closed_form():
    s = SlabSpec(3, 0.2, 0.8)
    p = grid_oracle_slab(s, "CONE")
    assert _axes_gap(p, ce_cone(s)) <= 1e-4


def test_oracle_never_beats_the_closed_form():
    # the oracle maximizes over a feasible subfamily, so its volume can
    # only match or trail the analytic optimum
    for spec, prob, best in [
        (SlabSpec(3, 0.1, 0.9), "CE", ce_slab(SlabSpec(3, 0.1, 0.9))),
        (SlabSpec(2, -0.2, 0.95), "IE", ie_slab(SlabSpec(2, -0.2, 0.95))),
    ]:
        o = grid_oracle_slab(spec, prob)
        vol_o = volume(o.expand())
        vol_c = volume(best.expand())
        if prob == "CE":
            assert vol_o >= vol_c - 1e-6 * vol_c
        else:
            assert vol_o <= vol_c + 1e-6 * vol_c


def test_unit_ball_volume_helper_consistency():
    assert volume(Ellipsoid(np.zeros(3), np.eye(3))) == pytest.approx(
        unit_ball_volume(3), rel=1e-14)
