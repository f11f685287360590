"""Fritz John certification, John factors, breadth, quadratic certificates."""

import itertools
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import extremal_ellipsoids
from extremal_ellipsoids import (
    ContactCertificate,
    DegenerateInput,
    Ellipsoid,
    InvalidBody,
    NotNonnegative,
    NotOptimal,
    Polytope,
    SlabSpec,
    breadth_diameter,
    ce_contact_points,
    ce_slab,
    certify_ce,
    certify_ie,
    chebyshev_center,
    cone_contact_points,
    ce_cone,
    fritz_john_residuals,
    ie_slab,
    ie_support_polytope,
    john_factors,
    lukacs_certificate,
    mvie_polytope,
    recover_multipliers,
    unit_ball,
    unit_directions,
)
from extremal_ellipsoids import certify
from extremal_ellipsoids.certify import (MULTIPLIER_PRUNE, _fritz_john_rows,
                                         nnls)

SQUARE = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])


# ---------------------------------------------------------------------------
# Certificate container.

def test_certificate_validates_kind_and_signs():
    u = np.array([[1.0, 0.0], [-1.0, 0.0]])
    with pytest.raises(ValueError):
        ContactCertificate(u, np.ones(2), "xx")
    with pytest.raises(ValueError):
        ContactCertificate(u, np.array([1.0, -0.1]), "ce")
    with pytest.raises(ValueError):
        ContactCertificate(u, np.ones(3), "ce")


def test_certificate_enforces_contact_count_bound():
    # n=2 allows at most n(n+3)/2 = 5 contacts
    u = unit_directions(2, 6)
    with pytest.raises(ValueError):
        ContactCertificate(u, np.ones(6), "ce")
    ContactCertificate(u[:5], np.ones(5), "ce")


# ---------------------------------------------------------------------------
# Multiplier recovery and residuals.

def test_square_multipliers_are_uniform():
    e = Ellipsoid(np.zeros(2), np.eye(2) / 2.0)
    lam = recover_multipliers(e, SQUARE)
    np.testing.assert_allclose(lam, 0.5, atol=1e-12)
    res = fritz_john_residuals(e, SQUARE, lam)
    assert res["matrix_eq"] <= 1e-13
    assert res["centroid_eq"] <= 1e-13
    assert res["multiplier_sum"] <= 1e-13


def test_equilateral_triangle_multipliers():
    tri = np.array([[1.0, 0.0],
                    [-0.5, math.sqrt(3.0) / 2.0],
                    [-0.5, -math.sqrt(3.0) / 2.0]])
    lam = recover_multipliers(unit_ball(2), tri)
    np.testing.assert_allclose(lam, 2.0 / 3.0, atol=1e-12)


def test_residuals_detect_wrong_shape():
    e = Ellipsoid(np.zeros(2), np.eye(2))  # not the CE of the square
    lam = np.full(4, 0.5)
    res = fritz_john_residuals(e, SQUARE, lam)
    assert res["matrix_eq"] > 0.5


# ---------------------------------------------------------------------------
# Circumscription certificates.

def test_certify_ce_square_passes():
    result = certify_ce(SQUARE, Ellipsoid(np.zeros(2), np.eye(2) / 2.0))
    assert result.passed
    assert max(result.residuals.values()) <= 1e-10
    np.testing.assert_allclose(result.certificate.multipliers, 0.5,
                               atol=1e-10)
    assert result.certificate.multipliers.sum() == pytest.approx(2.0)


def test_certify_ce_oversized_ball_fails_without_raising():
    result = certify_ce(SQUARE, Ellipsoid(np.zeros(2), np.eye(2) / 3.0))
    assert not result.passed
    assert result.certificate is None
    assert result.worst_point is not None
    assert math.isinf(result.residuals["matrix_eq"])


def test_certify_ce_reports_feasibility_violation():
    # a point outside the candidate ellipsoid shows up as positive
    # feasibility residual
    pts = np.vstack([SQUARE, [2.0, 0.0]])
    result = certify_ce(pts, Ellipsoid(np.zeros(2), np.eye(2) / 2.0))
    assert not result.passed
    assert result.residuals["feasibility"] == pytest.approx(1.0)


def test_certify_ce_fails_when_every_multiplier_is_pruned():
    # the far point is the only candidate contact, and NNLS gives it a
    # multiplier of 1e-12, below the pruning threshold
    pts = np.array([[1e6, 0.0], [0.0, 0.0], [0.0, 0.5]])
    result = certify_ce(pts, unit_ball(2))
    assert not result.passed
    assert result.certificate is None
    for key in ("matrix_eq", "centroid_eq", "multiplier_sum",
                "contact_membership"):
        assert math.isinf(result.residuals[key])
    assert result.residuals["feasibility"] == pytest.approx(1e12)
    np.testing.assert_array_equal(result.worst_point, [1e6, 0.0])


def test_certify_ce_rejects_halfspace_bodies():
    h = Polytope(normals=np.eye(2), offsets=np.ones(2))
    with pytest.raises(NotOptimal):
        certify_ce(h, unit_ball(2))


def test_certify_ce_vform_polytope_accepted():
    result = certify_ce(Polytope(vertices=SQUARE),
                        Ellipsoid(np.zeros(2), np.eye(2) / 2.0))
    assert result.passed


@pytest.mark.parametrize("n,alpha,beta", [
    (2, -0.5, 0.5), (2, -0.2, 0.8), (3, 0.1, 0.9), (5, -0.3, 0.6),
    (2, -0.8, 0.9),
])
def test_slab_ce_results_certify(n, alpha, beta):
    s = SlabSpec(n, alpha, beta)
    p = ce_slab(s)
    result = certify_ce(ce_contact_points(s, p), p.expand())
    assert result.passed, result.residuals
    assert max(result.residuals.values()) <= 1e-8


@pytest.mark.parametrize("n,alpha,beta", [
    (2, -0.9, 0.95), (3, 0.2, 0.8), (2, -0.8, 0.8),
])
def test_cone_ce_results_certify(n, alpha, beta):
    s = SlabSpec(n, alpha, beta)
    p = ce_cone(s)
    result = certify_ce(cone_contact_points(s, p), p.expand())
    assert result.passed, result.residuals


# ---------------------------------------------------------------------------
# Inscription certificates.

def test_certify_ie_cube_unit_ball():
    cube = Polytope(normals=np.vstack([np.eye(3), -np.eye(3)]),
                    offsets=np.ones(6))
    result = certify_ie(cube, unit_ball(3))
    assert result.passed
    np.testing.assert_allclose(result.certificate.multipliers, 0.5,
                               atol=1e-10)


def test_certify_ie_cross_polytope():
    cross = Polytope(normals=np.array([[1.0, 1.0], [1.0, -1.0],
                                       [-1.0, 1.0], [-1.0, -1.0]]),
                     offsets=np.ones(4))
    ball = Ellipsoid(np.zeros(2), 2.0 * np.eye(2))  # radius 1/sqrt(2)
    result = certify_ie(cross, ball)
    assert result.passed
    mids = np.sort(result.certificate.contacts, axis=0)
    assert np.max(np.abs(np.abs(mids) - 0.5)) <= 1e-12


def test_certify_ie_undersized_ball_fails():
    cube = Polytope(normals=np.vstack([np.eye(2), -np.eye(2)]),
                    offsets=np.ones(4))
    result = certify_ie(cube, Ellipsoid(np.zeros(2), 4.0 * np.eye(2)))
    assert not result.passed
    assert result.residuals["feasibility"] == 0.0


def test_certify_ie_requires_hform():
    with pytest.raises(NotOptimal):
        certify_ie(Polytope(vertices=SQUARE), unit_ball(2))


def test_zero_facet_normal_is_an_invalid_body_everywhere():
    # the box [-1, 1]^2 plus the row [0, 0] x <= 1, which bounds nothing
    body = Polytope(normals=np.vstack([np.eye(2), -np.eye(2), [[0.0, 0.0]]]),
                    offsets=np.ones(5))
    e = unit_ball(2)
    for call in (lambda: certify_ie(body, e),
                 lambda: chebyshev_center(body),
                 lambda: john_factors(body, e, "ie", symmetric=True),
                 lambda: mvie_polytope(body)):
        with pytest.raises(InvalidBody, match="^zero facet normal$"):
            call()


def test_certify_ce_rejects_non_finite_points():
    for bad in ([math.nan, 0.0], [0.0, -math.inf]):
        with pytest.raises(DegenerateInput, match="points must be finite"):
            certify_ce(np.vstack([SQUARE, bad]), unit_ball(2))


@pytest.mark.parametrize("n,alpha,beta", [
    (2, -0.5, 0.5), (2, -0.2, 0.95), (3, -0.6, 0.7), (5, 0.1, 0.8),
])
def test_slab_ie_results_certify(n, alpha, beta):
    s = SlabSpec(n, alpha, beta)
    p = ie_slab(s)
    result = certify_ie(ie_support_polytope(s, p), p.expand())
    assert result.passed, result.residuals
    assert max(result.residuals.values()) <= 1e-8


def test_contacts_span_every_halfspace():
    # no closed halfspace through the center captures all contacts
    cases = []
    s = SlabSpec(3, 0.1, 0.9)
    p = ce_slab(s)
    cases.append(certify_ce(ce_contact_points(s, p), p.expand()))
    q = ie_slab(s)
    cases.append(certify_ie(ie_support_polytope(s, q), q.expand()))
    dirs = unit_directions(3, 500)
    for result, center in zip(cases, (p.expand().center, q.expand().center)):
        assert result.passed
        gaps = np.max(dirs @ (result.certificate.contacts - center).T, axis=1)
        assert gaps.min() > 0.0


def test_recovered_support_within_john_bound():
    for n, alpha, beta in [(2, -0.2, 0.8), (3, 0.1, 0.9), (5, -0.3, 0.6)]:
        s = SlabSpec(n, alpha, beta)
        p = ce_slab(s)
        result = certify_ce(ce_contact_points(s, p), p.expand())
        k = result.certificate.contacts.shape[0]
        assert 1 <= k <= n * (n + 3) // 2


def test_near_cospherical_candidates_keep_johns_bound():
    # candidates on the unit sphere of R^5 only to about 1e-9 make the
    # trace row independent of John's 20 equations, so NNLS on all 21 rows
    # keeps 21 multipliers; a refit that kept the trace row kept all 21,
    # which ContactCertificate refuses.  The refit on John's equations
    # alone keeps at most 20, and the ball still certifies
    for seed in range(3):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal((200, 5))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        u *= 1.0 + 1e-9 * rng.standard_normal((200, 1))
        lam = recover_multipliers(unit_ball(5), u)
        assert np.count_nonzero(lam > MULTIPLIER_PRUNE) > 5 * 8 // 2, seed
        result = certify_ce(u, unit_ball(5))
        assert result.passed, seed
        assert 1 <= result.certificate.contacts.shape[0] <= 5 * 8 // 2, seed


# ---------------------------------------------------------------------------
# Nonnegative least squares.

def _john_system(n, k, seed, noise=0.0):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((k, n))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    u *= 1.0 + noise * rng.standard_normal((k, 1))
    return _fritz_john_rows(unit_ball(n), u)


def _nnls_families(seed):
    """(name, a, b) on the Fritz John rows of random unit contacts, with
    R = n(n+3)/2 + 1 rows, and on generic matrices."""
    rng = np.random.default_rng(seed)
    yield ("K < R", *_john_system(5, 10, seed))
    yield ("K = R", *_john_system(5, 21, seed))
    yield ("21 x 216", *_john_system(5, 216, seed))
    yield ("28 x 4000", *_john_system(6, 4000, seed))
    # off the sphere by 1e-9 and 1e-8: the last residuals lie along an
    # almost null direction, where only a price orthogonal to the passive
    # columns keeps its sign
    yield ("21 x 200 near the sphere", *_john_system(5, 200, seed, 1e-9))
    yield ("6 x 50 near the sphere", *_john_system(2, 50, seed, 1e-8))
    a, b = _john_system(3, 30, seed)
    yield "duplicated", np.hstack([a, a[:, ::3], a[:, :5]]), b
    # rank deficient with K < R: the least-norm solution splits the weight
    # of a repeated column
    a = _john_system(5, 8, seed)[0]
    a = np.hstack([a, a[:, :4]])
    yield "duplicated, K < R", a, a @ rng.uniform(0.5, 1.0, 12)
    a = rng.standard_normal((12, 4)) @ rng.standard_normal((4, 30))
    yield "rank 4", a, rng.standard_normal(12)
    yield "rank 4, b in the cone", a, a @ rng.uniform(0.0, 1.0, 30)
    yield "b = 0", _john_system(4, 40, seed)[0], np.zeros(15)
    yield "b outside the cone", rng.uniform(0.1, 1.0, (8, 20)), -np.ones(8)
    yield "wide", rng.standard_normal((8, 12)), rng.standard_normal(8)
    yield "tall", rng.standard_normal((20, 12)), rng.standard_normal(20)


@pytest.mark.parametrize("seed", range(3))
def test_nnls_matches_scipy_and_meets_kkt(seed):
    from scipy.optimize import nnls as scipy_nnls

    for name, a, b in _nnls_families(seed):
        x, rnorm = nnls(a, b)
        _, scipy_rnorm = scipy_nnls(a, b)
        size = np.linalg.norm(b)
        assert np.all(x >= 0.0), name
        assert abs(rnorm - np.linalg.norm(a @ x - b)) <= 1e-14 * size, name
        assert (abs(rnorm - scipy_rnorm)
                <= 1e-12 * scipy_rnorm + 1e-13 * size), name
        # the gradient of |a x - b|^2 / 2: zero on the support, nonnegative
        # off it
        grad = a.T @ (a @ x - b)
        tol = 1e-12 * np.linalg.norm(a, axis=0).max() * size
        assert np.all(np.abs(grad[x > 0.0]) <= tol), name
        assert np.all(grad[x == 0.0] >= -tol), name


def test_certify_at_order_46080_solves_on_johns_bound(monkeypatch):
    # the 46 080 signed permutations of x lie on the ball of radius |x|;
    # every one is a candidate, and no least-squares subproblem holds more
    # than R = 6 * 9 / 2 + 1 = 28 columns
    x = np.array([0.9, 0.7, 0.5, 0.3, 0.2, 0.1])
    perms = x[np.array(list(itertools.permutations(range(6))))]
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=6)))
    pts = (perms[:, None, :] * signs).reshape(-1, 6)
    assert pts.shape == (46080, 6)
    sizes = []
    solve = certify._PassiveQR.solve

    def counted(self, **kwargs):
        sizes.append(len(self.cols))
        return solve(self, **kwargs)

    monkeypatch.setattr(certify._PassiveQR, "solve", counted)
    result = certify_ce(pts, Ellipsoid(np.zeros(6), np.eye(6) / (x @ x)))
    assert result.passed
    assert 0 < max(sizes) <= 28


def test_accept_paths_leave_scipy_optimize_unloaded():
    # scipy.optimize is loaded only by the LPs on mvie's rejection path;
    # the solvers and certificates of a bounded body never reach it
    root = str(Path(extremal_ellipsoids.__file__).resolve().parent.parent)
    code = (f"import sys; sys.path.insert(0, {root!r}); import numpy as np; "
            "from extremal_ellipsoids import (Polytope, certify_ce, "
            "certify_ie, mvee_points, mvie_polytope); "
            "pts = np.random.default_rng(0).standard_normal((50, 3)); "
            "e, _ = mvee_points(pts); assert certify_ce(pts, e).passed; "
            "box = Polytope(normals=np.vstack([np.eye(3), -np.eye(3)]), "
            "offsets=np.array([1.0, 2.0, 0.5, 1.0, 1.0, 1.5])); "
            "e, _ = mvie_polytope(box); assert certify_ie(box, e).passed; "
            "print('scipy.optimize' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out == "False\n"


# ---------------------------------------------------------------------------
# John shrink/blow factors.

def test_simplex_shrink_factor_is_tight():
    tri = np.array([[1.0, 0.0],
                    [-0.5, math.sqrt(3.0) / 2.0],
                    [-0.5, -math.sqrt(3.0) / 2.0]])
    result = john_factors(tri, unit_ball(2), "ce", symmetric=False)
    assert result.passed
    # the shrunk ball is the inscribed circle of the triangle: tangent
    shrunk_radius = 0.5
    edge_distance = 0.5  # distance from 0 to each edge of the triangle
    assert shrunk_radius == edge_distance


def test_cube_symmetric_shrink_contained():
    cube = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1)
                     for sz in (-1, 1)], dtype=float)
    ball = Ellipsoid(np.zeros(3), np.eye(3) / 3.0)  # radius sqrt(3)
    result = john_factors(cube, ball, "ce", symmetric=True)
    assert result.passed


def test_ie_blow_factor_contains_cube():
    cube = Polytope(normals=np.vstack([np.eye(3), -np.eye(3)]),
                    offsets=np.ones(6))
    result = john_factors(cube, unit_ball(3), "ie", symmetric=True)
    assert result.passed


def test_john_factors_detects_violation():
    # shrinking by sqrt(n) is not enough for a simplex
    tri = np.array([[1.0, 0.0],
                    [-0.5, math.sqrt(3.0) / 2.0],
                    [-0.5, -math.sqrt(3.0) / 2.0]])
    result = john_factors(tri, unit_ball(2), "ce", symmetric=True)
    assert not result.passed
    assert result.worst_point is not None


def test_john_factors_kind_validated():
    with pytest.raises(ValueError):
        john_factors(SQUARE, unit_ball(2), "xx", symmetric=False)


def test_john_factors_hform_paths():
    cube_h = Polytope(normals=np.vstack([np.eye(2), -np.eye(2)]),
                      offsets=np.ones(4))
    ball = Ellipsoid(np.zeros(2), np.eye(2) / 2.0)  # CE of the square
    assert john_factors(cube_h, ball, "ce", symmetric=True).passed
    assert john_factors(cube_h, unit_ball(2), "ie", symmetric=True).passed


# ---------------------------------------------------------------------------
# Breadth of the contact set.

def test_ball_breadth_is_two():
    pts = unit_directions(2, 500)
    assert breadth_diameter(pts) == pytest.approx(2.0, abs=1e-3)


def test_slab_vertices_hit_the_bound_exactly():
    # the true breadth of this contact square equals the n=2 bound; the
    # sampled minimum can only sit on or slightly above it
    c = 1.0 / math.sqrt(2.0)
    pts = np.array([[c, c], [c, -c], [-c, c], [-c, -c]])
    value = breadth_diameter(pts, tol=1e-9)
    bound = 2.0 / math.sqrt(2.0)
    assert bound - 1e-12 <= value <= bound + 5e-3


def test_breadth_requires_normalized_position():
    thin = np.array([[2.0, 0.1], [2.0, -0.1], [-2.0, 0.1], [-2.0, -0.1]])
    with pytest.raises(NotOptimal):
        breadth_diameter(thin)


# ---------------------------------------------------------------------------
# Quadratic nonnegativity certificates.

def test_pure_square_certificate():
    c, d, g = lukacs_certificate((1.0, 0.0, 0.0), (-1.0, 1.0))
    assert (c, d, g) == (1.0, 0.0, 0.0)


def test_interval_weight_certificate():
    c, d, g = lukacs_certificate((-1.0, 0.0, 1.0), (-1.0, 1.0))
    assert (c, d) == (0.0, 0.0)
    assert g == pytest.approx(1.0, abs=1e-15)


def test_shifted_square_certificate_identity():
    q2, q1, q0 = 1.0, -4.0, 4.0  # (u-2)^2, positive on [-1, 1]
    c, d, g = lukacs_certificate((q2, q1, q0), (-1.0, 1.0))
    assert g >= 0.0
    u = np.linspace(-1.0, 1.0, 100)
    lhs = (c * u + d) ** 2 + g * (u + 1.0) * (1.0 - u)
    rhs = q2 * u * u + q1 * u + q0
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_negative_quadratic_rejected():
    with pytest.raises(NotNonnegative):
        lukacs_certificate((1.0, 0.0, -0.25), (-1.0, 1.0))


def test_interval_must_be_ordered():
    with pytest.raises(ValueError):
        lukacs_certificate((1.0, 0.0, 0.0), (1.0, -1.0))


@given(c0=st.floats(-3.0, 3.0), d0=st.floats(-3.0, 3.0),
       g0=st.floats(0.0, 3.0),
       a=st.floats(-2.0, 0.5), width=st.floats(0.1, 3.0))
def test_certificate_roundtrip_property(c0, d0, g0, a, width):
    b = a + width
    q2 = c0 * c0 - g0
    q1 = 2.0 * c0 * d0 + g0 * (a + b)
    q0 = d0 * d0 - g0 * a * b
    c, d, g = lukacs_certificate((q2, q1, q0), (a, b))
    u = np.linspace(a, b, 50)
    lhs = (c * u + d) ** 2 + g * (u - a) * (b - u)
    rhs = (q2 * u + q1) * u + q0
    scale = max(abs(q2), abs(q1), abs(q0), 1.0)
    assert np.max(np.abs(lhs - rhs)) <= 1e-9 * scale
