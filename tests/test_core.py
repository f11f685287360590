"""Ellipsoid algebra: representation, volume, support, polarity, affine maps."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from extremal_ellipsoids import (
    AffineMap,
    CertResult,
    ContactCertificate,
    CutStepRecord,
    Ellipsoid,
    EmptyBody,
    FeasibilityResult,
    GeneralSlab,
    InvalidDirection,
    InvalidEllipsoid,
    Polytope,
    SingularMap,
    chebyshev_center,
    contains,
    cyclic_group,
    ellipsoid_from_dict,
    ellipsoid_to_dict,
    identity_map,
    map_ellipsoid,
    polar,
    polytope_is_bounded,
    support_function,
    unit_ball,
    unit_ball_volume,
    unit_directions,
    volume,
)


def _rand_spd(rng, n, spread=2.0):
    m = rng.standard_normal((n, n))
    return m @ m.T + spread * np.eye(n)


# ---------------------------------------------------------------------------
# Validation.

def test_shape_must_be_symmetric():
    with pytest.raises(InvalidEllipsoid):
        Ellipsoid(np.zeros(2), np.array([[1.0, 0.1], [0.0, 1.0]]))


def test_shape_must_be_positive_definite():
    with pytest.raises(InvalidEllipsoid):
        Ellipsoid(np.zeros(2), np.diag([1.0, -1.0]))
    with pytest.raises(InvalidEllipsoid):
        Ellipsoid(np.zeros(2), np.diag([1.0, 0.0]))
    # LAPACK factors this one; only the relative pivot floor rejects it
    with pytest.raises(InvalidEllipsoid):
        Ellipsoid(np.zeros(2), np.diag([1.0, 1e-14]))
    # the floor scales with the trace, so a uniformly tiny shape is fine
    Ellipsoid(np.zeros(2), 1e-20 * np.eye(2))


def test_shape_dimension_must_match_center():
    with pytest.raises(InvalidEllipsoid):
        Ellipsoid(np.zeros(3), np.eye(2))


def test_non_finite_shape_rejected():
    with pytest.raises(InvalidEllipsoid):
        Ellipsoid(np.zeros(2), np.diag([1.0, math.inf]))


def test_factor_must_be_square_finite_and_nonsingular():
    for bad in (np.ones((2, 3)), np.eye(3), np.diag([1.0, math.nan]),
                np.diag([1.0, math.inf]), np.array([[1.0, 2.0], [2.0, 4.0]])):
        with pytest.raises(InvalidEllipsoid):
            Ellipsoid.from_factor(np.zeros(2), bad)


def test_factor_and_shape_forms_agree():
    rng = np.random.default_rng(4)
    for n in (1, 2, 5):
        e = Ellipsoid(rng.standard_normal(n), _rand_spd(rng, n))
        f = e.factor()
        np.testing.assert_allclose(f @ f.T @ e.shape, np.eye(n), atol=1e-12)
        g = Ellipsoid.from_factor(e.center, f @ np.linalg.qr(
            rng.standard_normal((n, n)))[0])  # F Q is a factor of E too
        np.testing.assert_allclose(g.shape, e.shape, rtol=1e-12, atol=1e-12)
        assert volume(g) == pytest.approx(volume(e), rel=1e-12)
        with pytest.raises(AttributeError):
            g.center = np.zeros(n)


# ---------------------------------------------------------------------------
# Volume.

def test_volume_unit_disc():
    assert volume(unit_ball(2)) == pytest.approx(math.pi, abs=1e-15)


def test_volume_radius_sqrt2_disc():
    e = Ellipsoid(np.zeros(2), np.diag([0.5, 0.5]))
    assert volume(e) == pytest.approx(2.0 * math.pi, rel=1e-14)


def test_volume_diagonal_shape():
    # det = 4/3, so volume = pi * sqrt(3)/2
    e = Ellipsoid(np.zeros(2), np.diag([2.0, 2.0 / 3.0]))
    assert volume(e) == pytest.approx(math.pi * math.sqrt(3.0) / 2.0, rel=1e-14)


@pytest.mark.parametrize("n,omega", [
    (1, 2.0),
    (2, math.pi),
    (3, 4.0 * math.pi / 3.0),
    (4, math.pi ** 2 / 2.0),
    (5, 8.0 * math.pi ** 2 / 15.0),
    (6, math.pi ** 3 / 6.0),
])
def test_unit_ball_volume_table(n, omega):
    assert unit_ball_volume(n) == pytest.approx(omega, rel=1e-14)


def test_volume_positive_for_random_shapes():
    rng = np.random.default_rng(3)
    for n in (2, 3, 5):
        e = Ellipsoid(rng.standard_normal(n), _rand_spd(rng, n))
        assert 0.0 < volume(e) < math.inf


# ---------------------------------------------------------------------------
# Support function.

def test_support_unit_ball_is_one():
    d = np.array([0.6, -0.8])
    assert support_function(unit_ball(2), d) == pytest.approx(1.0, abs=1e-14)


def test_support_offset_ellipse():
    # semi-axis 2 along x1 plus center offset 1
    e = Ellipsoid(np.array([1.0, 0.0]), np.diag([0.25, 1.0]))
    assert support_function(e, np.array([1.0, 0.0])) == pytest.approx(3.0, abs=1e-14)


def test_support_zero_direction_rejected():
    with pytest.raises(InvalidDirection):
        support_function(unit_ball(2), np.zeros(2))


def test_support_matches_sampled_boundary_maximum():
    rng = np.random.default_rng(11)
    for n in (2, 3):
        e = Ellipsoid(rng.standard_normal(n), _rand_spd(rng, n))
        pts = e.boundary_points(rng.standard_normal((10_000, n)))
        for _ in range(5):
            d = rng.standard_normal(n)
            sampled = float(np.max(pts @ d))
            exact = support_function(e, d)
            # the center term can cancel the radius term, so measure the
            # sampling deficit against the radius part alone
            radius = exact - float(e.center @ d)
            assert exact >= sampled - 1e-12
            assert exact - sampled <= 1e-3 * radius


@given(t=st.floats(min_value=1e-6, max_value=1e6))
def test_support_positive_homogeneity(t):
    e = Ellipsoid(np.array([0.3, -0.2]), np.diag([2.0, 0.5]))
    d = np.array([1.0, 2.0])
    lhs = support_function(e, t * d)
    rhs = t * support_function(e, d)
    assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_inclusion_iff_support_dominated():
    # C <= D pointwise on directions exactly when co(C) is inside co(D)
    rng = np.random.default_rng(5)
    dirs = unit_directions(2, 500)
    inner = np.array([[0.5, 0.0], [-0.5, 0.0], [0.0, 0.5], [0.0, -0.5]])
    outer = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    gaps = np.max(dirs @ outer.T, axis=1) - np.max(dirs @ inner.T, axis=1)
    assert np.all(gaps >= 0.0)
    poked = np.vstack([inner, [3.0, 0.0]])
    gaps = np.max(dirs @ outer.T, axis=1) - np.max(dirs @ poked.T, axis=1)
    assert gaps.min() < 0.0
    del rng


# ---------------------------------------------------------------------------
# Membership.

def test_center_always_contained():
    rng = np.random.default_rng(7)
    e = Ellipsoid(rng.standard_normal(3), _rand_spd(rng, 3))
    assert contains(e, e.center)


def test_boundary_point_contained_at_zero_tolerance():
    x = np.array([math.cos(0.3), math.sin(0.3)])
    assert contains(unit_ball(2), x, tol=0.0)


def test_scaled_boundary_point_excluded():
    tol = 1e-9
    x = (1.0 + 2.0 * tol) * np.array([1.0, 0.0])
    assert not contains(unit_ball(2), x, tol=tol)


# ---------------------------------------------------------------------------
# Affine maps.

def test_identity_map_fixes_ellipsoid():
    e = Ellipsoid(np.array([1.0, 2.0]), np.diag([1.0, 4.0]))
    out = map_ellipsoid(identity_map(2), e)
    np.testing.assert_allclose(out.center, e.center)
    np.testing.assert_allclose(out.shape, e.shape)


def test_translation_shifts_center_only():
    e = Ellipsoid(np.zeros(2), np.diag([2.0, 3.0]))
    t = AffineMap(np.eye(2), np.array([5.0, -1.0]))
    out = map_ellipsoid(t, e)
    np.testing.assert_allclose(out.center, [5.0, -1.0])
    np.testing.assert_allclose(out.shape, e.shape)


def test_doubling_map_on_unit_ball():
    out = map_ellipsoid(AffineMap(2.0 * np.eye(2), np.zeros(2)), unit_ball(2))
    np.testing.assert_allclose(out.shape, np.eye(2) / 4.0)
    assert volume(out) == pytest.approx(4.0 * math.pi, rel=1e-14)


def test_map_inverse_roundtrip():
    rng = np.random.default_rng(13)
    m = AffineMap(rng.standard_normal((3, 3)) + 3.0 * np.eye(3),
                  rng.standard_normal(3))
    x = rng.standard_normal((20, 3))
    np.testing.assert_allclose(m.inverse()(m(x)), x, atol=1e-12)


def test_compose_applies_right_map_first():
    a = AffineMap(2.0 * np.eye(2), np.zeros(2))
    b = AffineMap(np.eye(2), np.array([1.0, 0.0]))
    x = np.array([1.0, 1.0])
    np.testing.assert_allclose(a.compose(b)(x), a(b(x)))
    np.testing.assert_allclose(b.compose(a)(x), b(a(x)))


def test_singular_linear_part_rejected():
    with pytest.raises(SingularMap):
        AffineMap(np.zeros((2, 2)), np.zeros(2))


def test_map_preserves_membership():
    rng = np.random.default_rng(17)
    e = Ellipsoid(rng.standard_normal(2), _rand_spd(rng, 2))
    m = AffineMap(rng.standard_normal((2, 2)) + 2.0 * np.eye(2),
                  rng.standard_normal(2))
    image = map_ellipsoid(m, e)
    inside = e.boundary_points(rng.standard_normal((50, 2))) * 0.9 \
        + 0.1 * e.center
    for x in inside:
        assert contains(image, m(x), tol=1e-9)


@given(seed=st.integers(min_value=0, max_value=2**16))
def test_map_volume_scales_by_determinant(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    e = Ellipsoid(rng.standard_normal(n), _rand_spd(rng, n))
    lin = rng.standard_normal((n, n))
    if abs(np.linalg.det(lin)) < 1e-3:
        lin += 2.0 * np.eye(n)
    m = AffineMap(lin, rng.standard_normal(n))
    expected = abs(np.linalg.det(lin)) * volume(e)
    assert volume(map_ellipsoid(m, e)) == pytest.approx(expected, rel=1e-10)


# ---------------------------------------------------------------------------
# Polytopes and polarity.

def test_polytope_needs_some_representation():
    with pytest.raises(EmptyBody):
        Polytope()
    with pytest.raises(EmptyBody):
        Polytope(normals=np.eye(2), offsets=np.ones(3))


def test_polar_of_square_vertices():
    square = Polytope(vertices=np.array(
        [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]))
    dual = polar(square)
    assert not dual.is_vform
    # halfspaces +-x1 +- x2 <= 1: the scaled cross-polytope
    assert dual.contains_point([0.5, 0.49])
    assert not dual.contains_point([0.6, 0.6])


def test_polar_of_basis_vectors_is_cube():
    pts = np.vstack([np.eye(3), -np.eye(3)])
    dual = polar(Polytope(vertices=pts))
    assert dual.contains_point([0.99, -0.99, 0.99])
    assert not dual.contains_point([1.01, 0.0, 0.0])


def test_polar_membership_matches_definition():
    rng = np.random.default_rng(23)
    pts = rng.standard_normal((8, 2))
    body = Polytope(vertices=pts)
    dual = polar(body)
    for _ in range(100):
        x = rng.uniform(-2.0, 2.0, size=2)
        assert dual.contains_point(x, tol=0.0) == bool(np.max(pts @ x) <= 1.0)


def test_bipolar_reproduces_hull_membership():
    from scipy.optimize import linprog
    from scipy.spatial import HalfspaceIntersection

    rng = np.random.default_rng(29)
    base = rng.standard_normal((6, 2))
    pts = np.vstack([base, -base])  # symmetric, 0 interior
    dual = polar(Polytope(vertices=pts))
    hs = np.hstack([dual.normals, -dual.offsets[:, None]])
    dual_vertices = HalfspaceIntersection(hs, np.zeros(2)).intersections
    bipolar = polar(Polytope(vertices=dual_vertices))

    def in_hull(x):
        k = pts.shape[0]
        res = linprog(np.zeros(k), A_eq=np.vstack([pts.T, np.ones(k)]),
                      b_eq=np.append(x, 1.0), bounds=[(0, None)] * k,
                      method="highs")
        return res.success

    for _ in range(40):
        x = rng.uniform(-1.5, 1.5, size=2)
        assert bipolar.contains_point(x, tol=1e-9) == in_hull(x)


def test_vform_support_and_hform_membership_guards():
    vbody = Polytope(vertices=np.eye(2))
    hbody = Polytope(normals=np.eye(2), offsets=np.ones(2))
    assert vbody.support([1.0, 0.0]) == 1.0
    with pytest.raises(InvalidDirection):
        hbody.support([1.0, 0.0])
    with pytest.raises(InvalidDirection):
        vbody.contains_point([0.0, 0.0])


def test_chebyshev_center_of_square():
    square = Polytope(normals=np.vstack([np.eye(2), -np.eye(2)]),
                      offsets=np.ones(4))
    c, r = chebyshev_center(square)
    np.testing.assert_allclose(c, np.zeros(2), atol=1e-9)
    assert r == pytest.approx(1.0, abs=1e-9)


def test_chebyshev_center_empty_interior():
    empty = Polytope(normals=np.array([[1.0, 0.0], [-1.0, 0.0]]),
                     offsets=np.array([-1.0, -1.0]))
    with pytest.raises(EmptyBody):
        chebyshev_center(empty)


def test_boundedness_detection():
    cube = Polytope(normals=np.vstack([np.eye(3), -np.eye(3)]),
                    offsets=np.ones(6))
    halfspace = Polytope(normals=np.array([[1.0, 0.0]]),
                         offsets=np.array([1.0]))
    assert polytope_is_bounded(cube)
    assert not polytope_is_bounded(halfspace)
    assert polytope_is_bounded(Polytope(vertices=np.eye(2)))


def test_boundedness_of_strips_cones_and_redundant_cubes():
    # rank-deficient: a strip in the plane, a slab in space
    strip = Polytope(normals=np.array([[0.0, 1.0], [0.0, -1.0]]),
                     offsets=np.ones(2))
    assert not polytope_is_bounded(strip)
    slab = Polytope(normals=np.array([[1.0, 1.0, 0.0], [-1.0, -1.0, 0.0],
                                      [2.0, 2.0, 0.0]]),
                    offsets=np.ones(3))
    assert not polytope_is_bounded(slab)
    # full rank, yet unbounded: the pointed cone x_1 >= |x_2| cut off on
    # neither side, and the same cone with a facet that only trims its tip
    cone = np.array([[-1.0, 1.0], [-1.0, -1.0]])
    assert not polytope_is_bounded(Polytope(normals=cone, offsets=np.zeros(2)))
    assert not polytope_is_bounded(
        Polytope(normals=np.vstack([cone, [[-1.0, 0.0]]]),
                 offsets=np.array([0.0, 0.0, -1.0])))
    # redundant facets (far cuts, repeats, scaled copies) keep a cube bounded
    cube = np.vstack([np.eye(3), -np.eye(3)])
    extra = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 0.0], [0.0, 3.0, 0.0]])
    assert polytope_is_bounded(
        Polytope(normals=np.vstack([cube, extra]),
                 offsets=np.concatenate([np.ones(6), [10.0, 1.0, 3.0]])))


def test_boundedness_of_an_empty_body_raises():
    empty = Polytope(normals=np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0],
                                       [0.0, -1.0]]),
                     offsets=np.array([-1.0, -1.0, 1.0, 1.0]))
    with pytest.raises(EmptyBody):
        polytope_is_bounded(empty)
    # emptiness is found before boundedness: an empty strip raises too
    empty_strip = Polytope(normals=np.array([[0.0, 1.0], [0.0, -1.0]]),
                           offsets=np.array([-1.0, -1.0]))
    with pytest.raises(EmptyBody):
        polytope_is_bounded(empty_strip)
    assert polytope_is_bounded(Polytope(vertices=np.array([[0.0, 0.0, 1.0]])))


# ---------------------------------------------------------------------------
# Direction sequences and serialization.

def test_unit_directions_are_unit_and_reproducible():
    d1 = unit_directions(3, 64)
    d2 = unit_directions(3, 64)
    assert d1.shape == (64, 3)
    np.testing.assert_allclose(np.linalg.norm(d1, axis=1), 1.0, atol=1e-12)
    np.testing.assert_array_equal(d1, d2)


def test_unit_directions_spread_out():
    d = unit_directions(2, 256)
    # no closed halfspace through the origin captures every direction
    probe = unit_directions(2, 32)
    assert float(np.min(np.max(probe @ d.T, axis=1))) > 0.5


def test_ellipsoid_dict_roundtrip():
    e = Ellipsoid(np.array([1.0, -2.0]), np.array([[2.0, 0.3], [0.3, 1.0]]))
    back = ellipsoid_from_dict(ellipsoid_to_dict(e))
    np.testing.assert_array_equal(back.center, e.center)
    np.testing.assert_array_equal(back.shape, e.shape)


def test_ellipsoid_dict_dim_mismatch():
    payload = ellipsoid_to_dict(unit_ball(2))
    payload["dim"] = 3
    with pytest.raises(InvalidEllipsoid):
        ellipsoid_from_dict(payload)


# ---------------------------------------------------------------------------
# Equality of the array-holding records.

@pytest.mark.parametrize("make", [
    lambda: AffineMap(np.eye(2), np.zeros(2)),
    lambda: unit_ball(2),
    lambda: Polytope(vertices=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
    lambda: cyclic_group(3),
    lambda: GeneralSlab(np.eye(2), np.zeros(2), [1.0, 0.0], -0.5, 0.5),
    lambda: ContactCertificate(np.eye(2), [0.5, 0.5], "ce"),
    lambda: CertResult(True, {"matrix_eq": 0.0}, worst_point=np.zeros(2)),
    lambda: CutStepRecord(0, np.array([1.0, 0.0]), -0.5, 0.5, 1.0, 0.5, 0.5),
    lambda: FeasibilityResult("FEASIBLE", np.zeros(2), 1.0),
], ids=lambda make: type(make()).__name__)
def test_array_records_compare_by_identity_and_hash(make):
    a, b = make(), make()
    assert (a == a) is True
    assert (a == b) is False
    assert hash(a) == hash(a)
    assert len({a, b}) == 2
