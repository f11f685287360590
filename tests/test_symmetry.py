"""Finite isometry groups, orbits, and group-averaged ellipsoids."""

import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from extremal_ellipsoids import (
    AffineMap,
    Ellipsoid,
    FiniteGroup,
    SingularShape,
    check_invariant_ellipsoid,
    cyclic_group,
    dihedral_group,
    group_from_dict,
    group_to_dict,
    invariant_center,
    invariant_shape,
    mvee_points,
    named_group,
    orbit,
    permutation_group,
    signed_permutation_group,
    slab_symmetry_group,
)


def _rotation(t: float) -> np.ndarray:
    return np.array([[math.cos(t), -math.sin(t)],
                     [math.sin(t), math.cos(t)]])


# ---------------------------------------------------------------------------
# Group construction and validation.

def test_group_rejects_empty_and_mixed_dimensions():
    with pytest.raises(ValueError):
        FiniteGroup(())
    mixed = (AffineMap(np.eye(2), np.zeros(2)),
             AffineMap(np.eye(3), np.zeros(3)))
    with pytest.raises(ValueError):
        FiniteGroup(mixed)


def test_group_rejects_non_isometry():
    stretch = AffineMap(np.diag([2.0, 1.0]), np.zeros(2))
    with pytest.raises(ValueError, match="isometry"):
        FiniteGroup((AffineMap(np.eye(2), np.zeros(2)), stretch))


def test_group_rejects_missing_identity():
    quarter = AffineMap(_rotation(math.pi / 2.0), np.zeros(2))
    half = AffineMap(_rotation(math.pi), np.zeros(2))
    with pytest.raises(ValueError, match="identity"):
        FiniteGroup((quarter, half))


def test_group_rejects_open_composition():
    third = AffineMap(_rotation(2.0 * math.pi / 3.0), np.zeros(2))
    with pytest.raises(ValueError, match="closed"):
        FiniteGroup((AffineMap(np.eye(2), np.zeros(2)), third))


@functools.lru_cache(maxsize=None)
def _hyperoctahedral(n):
    return signed_permutation_group(n).elements


@pytest.mark.parametrize("n,order", [(4, 384), (5, 3840)])
def test_group_rejects_a_dropped_element(n, order):
    elements = _hyperoctahedral(n)
    assert len(elements) == order
    with pytest.raises(ValueError, match="closed"):
        FiniteGroup(elements[:-1])


@pytest.mark.parametrize("n,order", [(4, 384), (5, 3840)])
def test_group_rejects_a_moved_offset(n, order):
    elements = list(_hyperoctahedral(n))
    assert len(elements) == order
    g = elements[order // 2]
    elements[order // 2] = AffineMap(g.linear, g.offset + 1e-6 * np.eye(n)[0])
    with pytest.raises(ValueError, match="closed"):
        FiniteGroup(tuple(elements))


def test_order_3840_builds_in_few_tree_queries(monkeypatch):
    # at most ceil(log2 3840) = 12 generators plus the inverse check
    import scipy.spatial

    calls = []
    tree = scipy.spatial.cKDTree

    class Counted(tree):
        def query(self, *args, **kwargs):
            calls.append(1)
            return super().query(*args, **kwargs)

    monkeypatch.setattr(scipy.spatial, "cKDTree", Counted)
    group = signed_permutation_group(5)
    assert len(group) == 3840
    assert 0 < len(calls) <= 13


def test_group_accepts_isometries_of_a_quadratic_form():
    # conjugating the quarter-turn group by diag(2, 1) gives maps that are
    # not orthogonal yet preserve the form diag(4, 1)
    root, root_inv = np.diag([2.0, 1.0]), np.diag([0.5, 1.0])
    mats = [root_inv @ _rotation(k * math.pi / 2.0) @ root for k in range(4)]
    mats[0] = np.eye(2)
    maps = tuple(AffineMap(m, np.zeros(2)) for m in mats)
    with pytest.raises(ValueError, match="isometry"):
        FiniteGroup(maps)
    g = FiniteGroup(maps, form=np.diag([4.0, 1.0]))
    assert len(g) == 4 and g.dim == 2
    with pytest.raises(ValueError, match="positive definite"):
        FiniteGroup(maps, form=np.diag([4.0, -1.0]))
    with pytest.raises(ValueError, match="finite"):
        FiniteGroup(maps, form=np.diag([4.0, math.nan]))
    # a sheared conjugate preserves the non-diagonal form A^T A
    shear = np.array([[2.0, 1.0], [0.0, 1.0]])
    mats = [np.linalg.solve(shear, _rotation(k * math.pi / 2.0)) @ shear
            for k in range(4)]
    sheared = tuple(AffineMap(m, np.zeros(2)) for m in mats)
    assert len(FiniteGroup(sheared, form=shear.T @ shear)) == 4


# ---------------------------------------------------------------------------
# Orbits and averages.

def test_orbit_of_axis_point_under_permutations():
    pts = orbit(permutation_group(3), [1.0, 0.0, 0.0])
    assert len(pts) == 3
    assert sorted(int(np.argmax(p)) for p in pts) == [0, 1, 2]


def test_orbit_deduplicates_fixed_points():
    assert len(orbit(signed_permutation_group(3), np.zeros(3))) == 1
    assert len(orbit(signed_permutation_group(2), [1.0, 1.0])) == 4


@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_orbit_size_divides_group_order(a, b):
    g = signed_permutation_group(2)
    assert len(g) % len(orbit(g, [a, b])) == 0


def test_invariant_center_of_linear_group_is_origin():
    rng = np.random.default_rng(3)
    for grp in (cyclic_group(5), signed_permutation_group(3)):
        c = invariant_center(grp, rng.standard_normal(grp.dim))
        np.testing.assert_allclose(c, np.zeros(grp.dim), atol=1e-12)


def _square_at(c0):
    # the square's symmetries moved to sit at c0: offsets (I - L) c0
    return FiniteGroup(tuple(AffineMap(g.linear, (np.eye(2) - g.linear) @ c0)
                             for g in signed_permutation_group(2)))


def test_invariant_center_of_shifted_group():
    c0 = np.array([3.0, -1.0])
    grp = _square_at(c0)
    c = invariant_center(grp, [7.0, 2.0])
    np.testing.assert_allclose(c, c0, atol=1e-12)
    for g in grp:
        np.testing.assert_allclose(g(c), c, atol=1e-12)


def _loop_orbit(group, x):
    points = []
    for g in group:
        gx = g(x)
        if all(np.max(np.abs(gx - p)) > 1e-9 for p in points):
            points.append(gx)
    return points


def _loop_shape(group, x, c):
    avg = np.zeros((group.dim, group.dim))
    for g in group:
        dev = g(x) - c
        avg += np.outer(dev, dev)
    shape = np.linalg.inv(group.dim * (avg / len(group)))
    return 0.5 * (shape + shape.T)


def _loop_invariant(group, e):
    scale_c = 1.0 + float(np.linalg.norm(e.center))
    return all(np.linalg.norm(g(e.center) - e.center) <= 1e-9 * scale_c
               and np.linalg.norm(g.linear.T @ e.shape @ g.linear - e.shape)
               <= 1e-9 * np.linalg.norm(e.shape) for g in group)


# 8 images 0.61e-9 apart on a circle of radius 0.8e-9 chain the dropping
# rule: image 2 is dropped by image 0, image 3 is kept though image 2 is near
@pytest.mark.parametrize("build,x", [
    (lambda: signed_permutation_group(3), [0.9, 0.4, 0.1]),
    (lambda: signed_permutation_group(4), [0.9, -0.7, 0.4, 0.0]),
    (lambda: cyclic_group(8), [0.8e-9, 0.0]),
    (lambda: dihedral_group(6), [1.0, 0.3]),
    (lambda: slab_symmetry_group(3, flip_axis=True), [0.5, 0.2, 0.0]),
    (lambda: _square_at(np.array([3.0, -1.0])), [7.0, 2.0]),
], ids=["B3", "B4-fixed", "C8-chain", "D6", "slab-flip", "shifted"])
def test_array_forms_equal_the_element_loops(build, x):
    group = build()
    x = np.asarray(x)
    np.testing.assert_array_equal(np.array(orbit(group, x)),
                                  np.array(_loop_orbit(group, x)))
    total = np.zeros(group.dim)
    for g in group:
        total += g(x)
    c = invariant_center(group, x)
    np.testing.assert_array_equal(c, total / len(group))
    zero = np.zeros(group.dim)
    shape = invariant_shape(group, x, zero)
    np.testing.assert_array_equal(shape, _loop_shape(group, x, zero))
    for e in (Ellipsoid(c, np.eye(group.dim)), Ellipsoid(zero, shape),
              Ellipsoid(c + 1e-3, np.eye(group.dim))):
        assert check_invariant_ellipsoid(group, e) == _loop_invariant(group, e)


# ---------------------------------------------------------------------------
# Averaged shape matrices.

def test_invariant_shape_of_cube_and_cross_polytope():
    grp = signed_permutation_group(3)
    x_cube = invariant_shape(grp, [1.0, 1.0, 1.0], np.zeros(3))
    np.testing.assert_allclose(x_cube, np.eye(3) / 3.0, atol=1e-12)
    x_cross = invariant_shape(grp, [1.0, 0.0, 0.0], np.zeros(3))
    np.testing.assert_allclose(x_cross, np.eye(3), atol=1e-12)


def test_invariant_shape_of_regular_polygon_is_circumcircle():
    grp = cyclic_group(7)
    x = invariant_shape(grp, [1.5, 0.0], np.zeros(2))
    np.testing.assert_allclose(x, np.eye(2) / 1.5**2, atol=1e-12)


def test_invariant_shape_matches_solved_mvee():
    grp = signed_permutation_group(2)
    pt = np.array([0.9, 0.4])
    shape = invariant_shape(grp, pt, np.zeros(2))
    e, _ = mvee_points(np.array(orbit(grp, pt)))
    np.testing.assert_allclose(e.center, np.zeros(2), atol=1e-9)
    np.testing.assert_allclose(e.shape, shape, atol=1e-8)


def test_invariant_shape_respects_quadratic_form():
    root, root_inv = np.diag([2.0, 1.0]), np.diag([0.5, 1.0])
    mats = [root_inv @ _rotation(k * math.pi / 2.0) @ root for k in range(4)]
    mats[0] = np.eye(2)
    grp = FiniteGroup(tuple(AffineMap(m, np.zeros(2)) for m in mats),
                      form=np.diag([4.0, 1.0]))
    shape = invariant_shape(grp, [1.0, 0.0], np.zeros(2))
    np.testing.assert_allclose(shape, np.diag([1.0, 0.25]), atol=1e-12)
    assert check_invariant_ellipsoid(grp, Ellipsoid(np.zeros(2), shape))


def test_invariant_shape_demands_spanning_orbit():
    with pytest.raises(SingularShape):
        invariant_shape(permutation_group(3), [1.0, 1.0, 1.0], np.zeros(3))
    # the slab group fixes (1, 0), so the orbit is a single point
    with pytest.raises(SingularShape):
        invariant_shape(slab_symmetry_group(2), [1.0, 0.0], np.zeros(2))


# ---------------------------------------------------------------------------
# Invariance checking.

def test_check_invariant_ellipsoid_accepts_and_rejects():
    grp = cyclic_group(4)
    assert check_invariant_ellipsoid(grp, Ellipsoid(np.zeros(2), np.eye(2)))
    stretched = Ellipsoid(np.zeros(2), np.diag([1.0, 2.0]))
    assert not check_invariant_ellipsoid(grp, stretched)
    shifted = Ellipsoid(np.array([0.3, 0.0]), np.eye(2))
    assert not check_invariant_ellipsoid(grp, shifted)
    # the slab group fixes the first axis, so axis-aligned shapes survive
    assert check_invariant_ellipsoid(slab_symmetry_group(2), stretched)
    with pytest.raises(ValueError):
        check_invariant_ellipsoid(grp, Ellipsoid(np.zeros(3), np.eye(3)))


@given(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
def test_averaged_ellipsoid_is_always_invariant(a, b):
    assume(a * a + b * b > 0.01)
    grp = signed_permutation_group(2)
    x = np.array([a, b])
    shape = invariant_shape(grp, x, np.zeros(2))
    e = Ellipsoid(np.zeros(2), shape)
    assert check_invariant_ellipsoid(grp, e)
    for p in orbit(grp, x):
        assert e.quadratic_form(p[None, :])[0] == pytest.approx(1.0,
                                                                abs=1e-9)


# ---------------------------------------------------------------------------
# Built-in group catalogue.

def test_builtin_group_orders():
    assert len(permutation_group(3)) == 6
    assert len(signed_permutation_group(2)) == 8
    assert len(signed_permutation_group(3)) == 48
    assert len(cyclic_group(6)) == 6
    assert len(dihedral_group(6)) == 12
    assert len(slab_symmetry_group(3)) == 8
    assert len(slab_symmetry_group(3, flip_axis=True)) == 16


def test_hyperoctahedral_group_of_order_384_fixes_the_unit_ball():
    group = signed_permutation_group(4)
    assert len(group) == 384
    assert check_invariant_ellipsoid(group, Ellipsoid(np.zeros(4), np.eye(4)))


def test_builtin_group_guards():
    with pytest.raises(ValueError):
        cyclic_group(0)
    with pytest.raises(ValueError):
        dihedral_group(0)
    with pytest.raises(ValueError):
        slab_symmetry_group(1)


def test_slab_group_fixes_the_axis():
    e0 = np.array([1.0, 0.0, 0.0])
    for g in slab_symmetry_group(3):
        np.testing.assert_allclose(g(e0), e0, atol=1e-12)
    flips = {tuple(np.round(g(e0))) for g in
             slab_symmetry_group(3, flip_axis=True)}
    assert flips == {(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)}


def test_named_group_dispatch():
    assert len(named_group("permutation", n=3)) == 6
    assert len(named_group("Signed_Permutation", n=2)) == 8
    assert len(named_group("cyclic", order=5)) == 5
    assert len(named_group("dihedral", order=4)) == 8
    assert len(named_group("slab", n=3)) == 8
    assert len(named_group("slab-symmetric", n=3)) == 16
    with pytest.raises(ValueError, match="unknown"):
        named_group("icosahedral")
    with pytest.raises(ValueError, match="requires"):
        named_group("cyclic")


# ---------------------------------------------------------------------------
# Serialization.

def test_group_dict_roundtrip():
    grp = dihedral_group(3)
    clone = group_from_dict(group_to_dict(grp))
    assert len(clone) == len(grp)
    for g, h in zip(grp, clone):
        np.testing.assert_allclose(g.linear, h.linear, atol=1e-15)
        np.testing.assert_allclose(g.offset, h.offset, atol=1e-15)


def test_group_from_dict_requires_identity():
    quarter = _rotation(math.pi / 2.0)
    payload = {"elements": [{"linear": quarter.tolist(),
                             "offset": [0.0, 0.0]}]}
    with pytest.raises(ValueError, match="identity"):
        group_from_dict(payload)
