"""Closed-form extremal ellipsoids of ball slabs and truncated cones."""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from extremal_ellipsoids import (
    AffineMap,
    AxialEllipsoidParams,
    DegenerateInput,
    EmptyBody,
    GeneralSlab,
    InvalidEllipsoid,
    SlabSpec,
    ce_cone,
    ce_contact_points,
    ce_slab,
    certify_ce,
    contains,
    denormalize,
    ie_slab,
    ie_support_polytope,
    normalize,
    slab_boundary_points,
    unit_directions,
    volume,
)
from extremal_ellipsoids.core import unit_ball_volume
from extremal_ellipsoids.slab import SYMMETRIC_TOL, _cross_frame


def _slab_volume(n: int, alpha: float, beta: float) -> float:
    """Exact volume of {x in B_n : alpha <= x_1 <= beta} for n in {2, 3}."""
    if n == 2:
        def f(t):
            return t * math.sqrt(1.0 - t * t) + math.asin(t)
        return f(beta) - f(alpha)
    if n == 3:
        def f(t):
            return math.pi * (t - t ** 3 / 3.0)
        return f(beta) - f(alpha)
    raise ValueError(n)


def _params_volume(p: AxialEllipsoidParams) -> float:
    return volume(p.expand())


# ---------------------------------------------------------------------------
# Input validation.

def test_spec_rejects_out_of_range_bounds():
    with pytest.raises(ValueError):
        SlabSpec(2, -1.2, 0.5)
    with pytest.raises(ValueError):
        SlabSpec(2, 0.5, 0.5)
    with pytest.raises(ValueError):
        SlabSpec(1, -0.5, 0.5)


def test_spec_enforces_reflection_convention():
    with pytest.raises(ValueError):
        SlabSpec(2, -0.9, 0.2)


def test_axial_params_must_be_positive():
    with pytest.raises(InvalidEllipsoid):
        AxialEllipsoidParams(0.0, -1.0, 1.0, 2)
    with pytest.raises(InvalidEllipsoid):
        AxialEllipsoidParams(0.0, 1.0, 0.0, 2)


def test_axial_params_forms_agree():
    shape_form = AxialEllipsoidParams(0.1, 4.0, 0.25, 3, form="shape")
    axes_form = AxialEllipsoidParams(0.1, 0.5, 2.0, 3, form="axes")
    np.testing.assert_allclose(shape_form.semi_axes(), [0.5, 2.0, 2.0])
    np.testing.assert_allclose(axes_form.shape_diagonal(), [4.0, 0.25, 0.25])
    np.testing.assert_allclose(shape_form.expand().shape,
                               axes_form.expand().shape)


# ---------------------------------------------------------------------------
# Circumscribed ellipsoid of the slab.

def test_ce_deep_slab_is_unit_ball():
    p = ce_slab(SlabSpec(2, -0.8, 0.9))
    assert (p.tau, p.a, p.b, p.case) == (0.0, 1.0, 1.0, "i")


def test_ce_symmetric_slab_values():
    p = ce_slab(SlabSpec(2, -0.5, 0.5))
    assert p.case == "ii"
    assert p.tau == 0.0
    assert p.a == pytest.approx(2.0, abs=1e-15)
    assert p.b == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_ce_general_slab_frozen_values():
    p = ce_slab(SlabSpec(3, 0.1, 0.9))
    assert p.case == "iii"
    assert p.tau == pytest.approx(0.3285074452279489, abs=1e-13)
    assert p.a == pytest.approx(2.5525121237708257, abs=1e-12)
    assert p.b == pytest.approx(0.8754736503841852, abs=1e-13)

    q = ce_slab(SlabSpec(2, -0.2, 0.8))
    assert q.tau == pytest.approx(0.2, abs=1e-13)
    assert q.a == pytest.approx(2.0833333333333326, abs=1e-12)
    assert q.b == pytest.approx(0.6944444444444443, abs=1e-13)


def test_ce_rims_lie_on_the_ellipsoid():
    for n, alpha, beta in [(2, -0.2, 0.8), (3, 0.1, 0.9), (5, -0.3, 0.6),
                           (2, -0.5, 0.5), (4, -0.45, 0.5)]:
        p = ce_slab(SlabSpec(n, alpha, beta))
        e = p.expand()
        r_lo = math.sqrt(1.0 - alpha * alpha)
        r_hi = math.sqrt(1.0 - beta * beta)
        lo = np.zeros(n)
        lo[0], lo[1] = alpha, r_lo
        hi = np.zeros(n)
        hi[0], hi[1] = beta, r_hi
        assert e.quadratic_form(lo) == pytest.approx(1.0, abs=1e-9)
        assert e.quadratic_form(hi) == pytest.approx(1.0, abs=1e-9)


def test_ce_contains_sampled_slab_boundary():
    for n, alpha, beta in [(2, -0.2, 0.8), (3, 0.1, 0.9), (5, -0.3, 0.6)]:
        s = SlabSpec(n, alpha, beta)
        e = ce_slab(s).expand()
        for x in slab_boundary_points(s, 1000):
            assert contains(e, x, tol=1e-9)


def test_ce_case_boundary_continuity():
    # approaching the deep-slab threshold along symmetric slabs, the
    # off-threshold formula degenerates to the unit ball
    for n in (2, 3, 5):
        beta = math.sqrt(1.0 / n - 1e-8)
        p = ce_slab(SlabSpec(n, -beta, beta))
        assert p.case == "ii"
        assert abs(p.a - 1.0) + abs(p.b - 1.0) <= 1e-6


def test_ce_symmetric_dispatch_tolerance():
    beta = 0.5
    p = ce_slab(SlabSpec(2, -beta + 0.5 * SYMMETRIC_TOL, beta))
    assert p.case == "ii"


def test_ce_general_keeps_smaller_root():
    # the discarded root of the center quadratic sits at or beyond beta
    for n, alpha, beta in [(2, -0.2, 0.8), (3, 0.1, 0.9), (5, -0.3, 0.6)]:
        p = ce_slab(SlabSpec(n, alpha, beta))
        ssum = alpha + beta
        delta = (n * n * (beta ** 2 - alpha ** 2) ** 2
                 + 4.0 * (1.0 - alpha ** 2) * (1.0 - beta ** 2))
        pp = n * ssum ** 2 + 2.0 * (1.0 + alpha * beta)
        other = (pp + math.sqrt(delta)) / (2.0 * (n + 1.0) * ssum)
        assert alpha < p.tau < beta
        assert other >= beta - 1e-12


def test_ce_cancellation_guard_near_threshold():
    # product within 5e-11 of -1/n: the direct numerator cancels to noise,
    # the conjugate form keeps full precision and the result stays near
    # the unit ball it degenerates to at the threshold
    alpha = -(0.5 - 5e-11) / 0.9
    p = ce_slab(SlabSpec(2, alpha, 0.9))
    assert p.case == "iii"
    assert abs(p.tau) <= 1e-9
    assert abs(p.a - 1.0) <= 1e-9
    assert abs(p.b - 1.0) <= 1e-9


def test_ce_narrow_side_of_threshold_shrinks_volume():
    c = 1.0 / math.sqrt(2.0) - 1e-6
    p = ce_slab(SlabSpec(2, -c, c))
    assert p.case == "ii"
    assert max(abs(p.tau), abs(p.a - 1.0), abs(p.b - 1.0)) <= 1e-3
    assert _params_volume(p) < unit_ball_volume(2)


def test_ce_wide_side_of_threshold_is_exactly_the_ball():
    c = 1.0 / math.sqrt(2.0) + 1e-3
    p = ce_slab(SlabSpec(2, -c, c))
    assert (p.tau, p.a, p.b, p.case) == (0.0, 1.0, 1.0, "i")


# ---------------------------------------------------------------------------
# Inscribed ellipsoid of the slab.

def test_ie_symmetric_slab_values():
    p = ie_slab(SlabSpec(2, -0.5, 0.5))
    assert (p.tau, p.a, p.b, p.case) == (0.0, 0.5, 1.0, "i")
    assert p.form == "axes"


def test_ie_whole_ball_slab():
    p = ie_slab(SlabSpec(2, -1.0, 1.0))
    assert (p.tau, p.a, p.b) == (0.0, 1.0, 1.0)


def test_ie_sphere_tangent_branch_frozen_values():
    p = ie_slab(SlabSpec(2, -0.2, 0.95))
    assert p.case == "ii"
    assert p.tau == pytest.approx(0.3725815626252609, abs=1e-13)
    assert p.a == pytest.approx(0.5725815626252608, abs=1e-13)
    assert p.b == pytest.approx(0.868628984391525, abs=1e-13)

    q = ie_slab(SlabSpec(5, 0.1, 0.8))
    assert q.case == "ii"
    assert q.tau == pytest.approx(0.42416573867739416, abs=1e-13)
    assert q.a == pytest.approx(0.3241657386773942, abs=1e-13)
    assert q.b == pytest.approx(0.8902715462892548, abs=1e-13)


def test_ie_two_plane_branch_frozen_values():
    p = ie_slab(SlabSpec(2, -0.3, 0.4))
    assert p.case == "iii"
    assert p.tau == pytest.approx(0.05, abs=1e-14)
    assert p.a == pytest.approx(0.35, abs=1e-14)
    assert p.b == pytest.approx(0.9985739130819952, abs=1e-13)

    q = ie_slab(SlabSpec(3, -0.6, 0.7))
    assert q.case == "iii"
    assert q.tau == pytest.approx(0.05, abs=1e-14)
    assert q.a == pytest.approx(0.65, abs=1e-14)
    assert q.b == pytest.approx(0.9978262058804198, abs=1e-13)


def test_ie_branch_threshold_uses_squared_factor():
    # 4n(1-alpha^2) between (n+1)(beta^2-alpha^2) and (n+1)^2(beta^2-alpha^2):
    # the sphere-tangent branch must fire, and its ellipsoid is feasible and
    # strictly larger than the two-plane alternative
    p = ie_slab(SlabSpec(2, 0.0, 0.97))
    assert p.case == "ii"
    assert 4 * 2 * 1.0 > (2 + 1) * (0.97 ** 2)          # linear check fails
    assert 4 * 2 * 1.0 < (2 + 1) ** 2 * (0.97 ** 2)     # squared check fires
    tau_alt = a_alt = 0.485
    b_alt = math.sqrt(a_alt ** 2
                      + ((1.0 + math.sqrt(1.0 - 0.97 ** 2)) / 2.0) ** 2)
    assert p.a * p.b > a_alt * b_alt
    assert p.tau - p.a >= -1e-12          # tangent to the lower plane
    assert p.tau + p.a <= 0.97 + 1e-12    # clears the upper plane
    del tau_alt


def test_ie_boundary_stays_inside_slab():
    dirs = unit_directions(2, 10_000)
    dirs3 = unit_directions(3, 10_000)
    for n, alpha, beta in [(2, -0.2, 0.95), (2, -0.3, 0.4), (3, -0.6, 0.7)]:
        p = ie_slab(SlabSpec(n, alpha, beta))
        pts = p.expand().boundary_points(dirs if n == 2 else dirs3)
        norms = np.linalg.norm(pts, axis=1)
        assert norms.max() <= 1.0 + 1e-9
        assert pts[:, 0].min() >= alpha - 1e-9
        assert pts[:, 0].max() <= beta + 1e-9


def _ie_support_rows_reference(s, p):
    """ie_support_polytope's rows as its per-row loop built them."""
    n, tau, a, b = s.n, p.tau, p.a, p.b
    e1 = np.zeros(n)
    e1[0] = 1.0
    normals, offsets = [-e1, e1], [-s.alpha, s.beta]
    v1 = min(max(a * tau / (b * b - a * a) if b > a else 0.0, -1.0), 1.0)
    circle = np.empty((2 * (n - 1), n))
    circle[:, 0] = tau + a * v1
    circle[:, 1:] = b * math.sqrt(max(1.0 - v1 * v1, 0.0)) * _cross_frame(n)
    norms = np.linalg.norm(circle, axis=1)
    for row, nn in zip(circle, norms):
        if nn > 0.0:
            normals.append(row / nn)
            offsets.append(1.0)
    return np.array(normals), np.array(offsets)


def test_ie_support_polytope_rows_match_the_loop():
    # the same bytes, -0.0 included, on each branch of ie_slab
    for n, alpha, beta in [(2, -0.5, 0.5), (2, 0.2, 0.99), (3, -0.2, 0.5),
                           (5, 0.6, 0.9), (4, -0.3, 0.95), (6, -1.0, 1.0)]:
        s = SlabSpec(n, alpha, beta)
        p = ie_slab(s)
        poly = ie_support_polytope(s, p)
        normals, offsets = _ie_support_rows_reference(s, p)
        assert poly.normals.tobytes() == normals.tobytes(), (n, alpha, beta)
        assert poly.offsets.tobytes() == offsets.tobytes(), (n, alpha, beta)


def test_nested_volumes_strict():
    for n, alpha, beta in [(2, -0.2, 0.8), (2, -0.5, 0.5), (3, 0.1, 0.9)]:
        s = SlabSpec(n, alpha, beta)
        body = _slab_volume(n, alpha, beta)
        inner = _params_volume(ie_slab(s))
        outer = _params_volume(ce_slab(s))
        assert inner < body < outer


# ---------------------------------------------------------------------------
# Circumscribed ellipsoid of the truncated cone / cylinder.

def test_cone_cylinder_matches_symmetric_slab():
    p = ce_cone(SlabSpec(2, -0.5, 0.5))
    assert (p.tau, p.case) == (0.0, "ii")
    assert p.a == pytest.approx(2.0, abs=1e-15)
    assert p.b == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_cone_frozen_general_values():
    p = ce_cone(SlabSpec(3, 0.2, 0.8))
    assert p.case == "iii"
    assert p.tau == pytest.approx(0.39625290699246624, abs=1e-13)
    assert p.a == pytest.approx(4.2068133012897, abs=1e-11)
    assert p.b == pytest.approx(0.8728893016684656, abs=1e-13)


def test_cone_boundary_product_gives_unit_ball():
    p = ce_cone(SlabSpec(2, -0.5, 1.0))
    assert (p.tau, p.a, p.b, p.case) == (0.0, 1.0, 1.0, "i")


def test_cone_wide_cylinder_flat_ellipsoid():
    # wide cylinders flip the a >= b ordering that slabs guarantee
    p = ce_cone(SlabSpec(2, -0.8, 0.8))
    assert p.a == pytest.approx(0.78125, abs=1e-13)
    assert p.b == pytest.approx(1.3888888888888893, abs=1e-12)
    assert p.a < p.b
    assert _params_volume(p) < unit_ball_volume(2)


def test_cone_deep_product_stays_off_the_ball():
    # unlike the slab, the hull of the two rims keeps its own smaller
    # circumscribed ellipsoid past the product threshold
    s = SlabSpec(2, -0.9, 0.95)
    p = ce_cone(s)
    assert s.alpha * s.beta < -0.5
    assert p.case == "iii"
    assert _params_volume(p) < unit_ball_volume(2)
    slab_p = ce_slab(s)
    assert (slab_p.a, slab_p.b) == (1.0, 1.0)


def test_cone_rims_on_the_ellipsoid():
    for n, alpha, beta in [(2, -0.9, 0.95), (3, 0.2, 0.8), (2, -0.8, 0.8)]:
        e = ce_cone(SlabSpec(n, alpha, beta)).expand()
        for y in (alpha, beta):
            pt = np.zeros(n)
            pt[0], pt[1] = y, math.sqrt(1.0 - y * y)
            assert e.quadratic_form(pt) == pytest.approx(1.0, abs=1e-9)


def test_cone_agrees_with_slab_below_threshold():
    for n, beta in [(2, 0.3), (2, 0.6), (3, 0.5), (5, 0.4)]:
        s = SlabSpec(n, -beta, beta)
        pc = ce_cone(s)
        ps = ce_slab(s)
        assert abs(pc.tau - ps.tau) <= 1e-10
        assert abs(pc.a - ps.a) <= 1e-10
        assert abs(pc.b - ps.b) <= 1e-10


def test_cone_degenerate_segment_rejected():
    with pytest.raises(DegenerateInput):
        ce_cone(SlabSpec(2, -1.0, 1.0))


# ---------------------------------------------------------------------------
# Normalization of general ellipsoid slabs.

def test_normalize_identity_slab():
    g = GeneralSlab(np.eye(2), np.zeros(2), np.array([1.0, 0.0]), -0.3, 0.6)
    spec, m = normalize(g)
    # no reflection: the map's first axis points along the normal
    assert (spec.alpha, spec.beta, g.normal @ m.linear[:, 0] < 0.0) == (
        -0.3, 0.6, False)
    np.testing.assert_allclose(m.linear, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(m.offset, np.zeros(2), atol=1e-14)


def test_normalize_factors_the_shape_once(monkeypatch):
    # the slab validates its shape through the ellipsoid it holds, and
    # normalize reads that ellipsoid's factor
    calls = []
    cholesky = np.linalg.cholesky

    def counted(x):
        calls.append(1)
        return cholesky(x)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    shape0 = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 2.0]])
    normalize(GeneralSlab(shape0, np.ones(3), np.array([1.0, -1.0, 2.0]),
                          -0.3, 0.6))
    assert len(calls) == 1


def test_normalize_scaled_ball():
    # ball of radius 1/2: the cut direction rescales and so do the bounds
    g = GeneralSlab(4.0 * np.eye(2), np.zeros(2), np.array([1.0, 0.0]),
                    -0.1, 0.2)
    spec, m = normalize(g)
    assert spec.alpha == pytest.approx(-0.2, abs=1e-15)
    assert spec.beta == pytest.approx(0.4, abs=1e-15)
    np.testing.assert_allclose(np.abs(np.diag(m.linear)), [0.5, 0.5],
                               atol=1e-14)


def test_normalize_records_reflection():
    g = GeneralSlab(np.eye(2), np.zeros(2), np.array([1.0, 0.0]), -0.6, 0.3)
    spec, m = normalize(g)
    # the map carries the reflection: its first axis points against the normal
    assert g.normal @ m.linear[:, 0] < 0.0
    assert (spec.alpha, spec.beta) == (-0.3, 0.6)
    # the composed map sends the normalized slab onto the original one
    np.testing.assert_allclose(m(np.array([-0.3, 0.0])), [0.3, 0.0],
                               atol=1e-14)


def test_normalize_clamps_overlong_bounds():
    g = GeneralSlab(np.eye(2), np.zeros(2), np.array([0.0, 1.0]), -3.0, 0.2)
    spec, m = normalize(g)
    # clamped to [-1, 0.2], then reflected to honor beta^2 >= alpha^2: the
    # map's first axis points against the normal
    assert g.normal @ m.linear[:, 0] < 0.0
    assert spec.alpha == pytest.approx(-0.2, abs=1e-15)
    assert spec.beta == 1.0


def test_normalize_empty_slab_raises():
    g = GeneralSlab(np.eye(2), np.zeros(2), np.array([1.0, 0.0]), 1.2, 1.5)
    with pytest.raises(EmptyBody):
        normalize(g)


def test_general_slab_validation():
    with pytest.raises(ValueError):
        GeneralSlab(np.eye(2), np.zeros(2), np.zeros(2), -0.5, 0.5)
    with pytest.raises(ValueError):
        GeneralSlab(np.eye(2), np.zeros(2), np.array([1.0, 0.0]), 0.5, 0.5)
    with pytest.raises(InvalidEllipsoid):
        GeneralSlab(np.diag([1.0, -1.0]), np.zeros(2),
                    np.array([1.0, 0.0]), -0.5, 0.5)


def test_denormalize_roundtrip_identity_and_translation():
    p = ce_slab(SlabSpec(2, -0.5, 0.5))
    e0 = p.expand()
    moved = denormalize(p, AffineMap(np.eye(2), np.array([2.0, -1.0])))
    np.testing.assert_allclose(moved.center, e0.center + [2.0, -1.0])
    np.testing.assert_allclose(moved.shape, e0.shape)


def test_denormalized_result_certifies_against_original_slab():
    rng = np.random.default_rng(41)
    lin = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
    shape0 = np.linalg.inv(lin @ lin.T)
    g = GeneralSlab(shape0, rng.standard_normal(3),
                    rng.standard_normal(3), -0.4, 0.7)
    spec, m = normalize(g)
    params = ce_slab(spec)
    e = denormalize(params, m)
    # the touching set is the pair of rim circles; random boundary samples
    # miss it, so feed the analytic contacts along with the sample
    body = m(np.vstack([slab_boundary_points(spec, 600),
                        ce_contact_points(spec, params)]))
    result = certify_ce(body, e, tol=1e-7)
    assert result.passed, result.residuals


def test_normalize_then_map_reproduces_general_points():
    # the normalizing map carries B_spec onto the original slab: mapped
    # sample points must satisfy both the ellipsoid and the cut bounds
    rng = np.random.default_rng(43)
    lin = rng.standard_normal((2, 2)) + 2.5 * np.eye(2)
    shape0 = np.linalg.inv(lin @ lin.T)
    c0 = rng.standard_normal(2)
    normal = rng.standard_normal(2)
    g = GeneralSlab(shape0, c0, normal, -0.2, 0.5)
    spec, m = normalize(g)
    for x in m(slab_boundary_points(spec, 400)):
        form = float((x - c0) @ shape0 @ (x - c0))
        assert form <= 1.0 + 1e-9
        t = float(normal @ (x - c0))
        assert -0.2 - 1e-9 <= t <= 0.5 + 1e-9


# ---------------------------------------------------------------------------
# Property sweeps.

_dims = st.sampled_from([2, 3, 4, 5])
_betas = st.floats(min_value=0.05, max_value=0.999)
_ratios = st.floats(min_value=-0.999, max_value=0.995)


@given(n=_dims, beta=_betas, ratio=_ratios)
def test_ce_window_and_ordering_property(n, beta, ratio):
    alpha = beta * ratio
    assume(beta - alpha >= 1e-3)
    p = ce_slab(SlabSpec(n, alpha, beta))
    assert alpha < p.tau < beta or p.case == "i"
    assert p.a >= p.b > 0.0
    e = p.expand()
    for y in (alpha, beta):
        pt = np.zeros(n)
        pt[0], pt[1] = y, math.sqrt(1.0 - y * y)
        assert e.quadratic_form(pt) <= 1.0 + 1e-9


@given(n=_dims, beta=_betas, ratio=_ratios)
def test_ie_fits_and_never_beats_ce_property(n, beta, ratio):
    alpha = beta * ratio
    assume(beta - alpha >= 1e-3)
    s = SlabSpec(n, alpha, beta)
    pi_ = ie_slab(s)
    pc = ce_slab(s)
    assert pi_.b >= pi_.a > 0.0
    assert alpha - 1e-12 <= pi_.tau - pi_.a
    assert pi_.tau + pi_.a <= beta + 1e-12
    assert volume(pi_.expand()) <= volume(pc.expand()) + 1e-12


@given(n=_dims, beta=_betas, ratio=_ratios)
def test_deep_slab_dispatch_property(n, beta, ratio):
    alpha = beta * ratio
    assume(beta - alpha >= 1e-3)
    p = ce_slab(SlabSpec(n, alpha, beta))
    if alpha * beta + 1.0 / n <= 0.0:
        assert p.case == "i"
    elif alpha * beta + 1.0 / n > 1e-10:
        assert p.case in ("ii", "iii")
        assert volume(p.expand()) < unit_ball_volume(n)
