"""Slab-based cut updates and the feasibility loop driving them."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from extremal_ellipsoids import (
    Ellipsoid,
    EmptySlab,
    FeasibilityProblem,
    GeneralSlab,
    InvalidEllipsoid,
    ce_slab,
    central_cut_step,
    contains,
    denormalize,
    normalize,
    parallel_cut_step,
    solve_feasibility,
    unit_ball,
    volume,
)


def _classical_ratio(n: int) -> float:
    return (n / (n + 1.0)) * (n / math.sqrt(n * n - 1.0)) ** (n - 1)


def _ball_samples(rng, n, count):
    x = rng.standard_normal((count, n))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return x * rng.uniform(0.0, 1.0, size=(count, 1)) ** (1.0 / n)


# ---------------------------------------------------------------------------
# Single cut steps.

def test_cut_rejects_empty_width_and_missed_slabs():
    e = unit_ball(2)
    with pytest.raises(EmptySlab):
        parallel_cut_step(e, [1.0, 0.0], 0.5, 0.5)
    with pytest.raises(EmptySlab):
        parallel_cut_step(e, [1.0, 0.0], 1.5, 2.0)


def test_central_cut_of_ball_matches_hand_values():
    e, record = central_cut_step(unit_ball(2), [1.0, 0.0])
    np.testing.assert_allclose(e.center, [-1.0 / 3.0, 0.0], atol=1e-12)
    semi = np.sqrt(1.0 / np.diag(e.shape))
    np.testing.assert_allclose(semi, [2.0 / 3.0, 2.0 / math.sqrt(3.0)],
                               atol=1e-12)
    assert record.ratio == pytest.approx(_classical_ratio(2), abs=1e-13)
    assert record.volume_after == pytest.approx(volume(e), rel=1e-12)


def test_central_cut_center_shift_scales_with_dimension():
    for n in (2, 3, 5):
        p = np.zeros(n)
        p[0] = 2.0  # non-unit normal, shift is along p/|p|
        e, record = central_cut_step(unit_ball(n), p)
        np.testing.assert_allclose(e.center[0], -1.0 / (n + 1), atol=1e-12)
        assert record.ratio == pytest.approx(_classical_ratio(n), abs=1e-12)


def test_central_cut_equals_full_depth_parallel_cut():
    e1, r1 = central_cut_step(unit_ball(3), [0.0, 1.0, 0.0])
    e2, r2 = parallel_cut_step(unit_ball(3), [0.0, 1.0, 0.0], -1.0, 0.0)
    np.testing.assert_allclose(e1.center, e2.center, atol=1e-12)
    np.testing.assert_allclose(e1.shape, e2.shape, atol=1e-12)
    assert r1.ratio == pytest.approx(r2.ratio, abs=1e-14)


def test_central_cut_rejects_zero_normal():
    with pytest.raises(ValueError, match="normal must be nonzero"):
        central_cut_step(unit_ball(2), [0.0, 0.0])


def test_cut_errors_name_their_cause():
    e = unit_ball(2)
    for normal in ([math.nan, 1.0], [math.inf, 0.0], [1.0, -math.inf]):
        with pytest.raises(ValueError, match="normal must be finite"):
            central_cut_step(e, normal)
    for a, b in ((-1.0, math.nan), (math.nan, 0.5), (math.nan, math.nan)):
        with pytest.raises(ValueError, match="bounds must not be NaN"):
            parallel_cut_step(e, [1.0, 0.0], a, b)
    # infinite bounds stay legal: clamped to the ellipsoid's extent
    post, record = parallel_cut_step(e, [1.0, 0.0], -math.inf, math.inf)
    assert post is e and record.ratio == 1.0
    below, _ = parallel_cut_step(e, [1.0, 0.0], -math.inf, 0.0)
    above, _ = parallel_cut_step(e, [1.0, 0.0], 0.0, math.inf)
    np.testing.assert_array_equal(above.center, -below.center)


def test_cut_of_a_collapsed_ellipsoid_names_the_collapse():
    # central cuts along the golden angle shrink F until F^T p underflows
    # (log|det F| about -744); a unit normal then finds no width left
    e = unit_ball(2)
    with pytest.raises(InvalidEllipsoid, match="collapsed"):
        for k in range(4000):
            t = 2.399963229728653 * k
            e, _ = central_cut_step(e, [math.cos(t), math.sin(t)], k)
    assert 2000 < k < 4000
    assert e._log_det < -700.0


def test_cut_normal_at_any_scale_equals_the_unit_cut():
    # squared, 1e-170 e_1 underflowed to a collapsed ellipsoid and 1e200 e_1
    # overflowed with numpy's RuntimeWarning; a normal's scale is exact in
    # powers of two, so the cut is the same to the bit
    unit, unit_record = central_cut_step(unit_ball(2), [1.0, 0.0])
    fields = ("alpha", "beta", "volume_before", "volume_after", "ratio")
    normals = [math.ldexp(1.0, k) for k in range(-1000, 1001, 100)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for g in normals + [1e-170, 1e200]:
            post, record = central_cut_step(unit_ball(2), [g, 0.0])
            np.testing.assert_array_equal(post.center, unit.center)
            np.testing.assert_array_equal(post.factor(), unit.factor())
            assert post._log_det == unit._log_det, g
            assert ([getattr(record, f) for f in fields]
                    == [getattr(unit_record, f) for f in fields]), g
            assert record.normal[0] == g
        # a two-sided cut scales its bounds with the normal
        p = np.array([1.0, 0.5, -0.25])
        ball = unit_ball(3)
        unit, _ = parallel_cut_step(ball, p, -0.3, 0.6)
        for k in range(-1000, 1001, 100):
            post, _ = parallel_cut_step(ball, np.ldexp(p, k),
                                        math.ldexp(-0.3, k),
                                        math.ldexp(0.6, k))
            np.testing.assert_array_equal(post.center, unit.center)
            np.testing.assert_array_equal(post.factor(), unit.factor())


def test_long_normal_cuts_a_wide_ellipsoid_without_overflow():
    # F^T p of 1e300 e_1 and F = 1e10 I overflowed in the product, with
    # numpy's RuntimeWarning, before the retry at 2^-k p cut correctly; a
    # normal whose length overflows is scaled the same way
    e = Ellipsoid.from_factor(np.zeros(2), 1e10 * np.eye(2))
    fields = ("alpha", "beta", "volume_before", "volume_after", "ratio")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in ([1e300, 0.0], [1e308, 1e308]):
            post, record = central_cut_step(e, p)
            k = -math.frexp(max(p))[1]
            scaled, scaled_record = central_cut_step(e, np.ldexp(p, k))
            np.testing.assert_array_equal(post.center, scaled.center)
            np.testing.assert_array_equal(post.factor(), scaled.factor())
            assert post._log_det == scaled._log_det
            assert ([getattr(record, f) for f in fields]
                    == [getattr(scaled_record, f) for f in fields])
            assert record.normal.tolist() == p


def test_overdeep_bounds_are_clamped():
    direct, _ = parallel_cut_step(unit_ball(2), [1.0, 0.0], -1.0, 0.0)
    clamped, _ = parallel_cut_step(unit_ball(2), [1.0, 0.0], -7.0, 0.0)
    np.testing.assert_allclose(clamped.center, direct.center, atol=1e-12)
    np.testing.assert_allclose(clamped.shape, direct.shape, atol=1e-12)


def test_shallow_two_sided_cut_is_a_noop():
    e = unit_ball(2)
    post, record = parallel_cut_step(e, [1.0, 0.0], -0.9, 0.9)
    assert post is e
    assert record.ratio == 1.0
    assert record.volume_after == record.volume_before


def test_cut_is_a_noop_exactly_on_the_ball_branch():
    # alpha beta + 1/n in (1e-15, 1e-12]: ce_slab's case "i" keeps the ball,
    # so the cut keeps E itself, not a copy of it
    e = unit_ball(2)
    root = math.sqrt(0.5)
    alpha, beta = -root, (0.5 - 5e-13) / root
    assert 1e-15 < alpha * beta + 0.5 <= 1e-12
    post, record = parallel_cut_step(e, [1.0, 0.0], alpha, beta)
    assert post is e
    assert (record.ratio, record.volume_after) == (1.0, record.volume_before)
    # a 1-D slab that holds the whole ellipsoid is the ball branch too
    segment = unit_ball(1)
    for a, b in ((-1.0, 1.0), (-math.inf, math.inf)):
        post, record = parallel_cut_step(segment, [1.0], a, b)
        assert post is segment and record.ratio == 1.0


def test_cut_is_invariant_under_normal_rescaling():
    e = Ellipsoid(np.array([1.0, -2.0]), np.diag([0.25, 1.0]))
    a, b = -0.8, 0.3
    p = np.array([1.0, 1.0])
    e1, _ = parallel_cut_step(e, p, a, b)
    e2, _ = parallel_cut_step(e, 3.0 * p, 3.0 * a, 3.0 * b)
    np.testing.assert_allclose(e1.center, e2.center, atol=1e-10)
    np.testing.assert_allclose(e1.shape, e2.shape, atol=1e-10)


def test_cut_result_contains_the_kept_slab():
    rng = np.random.default_rng(31)
    e = Ellipsoid(np.array([1.0, 2.0]), np.diag([0.25, 1.0]))
    p = np.array([1.0, -1.0])
    post, record = parallel_cut_step(e, p, -0.4, 0.9)
    assert record.ratio < 1.0
    # push ball samples through the ellipsoid frame, keep the slab piece
    lower = np.linalg.cholesky(np.linalg.inv(e.shape))
    pts = _ball_samples(rng, 2, 4000) @ lower.T + e.center
    inner = pts[(pts - e.center) @ p >= -0.4]
    inner = inner[(inner - e.center) @ p <= 0.9]
    assert inner.shape[0] > 100
    for x in inner:
        assert contains(post, x, tol=1e-9)


def test_record_serializes_to_plain_types():
    _, record = central_cut_step(unit_ball(2), [1.0, 0.0], iteration=5)
    d = record.to_dict()
    assert d["iteration"] == 5
    assert d["normal"] == [1.0, 0.0]
    assert set(d) == {"iteration", "normal", "alpha", "beta",
                      "volume_before", "volume_after", "ratio"}
    json.dumps(d)


# bounds in units of the half-width g = (p^T X^-1 p)^(1/2): two-sided,
# reflected (beta^2 < alpha^2), over-deep on either side, one-sided a = -inf
_REFERENCE_BOUNDS = [(-0.3, 0.6), (-0.6, 0.3), (0.2, 7.0), (-7.0, -0.2),
                     (-7.0, 0.4), (-math.inf, 0.2), (-math.inf, -0.5),
                     (-math.inf, 0.0)]


@pytest.mark.parametrize("n", [2, 3, 10, 30])
def test_cut_matches_the_general_slab_reduction(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(3):
        m = rng.standard_normal((n, n))
        e = Ellipsoid(rng.standard_normal(n), m @ m.T + n * np.eye(n))
        p = rng.standard_normal(n)
        g = math.sqrt(p @ np.linalg.solve(e.shape, p))
        for lo, hi in _REFERENCE_BOUNDS:
            jitter = rng.uniform(0.95, 1.05)
            a, b = lo * jitter * g, hi * jitter * g
            post, record = parallel_cut_step(e, p, a, b)
            spec, frame = normalize(GeneralSlab(e.shape, e.center, p, a, b))
            # reflected exactly when the map's first axis points against p
            assert ((p @ frame.linear[:, 0] < 0.0)
                    == (min(hi, 1.0) ** 2 < max(lo, -1.0) ** 2))
            params = ce_slab(spec)
            ref = denormalize(params, frame)
            scale = np.linalg.norm(ref.shape)
            assert np.linalg.norm(post.shape - ref.shape) <= 1e-12 * scale
            assert (np.linalg.norm(post.center - ref.center)
                    <= 1e-12 * max(np.linalg.norm(ref.center), 1.0))
            ratio = (params.a * params.b ** (n - 1)) ** -0.5
            assert record.ratio == pytest.approx(ratio, rel=1e-12)


def test_cuts_make_no_factorization(monkeypatch):
    rng = np.random.default_rng(8)
    m = rng.standard_normal((5, 5))
    e = Ellipsoid(rng.standard_normal(5), m @ m.T + 5.0 * np.eye(5))
    calls = {"cholesky": 0, "slogdet": 0}
    for name in calls:
        def counted(x, _name=name, _f=getattr(np.linalg, name)):
            calls[_name] += 1
            return _f(x)
        monkeypatch.setattr(np.linalg, name, counted)
    for k in range(50):
        p = rng.standard_normal(5)
        if k % 2:
            e, _ = central_cut_step(e, p, k)
        else:
            g = float(np.linalg.norm(p @ e.factor()))
            e, _ = parallel_cut_step(e, p, -0.5 * g, 0.3 * g, k)
    assert calls == {"cholesky": 0, "slogdet": 0}


@pytest.mark.parametrize("n, cuts", [(2, 400), (10, 3000), (30, 6000)])
def test_log_det_carried_by_the_ratios_does_not_drift(n, cuts):
    # central, deep one-sided and two-sided cuts along random normals
    rng = np.random.default_rng(40 + n)
    m = rng.standard_normal((n, n))
    e = Ellipsoid(rng.standard_normal(n), m @ m.T + n * np.eye(n))
    for k in range(cuts):
        p = rng.standard_normal(n)
        g = float(np.linalg.norm(p @ e.factor()))
        depth = rng.uniform(0.0, 0.3) * g
        kind = k % 3
        if kind == 0:
            e, _ = central_cut_step(e, p, k)
        elif kind == 1:
            e, _ = parallel_cut_step(e, p, -math.inf, -depth, k)
        else:
            e, _ = parallel_cut_step(e, p, -depth - 0.6 * g, depth, k)
    sign, exact = np.linalg.slogdet(e.factor())
    assert sign != 0.0 and exact < -50.0
    assert abs(e._log_det - exact) <= 1e-12 * abs(exact)


@given(st.floats(-1.1, 0.95), st.floats(-0.95, 1.1),
       st.floats(0.0, 2.0 * math.pi))
def test_cut_never_grows_and_keeps_the_piece(a, b, theta):
    assume(b - a > 0.05)
    p = np.array([math.cos(theta), math.sin(theta)])
    e = unit_ball(2)
    try:
        post, record = parallel_cut_step(e, p, a, b)
    except EmptySlab:
        assert a >= 1.0 or b <= -1.0
        return
    assert record.ratio <= 1.0 + 1e-12
    assert volume(post) <= volume(e) * (1.0 + 1e-9)
    rng = np.random.default_rng(5)
    pts = _ball_samples(rng, 2, 500)
    keep = pts[(pts @ p >= a) & (pts @ p <= b)]
    for x in keep:
        assert contains(post, x, tol=1e-7)


# ---------------------------------------------------------------------------
# Feasibility loop.

def _ball_target_oracle(center, radius):
    center = np.asarray(center, dtype=float)

    def oracle(x):
        gap = x - center
        dist = float(np.linalg.norm(gap))
        if dist <= radius:
            return None
        normal = gap / dist
        return normal, float(normal @ center) + radius

    return oracle


def test_problem_validates_floor():
    with pytest.raises(ValueError):
        FeasibilityProblem(lambda x: None, unit_ball(2), floor=0.0)


def test_loop_finds_a_feasible_point():
    target = np.array([0.4, 0.2])
    problem = FeasibilityProblem(
        _ball_target_oracle(target, 0.05),
        Ellipsoid(np.zeros(2), np.eye(2) / 4.0))
    res = solve_feasibility(problem, max_iter=200)
    assert res.status == "FEASIBLE"
    assert np.linalg.norm(res.point - target) <= 0.05 + 1e-12
    assert res.records
    befores = [r.volume_before for r in res.records]
    afters = [r.volume_after for r in res.records]
    assert all(a < b for a, b in zip(afters, befores))
    for prev, cur in zip(afters, befores[1:]):
        assert cur == pytest.approx(prev, rel=1e-9)


def test_loop_volumes_chain_exactly():
    # the record volumes are read from each ellipsoid's log|det F|, so a
    # cut starts from the very volume the cut before it ended at
    box = FeasibilityProblem(
        _halfspace_oracle([[1, 0], [-1, 0], [0, 1], [0, -1]],
                          [0.9, -0.8, 0.9, -0.8]),
        Ellipsoid(np.zeros(2), np.eye(2) / 4.0))
    rng = np.random.default_rng(6)
    a = rng.standard_normal((13, 6))
    x0 = 0.3 * rng.standard_normal(6)
    polytope = FeasibilityProblem(_halfspace_oracle(a, a @ x0 + 0.01),
                                  unit_ball(6))
    for problem in (box, polytope):
        res = solve_feasibility(problem, max_iter=500)
        assert res.status == "FEASIBLE" and len(res.records) > 5
        befores = [r.volume_before for r in res.records]
        afters = [r.volume_after for r in res.records]
        assert befores[0] == volume(problem.initial)
        assert befores[1:] == afters[:-1]
        assert res.volume == afters[-1]


def _halfspace_oracle(normals, offsets):
    normals = np.asarray(normals, dtype=float)
    offsets = np.asarray(offsets, dtype=float)

    def oracle(x):
        bad = np.flatnonzero(offsets - normals @ x < -1e-12)
        if bad.size == 0:
            return None
        return normals[bad[0]], offsets[bad[0]]

    return oracle


def test_loop_keeps_the_feasible_set_inside_every_iterate():
    target = np.array([-0.3, 0.5, 0.1])
    oracle = _ball_target_oracle(target, 0.02)
    e = Ellipsoid(np.zeros(3), np.eye(3) / 4.0)
    for it in range(12):
        verdict = oracle(e.center)
        if verdict is None:
            break
        normal, offset = verdict
        lower = np.linalg.cholesky(e.shape)
        extent = float(np.linalg.norm(np.linalg.solve(lower, normal)))
        hi = offset - float(normal @ e.center)
        e, _ = parallel_cut_step(e, normal, -extent, min(hi, extent), it)
        assert contains(e, target, tol=1e-9)


def test_loop_detects_a_missed_halfspace():
    problem = FeasibilityProblem(lambda x: (np.array([1.0, 0.0]), -5.0),
                                 unit_ball(2))
    res = solve_feasibility(problem)
    assert res.status == "INFEASIBLE"
    assert res.point is None
    assert res.records == []


def test_loop_reaches_the_volume_floor():
    # rotating central cuts never admit a feasible point, so the volume
    # ratchets down to the floor at the classical per-cut rate
    state = {"k": 0}

    def oracle(x):
        t = 2.399963229728653 * state["k"]
        state["k"] += 1
        normal = np.array([math.cos(t), math.sin(t)])
        return normal, float(normal @ x)

    problem = FeasibilityProblem(oracle, unit_ball(2), floor=1e-6)
    res = solve_feasibility(problem, max_iter=1000)
    assert res.status == "INFEASIBLE"
    assert res.volume < 1e-6
    assert len(res.records) <= math.ceil(
        math.log(1e-6 / math.pi) / math.log(_classical_ratio(2))) + 1


def test_loop_budget_exhaustion():
    def oracle(x):
        return np.array([1.0, 0.0]), float(x[0])

    problem = FeasibilityProblem(oracle, unit_ball(2))
    res = solve_feasibility(problem, max_iter=3)
    assert res.status == "BUDGET"
    assert res.point is None
    assert len(res.records) == 3


def test_loop_writes_a_trace_file(tmp_path):
    target = np.array([0.4, 0.2])
    problem = FeasibilityProblem(
        _ball_target_oracle(target, 0.05),
        Ellipsoid(np.zeros(2), np.eye(2) / 4.0))
    path = tmp_path / "trace.jsonl"
    res = solve_feasibility(problem, max_iter=200, trace_path=str(path))
    lines = path.read_text().strip().splitlines()
    assert len(lines) == len(res.records)
    for i, line in enumerate(lines):
        entry = json.loads(line)
        assert entry["iteration"] == i
        assert entry["ratio"] <= 1.0
    # a second solve to the same path replaces the trace, never appends
    again = solve_feasibility(problem, max_iter=200, trace_path=str(path))
    assert len(path.read_text().strip().splitlines()) == len(again.records)
