"""Slab-based cut updates and the feasibility loop driving them."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from extremal_ellipsoids import (
    Ellipsoid,
    EmptySlab,
    FeasibilityProblem,
    GeneralSlab,
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
    with pytest.raises(ValueError):
        central_cut_step(unit_ball(2), [0.0, 0.0])


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
            assert spec.reflected == (min(hi, 1.0) ** 2 < max(lo, -1.0) ** 2)
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
    calls = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky",
                        lambda x: calls.append(1) or cholesky(x))
    for k in range(50):
        p = rng.standard_normal(5)
        if k % 2:
            e, _ = central_cut_step(e, p, k)
        else:
            g = float(np.linalg.norm(p @ e.factor()))
            e, _ = parallel_cut_step(e, p, -0.5 * g, 0.3 * g, k)
    assert calls == []


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
