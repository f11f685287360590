"""Release gate: end-to-end agreement, certification, and reproducibility.

Each test stands alone and states its own tolerance.  The grid used for
closed-form vs oracle comparisons is the 15-point lattice on [-1, 1] in
dimensions 2, 3, and 5, filtered to the normalized convention.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import HalfspaceIntersection

import extremal_ellipsoids
from extremal_ellipsoids import (
    DegenerateInput,
    Polytope,
    SlabSpec,
    SolverConfig,
    breadth_diameter,
    ce_cone,
    ce_contact_points,
    ce_slab,
    certify_ce,
    certify_ie,
    central_cut_step,
    cone_boundary_points,
    cone_contact_points,
    grid_oracle_slab,
    ie_slab,
    ie_support_polytope,
    invariant_shape,
    john_factors,
    mvee_points,
    mvie_polytope,
    orbit,
    parallel_cut_step,
    signed_permutation_group,
    slab_boundary_points,
    unit_ball,
    unit_ball_volume,
    volume,
)
from extremal_ellipsoids import solve
from extremal_ellipsoids.core import chebyshev_center, cholesky_spd

DIMS = (2, 3, 5)
GRID = np.linspace(-1.0, 1.0, 15)
PAIRS = [(float(a), float(b)) for a in GRID for b in GRID
         if a < b and b * b >= a * a - 1e-15]


def _gap(p, q) -> float:
    return max(abs(p.tau - q.tau), abs(p.a - q.a), abs(p.b - q.b))


def _max_residual(result) -> float:
    return max(result.residuals.values())


# ---------------------------------------------------------------------------
# Closed forms against the derivative-free oracle.

def test_ce_slab_grid_agrees_with_oracle_within_budget(monkeypatch):
    # the work budget counts objective evaluations per oracle call, so it
    # fails only on a slower algorithm, not on a loaded machine; the sweep
    # needs at most 1971 (73 per zoom step: 9 steps on the first tau pass
    # and 6 on each of 3 refinement passes), and 2400 leaves 20% headroom
    evaluations = []
    golden = solve._golden_max_log

    def counted(f, lo, hi, iters):
        def f_counted(x):
            evaluations[-1] += 1
            return f(x)
        return golden(f_counted, lo, hi, iters)

    monkeypatch.setattr(solve, "_golden_max_log", counted)
    start = time.perf_counter()
    worst = 0.0
    for n in DIMS:
        for alpha, beta in PAIRS:
            s = SlabSpec(n, alpha, beta)
            evaluations.append(0)
            worst = max(worst, _gap(ce_slab(s), grid_oracle_slab(s, "CE")))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-4, f"worst grid gap {worst:.3e}"
    assert max(evaluations) <= 2400, f"{max(evaluations)} evaluations"
    assert elapsed < 60.0, f"grid sweep took {elapsed:.1f} s"


def test_ie_slab_grid_agrees_with_oracle():
    worst = 0.0
    for n in DIMS:
        for alpha, beta in PAIRS:
            s = SlabSpec(n, alpha, beta)
            worst = max(worst, _gap(ie_slab(s), grid_oracle_slab(s, "IE")))
    assert worst <= 1e-4, f"worst grid gap {worst:.3e}"


def test_ie_dispatch_threshold_is_settled_by_the_oracle():
    # the sphere-tangent branch fires when 4 n (1 - alpha^2) is below
    # (n+1)^2 (beta^2 - alpha^2); the candidate with (n+1) in place of
    # (n+1)^2 disagrees on this pair, so the oracle arbitrates
    s = SlabSpec(2, 0.0, 0.97)
    squared_fires = 4 * s.n * (1 - s.alpha ** 2) \
        < (s.n + 1) ** 2 * (s.beta ** 2 - s.alpha ** 2)
    linear_fires = 4 * s.n * (1 - s.alpha ** 2) \
        < (s.n + 1) * (s.beta ** 2 - s.alpha ** 2)
    assert squared_fires and not linear_fires

    params = ie_slab(s)
    assert params.case == "ii"
    oracle = grid_oracle_slab(s, "IE")
    assert _gap(params, oracle) <= 1e-4

    # what the two-plane branch would return if the linear rule were used
    alt_tau = 0.5 * (s.alpha + s.beta)
    alt_a = 0.5 * (s.beta - s.alpha)
    alt_b = math.sqrt(alt_a ** 2 + (0.5 * (math.sqrt(1 - s.alpha ** 2)
                                           + math.sqrt(1 - s.beta ** 2))) ** 2)
    alt_gap = max(abs(oracle.tau - alt_tau), abs(oracle.a - alt_a),
                  abs(oracle.b - alt_b))
    assert alt_gap > 1e-2
    print(f"inscribed-slab dispatch: oracle sits {_gap(params, oracle):.2e} "
          f"from the squared-factor threshold branch and {alt_gap:.2e} from "
          f"the linear-factor alternative; the squared factor is correct")


def test_ce_cone_grid_agrees_with_oracle():
    worst = 0.0
    for n in DIMS:
        for alpha, beta in PAIRS:
            if (alpha, beta) == (-1.0, 1.0):
                # both rims collapse to points; the hull is a segment
                with pytest.raises(DegenerateInput):
                    ce_cone(SlabSpec(n, alpha, beta))
                continue
            s = SlabSpec(n, alpha, beta)
            worst = max(worst, _gap(ce_cone(s), grid_oracle_slab(s, "CONE")))
    assert worst <= 1e-4, f"worst grid gap {worst:.3e}"


# ---------------------------------------------------------------------------
# Certification of every result.

def test_every_grid_closed_form_certifies():
    for n in DIMS:
        for alpha, beta in PAIRS:
            s = SlabSpec(n, alpha, beta)

            p = ce_slab(s)
            pts = np.vstack([slab_boundary_points(s, 200),
                             ce_contact_points(s, p)])
            res = certify_ce(pts, p.expand(), tol=1e-8)
            assert res.passed and _max_residual(res) <= 1e-8, \
                (n, alpha, beta, res.residuals)

            q = ie_slab(s)
            res = certify_ie(ie_support_polytope(s, q), q.expand(), tol=1e-8)
            assert res.passed and _max_residual(res) <= 1e-8, \
                (n, alpha, beta, res.residuals)

            if (alpha, beta) != (-1.0, 1.0):
                c = ce_cone(s)
                pts = np.vstack([cone_boundary_points(s, 200),
                                 cone_contact_points(s, c)])
                res = certify_ce(pts, c.expand(), tol=1e-8)
                assert res.passed and _max_residual(res) <= 1e-8, \
                    (n, alpha, beta, res.residuals)


def test_numeric_solver_results_certify():
    rng = np.random.default_rng(404)
    for i in range(5):
        n = 2 + i % 3
        pts = rng.standard_normal((30 + 10 * i, n))
        e, _ = mvee_points(pts)
        res = certify_ce(pts, e, tol=1e-8)
        assert res.passed and _max_residual(res) <= 1e-8, res.residuals
    for i in range(5):
        n = 2 + i % 2
        normals = rng.standard_normal((12, n))
        offsets = normals @ rng.uniform(-0.2, 0.2, n) + 1.0
        body = Polytope(normals=normals, offsets=offsets)
        e, _ = mvie_polytope(body)
        res = certify_ie(body, e, tol=1e-8)
        assert res.passed and _max_residual(res) <= 1e-8, res.residuals


# ---------------------------------------------------------------------------
# Behavior at the deep-slab threshold (n = 2, symmetric width 1/sqrt 2).

def test_symmetric_slab_threshold_sides():
    w = 1.0 / math.sqrt(2.0)

    narrow = ce_slab(SlabSpec(2, -(w - 1e-6), w - 1e-6))
    assert narrow.case == "ii"
    assert max(abs(narrow.tau), abs(narrow.a - 1.0),
               abs(narrow.b - 1.0)) <= 1e-3
    assert volume(narrow.expand()) < unit_ball_volume(2)

    wide = ce_slab(SlabSpec(2, -(w + 1e-3), w + 1e-3))
    assert (wide.tau, wide.a, wide.b, wide.case) == (0.0, 1.0, 1.0, "i")


# ---------------------------------------------------------------------------
# Shrink/blow containment factors.

def test_john_factor_containment_without_violations():
    rng = np.random.default_rng(2026)
    general_failures = 0
    for i in range(50):
        n = 2 if i % 2 == 0 else 3
        pts = rng.standard_normal((n + 3 + (i % 6), n))
        e, _ = mvee_points(pts)
        res = john_factors(Polytope(vertices=pts), e, "ce",
                           symmetric=False, tol=1e-8)
        general_failures += 0 if res.passed else 1
    assert general_failures == 0

    symmetric_failures = 0
    for i in range(50):
        n = 2 if i % 2 == 0 else 3
        half = rng.standard_normal((n + 3 + (i % 4), n))
        normals = np.vstack([half, -half])
        offsets = np.ones(len(normals))
        body = Polytope(normals=normals, offsets=offsets)
        interior, _ = chebyshev_center(body)
        hs = np.hstack([normals, -offsets[:, None]])
        verts = HalfspaceIntersection(hs, interior).intersections
        e_out, _ = mvee_points(verts)
        outer = john_factors(Polytope(vertices=verts), e_out, "ce",
                             symmetric=True, tol=1e-8)
        e_in, _ = mvie_polytope(body)
        inner = john_factors(body, e_in, "ie", symmetric=True, tol=1e-8)
        symmetric_failures += 0 if outer.passed and inner.passed else 1
    assert symmetric_failures == 0


# ---------------------------------------------------------------------------
# Contact-point duality.

def test_contact_polar_duality_roundtrip():
    rng = np.random.default_rng(77)
    for i in range(20):
        n = 2 + i % 3
        pts = rng.standard_normal((10 + 3 * (i % 5) + n, n))
        e, cert = mvee_points(pts, SolverConfig(eps=1e-9))
        lower = cholesky_spd(e.shape)
        mapped = (cert.contacts - e.center) @ lower
        dual = Polytope(normals=mapped, offsets=np.ones(len(mapped)))
        ball, _ = mvie_polytope(dual, SolverConfig(eps=1e-9))
        assert np.max(np.abs(ball.center)) <= 1e-5
        assert np.max(np.abs(ball.shape - np.eye(n))) <= 1e-5


# ---------------------------------------------------------------------------
# Group-averaged ellipsoids against the solver.

def test_hyperoctahedral_group_average_matches_solver():
    for n in (2, 3):
        grp = signed_permutation_group(n)

        cube_shape = invariant_shape(grp, np.ones(n), np.zeros(n))
        np.testing.assert_allclose(cube_shape, np.eye(n) / n, atol=1e-12)
        e, _ = mvee_points(np.array(orbit(grp, np.ones(n))))
        assert np.max(np.abs(e.center)) <= 1e-6
        assert np.max(np.abs(e.shape - cube_shape)) <= 1e-6

        axis = np.zeros(n)
        axis[0] = 1.0
        cross_shape = invariant_shape(grp, axis, np.zeros(n))
        np.testing.assert_allclose(cross_shape, np.eye(n), atol=1e-12)
        e, _ = mvee_points(np.array(orbit(grp, axis)))
        assert np.max(np.abs(e.center)) <= 1e-6
        assert np.max(np.abs(e.shape - cross_shape)) <= 1e-6


# ---------------------------------------------------------------------------
# Cut-update rates.

def test_central_cut_reproduces_classical_rates():
    for n in range(2, 11):
        p = np.zeros(n)
        p[0] = 1.0
        e, record = central_cut_step(unit_ball(n), p)
        shift = np.zeros(n)
        shift[0] = -1.0 / (n + 1)
        assert np.max(np.abs(e.center - shift)) <= 1e-10
        classical = (n / (n + 1.0)) * (n / math.sqrt(n * n - 1.0)) ** (n - 1)
        assert abs(record.ratio - classical) <= 1e-10
        _, full = parallel_cut_step(unit_ball(n), p, -1.0, 0.0)
        assert abs(full.ratio - record.ratio) <= 1e-14


# ---------------------------------------------------------------------------
# Breadth of bodies in John position.

def test_breadth_bound_in_john_position():
    rng = np.random.default_rng(2026)
    for i in range(50):
        n = 2 + i % 3
        pts = rng.standard_normal((n + 2 + (i % 7), n))
        e, _ = mvee_points(pts, SolverConfig(eps=1e-9))
        lower = cholesky_spd(e.shape)
        mapped = (pts - e.center) @ lower
        assert breadth_diameter(mapped) >= 2.0 / math.sqrt(n) - 1e-6


# ---------------------------------------------------------------------------
# CLI determinism.

# The child runs from ``cwd``, where a relative PYTHONPATH (``src``) does not
# resolve; put the directory the package was imported from in front of it.
_PACKAGE_ROOT = str(Path(extremal_ellipsoids.__file__).resolve().parent.parent)


def _cli(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "extremal_ellipsoids.cli", *args],
        capture_output=True, cwd=cwd, env=env, check=False)


def test_cli_byte_reproducibility(tmp_path):
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps(
        {"points": [[1, 1], [1, -1], [-1, 1], [-1, -1]]}))
    box = tmp_path / "box.json"
    box.write_text(json.dumps(
        {"normals": [[1, 0], [-1, 0], [0, 1], [0, -1]],
         "offsets": [1, 1, 1, 1]}))
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(
        {"kind": "ce", "points": [[1, 1], [1, -1], [-1, 1], [-1, -1]],
         "ellipsoid": {"center": [0, 0], "shape": [[0.5, 0], [0, 0.5]]}}))
    cut = tmp_path / "cut.json"
    cut.write_text(json.dumps(
        {"normals": [[1, 0], [-1, 0], [0, 1], [0, -1]],
         "offsets": [0.9, -0.8, 0.9, -0.8],
         "initial": {"center": [0, 0], "shape": [[0.25, 0], [0, 0.25]]}}))
    sym = tmp_path / "sym.json"
    sym.write_text(json.dumps(
        {"group": "signed-permutation", "dim": 2, "x": [1.0, 1.0]}))

    cases = [
        (["slab-ce", "--dim", "2", "--alpha", "-0.3", "--beta", "0.7",
          "--oracle", "--resolution", "128"], []),
        (["slab-ie", "--dim", "2", "--alpha", "-0.2", "--beta", "0.8",
          "--plot", "PLOT:ie.csv"], ["ie.csv"]),
        (["cone-ce", "--dim", "3", "--alpha", "0.1", "--beta", "0.9"], []),
        (["mvee", "--input", str(pts), "--plot", "PLOT:mv.csv"], ["mv.csv"]),
        (["mvie", "--input", str(box)], []),
        (["certify", "--input", str(cert)], []),
        (["cut-solve", "--input", str(cut), "--trace", "PLOT:tr.jsonl"],
         ["tr.jsonl"]),
        (["symmetry", "--input", str(sym)], []),
        (["oracle", "--dim", "2", "--alpha", "-0.5", "--beta", "0.5",
          "--resolution", "128"], []),
    ]
    for args, artifacts in cases:
        outputs = []
        for run in ("first", "second"):
            rundir = tmp_path / f"{run}-{args[0]}"
            rundir.mkdir()
            concrete = [a.replace("PLOT:", f"{rundir}/") for a in args]
            proc = _cli(concrete, cwd=str(tmp_path))
            assert proc.returncode == 0, (args[0], proc.stdout, proc.stderr)
            blobs = [proc.stdout]
            for name in artifacts:
                blobs.append((rundir / name).read_bytes())
            outputs.append(blobs)
        assert outputs[0] == outputs[1], f"{args[0]} output varies across runs"
