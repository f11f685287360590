"""Ellipsoid-method feasibility solver built on the slab update.

Each cut intersects the current ellipsoid with a slab along the violated
normal, replaces it by the smallest circumscribed ellipsoid of that slab,
and repeats.  Volume drops by a fixed dimension-dependent factor per
proper cut, so an empty interior is certified once the volume passes the
floor.

A cut is a rank-one update of the factor F, O(n^2), and runs no
factorization: log|det F| is carried from one ellipsoid to the next by
the log of the cut's volume ratio, and every reported volume is read from
that log det, so ``volume_before`` of a cut equals ``volume_after`` of the
one before it exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import Ellipsoid, volume
from .errors import EmptySlab, InvalidEllipsoid
from .slab import ce_slab_coefficients, orient

_NORMAL_MIN = float(np.finfo(float).tiny)


@dataclass(frozen=True, eq=False)
class CutStepRecord:
    iteration: int
    normal: np.ndarray
    alpha: float
    beta: float
    volume_before: float
    volume_after: float
    ratio: float

    def to_dict(self) -> dict:
        return {
            "iteration": self.iteration,
            "normal": self.normal.tolist(),
            "alpha": self.alpha,
            "beta": self.beta,
            "volume_before": self.volume_before,
            "volume_after": self.volume_after,
            "ratio": self.ratio,
        }


@dataclass(frozen=True)
class FeasibilityProblem:
    """Halfspace-oracle feasibility instance.

    ``oracle(x)`` returns None when x is feasible, else a violated pair
    (normal, offset) meaning the feasible set satisfies <normal, x> <= offset.
    ``initial`` must contain the feasible set; ``floor`` is the volume below
    which the instance is declared infeasible.
    """

    oracle: Callable
    initial: Ellipsoid
    floor: float = 1e-12

    def __post_init__(self):
        if not self.floor > 0.0:
            raise ValueError("volume floor must be positive")


@dataclass(frozen=True, eq=False)
class FeasibilityResult:
    status: str  # FEASIBLE | INFEASIBLE | BUDGET
    point: Optional[np.ndarray]
    volume: float
    records: list = field(default_factory=list)


def parallel_cut_step(e: Ellipsoid, p, a: float, b: float,
                      iteration: int = 0):
    """Smallest ellipsoid containing {x in E : a <= <p, x - center> <= b}.

    With E = {c + F u : |u| <= 1}, v = F^T p and g = |v|, the slab is
    [a/g, b/g] in units of the ellipsoid's half-width along p.  Solving
    along s*p, with s = -1 when the lower bound is the deeper one,
    ``ce_slab_coefficients`` gives (tau, a', b'), and with w = v/g the
    update is the rank-one formula

        c+ = c + s tau F w,
        F+ = F / sqrt(b') + (1/sqrt(a') - 1/sqrt(b')) (F w) w^T,

    which is X+ = b' X + (a' - b') p p^T / g^2 in shape form, with volume
    ratio (a' b'^(n-1))^(-1/2) = det F+ / det F.  So log|det F+| is
    log|det F| plus the log of the ratio, the step runs no factorization,
    and both record volumes are read from the ellipsoids' log dets.
    Bounds deeper than the ellipsoid extent, -inf and +inf among them, are
    clamped; a slab missing the ellipsoid entirely raises EmptySlab.
    Exactly when ``ce_slab`` takes its case "i" (alpha beta <= -1/n, a
    shallow two-sided cut that cannot shrink the volume), E is returned
    unchanged with ratio 1.  The normal may have any scale: when the sum
    of the squares of v is not a finite normal double, (p, a, b) is scaled
    by the power of two that puts p's largest entry in [1/2, 1), so a cut
    by 2^k p, 2^k a, 2^k b equals the cut by p, a, b to the bit.  A NaN
    bound or a zero or non-finite normal raises ValueError, and a normal
    along which E has collapsed to zero width raises InvalidEllipsoid.
    """
    p = np.asarray(p, dtype=float)
    # checked before F^T p, where inf * 0 would warn; the sum of the entries
    # screens for a non-finite one at a fraction of np.isfinite's cost
    if not math.isfinite(sum(p.tolist())) and not np.isfinite(p).all():
        raise ValueError("cut normal must be finite")
    if not a < b:
        if math.isnan(a) or math.isnan(b):
            raise ValueError(f"cut bounds must not be NaN, got ({a}, {b})")
        raise EmptySlab("slab bounds leave no width")
    n = e.dim
    factor = e.factor()
    v = p @ factor  # F^T p
    # vdot sums as v @ v does, to the bit, but sets no overflow warning
    g2 = float(np.vdot(v, v))
    if not _NORMAL_MIN <= g2 < math.inf:
        # a normal far from unit length: the slab is the same for
        # 2^-k (p, a, b), exactly, with the largest entry of 2^-k p in
        # [1/2, 1)
        k = -math.frexp(float(np.max(np.abs(p))))[1]
        v = np.ldexp(p, k) @ factor
        a, b = math.ldexp(a, k), math.ldexp(b, k)
        g2 = float(np.vdot(v, v))
    g = math.sqrt(g2)
    if not 0.0 < g < math.inf:
        raise _bad_normal(p, g)
    alpha, beta = a / g, b / g
    if alpha >= 1.0 or beta <= -1.0:
        raise EmptySlab(f"slab [{alpha:.6g}, {beta:.6g}] misses the ellipsoid")
    alpha, beta = max(alpha, -1.0), min(beta, 1.0)
    vol_before = volume(e)
    lo, hi, sign = orient(alpha, beta)  # sign -1.0: solve along -p
    tau, a_axis, b_rest, case = ce_slab_coefficients(n, lo, hi)
    if case == "i":  # E is already the slab's smallest ellipsoid
        return e, CutStepRecord(iteration, p, alpha, beta,
                                vol_before, vol_before, 1.0)
    w = v / g
    direction = factor @ w
    root_b = 1.0 / math.sqrt(b_rest)
    # det(I / sqrt(b') + (1/sqrt(a') - 1/sqrt(b')) w w^T) = b'^-(n-1)/2 a'^-1/2
    log_ratio = -0.5 * (math.log(a_axis) + (n - 1) * math.log(b_rest))
    post = Ellipsoid._from_cut(
        e.center + sign * tau * direction,
        root_b * factor
        + (1.0 / math.sqrt(a_axis) - root_b) * np.outer(direction, w),
        e._log_det + log_ratio)
    ratio = (a_axis * b_rest ** (n - 1)) ** -0.5
    record = CutStepRecord(iteration, p, alpha, beta,
                           vol_before, volume(post), ratio)
    return post, record


def _bad_normal(p: np.ndarray, g: float) -> Exception:
    """Why |F^T p| is not a positive finite number for a finite normal:
    told apart only once a cut has failed, so a working cut pays for none
    of these tests."""
    if not p.any():
        return ValueError("cut normal must be nonzero")
    if g == 0.0:
        return InvalidEllipsoid("ellipsoid has collapsed: |F^T p| underflows "
                                "to 0 for a nonzero normal")
    return ValueError(f"cut normal overflows in the ellipsoid's frame: "
                      f"|F^T p| = {g}")


def central_cut_step(e: Ellipsoid, p, iteration: int = 0):
    """Cut through the center: the halfspace <p, x - center> <= 0."""
    return parallel_cut_step(e, p, -math.inf, 0.0, iteration)


def solve_feasibility(problem: FeasibilityProblem, max_iter: int = 1000,
                      trace_path: Optional[str] = None) -> FeasibilityResult:
    """Run the cutting loop until feasible, provably empty, or out of budget.

    ``trace_path``, when given, is overwritten with one JSON record per cut.
    """
    e = problem.initial
    vol = volume(e)
    records: list[CutStepRecord] = []
    sink = open(trace_path, "w") if trace_path else None
    try:
        for it in range(max_iter):
            if vol < problem.floor:
                return FeasibilityResult("INFEASIBLE", None, vol, records)
            verdict = problem.oracle(e.center)
            if verdict is None:
                return FeasibilityResult("FEASIBLE", e.center, vol, records)
            normal, offset = verdict
            normal = np.asarray(normal, dtype=float)
            hi = float(offset) - float(normal @ e.center)
            try:
                e, record = parallel_cut_step(e, normal, -math.inf, hi,
                                              iteration=it)
            except EmptySlab:
                # the allowed halfspace misses the ellipsoid entirely
                return FeasibilityResult("INFEASIBLE", None, 0.0, records)
            vol = record.volume_after
            records.append(record)
            if sink is not None:
                sink.write(json.dumps(record.to_dict()) + "\n")
        return FeasibilityResult("BUDGET", None, vol, records)
    finally:
        if sink is not None:
            sink.close()
