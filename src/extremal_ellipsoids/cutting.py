"""Ellipsoid-method feasibility solver built on the slab update.

Each cut intersects the current ellipsoid with a slab along the violated
normal, replaces it by the smallest circumscribed ellipsoid of that slab,
and repeats.  Volume drops by a fixed dimension-dependent factor per
proper cut, so an empty interior is certified once the volume passes the
floor.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.linalg import solve_triangular

from .core import Ellipsoid, factor_volume, volume
from .errors import EmptySlab
from .slab import ce_slab, oriented

_NOOP_TOL = 1e-15


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class FeasibilityResult:
    status: str  # FEASIBLE | INFEASIBLE | BUDGET
    point: Optional[np.ndarray]
    volume: float
    records: list = field(default_factory=list)


def parallel_cut_step(e: Ellipsoid, p, a: float, b: float,
                      iteration: int = 0):
    """Smallest ellipsoid containing {x in E : a <= <p, x - center> <= b}.

    With g = (p^T X^-1 p)^(1/2) the slab is [a/g, b/g] in units of the
    ellipsoid's half-width along p.  Solving along s*p, with s = -1 when the
    lower bound is the deeper one, ``ce_slab`` gives (tau, a', b') and the
    update is the rank-one formula

        c+ = c + s tau X^-1 p / g,    X+ = b' X + (a' - b') p p^T / g^2,

    with volume ratio (a' b'^(n-1))^(-1/2).  Bounds deeper than the
    ellipsoid extent are clamped; a slab missing the ellipsoid entirely
    raises EmptySlab.  Shallow two-sided cuts that cannot shrink the volume
    return E unchanged with ratio 1.
    """
    p = np.asarray(p, dtype=float)
    if a >= b:
        raise EmptySlab("slab bounds leave no width")
    n = e.dim
    lower = np.linalg.cholesky(e.shape)
    w = solve_triangular(lower, p, lower=True)
    g = float(np.linalg.norm(w))
    if not g > 0.0:
        raise ValueError("cut normal must be nonzero")
    alpha, beta = a / g, b / g
    if alpha >= 1.0 or beta <= -1.0:
        raise EmptySlab(f"slab [{alpha:.6g}, {beta:.6g}] misses the ellipsoid")
    alpha, beta = max(alpha, -1.0), min(beta, 1.0)
    vol_before = factor_volume(lower)

    if alpha * beta <= -1.0 / n + _NOOP_TOL:
        record = CutStepRecord(iteration, p, alpha, beta,
                               vol_before, vol_before, 1.0)
        return e, record

    spec, sign = oriented(n, alpha, beta)  # sign -1.0: solve along -p
    params = ce_slab(spec)
    direction = solve_triangular(lower.T, w, lower=False) / g  # X^-1 p / g
    shape = params.b * e.shape + (params.a - params.b) * np.outer(p, p) / g ** 2
    # X may be asymmetric within SYMMETRY_TOL, which b' > 1 would inflate
    post = Ellipsoid(e.center + sign * params.tau * direction,
                     0.5 * (shape + shape.T))
    ratio = (params.a * params.b ** (n - 1)) ** -0.5
    record = CutStepRecord(iteration, p, alpha, beta,
                           vol_before, vol_before * ratio, ratio)
    return post, record


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
