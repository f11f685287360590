"""Which functions the traced run wraps, and the per-layer metrics made
from their spans.

Span names follow ``module.function`` of the package; ``scipy.*`` are the
scipy entry points the package calls, wrapped where it looks them up.
"""

from __future__ import annotations


def _by_dim(tracer, args, kwargs):
    return f"n{args[0].dim}"


def _by_problem(tracer, args, kwargs):
    return str(args[1]).upper()


def _by_class(tracer, args, kwargs):
    return tracer.case_class


def targets(package, workloads):
    import scipy.optimize
    import scipy.spatial

    core, slab, cutting = package.core, package.slab, package.cutting
    solve, certify, symmetry = package.solve, package.certify, package.symmetry
    return [
        ("core.cholesky_spd", core, "cholesky_spd", None),
        ("core.volume", core, "volume", None),
        ("core.map_ellipsoid", core, "map_ellipsoid", None),
        ("core.polytope_is_bounded", core, "polytope_is_bounded", None),
        ("core.chebyshev_center", core, "chebyshev_center", None),
        ("slab.normalize", slab, "normalize", None),
        ("slab.denormalize", slab, "denormalize", None),
        ("slab.ce_slab", slab, "ce_slab", None),
        ("cutting.parallel_cut_step", cutting, "parallel_cut_step", _by_dim),
        ("cutting.solve_feasibility", cutting, "solve_feasibility", None),
        ("cutting.oracle", workloads.Constraints, "__call__", None),
        ("solve.grid_oracle_slab", solve, "grid_oracle_slab", _by_problem),
        ("solve.mvee_points", solve, "mvee_points", _by_class),
        ("solve.mvie_polytope", solve, "mvie_polytope", _by_class),
        ("certify.certify_ce", certify, "certify_ce", None),
        ("certify.certify_ie", certify, "certify_ie", None),
        ("certify.recover_multipliers", certify, "recover_multipliers", None),
        ("symmetry.group_build", symmetry, "named_group", None),
        ("symmetry.orbit", symmetry, "orbit", None),
        ("symmetry.invariant_shape", symmetry, "invariant_shape", None),
        # looked up in scipy at call time by the package
        ("scipy.ConvexHull", scipy.spatial, "ConvexHull", None),
        ("scipy.linprog", scipy.optimize, "linprog", None),
        # bound into certify at import
        ("scipy.nnls", certify, "nnls", None),
    ]


# (metric, span, what): "calls", "self_ms", or ("median", key, scale, unit)
METRICS = [
    ("core.cholesky_spd.calls", "core.cholesky_spd", "calls"),
    ("core.cholesky_spd.self_ms", "core.cholesky_spd", "self_ms"),
    ("core.volume.calls", "core.volume", "calls"),
    ("core.volume.self_ms", "core.volume", "self_ms"),
    ("core.map_ellipsoid.self_ms", "core.map_ellipsoid", "self_ms"),
    ("slab.normalize.self_ms", "slab.normalize", "self_ms"),
    ("slab.denormalize.self_ms", "slab.denormalize", "self_ms"),
    ("slab.ce_slab.calls", "slab.ce_slab", "calls"),
    ("cutting.parallel_cut_step.calls", "cutting.parallel_cut_step", "calls"),
    ("cutting.parallel_cut_step.self_ms", "cutting.parallel_cut_step", "self_ms"),
    ("cutting.cut_us.n2", "cutting.parallel_cut_step", ("median", "n2", 1e6, "us")),
    ("cutting.cut_us.n10", "cutting.parallel_cut_step", ("median", "n10", 1e6, "us")),
    ("cutting.cut_us.n30", "cutting.parallel_cut_step", ("median", "n30", 1e6, "us")),
    ("cutting.solve_feasibility.self_ms", "cutting.solve_feasibility", "self_ms"),
    ("cutting.oracle.self_ms", "cutting.oracle", "self_ms"),
    ("solve.grid_oracle_slab.calls", "solve.grid_oracle_slab", "calls"),
    ("solve.grid_oracle_slab.self_ms", "solve.grid_oracle_slab", "self_ms"),
    ("solve.grid_oracle_slab.ce_p50_ms", "solve.grid_oracle_slab", ("median", "CE", 1e3, "ms")),
    ("solve.grid_oracle_slab.ie_p50_ms", "solve.grid_oracle_slab", ("median", "IE", 1e3, "ms")),
    ("solve.grid_oracle_slab.cone_p50_ms", "solve.grid_oracle_slab", ("median", "CONE", 1e3, "ms")),
    ("solve.mvee_points.self_ms", "solve.mvee_points", "self_ms"),
    ("solve.mvee_points.small_p50_ms", "solve.mvee_points", ("median", "small", 1e3, "ms")),
    ("solve.mvee_points.large_p50_ms", "solve.mvee_points", ("median", "large", 1e3, "ms")),
    ("scipy.ConvexHull.calls", "scipy.ConvexHull", "calls"),
    ("scipy.ConvexHull.self_ms", "scipy.ConvexHull", "self_ms"),
    ("solve.mvie_polytope.self_ms", "solve.mvie_polytope", "self_ms"),
    ("solve.mvie_polytope.small_p50_ms", "solve.mvie_polytope", ("median", "small", 1e3, "ms")),
    ("solve.mvie_polytope.large_p50_ms", "solve.mvie_polytope", ("median", "large", 1e3, "ms")),
    ("core.polytope_is_bounded.self_ms", "core.polytope_is_bounded", "self_ms"),
    ("core.chebyshev_center.self_ms", "core.chebyshev_center", "self_ms"),
    ("scipy.linprog.calls", "scipy.linprog", "calls"),
    ("scipy.linprog.self_ms", "scipy.linprog", "self_ms"),
    ("certify.certify_ce.self_ms", "certify.certify_ce", "self_ms"),
    ("certify.certify_ie.self_ms", "certify.certify_ie", "self_ms"),
    ("certify.recover_multipliers.calls", "certify.recover_multipliers", "calls"),
    ("certify.recover_multipliers.self_ms", "certify.recover_multipliers", "self_ms"),
    ("scipy.nnls.calls", "scipy.nnls", "calls"),
    ("scipy.nnls.self_ms", "scipy.nnls", "self_ms"),
    ("symmetry.group_build.self_ms", "symmetry.group_build", "self_ms"),
    ("symmetry.orbit.self_ms", "symmetry.orbit", "self_ms"),
    ("symmetry.invariant_shape.self_ms", "symmetry.invariant_shape", "self_ms"),
]


def report(tracer, overhead_s, cli_import_ms):
    """{metric: (value, unit)} over the traced rounds."""
    out = {}
    for metric, span, what in METRICS:
        if what == "calls":
            out[metric] = (tracer.calls.get(span, 0), "count")
        elif what == "self_ms":
            out[metric] = (tracer.self_s.get(span, 0.0) * 1e3, "ms")
        else:
            _, key, scale, unit = what
            out[metric] = (tracer.median(span, key, scale), unit)
    out["cli.import_ms"] = (cli_import_ms, "ms")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out
