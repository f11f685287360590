"""Command-line front end.

One subcommand per solver; a single JSON document on stdout; exit code 0
on success, 2 on validation problems, 1 when a solver fails to converge or
its result (mvee, mvie, symmetry) fails certification at --tol.
Output is deterministic: keys are sorted and every float is printed with
17 significant digits, so identical invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .certify import CERT_TOL, certify_ce, certify_ie, failed_residuals
from .core import (Ellipsoid, Polytope, chebyshev_center, ellipsoid_from_dict,
                   ellipsoid_to_dict)
from .cutting import FeasibilityProblem, solve_feasibility
from .errors import ExtremalEllipsoidError, Unconverged
from .slab import (AxialEllipsoidParams, SlabSpec, ce_cone, ce_slab,
                   ce_contact_points, cone_contact_points, ie_slab,
                   ie_sphere_circle, orient)
from .solve import grid_oracle_slab, mvee_points, mvie_polytope
from .symmetry import (check_invariant_ellipsoid, group_from_dict,
                       invariant_center, invariant_shape, named_group, orbit)

_PLOT_SAMPLES = 720


class _CliError(Exception):
    def __init__(self, code: str, message: str, exit_code: int = 2):
        super().__init__(message)
        self.code = code
        self.exit_code = exit_code


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliError("usage", message)


# ---------------------------------------------------------------------------
# Deterministic JSON.

def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(float(x), ".17g")


def _emit(obj) -> str:
    if isinstance(obj, dict):
        items = (f"{json.dumps(str(k))}: {_emit(v)}"
                 for k, v in sorted(obj.items()))
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_emit(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return _emit(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# Input plumbing.

def _load_input(path: str, table_key: str | None = None) -> dict:
    try:
        with open(path) as fh:
            text = fh.read()
    except FileNotFoundError:
        raise _CliError("missing-input", f"cannot open {path!r}")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        # mvee/mvie also accept a whitespace table, one row per point or
        # per halfspace "a_1 ... a_n b"
        if table_key is not None:
            parsed = _parse_table(text, table_key)
            if parsed is not None:
                return parsed
        raise _CliError("malformed-json", f"{path}: {exc}")
    if not isinstance(payload, dict):
        raise _CliError("invalid-input", "input must be a JSON object")
    return payload


def _parse_table(text: str, table_key: str) -> dict | None:
    rows = []
    width = None
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            row = [float(tok) for tok in line.split()]
        except ValueError:
            return None
        if width is None:
            width = len(row)
        elif len(row) != width:
            return None
        rows.append(row)
    if not rows or width < 2:
        return None
    arr = np.asarray(rows, dtype=float)
    if table_key == "points":
        return {"points": arr}
    return {"normals": arr[:, :-1], "offsets": arr[:, -1]}


def _floats(value) -> np.ndarray:
    return np.asarray(value, dtype=float)


def _field(payload: dict, key: str, convert=_floats):
    """convert(payload[key]); an input error when the value is malformed."""
    try:
        return convert(payload[key])
    except (KeyError, TypeError) as exc:
        raise _CliError("invalid-input", f"input needs a well-formed {key!r} "
                        f"({type(exc).__name__}: {exc})") from exc


def _points_from(payload: dict) -> np.ndarray:
    pts = _field(payload, "points")
    if pts.ndim != 2:
        raise _CliError("invalid-input", "'points' must be a 2-D array")
    return pts

def _polytope_from(payload: dict) -> Polytope:
    normals = _field(payload, "normals")
    offsets = _field(payload, "offsets")
    if normals.ndim != 2 or offsets.ndim != 1 \
            or normals.shape[0] != offsets.shape[0]:
        raise _CliError("dimension-mismatch",
                        "'normals' rows must pair with 'offsets' entries")
    return Polytope(normals=normals, offsets=offsets)


# ---------------------------------------------------------------------------
# Plot emission (2-D only).

def _ellipse_outline(e: Ellipsoid, count: int) -> np.ndarray:
    phi = np.linspace(0.0, 2.0 * math.pi, count)
    dirs = np.column_stack([np.cos(phi), np.sin(phi)])
    return e.boundary_points(dirs)


def _arc(t0: float, t1: float, count: int) -> np.ndarray:
    t = np.linspace(t0, t1, count)
    return np.column_stack([np.cos(t), np.sin(t)])


def _segment(p0, p1, count: int) -> np.ndarray:
    t = np.linspace(0.0, 1.0, count)[:, None]
    return np.asarray(p0) * (1.0 - t) + np.asarray(p1) * t


def _slab_outline(alpha: float, beta: float, count: int) -> np.ndarray:
    th_a = math.acos(alpha)
    th_b = math.acos(beta)
    sa, sb = math.sin(th_a), math.sin(th_b)
    per = count // 4
    pieces = [
        _arc(th_b, th_a, per),
        _segment((alpha, sa), (alpha, -sa), per),
        _arc(-th_a, -th_b, per),
        _segment((beta, -sb), (beta, sb), count - 3 * per),
    ]
    return np.vstack(pieces)


def _cone_outline(alpha: float, beta: float, count: int) -> np.ndarray:
    sa = math.sqrt(max(1.0 - alpha * alpha, 0.0))
    sb = math.sqrt(max(1.0 - beta * beta, 0.0))
    per = count // 4
    corners = [(beta, sb), (alpha, sa), (alpha, -sa), (beta, -sb), (beta, sb)]
    pieces = []
    for i in range(4):
        take = per if i < 3 else count - 3 * per
        pieces.append(_segment(corners[i], corners[i + 1], take))
    return np.vstack(pieces)


def _closed_polyline(vertices: np.ndarray, count: int) -> np.ndarray:
    loop = np.vstack([vertices, vertices[:1]])
    seg = np.linalg.norm(np.diff(loop, axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = cum[-1]
    if total == 0.0:
        return np.repeat(vertices[:1], count, axis=0)
    t = np.linspace(0.0, total, count)
    out = np.empty((count, 2))
    for k in (0, 1):
        out[:, k] = np.interp(t, cum, loop[:, k])
    return out


def _write_plot(path: str, body: np.ndarray, ellipse: np.ndarray,
                contacts: np.ndarray) -> None:
    lines = ["series,x,y"]
    for series, block in (("body", body), ("ellipsoid", ellipse),
                          ("contacts", contacts)):
        for x, y in np.atleast_2d(block) if block.size else []:
            lines.append(f"{series},{_fmt_float(x)},{_fmt_float(y)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _require_2d(dim: int) -> None:
    if dim != 2:
        raise _CliError("plot-dimension", "--plot requires a 2-D instance")


# ---------------------------------------------------------------------------
# Subcommands.

def _cmd_axial(args, problem: str):
    lo, hi, sign = orient(args.alpha, args.beta)
    spec = SlabSpec(args.dim, lo, hi)
    solver = {"CE": ce_slab, "IE": ie_slab, "CONE": ce_cone}[problem]
    params = solver(spec)
    tau_out = sign * params.tau
    out = {"tau": tau_out, "a": params.a, "b": params.b, "case": params.case}

    if args.oracle:
        ref = grid_oracle_slab(spec, problem, resolution=args.resolution)
        disc = max(abs(ref.tau - params.tau), abs(ref.a - params.a),
                   abs(ref.b - params.b))
        out["oracle"] = {"tau": sign * ref.tau,
                         "a": ref.a, "b": ref.b}
        out["discrepancy"] = disc

    if args.plot:
        _require_2d(args.dim)
        outline = (_cone_outline if problem == "CONE" else _slab_outline)(
            args.alpha, args.beta, _PLOT_SAMPLES)
        ell = AxialEllipsoidParams(tau_out, params.a, params.b, params.n,
                                   params.form, params.case).expand()
        ellipse = _ellipse_outline(ell, _PLOT_SAMPLES)
        contacts = {"CE": ce_contact_points, "IE": _ie_contacts_2d,
                    "CONE": cone_contact_points}[problem](spec, params)
        _write_plot(args.plot, outline, ellipse, contacts * [sign, 1.0])
    return out


def _ie_contacts_2d(spec: SlabSpec, params: AxialEllipsoidParams) -> np.ndarray:
    """Exact touching points of the inscribed ellipse, normalized frame."""
    tau, a = params.tau, params.a  # semi-axes form
    cands = []
    if abs((tau - a) - spec.alpha) < 1e-9:
        cands.append((spec.alpha, 0.0))
    if abs((tau + a) - spec.beta) < 1e-9:
        cands.append((spec.beta, 0.0))
    x1, x2 = ie_sphere_circle(params)  # x2 = 0 only at a plane contact
    if x2 > 0.0 and abs(x1 * x1 + x2 * x2 - 1.0) < 1e-9:
        cands += [(x1, x2), (x1, -x2)]
    return np.array(cands) if cands else np.empty((0, 2))


def _certified(certify, body, ell: Ellipsoid, tol: float) -> dict:
    """certify's JSON, or exit 1 (uncertified) naming each failed residual."""
    result = certify(body, ell, tol=tol)
    failed = [f"{k} {result.residuals[k]:.3e}"
              for k in failed_residuals(result.residuals, ell.dim, tol)]
    if failed:
        raise _CliError("uncertified", f"certificate fails at tol {tol:.3g}: "
                        + ", ".join(failed), exit_code=1)
    return result.to_dict()


def _cmd_mvee(args):
    payload = _load_input(args.input, table_key="points")
    pts = _points_from(payload)
    ell, cert = mvee_points(pts)
    out = {"ellipsoid": ellipsoid_to_dict(ell),
           "certificate": _certified(certify_ce, pts, ell, args.tol)}
    if args.plot:
        _require_2d(ell.dim)
        from scipy.spatial import ConvexHull

        hull = ConvexHull(pts)
        body = _closed_polyline(pts[hull.vertices], _PLOT_SAMPLES)
        _write_plot(args.plot, body, _ellipse_outline(ell, _PLOT_SAMPLES),
                    cert.contacts)
    return out


def _cmd_mvie(args):
    payload = _load_input(args.input, table_key="halfspaces")
    poly = _polytope_from(payload)
    ell, cert = mvie_polytope(poly)
    out = {"ellipsoid": ellipsoid_to_dict(ell),
           "certificate": _certified(certify_ie, poly, ell, args.tol)}
    if args.plot:
        _require_2d(ell.dim)
        from scipy.spatial import HalfspaceIntersection

        interior, _ = chebyshev_center(poly)
        hs = np.hstack([poly.normals, -poly.offsets[:, None]])
        verts = HalfspaceIntersection(hs, interior).intersections
        order = np.argsort(np.arctan2(verts[:, 1] - interior[1],
                                      verts[:, 0] - interior[0]))
        body = _closed_polyline(verts[order], _PLOT_SAMPLES)
        _write_plot(args.plot, body, _ellipse_outline(ell, _PLOT_SAMPLES),
                    cert.contacts)
    return out


def _cmd_certify(args):
    payload = _load_input(args.input)
    kind = _field(payload, "kind", str)
    ell = _field(payload, "ellipsoid", ellipsoid_from_dict)
    if kind == "ce":
        body = _points_from(payload)
        if body.shape[1] != ell.dim:
            raise _CliError("dimension-mismatch",
                            "points and ellipsoid dimensions differ")
        result = certify_ce(body, ell, tol=args.tol)
    elif kind == "ie":
        poly = _polytope_from(payload)
        if poly.dim != ell.dim:
            raise _CliError("dimension-mismatch",
                            "polytope and ellipsoid dimensions differ")
        result = certify_ie(poly, ell, tol=args.tol)
    else:
        raise _CliError("invalid-input", f"kind must be 'ce' or 'ie', got {kind!r}")
    return result.to_dict()


def _cmd_cut_solve(args):
    payload = _load_input(args.input)
    poly = _polytope_from(payload)
    if "initial" in payload:
        initial = _field(payload, "initial", ellipsoid_from_dict)
    else:
        initial = Ellipsoid(np.zeros(poly.dim), np.eye(poly.dim))
    if initial.dim != poly.dim:
        raise _CliError("dimension-mismatch",
                        "initial ellipsoid does not match the constraints")
    floor = _field(payload, "floor", float) if "floor" in payload else 1e-12

    normals, offsets = poly.normals, poly.offsets

    def oracle(x):
        slack = offsets - normals @ x
        bad = np.flatnonzero(slack < -1e-12)
        if bad.size == 0:
            return None
        j = int(bad[0])
        return normals[j], offsets[j]

    problem = FeasibilityProblem(oracle, initial, floor)
    res = solve_feasibility(problem, max_iter=args.max_iter,
                            trace_path=args.trace)
    return {"status": res.status,
            "point": None if res.point is None else res.point.tolist(),
            "volume": res.volume,
            "cuts": len(res.records)}


def _cmd_symmetry(args):
    payload = _load_input(args.input)
    if "elements" in payload:
        group = _field(payload, "elements", lambda _: group_from_dict(payload))
    elif "group" in payload:
        group = named_group(payload["group"], n=payload.get("dim"),
                            order=payload.get("order"))
    else:
        raise _CliError("invalid-input",
                        "symmetry input needs 'group' or 'elements'")
    x = _field(payload, "x")
    if x.shape != (group.dim,):
        raise _CliError("dimension-mismatch", "'x' does not match the group")

    pts = orbit(group, x)
    center = invariant_center(group, x)
    shape = invariant_shape(group, x, center)
    ell = Ellipsoid(center, shape)
    return {"orbit": pts,
            "center": center.tolist(),
            "ellipsoid": ellipsoid_to_dict(ell),
            "invariant": check_invariant_ellipsoid(group, ell),
            "certificate": _certified(certify_ce, pts, ell, args.tol)}


def _cmd_oracle(args):
    lo, hi, sign = orient(args.alpha, args.beta)
    spec = SlabSpec(args.dim, lo, hi)
    params = grid_oracle_slab(spec, args.problem.upper(),
                              resolution=args.resolution)
    return {"tau": sign * params.tau, "a": params.a, "b": params.b,
            "case": params.case}


# ---------------------------------------------------------------------------
# Argument wiring.

def _build_parser() -> _Parser:
    parser = _Parser(prog="exell", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("slab-ce", "slab-ie", "cone-ce"):
        p = sub.add_parser(name)
        p.add_argument("--dim", type=int, required=True)
        p.add_argument("--alpha", type=float, required=True)
        p.add_argument("--beta", type=float, required=True)
        p.add_argument("--oracle", action="store_true")
        p.add_argument("--resolution", type=int, default=512)
        p.add_argument("--plot", metavar="FILE")

    for name in ("mvee", "mvie"):
        p = sub.add_parser(name)
        p.add_argument("--input", metavar="FILE", required=True,
                       help="JSON document, or a whitespace table with one "
                            "point (mvee) or one halfspace row 'a_1 .. a_n b' "
                            "(mvie) per line; '#' starts a comment")
        p.add_argument("--plot", metavar="FILE")
        p.add_argument("--tol", type=float, default=CERT_TOL)

    for name in ("certify", "symmetry"):
        p = sub.add_parser(name)
        p.add_argument("--input", metavar="FILE", required=True)
        p.add_argument("--tol", type=float, default=CERT_TOL)

    p = sub.add_parser("cut-solve")
    p.add_argument("--input", metavar="FILE", required=True)
    p.add_argument("--max-iter", type=int, default=500)
    p.add_argument("--trace", metavar="FILE")

    p = sub.add_parser("oracle")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--problem", choices=("ce", "ie", "cone"), default="ce")
    p.add_argument("--resolution", type=int, default=512)
    return parser


_DISPATCH = {
    "slab-ce": lambda a: _cmd_axial(a, "CE"),
    "slab-ie": lambda a: _cmd_axial(a, "IE"),
    "cone-ce": lambda a: _cmd_axial(a, "CONE"),
    "mvee": _cmd_mvee,
    "mvie": _cmd_mvie,
    "certify": _cmd_certify,
    "cut-solve": _cmd_cut_solve,
    "symmetry": _cmd_symmetry,
    "oracle": _cmd_oracle,
}


def _error_payload(code: str, message: str) -> str:
    return _emit({"error": {"code": code, "message": message}})


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        payload = _DISPATCH[args.command](args)
    except _CliError as err:
        print(_error_payload(err.code, str(err)))
        return err.exit_code
    except Unconverged as err:
        print(_error_payload("unconverged", str(err)))
        return 1
    except ExtremalEllipsoidError as err:
        code = "".join("-" + c.lower() if c.isupper() else c
                       for c in type(err).__name__).lstrip("-")
        print(_error_payload(code, str(err)))
        return 2
    except ValueError as err:
        print(_error_payload("invalid-value", str(err)))
        return 2
    print(_emit(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
