"""Command-line surface: JSON output, exit codes, input formats, plots."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import extremal_ellipsoids
from extremal_ellipsoids import Unconverged, ce_slab, ie_slab, SlabSpec
from extremal_ellipsoids.cli import main

SQUARE_POINTS = [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]
BOX_HALFSPACES = {"normals": [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0],
                              [0.0, -1.0]],
                  "offsets": [1.0, 1.0, 1.0, 1.0]}


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_cli_starts_without_scipy_subpackages():
    # every exell process pays for what importing the CLI loads; the bare
    # scipy package is imported on purpose, none of its subpackages
    root = str(Path(extremal_ellipsoids.__file__).resolve().parent.parent)
    code = (f"import sys; sys.path.insert(0, {root!r}); import scipy; "
            "bare = set(sys.modules); import extremal_ellipsoids.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy') "
            "and m not in bare))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


# ---------------------------------------------------------------------------
# Closed-form subcommands.

def test_slab_ce_symmetric_values(capsys):
    code, out = run_json(capsys, "slab-ce", "--dim", "2",
                         "--alpha", "-0.5", "--beta", "0.5")
    assert code == 0
    assert out["tau"] == pytest.approx(0.0, abs=1e-15)
    assert out["a"] == pytest.approx(2.0, rel=1e-12)
    assert out["b"] == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert out["case"] == "ii"


def test_slab_ce_output_keys_are_sorted(capsys):
    _, raw = run(capsys, "slab-ce", "--dim", "2",
                 "--alpha", "-0.5", "--beta", "0.5")
    pos = [raw.index(f'"{k}"') for k in ("a", "b", "case", "tau")]
    assert pos == sorted(pos)


def test_slab_ce_is_byte_deterministic(capsys):
    args = ("slab-ce", "--dim", "3", "--alpha", "0.1", "--beta", "0.9",
            "--oracle")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second


def test_slab_ce_reports_oracle_discrepancy(capsys):
    code, out = run_json(capsys, "slab-ce", "--dim", "2",
                         "--alpha", "-0.5", "--beta", "0.5", "--oracle")
    assert code == 0
    assert out["discrepancy"] <= 1e-6
    assert out["oracle"]["a"] == pytest.approx(2.0, abs=1e-6)


def test_slab_ce_reflects_mirrored_input(capsys):
    code, out = run_json(capsys, "slab-ce", "--dim", "2",
                         "--alpha", "-0.8", "--beta", "0.3")
    assert code == 0
    ref = ce_slab(SlabSpec(2, -0.3, 0.8))
    assert out["tau"] == pytest.approx(-ref.tau, abs=1e-15)
    assert out["a"] == pytest.approx(ref.a, rel=1e-14)
    assert out["b"] == pytest.approx(ref.b, rel=1e-14)


def test_slab_ie_matches_library(capsys):
    code, out = run_json(capsys, "slab-ie", "--dim", "2",
                         "--alpha", "-0.2", "--beta", "0.95")
    assert code == 0
    ref = ie_slab(SlabSpec(2, -0.2, 0.95))
    assert out["tau"] == pytest.approx(ref.tau, abs=1e-15)
    assert out["a"] == pytest.approx(ref.a, rel=1e-14)
    assert out["case"] == ref.case


def test_cone_ce_runs(capsys):
    code, out = run_json(capsys, "cone-ce", "--dim", "3",
                         "--alpha", "0.2", "--beta", "0.8")
    assert code == 0
    assert out["case"] == "iii"
    assert out["a"] == pytest.approx(4.2068133012897, rel=1e-10)


def test_slab_rejects_inverted_bounds(capsys):
    code, out = run_json(capsys, "slab-ce", "--dim", "2",
                         "--alpha", "0.9", "--beta", "0.5")
    assert code == 2
    assert out["error"]["code"] == "invalid-value"


def test_usage_errors_exit_two(capsys):
    code, out = run_json(capsys, "slab-ce", "--dim", "2", "--alpha", "0.0")
    assert code == 2
    assert out["error"]["code"] == "usage"
    code, out = run_json(capsys, "no-such-command")
    assert code == 2
    assert out["error"]["code"] == "usage"


def test_solver_flags_exist_only_where_they_are_read(capsys, tmp_path):
    code, out = run_json(capsys, "slab-ce", "--eps", "1e-3", "--dim", "2",
                         "--alpha", "-0.5", "--beta", "0.5")
    assert code == 2
    assert out["error"]["code"] == "usage"
    path = write_json(tmp_path, "box.json", BOX_HALFSPACES)
    code, out = run_json(capsys, "mvie", "--eps", "1e-3", "--input", path)
    assert code == 2
    assert out["error"]["code"] == "usage"
    code, _ = run_json(capsys, "mvie", "--tol", "1e-6", "--input", path)
    assert code == 0


def test_plot_requires_two_dimensions(capsys, tmp_path):
    code, out = run_json(capsys, "slab-ce", "--dim", "3",
                         "--alpha", "-0.2", "--beta", "0.5",
                         "--plot", str(tmp_path / "p.csv"))
    assert code == 2
    assert out["error"]["code"] == "plot-dimension"


def test_slab_plot_writes_csv(capsys, tmp_path):
    path = tmp_path / "slab.csv"
    code, _ = run(capsys, "slab-ce", "--dim", "2",
                  "--alpha", "-0.2", "--beta", "0.5", "--plot", str(path))
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "series,x,y"
    names = {line.split(",")[0] for line in lines[1:]}
    assert names == {"body", "ellipsoid", "contacts"}


# ---------------------------------------------------------------------------
# Numeric solvers.

def test_mvee_json_input(capsys, tmp_path):
    path = write_json(tmp_path, "pts.json", {"points": SQUARE_POINTS})
    code, out = run_json(capsys, "mvee", "--input", path)
    assert code == 0
    assert out["certificate"]["passed"] is True
    np.testing.assert_allclose(out["ellipsoid"]["center"], [0.0, 0.0],
                               atol=1e-10)
    np.testing.assert_allclose(out["ellipsoid"]["shape"],
                               [[0.5, 0.0], [0.0, 0.5]], atol=1e-10)


def test_mvee_accepts_whitespace_table(capsys, tmp_path):
    json_path = write_json(tmp_path, "pts.json", {"points": SQUARE_POINTS})
    table = tmp_path / "pts.txt"
    table.write_text("# corners of the square\n"
                     "1 1\n1 -1\n-1 1\n-1 -1\n")
    _, from_json = run(capsys, "mvee", "--input", json_path)
    code, from_table = run(capsys, "mvee", "--input", str(table))
    assert code == 0
    assert from_table == from_json


def test_mvie_accepts_whitespace_table(capsys, tmp_path):
    json_path = write_json(tmp_path, "box.json", BOX_HALFSPACES)
    table = tmp_path / "box.txt"
    table.write_text("1 0 1\n-1 0 1\n0 1 1\n0 -1 1\n")
    _, from_json = run(capsys, "mvie", "--input", json_path)
    code, from_table = run(capsys, "mvie", "--input", str(table))
    assert code == 0
    assert from_table == from_json
    out = json.loads(from_table)
    assert out["certificate"]["passed"] is True
    np.testing.assert_allclose(out["ellipsoid"]["shape"],
                               [[1.0, 0.0], [0.0, 1.0]], atol=1e-8)


def test_missing_and_malformed_inputs(capsys, tmp_path):
    code, out = run_json(capsys, "mvee", "--input",
                         str(tmp_path / "absent.json"))
    assert (code, out["error"]["code"]) == (2, "missing-input")
    bad = tmp_path / "bad.txt"
    bad.write_text("these are words, not numbers\n")
    code, out = run_json(capsys, "mvee", "--input", str(bad))
    assert (code, out["error"]["code"]) == (2, "malformed-json")


def test_mvee_payload_validation(capsys, tmp_path):
    path = write_json(tmp_path, "wrong.json", BOX_HALFSPACES)
    code, out = run_json(capsys, "mvee", "--input", path)
    assert (code, out["error"]["code"]) == (2, "invalid-input")
    path = write_json(tmp_path, "flat.json", {"points": [1.0, 2.0, 3.0]})
    code, out = run_json(capsys, "mvee", "--input", path)
    assert (code, out["error"]["code"]) == (2, "invalid-input")


def test_degenerate_points_map_to_kebab_code(capsys, tmp_path):
    path = write_json(tmp_path, "line.json",
                      {"points": [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]})
    code, out = run_json(capsys, "mvee", "--input", path)
    assert (code, out["error"]["code"]) == (2, "degenerate-input")


def test_mvie_rejects_unbounded_and_mismatched(capsys, tmp_path):
    path = write_json(tmp_path, "open.json",
                      {"normals": [[1.0, 0.0]], "offsets": [1.0]})
    code, out = run_json(capsys, "mvie", "--input", path)
    assert (code, out["error"]["code"]) == (2, "invalid-body")
    path = write_json(tmp_path, "mismatch.json",
                      {"normals": [[1.0, 0.0], [-1.0, 0.0]],
                       "offsets": [1.0]})
    code, out = run_json(capsys, "mvie", "--input", path)
    assert (code, out["error"]["code"]) == (2, "dimension-mismatch")


def test_mvee_plot_writes_csv(capsys, tmp_path):
    path = write_json(tmp_path, "pts.json", {"points": SQUARE_POINTS})
    plot = tmp_path / "mvee.csv"
    code, _ = run(capsys, "mvee", "--input", path, "--plot", str(plot))
    assert code == 0
    assert plot.read_text().startswith("series,x,y\nbody,")


def test_unconverged_exits_one(capsys, tmp_path, monkeypatch):
    def explode(*args, **kwargs):
        raise Unconverged("gap stalled", gap=0.5)

    monkeypatch.setattr("extremal_ellipsoids.cli.mvee_points", explode)
    path = write_json(tmp_path, "pts.json", {"points": SQUARE_POINTS})
    code, out = run_json(capsys, "mvee", "--input", path)
    assert code == 1
    assert out["error"]["code"] == "unconverged"


# ---------------------------------------------------------------------------
# Certification.

def test_certify_ce_passes_and_fails_cleanly(capsys, tmp_path):
    good = write_json(tmp_path, "good.json", {
        "kind": "ce", "points": SQUARE_POINTS,
        "ellipsoid": {"center": [0.0, 0.0],
                      "shape": [[0.5, 0.0], [0.0, 0.5]]}})
    code, out = run_json(capsys, "certify", "--input", good)
    assert code == 0 and out["passed"] is True
    oversized = write_json(tmp_path, "big.json", {
        "kind": "ce", "points": SQUARE_POINTS,
        "ellipsoid": {"center": [0.0, 0.0],
                      "shape": [[0.1, 0.0], [0.0, 0.1]]}})
    code, out = run_json(capsys, "certify", "--input", oversized)
    assert code == 0 and out["passed"] is False


def test_certify_ie_passes(capsys, tmp_path):
    path = write_json(tmp_path, "ie.json", {
        "kind": "ie", **BOX_HALFSPACES,
        "ellipsoid": {"center": [0.0, 0.0],
                      "shape": [[1.0, 0.0], [0.0, 1.0]]}})
    code, out = run_json(capsys, "certify", "--input", path)
    assert code == 0 and out["passed"] is True


def test_certify_input_validation(capsys, tmp_path):
    path = write_json(tmp_path, "nokind.json", {
        "points": SQUARE_POINTS,
        "ellipsoid": {"center": [0.0, 0.0],
                      "shape": [[0.5, 0.0], [0.0, 0.5]]}})
    code, out = run_json(capsys, "certify", "--input", path)
    assert (code, out["error"]["code"]) == (2, "invalid-input")
    path = write_json(tmp_path, "badkind.json", {
        "kind": "hull", "points": SQUARE_POINTS,
        "ellipsoid": {"center": [0.0, 0.0],
                      "shape": [[0.5, 0.0], [0.0, 0.5]]}})
    code, out = run_json(capsys, "certify", "--input", path)
    assert (code, out["error"]["code"]) == (2, "invalid-input")
    path = write_json(tmp_path, "dims.json", {
        "kind": "ce", "points": [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0],
                                 [0.0, 1.0, 0.0], [0.0, -1.0, 0.0]],
        "ellipsoid": {"center": [0.0, 0.0],
                      "shape": [[0.5, 0.0], [0.0, 0.5]]}})
    code, out = run_json(capsys, "certify", "--input", path)
    assert (code, out["error"]["code"]) == (2, "dimension-mismatch")


SQUARE_CE_PASS = (
    '{"contacts": [[1, 1], [1, -1], [-1, 1], [-1, -1]], "multipliers": '
    '[0.49999999999999983, 0.49999999999999989, 0.5, 0.50000000000000011], '
    '"passed": true, "residuals": {"centroid_eq": 3.5327080320384938e-16, '
    '"contact_membership": 0, "feasibility": 0, '
    '"matrix_eq": 3.7590947707111659e-17, "multiplier_sum": 0}}')


def _no_certificate(feasibility):
    return ('{"contacts": [], "multipliers": [], "passed": false, '
            '"residuals": {"centroid_eq": Infinity, "contact_membership": '
            f'Infinity, "feasibility": {feasibility}, "matrix_eq": Infinity, '
            '"multiplier_sum": Infinity}}\n')


@pytest.mark.parametrize("payload,expected", [
    ({"kind": "ce", "points": SQUARE_POINTS,
      "ellipsoid": {"center": [0, 0], "shape": [[0.5, 0], [0, 0.5]]}},
     SQUARE_CE_PASS + "\n"),
    ({"kind": "ce", "points": SQUARE_POINTS,
      "ellipsoid": {"center": [0, 0], "shape": [[0.1, 0], [0, 0.1]]}},
     _no_certificate("0")),
    # one candidate contact, whose multiplier 1e-12 is pruned
    ({"kind": "ce", "points": [[1e6, 0.0], [0.0, 0.0], [0.0, 0.5]],
      "ellipsoid": {"center": [0, 0], "shape": [[1, 0], [0, 1]]}},
     _no_certificate("999999999999")),
    ({"kind": "ie", **BOX_HALFSPACES,
      "ellipsoid": {"center": [0, 0], "shape": [[1, 0], [0, 1]]}},
     '{"contacts": [[1, 0], [-1, 0], [0, 1], [0, -1]], "multipliers": '
     '[0.50000000000000022, 0.5, 0.49999999999999983, 0.49999999999999978], '
     '"passed": true, "residuals": {"centroid_eq": 2.2887833992611187e-16, '
     '"contact_membership": 0, "feasibility": -0, '
     '"matrix_eq": 3.5108334685767007e-16, '
     '"multiplier_sum": 2.2204460492503131e-16}}\n'),
    # radius 1/2 in the unit box: no facet is active
    ({"kind": "ie", **BOX_HALFSPACES,
      "ellipsoid": {"center": [0, 0], "shape": [[4, 0], [0, 4]]}},
     _no_certificate("0")),
], ids=["ce-pass", "ce-fail", "ce-all-pruned", "ie-pass", "ie-no-facet"])
def test_certify_output_bytes(capsys, tmp_path, payload, expected):
    path = write_json(tmp_path, "cert.json", payload)
    assert run(capsys, "certify", "--input", path) == (0, expected)


def test_mvee_square_output_bytes(capsys, tmp_path):
    path = write_json(tmp_path, "pts.json", {"points": SQUARE_POINTS})
    expected = ('{"certificate": ' + SQUARE_CE_PASS + ', "ellipsoid": '
                '{"center": [0, 0], "dim": 2, "shape": [[0.5, 0], [0, 0.5]]}}\n')
    assert run(capsys, "mvee", "--input", path) == (0, expected)


# ---------------------------------------------------------------------------
# Cutting loop.

def test_cut_solve_immediate_feasibility(capsys, tmp_path):
    path = write_json(tmp_path, "box.json", BOX_HALFSPACES)
    code, out = run_json(capsys, "cut-solve", "--input", path)
    assert code == 0
    assert out["status"] == "FEASIBLE"
    assert out["cuts"] == 0
    assert out["point"] == [0.0, 0.0]


def test_cut_solve_tracks_down_a_corner_box(capsys, tmp_path):
    payload = {"normals": [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0],
                           [0.0, -1.0]],
               "offsets": [0.9, -0.8, 0.9, -0.8],
               "initial": {"center": [0.0, 0.0],
                           "shape": [[0.25, 0.0], [0.0, 0.25]]}}
    path = write_json(tmp_path, "corner.json", payload)
    trace = tmp_path / "trace.jsonl"
    code, out = run_json(capsys, "cut-solve", "--input", path,
                         "--trace", str(trace))
    assert code == 0
    assert out["status"] == "FEASIBLE"
    assert out["cuts"] > 0
    x = np.asarray(out["point"])
    assert (0.8 - 1e-9 <= x).all() and (x <= 0.9 + 1e-9).all()
    assert len(trace.read_text().strip().splitlines()) == out["cuts"]


def test_cut_solve_detects_empty_constraints(capsys, tmp_path):
    payload = {"normals": [[1.0, 0.0], [-1.0, 0.0]],
               "offsets": [-0.5, -0.5]}
    path = write_json(tmp_path, "empty.json", payload)
    code, out = run_json(capsys, "cut-solve", "--input", path)
    assert code == 0
    assert out["status"] == "INFEASIBLE"
    assert out["point"] is None


def test_cut_solve_checks_initial_dimension(capsys, tmp_path):
    payload = {**BOX_HALFSPACES,
               "initial": {"center": [0.0, 0.0, 0.0],
                           "shape": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                     [0.0, 0.0, 1.0]]}}
    path = write_json(tmp_path, "wrongdim.json", payload)
    code, out = run_json(capsys, "cut-solve", "--input", path)
    assert (code, out["error"]["code"]) == (2, "dimension-mismatch")


# ---------------------------------------------------------------------------
# Symmetry.

def test_symmetry_named_group(capsys, tmp_path):
    path = write_json(tmp_path, "sym.json", {
        "group": "signed-permutation", "dim": 2, "x": [1.0, 1.0]})
    code, out = run_json(capsys, "symmetry", "--input", path)
    assert code == 0
    assert len(out["orbit"]) == 4
    assert out["center"] == [0.0, 0.0]
    assert out["invariant"] is True
    assert out["certificate"]["passed"] is True
    np.testing.assert_allclose(out["ellipsoid"]["shape"],
                               [[0.5, 0.0], [0.0, 0.5]], atol=1e-12)


def test_symmetry_explicit_elements(capsys, tmp_path):
    from extremal_ellipsoids import dihedral_group, group_to_dict

    payload = group_to_dict(dihedral_group(4))
    payload["x"] = [0.7, 0.0]
    path = write_json(tmp_path, "sym.json", payload)
    code, out = run_json(capsys, "symmetry", "--input", path)
    assert code == 0
    assert len(out["orbit"]) == 4
    assert out["invariant"] is True


def test_symmetry_input_validation(capsys, tmp_path):
    path = write_json(tmp_path, "nox.json",
                      {"group": "cyclic", "order": 4})
    code, out = run_json(capsys, "symmetry", "--input", path)
    assert (code, out["error"]["code"]) == (2, "invalid-input")
    path = write_json(tmp_path, "badx.json",
                      {"group": "cyclic", "order": 4, "x": [1.0, 0.0, 0.0]})
    code, out = run_json(capsys, "symmetry", "--input", path)
    assert (code, out["error"]["code"]) == (2, "dimension-mismatch")
    path = write_json(tmp_path, "nogroup.json", {"x": [1.0, 0.0]})
    code, out = run_json(capsys, "symmetry", "--input", path)
    assert (code, out["error"]["code"]) == (2, "invalid-input")


def test_symmetry_reports_flat_orbits(capsys, tmp_path):
    path = write_json(tmp_path, "flat.json",
                      {"group": "slab", "dim": 2, "x": [1.0, 0.0]})
    code, out = run_json(capsys, "symmetry", "--input", path)
    assert (code, out["error"]["code"]) == (2, "singular-shape")


def test_symmetry_at_order_3840(capsys, tmp_path):
    path = write_json(tmp_path, "sym5.json", {
        "group": "signed-permutation", "dim": 5,
        "x": [0.9, 0.7, 0.5, 0.3, 0.1]})
    code, out = run_json(capsys, "symmetry", "--input", path)
    assert code == 0
    assert len(out["orbit"]) == 3840
    assert out["invariant"] is True
    assert out["certificate"]["passed"] is True


SYMMETRY_NAMED = (
    '{"center": [0, 0], "certificate": {"contacts": [[0.90000000000000002, '
    '0.40000000000000002], [-0.90000000000000002, 0.40000000000000002], '
    '[0.40000000000000002, 0.90000000000000002], [0.40000000000000002, '
    '-0.90000000000000002], [-0.40000000000000002, -0.90000000000000002]], '
    '"multipliers": [0.4145299145299145, 0.5854700854700855, '
    '0.27777777777777779, 0.41452991452991439, 0.30769230769230765], '
    '"passed": true, "residuals": {"centroid_eq": 2.1088583252177744e-16, '
    '"contact_membership": 1.1102230246251565e-16, "feasibility": 0, '
    '"matrix_eq": 8.2045699616433525e-17, "multiplier_sum": '
    '2.2204460492503131e-16}}, "ellipsoid": {"center": [0, 0], "dim": 2, '
    '"shape": [[1.0309278350515463, 0], [0, 1.0309278350515463]]}, '
    '"invariant": true, "orbit": [[0.90000000000000002, '
    '0.40000000000000002], [0.90000000000000002, -0.40000000000000002], '
    '[-0.90000000000000002, 0.40000000000000002], [-0.90000000000000002, '
    '-0.40000000000000002], [0.40000000000000002, 0.90000000000000002], '
    '[0.40000000000000002, -0.90000000000000002], [-0.40000000000000002, '
    '0.90000000000000002], [-0.40000000000000002, -0.90000000000000002]]}')

SYMMETRY_EXPLICIT = (
    '{"center": [-2.9951277046623466e-17, 2.7755575615628914e-17], '
    '"certificate": {"contacts": [[0.69999999999999996, 0], '
    '[4.286263797015736e-17, 0.69999999999999996], [-0.69999999999999996, '
    '8.572527594031472e-17], [-1.2858791391047207e-16, '
    '-0.69999999999999996]], "multipliers": [0.49999999999999994, '
    '0.49999999999999994, 0.49999999999999972, 0.50000000000000011], '
    '"passed": true, "residuals": {"centroid_eq": 3.1401849173675503e-16, '
    '"contact_membership": 2.2204460492503131e-16, "feasibility": '
    '2.2204460492503131e-16, "matrix_eq": 3.1401849173675498e-16, '
    '"multiplier_sum": 4.4408920985006262e-16}}, "ellipsoid": {"center": '
    '[-2.9951277046623466e-17, 2.7755575615628914e-17], "dim": 2, "shape": '
    '[[2.0408163265306127, -1.2496395909666874e-16], '
    '[-1.2496395909666874e-16, 2.0408163265306127]]}, "invariant": true, '
    '"orbit": [[0.69999999999999996, 0], [4.286263797015736e-17, '
    '0.69999999999999996], [-0.69999999999999996, 8.572527594031472e-17], '
    '[-1.2858791391047207e-16, -0.69999999999999996]]}')

SYMMETRY_SHIFTED = (
    '{"center": [3, -1], "certificate": {"contacts": [[7, 2], [-1, 2], [6, '
    '-5], [0, 3], [0, -5]], "multipliers": [0.55357142857142838, '
    '0.44642857142857101, 0.42857142857142849, 0.12500000000000036, '
    '0.4464285714285714], "passed": true, "residuals": {"centroid_eq": '
    '1.0874739515221724e-16, "contact_membership": 0, "feasibility": 0, '
    '"matrix_eq": 1.7567149044104223e-16, "multiplier_sum": '
    '2.2204460492503131e-16}}, "ellipsoid": {"center": [3, -1], "dim": 2, '
    '"shape": [[0.040000000000000001, 0], [0, 0.040000000000000001]]}, '
    '"invariant": true, "orbit": [[7, 2], [7, -4], [-1, 2], [-1, -4], [6, '
    '3], [6, -5], [0, 3], [0, -5]]}')


def _shifted_square_group():
    # the square's symmetries moved to sit at (3, -1): offsets (I - L) c
    from extremal_ellipsoids import (AffineMap, FiniteGroup,
                                     signed_permutation_group)

    c0 = np.array([3.0, -1.0])
    return FiniteGroup(tuple(AffineMap(g.linear, (np.eye(2) - g.linear) @ c0)
                             for g in signed_permutation_group(2)))


@pytest.mark.parametrize("case", ["named", "explicit", "shifted"])
def test_symmetry_output_bytes(capsys, tmp_path, case):
    from extremal_ellipsoids import dihedral_group, group_to_dict

    payload, expected = {
        "named": ({"group": "signed-permutation", "dim": 2, "x": [0.9, 0.4]},
                  SYMMETRY_NAMED),
        "explicit": ({**group_to_dict(dihedral_group(4)), "x": [0.7, 0.0]},
                     SYMMETRY_EXPLICIT),
        "shifted": ({**group_to_dict(_shifted_square_group()),
                     "x": [7.0, 2.0]}, SYMMETRY_SHIFTED),
    }[case]
    path = write_json(tmp_path, "sym.json", payload)
    assert run(capsys, "symmetry", "--input", path) == (0, expected + "\n")


# ---------------------------------------------------------------------------
# Oracle.

def test_oracle_command_matches_closed_form(capsys):
    code, out = run_json(capsys, "oracle", "--dim", "2",
                         "--alpha", "-0.5", "--beta", "0.5")
    assert code == 0
    assert abs(out["tau"]) <= 1e-6
    assert out["a"] == pytest.approx(2.0, abs=1e-6)
    assert out["b"] == pytest.approx(2.0 / 3.0, abs=1e-6)


def test_oracle_command_rejects_low_resolution(capsys):
    code, out = run_json(capsys, "oracle", "--dim", "2", "--alpha", "-0.5",
                         "--beta", "0.5", "--resolution", "16")
    assert (code, out["error"]["code"]) == (2, "invalid-value")
