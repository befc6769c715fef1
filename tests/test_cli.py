"""Command line round trips, run in process through main()."""
import csv
import io
import json
import math
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from constructa import GridSpec, IndClass, brute_force_oracle, save_scenario, translation_bound
from constructa.cli import _grid, build_parser, main
from helpers import (
    TRUTH_C,
    TRUTH_D,
    double_double,
    double_plus_single,
    driven_scenario,
    each_in,
    four_singles,
    oracle_transforms,
    same_transform,
    scen,
    single_collinear_on,
    three_singles,
    triple_plus_single,
    two_anchor_clipped_both,
    two_anchor_two_loops,
    zero_coefficient_three_singles,
)
from constructa import RigidTransform2

FAST_GRID = ["--grid-cell", "0.02", "--phi-cells", "90"]


def _write(tmp_path, s, name="scene.json"):
    path = tmp_path / name
    save_scenario(s, path)
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _sol(payload, i=0):
    d = payload["solutions"][i]
    return RigidTransform2(d["dx"], d["dy"], d["phi"])


def test_analyze_unique_scenario(tmp_path, capsys):
    path = _write(tmp_path, double_double())
    code, out, err = _run(capsys, ["analyze", path])
    assert code == 0
    assert err == ""
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["command"] == "analyze"
    assert len(payload["input_sha256"]) == 64
    assert payload["verdict"] == "ConstructibleGeneric"
    assert payload["ind"] == {"count": 1, "family_dim": 0, "rendered": "Ind(1)"}
    assert payload["raw_counts"] == [2, 2]
    assert payload["counting_sufficient"] is True
    assert payload["degenerate_case"] is None
    assert payload["critical_line_hit"] is False
    assert payload["pathologies"]["rotation"] is False
    assert payload["pathologies"]["translation"] is False
    assert payload["families"] == []
    assert same_transform(_sol(payload), TRUTH_D, tol_xy=1e-6, tol_phi=1e-6)


def test_analyze_ambiguous_scenario_exits_two(tmp_path, capsys):
    path = _write(tmp_path, double_plus_single())
    code, out, _ = _run(capsys, ["analyze", path])
    assert code == 2
    payload = json.loads(out)
    assert payload["ind"]["rendered"] == "Ind(4)"
    assert len(payload["solutions"]) == 4


def test_analyze_output_is_deterministic(tmp_path, capsys):
    path = _write(tmp_path, double_plus_single())
    _, first, _ = _run(capsys, ["analyze", path])
    _, second, _ = _run(capsys, ["analyze", path])
    assert first == second


def test_analyze_writes_out_file(tmp_path, capsys):
    path = _write(tmp_path, double_double())
    dest = tmp_path / "report.json"
    code, out, _ = _run(capsys, ["analyze", path, "--out", str(dest)])
    assert code == 0
    assert out == ""
    payload = json.loads(dest.read_text())
    assert payload["command"] == "analyze"


def test_localize_methods_agree(tmp_path, capsys):
    path = _write(tmp_path, three_singles())
    by_method = {}
    for extra in (["--method", "auto"], ["--method", "multistart"],
                  ["--method", "oracle", *FAST_GRID]):
        code, out, _ = _run(capsys, ["localize", path, *extra])
        assert code == 2
        payload = json.loads(out)
        by_method[payload["method"]] = payload
    assert set(by_method) == {"three-singles", "multistart", "grid-oracle"}
    for payload in by_method.values():
        assert payload["ind"]["count"] == 2
        assert any(
            same_transform(_sol(payload, i), TRUTH_C, tol_xy=1e-4, tol_phi=1e-4)
            for i in range(2)
        )


def test_analyze_three_singles_with_a_constant_entry(tmp_path, capsys):
    # the linear system's products differ in degree here; the closed form still finds what a fine grid finds
    s = zero_coefficient_three_singles()
    code, out, err = _run(capsys, ["analyze", _write(tmp_path, s)])
    assert (code, err) == (2, "")
    payload = json.loads(out)
    assert (payload["method"], payload["ind"]["rendered"]) == ("three-singles", "Ind(2)")
    oracle = brute_force_oracle(s, GridSpec(nxy=161, phi_cells=320))
    assert oracle.ind_class == IndClass.finite(2)
    assert each_in([_sol(payload, i) for i in range(2)], oracle_transforms(oracle), 1e-6, 1e-6)


def test_localize_unique_exits_zero(tmp_path, capsys):
    path = _write(tmp_path, double_double())
    code, out, _ = _run(capsys, ["localize", path])
    assert code == 0
    payload = json.loads(out)
    assert payload["ind"]["rendered"] == "Ind(1)"


def test_gramian_full_rank(tmp_path, capsys):
    path = _write(tmp_path, driven_scenario())
    code, out, _ = _run(capsys, ["gramian", path])
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 3
    assert payload["null_basis"] == []
    assert len(payload["eigenvalues"]) == 3
    assert payload["eigenvalues"] == sorted(payload["eigenvalues"])
    labels = [d["label"] for d in payload["singular_directions"]]
    assert labels == [f"rotation about anchor {i}" for i in (1, 2, 3)]
    assert not any(d["annihilated"] for d in payload["singular_directions"])


def test_gramian_numeric_cross_check(tmp_path, capsys):
    path = _write(tmp_path, driven_scenario())
    code, out, _ = _run(capsys, ["gramian", path, "--numeric"])
    assert code == 0
    payload = json.loads(out)
    assert payload["numeric_max_diff"] < 1e-6


def test_gramian_singular_exits_two(tmp_path, capsys):
    s = scen([(0.0, 0.0)], [(1.0, 0.0), (0.5, 1.0), (1.2, 0.8)], [1, 1, 1])
    path = _write(tmp_path, s)
    code, out, _ = _run(capsys, ["gramian", path])
    assert code == 2
    payload = json.loads(out)
    assert payload["rank"] == 2
    assert payload["singular_directions"][0]["annihilated"] is True


def test_gramian_placement_flag(tmp_path, capsys):
    # at identity the first sample sits on anchor 1; the true placement moves
    # it off, so the report only exists with --placement
    path = _write(tmp_path, double_double())
    code, _, err = _run(capsys, ["gramian", path])
    assert code == 1
    assert err.startswith("error:")
    code, out, _ = _run(
        capsys, ["gramian", path, "--placement", "0.15,-0.35,0.9"]
    )
    assert code == 0
    assert json.loads(out)["rank"] == 3


def test_plotdata_family_csv(tmp_path, capsys):
    path = _write(tmp_path, two_anchor_two_loops())
    code, out, _ = _run(capsys, ["plotdata", path, "--what", "family",
                                 "--samples", "64"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["loop", "dx", "dy", "phi"]
    body = rows[1:]
    assert len(body) == 128
    assert {r[0] for r in body} == {"0", "1"}
    assert all(math.isfinite(float(v)) for r in body for v in r[1:])


def test_plotdata_locus_csv(tmp_path, capsys):
    path = _write(tmp_path, three_singles())
    code, out, _ = _run(capsys, ["plotdata", path, "--what", "locus",
                                 "--samples", "32"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["arc", "branch", "phi", "dx", "dy", "g"]
    assert len(rows) == 1 + 128
    assert all(len(r) == 6 for r in rows[1:])


def test_plotdata_oracle_csv(tmp_path, capsys):
    path = _write(tmp_path, double_double())
    dest = tmp_path / "oracle.csv"
    code, out, _ = _run(capsys, ["plotdata", path, "--what", "oracle",
                                 *FAST_GRID, "--out", str(dest)])
    assert code == 0
    assert out == ""
    rows = list(csv.reader(io.StringIO(dest.read_text())))
    assert rows[0] == ["kind", "index", "dx", "dy", "phi", "residual", "rank"]
    body = rows[1:]
    assert len(body) == 1
    kind, _, dx, dy, phi, residual, rank = body[0]
    assert kind == "isolated"
    found = RigidTransform2(float(dx), float(dy), float(phi))
    assert same_transform(found, TRUTH_D, tol_xy=1e-5, tol_phi=1e-5)
    assert float(residual) < 1e-7
    assert rank == "3"


def test_simulate_then_analyze_recovers_truth(tmp_path, capsys):
    bare = replace(double_double(), measurements=None)
    path = _write(tmp_path, bare)
    sim = tmp_path / "sim.json"
    code, out, _ = _run(capsys, ["simulate", path, "--truth", "0.15,-0.35,0.9",
                                 "--out", str(sim)])
    assert code == 0
    code, out, _ = _run(capsys, ["analyze", str(sim)])
    assert code == 0
    payload = json.loads(out)
    assert same_transform(_sol(payload), TRUTH_D, tol_xy=1e-6, tol_phi=1e-6)


def test_simulate_noise_is_seeded(tmp_path, capsys):
    bare = replace(double_double(), measurements=None)
    path = _write(tmp_path, bare)
    args = ["simulate", path, "--truth", "0.1,0.2,0.3", "--noise", "0.02"]
    _, first, _ = _run(capsys, [*args, "--seed", "7"])
    _, again, _ = _run(capsys, [*args, "--seed", "7"])
    _, other, _ = _run(capsys, [*args, "--seed", "8"])
    assert first == again
    assert first != other


def test_noisy_roundtrip_with_loose_gate(tmp_path, capsys):
    bare = replace(double_double(), measurements=None)
    path = _write(tmp_path, bare)
    sim = tmp_path / "noisy.json"
    _run(capsys, ["simulate", path, "--truth", "0.15,-0.35,0.9",
                  "--noise", "0.01", "--seed", "3", "--out", str(sim)])
    code, out, _ = _run(capsys, ["analyze", str(sim), "--tol-accept", "0.05"])
    assert code == 0
    payload = json.loads(out)
    assert same_transform(_sol(payload), TRUTH_D, tol_xy=0.1, tol_phi=0.05)


def test_missing_file_is_an_error(tmp_path, capsys):
    code, out, err = _run(capsys, ["analyze", str(tmp_path / "nope.json")])
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_bad_truth_string_is_an_error(tmp_path, capsys):
    path = _write(tmp_path, replace(double_double(), measurements=None))
    code, _, err = _run(capsys, ["simulate", path, "--truth", "1,2"])
    assert code == 1
    assert "error:" in err


def test_grid_flag_mapping():
    s = double_double()
    parser = build_parser()
    args = parser.parse_args(["localize", "x.json", "--grid-extent", "1.5",
                              "--grid-cell", "0.05", "--phi-cells", "72"])
    g = _grid(args, s)
    assert g.extent == 1.5
    assert g.nxy == 61
    assert g.phi_cells == 72
    args = parser.parse_args(["localize", "x.json"])
    assert _grid(args, s) is None
    args = parser.parse_args(["localize", "x.json", "--grid-cell", "0.05"])
    g = _grid(args, s)
    assert g.extent is None
    reach = 1.05 * translation_bound(s) + 0.25
    assert g.nxy == max(9, 2 * math.ceil(reach / 0.05) + 1)




def _assert_rejected(code, out, err):
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1


def _raw(tmp_path, s):
    return json.loads(Path(_write(tmp_path, s)).read_text())


def _write_raw(tmp_path, raw):
    path = tmp_path / "raw.json"
    path.write_text(json.dumps(raw))
    return str(path)


def test_non_finite_number_is_an_error(tmp_path, capsys):
    raw = _raw(tmp_path, double_double())
    raw["points_v"][2]["x"] = math.nan
    _assert_rejected(*_run(capsys, ["analyze", _write_raw(tmp_path, raw)]))
    # and on the command line: gates, grid sizes, noise and seeds must be finite and in range
    path = _write(tmp_path, double_double())
    for argv in (
        ["analyze", path, "--tol-accept", "nan"],
        ["localize", path, "--method", "multistart", "--tol-accept", "inf"],
        ["localize", path, "--method", "oracle", "--grid-extent", "nan"],
        ["localize", path, "--method", "oracle", "--grid-cell", "0"],
        ["localize", path, "--method", "oracle", "--grid-cell", "nan"],
        ["localize", path, "--method", "oracle", "--grid-cell", "-1"],
        # rasters of 4.0e12 and 6.1e10 cells, and a cell count that overflows a float
        ["localize", path, "--method", "oracle", "--phi-cells", "100000000"],
        ["localize", path, "--method", "oracle", "--grid-cell", "1e-4"],
        ["localize", path, "--method", "oracle", "--grid-cell", "1e-310"],
        ["simulate", path, "--truth", "0.1,0.2,0.3", "--noise", "nan"],
        ["localize", path, "--method", "multistart", "--seed", "-1"],
        ["simulate", path, "--truth", "0,0,0", "--noise", "0.1", "--seed", "-1"],
        # placements on the command line
        ["gramian", path, "--placement", "inf,0,0"],
        ["simulate", path, "--truth", "nan,0,0"],
    ):
        _assert_rejected(*_run(capsys, argv))


def test_overflowing_lengths_are_an_error(tmp_path, capsys):
    # one fixture per closed-form route that squares lengths: one anchor on collinear points, a 1+1 family
    # cut on both sides, 2+1, 3+1, 1+1+1 and 1+1+1+1
    for make in (single_collinear_on, two_anchor_clipped_both, double_double, triple_plus_single, three_singles,
                 four_singles):
        raw = _raw(tmp_path, make())
        for item in raw["anchors"] + raw["points_v"]:
            item["x"] *= 1e200
            item["y"] *= 1e200
        raw["rho"] = [r * 1e200 for r in raw["rho"]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy overflow warning fails the test
            _assert_rejected(*_run(capsys, ["analyze", _write_raw(tmp_path, raw)]))
    # an oracle box whose residuals a float32 raster cannot hold, on both verbs that raster
    path = _write(tmp_path, double_double())
    for extent in ("1e40", "1e308"):
        for argv in (["localize", path, "--method", "oracle"], ["plotdata", path, "--what", "oracle"]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                _assert_rejected(*_run(capsys, [*argv, "--grid-extent", extent]))
    # a box that still fits gives the right answer, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, ["localize", path, "--method", "oracle", "--grid-extent", "1e20"])
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["ind"]["rendered"] == "Ind(1)"
    assert payload["warnings"] == []


def test_integer_too_long_to_convert_is_an_error(tmp_path, capsys):
    text = json.dumps(_raw(tmp_path, double_double())).replace('"schedule": [1', '"schedule": [' + "1" * 5000, 1)
    path = tmp_path / "long.json"
    path.write_text(text)
    _assert_rejected(*_run(capsys, ["analyze", str(path)]))


def test_placement_values_may_start_with_a_minus_sign(tmp_path, capsys):
    path = _write(tmp_path, replace(double_double(), measurements=None))
    sim = tmp_path / "sim.json"
    code, _, _ = _run(capsys, ["simulate", path, "--truth", "-0.3,0.2,0.1", "--out", str(sim)])
    assert code == 0
    code, out, _ = _run(capsys, ["gramian", str(sim), "--placement", "-0.3,0.2,0.1"])
    assert code == 0
    assert json.loads(out)["rank"] == 3


def test_usage_error_is_rejected_input(tmp_path, capsys):
    path = _write(tmp_path, double_double())
    # --max-step went with the integrator whose step it set; only localize (for
    # multistart) and simulate read a seed
    for argv in (
        ["analyze", path, "--no-such-flag"],
        ["gramian", path, "--numeric", "--max-step", "0.01"],
        ["analyze", path, "--seed", "-1"],
        ["plotdata", path, "--what", "family", "--seed", "0"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        _assert_rejected(exc.value.code, captured.out, captured.err)
