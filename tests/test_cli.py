import json
import math

import numpy as np
import pytest
from scipy.spatial import ConvexHull

import kpv.cli
import kpv.configurations
from kpv.asymptotics import CheckReport, laurent_fit
from kpv.ball_volumes import BallSystem, mc_ball_volume
from kpv.cli import (EXIT_INPUT, EXIT_NUMERICAL, EXIT_OK, EXIT_VERIFY_FAILED,
                     ExperimentSpec, main, run)
from kpv.configurations import (PointConfiguration, is_expansion, load_configuration,
                                random_expansion, save_configuration)
from kpv.truncated_volume import RadiusGrid

from conftest import two_disk_union


@pytest.fixture
def two_disks(tmp_path):
    path = tmp_path / "two.json"
    path.write_text(json.dumps(
        {"dimension": 2, "points": [[0.0, 0.0], [1.0, 0.0]], "label": "pair"}))
    return str(path)


def test_volume_report_two_disks(two_disks, tmp_path):
    out = tmp_path / "report.json"
    code = main(["volume", "--config", two_disks, "--r", "1.0",
                 "--method", "voronoi_ode", "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    row = report["results"]["volumes"][0]
    assert row["union"] == pytest.approx(two_disk_union(1.0, 1.0), rel=1e-6)
    assert report["parameters"]["method"] == "voronoi_ode"
    assert report["version"]


def test_consecutive_calls_share_no_list(two_disks, tmp_path, monkeypatch):
    # the argument parser is built once per process; each call's lists are its own
    specs = []
    monkeypatch.setattr(kpv.cli, "run", lambda spec: specs.append(spec) or EXIT_OK)
    other = str(tmp_path / "other.json")
    assert main(["volume", "--config", two_disks, "--r", "1.5", "--r", "2.5"]) == EXIT_OK
    assert main(["volume", "--config", other, "--config", two_disks, "--r", "4.0"]) == EXIT_OK
    assert main(["meanwidth"]) == EXIT_OK
    first, second, third = specs
    assert first.inputs == [two_disks] and first.parameters["r"] == [1.5, 2.5]
    assert second.inputs == [other, two_disks] and second.parameters["r"] == [4.0]
    assert third.inputs == [] and third.parameters["r"] is None
    assert first.inputs is not second.inputs
    assert first.parameters["r"] is not second.parameters["r"]
    assert kpv.cli._PARSER.get_default("config") == []


def test_reports_are_byte_identical(two_disks, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code = main(["verify", "csikos", "--config", two_disks,
                     "--seed", "7", "--out", str(path)])
        assert code == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_malformed_input_exits_2_no_partial_output(tmp_path):
    bad = tmp_path / "bad.json"
    out = tmp_path / "never.json"
    # a ragged row is an input error, not a crash
    for text in ("{not json", json.dumps({"dimension": 2, "points": [[0.0, 0.0], [1.0]]})):
        bad.write_text(text)
        code = main(["volume", "--config", str(bad), "--r", "1.0", "--out", str(out)])
        assert code == EXIT_INPUT
        assert not out.exists()


def test_each_configuration_computes_its_distance_matrix_once(tmp_path, monkeypatch):
    # every reader (diameter, duplicate-site check, expansion and congruence
    # tests, default radii) shares the matrix a configuration keeps
    calls = []
    compute = kpv.configurations.distance_matrix

    def spy(config):
        calls.append(config)
        return compute(config)
    monkeypatch.setattr(kpv.configurations, "distance_matrix", spy)
    p = PointConfiguration.from_points([[0.0, 0.0], [1.0, 0.0], [0.3, 0.8]])
    q = random_expansion(p, seed=3, magnitude=0.1)
    paths = [tmp_path / "p.json", tmp_path / "q.json"]
    for config, path in zip((p, q), paths):
        save_configuration(config, path)
    out = str(tmp_path / "report.json")
    # threshold: p and q; verify all: the sites and their lift into E^4
    for argv, count in ((["threshold", "--config", str(paths[0]), "--config", str(paths[1])], 2),
                        (["verify", "all", "--config", str(paths[0])], 2),
                        (["volume", "--config", str(paths[0]), "--r", "1.5"], 1)):
        calls.clear()
        assert main(argv + ["--out", out]) == EXIT_OK
        assert len(calls) == count, argv[0]


def test_missing_config_exits_2(tmp_path):
    code = main(["volume", "--r", "1.0"])
    assert code == EXIT_INPUT


def test_verify_failure_exit_code(two_disks, tmp_path, monkeypatch):
    # a false claim: its gap exceeds its tolerance
    false_claim = CheckReport(claim="csikos", lhs=1.0, rhs=0.0, gap=1.0, tolerance=1e-9,
                              passed=False)
    monkeypatch.setattr(kpv.cli, "verify_csikos", lambda config: [false_claim])
    out = tmp_path / "rep.json"
    code = main(["verify", "csikos", "--config", two_disks, "--out", str(out)])
    assert code == EXIT_VERIFY_FAILED
    report = json.loads(out.read_text())
    assert report["results"]["all_pass"] is False
    assert out.exists()                  # report written even on failed checks


def test_boundary_at_a_breakpoint_is_read(two_disks, tmp_path):
    # r = 0.5 is the bisector distance, a breakpoint of both region profiles:
    # the disks touch, so the union's boundary is two whole circles and the
    # intersection (one point) has none
    out = tmp_path / "rep.json"
    code = main(["boundary", "--config", two_disks, "--r", "0.5", "--out", str(out)])
    assert code == EXIT_OK
    (row,) = json.loads(out.read_text())["results"]["boundaries"]
    assert row["union_boundary"] == pytest.approx(2.0 * math.pi, rel=1e-12)
    assert abs(row["intersection_boundary"]) <= 1e-12


def test_generate_roundtrip(two_disks, tmp_path):
    prefix = str(tmp_path / "pair")
    code = main(["generate", "--config", two_disks, "--seed", "5",
                 "--magnitude", "0.25", "--out", prefix])
    assert code == EXIT_OK
    p = load_configuration(prefix + "_p.json")
    q = load_configuration(prefix + "_q.json")
    assert is_expansion(p, q, tol=0.0)
    meta = json.loads((tmp_path / "pair_q.json").read_text())["metadata"]
    assert meta["seed"] == 5 and meta["magnitude"] == 0.25


def test_generate_zero_magnitude_identity(two_disks, tmp_path):
    prefix = str(tmp_path / "same")
    main(["generate", "--config", two_disks, "--seed", "1",
          "--magnitude", "0.0", "--out", prefix])
    p = load_configuration(prefix + "_p.json")
    q = load_configuration(prefix + "_q.json")
    assert np.array_equal(p.points, q.points)


def test_generate_deterministic(two_disks, tmp_path):
    for name in ("g1", "g2"):
        main(["generate", "--config", two_disks, "--seed", "42",
              "--magnitude", "0.3", "--out", str(tmp_path / name)])
    q1 = (tmp_path / "g1_q.json").read_text()
    q2 = (tmp_path / "g2_q.json").read_text()
    assert q1 == q2


def test_csv_and_json_contain_identical_values(two_disks, tmp_path):
    jpath, cpath = tmp_path / "m.json", tmp_path / "m.csv"
    main(["meanwidth", "--config", two_disks, "--out", str(jpath)])
    main(["meanwidth", "--config", two_disks, "--out", str(cpath), "--format", "csv"])
    value_json = json.loads(jpath.read_text())["results"]["value"]
    rows = dict(line.split(",", 1) for line in
                cpath.read_text().strip().splitlines()[1:])
    assert float(rows["results.value"]) == value_json == 2.0


def test_csv_and_json_reports_carry_the_same_float_text(two_disks, tmp_path):
    # radii from 1e-5 (volumes in exponent form, intersections exactly 0 below
    # the onset at 0.5) to 1e7 (volumes past 1e12, also in exponent form)
    jpath, cpath = tmp_path / "v.json", tmp_path / "v.csv"
    for path, fmt in ((jpath, "json"), (cpath, "csv")):
        assert main(["volume", "--config", two_disks, "--r-grid", "1e-5:1e7:40",
                     "--out", str(path), "--format", fmt]) == EXIT_OK

    class FloatText:
        """A float of the JSON report as its text, which CSV rows take as str()."""

        def __init__(self, text):
            self.text = text

        def __str__(self):
            return self.text

    want: list = []
    kpv.cli._flatten("", json.loads(jpath.read_text(), parse_float=FloatText,
                                    parse_constant=FloatText), want)
    lines = cpath.read_text().splitlines()
    assert lines[0] == "key,value"
    got = [tuple(line.split(",", 1)) for line in lines[1:]]
    assert len(got) == len(want) and dict(got) == dict(want)
    floats = [val for key, val in want if key.startswith("results.volumes")]
    assert "0.0" in floats and any("e" in val for val in floats)


def test_csv_writes_non_finite_floats_and_numpy_values_as_json_does(tmp_path):
    path = tmp_path / "r.csv"
    kpv.cli._write_report({"a": math.nan, "b": (np.float64(math.inf), -math.inf),
                           "c": np.array(0.5), "d": np.array([[np.float32(0.1)]])},
                          str(path), "csv")
    assert path.read_text() == ("key,value\na,NaN\nb[0],Infinity\nb[1],-Infinity\n"
                                "c,0.5\nd[0][0],0.10000000149\n")


def test_threshold_command(two_disks, tmp_path):
    qpath = tmp_path / "expanded.json"
    qpath.write_text(json.dumps(
        {"dimension": 2, "points": [[0.0, 0.0], [1.3, 0.0]]}))
    out = tmp_path / "thr.json"
    code = main(["threshold", "--config", two_disks, "--config", str(qpath),
                 "--r-grid", "1.0:300.0:8", "--out", str(out)])
    assert code == EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["results"]["all_hold"] is True
    assert rep["results"]["strictness_margin"] > 0


def test_threshold_of_single_sites_runs_from_one(tmp_path):
    # a pair of single sites has diameter 0: the default grid runs from 1 to 1000
    paths = []
    for name, point in (("p", [0.0, 0.0]), ("q", [2.0, 1.0])):
        paths += ["--config", str(tmp_path / f"{name}.json")]
        (tmp_path / f"{name}.json").write_text(json.dumps({"dimension": 2, "points": [point]}))
    out = tmp_path / "thr.json"
    assert main(["threshold", *paths, "--out", str(out)]) == EXIT_OK
    res = json.loads(out.read_text())["results"]
    assert res["r0"] == 1.0
    assert res["checked_grid"][-1] == pytest.approx(1000.0, rel=1e-12)
    assert res["congruent"] is True


# a full-dimensional simplex in E^4: np.eye(4) alone spans only a 3-flat
SIMPLEX_4D = np.vstack([np.zeros(4), np.eye(4)])


def test_meanwidth_quadrature_command(two_disks, tmp_path):
    out = tmp_path / "q.json"
    code = main(["meanwidth", "--config", two_disks, "--method", "quadrature",
                 "--nodes", "2048", "--out", str(out)])
    assert code == EXIT_OK
    res = json.loads(out.read_text())["results"]
    assert res["value"] == pytest.approx(2.0, abs=3 * res["stderr"])


def test_meanwidth_auto_reports_nodes_only_when_quadrature_ran(two_disks, tmp_path):
    exact, quad = tmp_path / "e.json", tmp_path / "q.json"
    # a triangle placed in E^4 spans a plane: its mean width is exact too
    planar = tmp_path / "planar4.json"
    save_configuration(PointConfiguration.from_points(
        [[0.0, 1.0, 0.0, 2.0], [1.0, 0.0, 0.5, 2.0], [0.0, 0.0, 1.0, 2.0]]), planar)
    for config in (two_disks, str(planar)):
        assert main(["meanwidth", "--config", config, "--out", str(exact)]) == EXIT_OK
        rep = json.loads(exact.read_text())
        assert rep["results"]["method"] == "exact"
        assert rep["results"]["nodes_used"] == 0
        assert "nodes" not in rep["parameters"] and "seed" not in rep["parameters"]
    simplex = tmp_path / "simplex4.json"
    save_configuration(PointConfiguration.from_points(SIMPLEX_4D), simplex)
    assert main(["meanwidth", "--config", str(simplex), "--nodes", "2048",
                 "--out", str(quad)]) == EXIT_OK
    rep = json.loads(quad.read_text())
    assert rep["results"]["method"] == "quadrature"
    assert rep["results"]["nodes_used"] == 2048
    # the seed the verifiers' quadrature reference uses
    assert rep["parameters"]["nodes"] == 2048 and rep["parameters"]["seed"] == 433494437


def test_meanwidth_rejects_a_bad_node_count_on_every_route(two_disks, tmp_path):
    # the two-site set takes the exact route, which uses no node
    simplex = tmp_path / "simplex4.json"
    save_configuration(PointConfiguration.from_points(SIMPLEX_4D), simplex)
    for config in (two_disks, str(simplex)):
        for method in ("auto", "quadrature"):
            out = tmp_path / "m.json"
            assert main(["meanwidth", "--config", config, "--method", method,
                         "--nodes", "-3", "--out", str(out)]) == EXIT_INPUT
            assert not out.exists()


def test_planar_meanwidth_quadrature_reads_no_seed(two_disks, tmp_path):
    out = tmp_path / "q.json"
    assert main(["meanwidth", "--config", two_disks, "--method", "quadrature",
                 "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["parameters"] == {
        "inputs": [two_disks], "method": "quadrature", "nodes": 200_000}


def test_meanwidth_auto_reports_the_nodes_the_quadrature_used(tmp_path):
    # the antithetic quadrature rounds an odd node count up to whole pairs
    simplex = tmp_path / "simplex4.json"
    save_configuration(PointConfiguration.from_points(SIMPLEX_4D), simplex)
    reports = {}
    for method in ("auto", "quadrature"):
        out = tmp_path / f"{method}.json"
        assert main(["meanwidth", "--config", str(simplex), "--method", method,
                     "--nodes", "5", "--out", str(out)]) == EXIT_OK
        reports[method] = json.loads(out.read_text())["results"]
    assert reports["auto"] == reports["quadrature"]
    assert reports["auto"]["nodes_used"] == 6


def test_asymptotics_command(two_disks, tmp_path):
    # two unit-distance disks: V_union = pi r^2 + 2 r - 1/(12 r) + ..., and
    # the intersection has the opposite odd terms
    out = tmp_path / "a.json"
    code = main(["asymptotics", "--config", two_disks, "--terms", "3", "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["parameters"] == {"inputs": [two_disks], "terms": 3}
    res = report["results"]
    assert set(res) == {"terms", "union", "intersection"}
    for which, sign in (("union", 1.0), ("intersection", -1.0)):
        assert res[which]["powers"] == [2, 1, 0]
        assert res[which]["coefficients"] == pytest.approx([math.pi, sign * 2.0, 0.0],
                                                           rel=1e-3, abs=1e-12)


def test_run_with_spec_object(two_disks):
    spec = ExperimentSpec(command="meanwidth", inputs=[two_disks],
                          parameters={"method": "auto"})
    assert run(spec) == EXIT_OK


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_report_replayable_from_embedded_parameters(two_disks, tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    # the planar rule reads no seed; the 4-d one samples with it
    simplex = tmp_path / "simplex4.json"
    save_configuration(PointConfiguration.from_points(SIMPLEX_4D), simplex)
    for config in (two_disks, str(simplex)):
        main(["meanwidth", "--config", config, "--method", "quadrature", "--nodes", "4096",
              "--out", str(out1)])
        rep = json.loads(out1.read_text())
        params = rep["parameters"]
        # defaults are resolved into the report, so the replay is explicit
        argv = ["meanwidth", "--config", params["inputs"][0], "--out", str(out2)]
        for key, value in params.items():
            if key != "inputs":
                argv += [f"--{key}", str(value)]
        main(argv)
        assert json.loads(out2.read_text())["results"] == rep["results"]


def test_verify_lift_command_writes_report(two_disks, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code = main(["verify", "lift", "--config", two_disks, "--out", str(path)])
        assert code == EXIT_OK
    # the check runs no sampler: no seed or sample count, the same bytes
    assert a.read_bytes() == b.read_bytes()
    report = json.loads(a.read_text())
    assert "samples" not in report["parameters"] and "seed" not in report["parameters"]
    res = report["results"]
    assert len(res["checks"]) == 4             # union and intersection at 2 radii
    assert all(c["pass"] is True for c in res["checks"])
    assert res["all_pass"] is True


@pytest.mark.parametrize("argv, bad", [
    (["volume", "--method", "monte_carlo", "--r", "1.0", "--samples", "0"], "samples"),
    (["meanwidth", "--method", "quadrature", "--nodes", "0"], "nodes"),
    (["asymptotics", "--terms", "0"], "terms"),
], ids=["samples", "nodes", "terms"])
def test_explicit_zero_is_rejected_not_defaulted(argv, bad, two_disks, tmp_path, capsys):
    out = tmp_path / "never.json"
    assert main(argv + ["--config", two_disks, "--out", str(out)]) == EXIT_INPUT
    assert bad in capsys.readouterr().err
    assert not out.exists()


def test_report_lists_only_the_parameters_read(two_disks, tmp_path):
    out = tmp_path / "v.json"
    assert main(["verify", "csikos", "--config", two_disks, "--samples", "10",
                 "--seed", "3", "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["parameters"] == {
        "inputs": [two_disks], "claim": "csikos"}
    assert main(["volume", "--config", two_disks, "--r", "1.0", "--samples", "10",
                 "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["parameters"] == {
        "inputs": [two_disks], "method": "voronoi_ode", "r": [1.0]}


def test_verify_capoyleas_pach_single_point_in_3d(tmp_path):
    path = tmp_path / "one.json"
    save_configuration(PointConfiguration.from_points([[0.5, -1.0, 2.0]]), path)
    out = tmp_path / "v.json"
    assert main(["verify", "capoyleas-pach", "--config", str(path),
                 "--out", str(out)]) == EXIT_OK
    (check,) = json.loads(out.read_text())["results"]["checks"]
    assert check["rhs"] == 0.0 and check["pass"] is True


@pytest.mark.parametrize("points, reason", [
    ([[0, 0], [1, 0], [1, 1], [0, 1]], "proposition needs N <= n+1, got N=4 in E^2"),
    ([[0, 0], [1, 0], [2.5, 0]], "points are not in general position (affinely dependent)"),
], ids=["square", "collinear-triple"])
def test_verify_all_skips_ww_where_it_does_not_apply(points, reason, tmp_path):
    path, out = tmp_path / "p.json", tmp_path / "v.json"
    save_configuration(PointConfiguration.from_points(points), path)
    assert main(["verify", "all", "--config", str(path), "--out", str(out)]) == EXIT_OK
    results = json.loads(out.read_text())["results"]
    assert results["skipped"] == {"ww": reason}
    # capoyleas-pach, csikos and lift: 1 + 3 + 4 checks
    assert results["all_pass"] and len(results["checks"]) == 8
    # on its own the claim still fails
    assert main(["verify", "ww", "--config", str(path), "--out", str(out)]) == EXIT_NUMERICAL


def test_verify_all_runs_ww_where_it_applies(tmp_path):
    path, out = tmp_path / "p.json", tmp_path / "v.json"
    save_configuration(PointConfiguration.from_points([[0, 0], [1, 0], [0.4, 0.8]]), path)
    assert main(["verify", "all", "--config", str(path), "--out", str(out)]) == EXIT_OK
    results = json.loads(out.read_text())["results"]
    assert "skipped" not in results and len(results["checks"]) == 9
    assert "W-sum derivative vanishes at s=0" in [c["claim"] for c in results["checks"]]


def test_monte_carlo_volume_samples_each_radius_once(two_disks, tmp_path):
    out = tmp_path / "mc.json"
    code = main(["volume", "--config", two_disks, "--r-grid", "0.6:1.4:3",
                 "--method", "monte_carlo", "--samples", "20000", "--seed", "5",
                 "--out", str(out)])
    assert code == EXIT_OK
    rows = json.loads(out.read_text())["results"]["volumes"]
    config = load_configuration(two_disks)
    for k, row in enumerate(rows):
        for which in ("union", "intersection"):
            est, se = mc_ball_volume(config, row["r"], which, 20000, 5 + k)
            assert row[which] == pytest.approx(est, rel=1e-11)
            assert row[f"{which}_stderr"] == pytest.approx(se, rel=1e-11)


def test_asymptotics_default_terms_reach_the_hull_area(tmp_path):
    # the default series of a planar set runs to r^0, whose coefficient is the
    # hull area for the union and the intersection alike
    pts = np.random.default_rng(1).uniform(-1, 1, (3, 2))
    path = tmp_path / "tri.json"
    save_configuration(PointConfiguration.from_points(pts), path)
    out = tmp_path / "a.json"
    assert main(["asymptotics", "--config", str(path), "--out", str(out)]) == EXIT_OK
    res = json.loads(out.read_text())["results"]
    assert res["terms"] == 3
    area = ConvexHull(pts).volume
    for which in ("union", "intersection"):
        assert res[which]["powers"] == [2, 1, 0]
        assert res[which]["coefficients"][2] == 0.386891017887
        assert res[which]["coefficients"][2] == pytest.approx(area, rel=1e-11)


@pytest.mark.parametrize("points", [
    [[0.0, 0.0], [2.0, 0.0], [1.0, 1e-3]],
    [[-0.48, -0.4, 0.63], [-0.82, 0.2, 0.46], [-0.62, -0.89, -0.45], [0.31, 0.12, -0.7],
     [-0.13, 0.34, -0.15]],
], ids=["flat-triangle", "3d-N5"])
def test_asymptotics_far_breakpoints_well_conditioned(points, tmp_path):
    """Last breakpoints far out (about 500 and 15): the series is scale-free.

    An independent least-squares fit of V(r)/r^n on [10 R, 1000 R], R the
    last breakpoint, agrees with the reported a_n and a_(n-1).
    """
    cfg = PointConfiguration.from_points(points)
    path = tmp_path / "c.json"
    save_configuration(cfg, path)
    out = tmp_path / "a.json"
    assert main(["asymptotics", "--config", str(path), "--out", str(out)]) == EXIT_OK
    res = json.loads(out.read_text())["results"]
    system = BallSystem(cfg, r_max=np.inf)
    R = float(system.breakpoints[-1])
    window = RadiusGrid(10.0 * R, 1000.0 * R)
    for which, volume in (("union", system.union_volume),
                          ("intersection", system.intersection_volume)):
        fit = laurent_fit(volume, cfg.dimension, 3, window)
        assert res[which]["coefficients"][:2] == pytest.approx(
            fit.coefficients[:2].tolist(), rel=0.01)


@pytest.mark.parametrize("argv", [
    ["volume", "--r-grid", "1:2:0"],
    ["volume", "--r-grid", "0:2:3"],
    ["volume", "--r-grid", "2:1:3"],
    ["volume", "--method", "monte_carlo", "--r", "-1"],
    ["volume", "--r", "-1"],
    ["volume", "--r", "1.0", "--r", "inf"],
    ["boundary", "--r", "-1"],
    ["verify", "lift", "--r", "-2"],
    ["volume", "--r-grid=1:inf:4"],
    ["volume", "--r-grid=1:nan:4"],
    ["threshold", "--r-grid=1:inf:4"],
], ids=["grid-count-0", "grid-from-0", "grid-descending", "mc-negative", "negative",
        "infinite", "boundary-negative", "lift-negative", "grid-infinite", "grid-nan",
        "threshold-grid-infinite"])
def test_bad_radii_are_input_errors(argv, two_disks, tmp_path, capsys):
    out = tmp_path / "never.json"
    configs = ["--config", two_disks] * (2 if argv[0] == "threshold" else 1)
    assert main(argv + configs + ["--out", str(out)]) == EXIT_INPUT
    assert "radi" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["volume", "--method", "monte_carlo", "--r", "1.0", "--samples", "100"],
    ["generate"],
    ["meanwidth", "--method", "quadrature", "--nodes", "64"],
], ids=["volume", "generate", "meanwidth"])
def test_negative_seed_is_an_input_error(argv, tmp_path, capsys):
    path = tmp_path / "tet.json"
    save_configuration(PointConfiguration.from_points(np.vstack([np.zeros(3), np.eye(3)])),
                       path)
    out = tmp_path / "never"
    assert main(argv + ["--seed", "-1", "--config", str(path), "--out", str(out)]) == EXIT_INPUT
    assert "seed must be non-negative" in capsys.readouterr().err
    assert not list(tmp_path.glob("never*"))


@pytest.mark.parametrize("magnitude", ["nan", "inf", "-inf"])
def test_non_finite_magnitude_is_an_input_error(magnitude, two_disks, tmp_path, capsys):
    out = tmp_path / "pair"
    assert main(["generate", "--config", two_disks, f"--magnitude={magnitude}",
                 "--out", str(out)]) == EXIT_INPUT
    assert "magnitude must be finite" in capsys.readouterr().err
    assert not list(tmp_path.glob("pair*"))
