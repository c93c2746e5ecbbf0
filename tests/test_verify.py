"""The composite verification pipeline and its file outputs."""

import json
import pathlib

import numpy as np
import pytest

import quiverlim as ql

ROOT = pathlib.Path(__file__).resolve().parents[1]

EXPECTED_SUITES = [
    "genericity", "sampling", "adjoint_identities", "solver_uniqueness",
    "twistor_rotation", "fixed_point_flow", "dimension_audit", "isotropy",
    "slice_correction", "attracting_slice", "conformal_convergence",
    "gauge_invariance", "escape_rates",
]


def test_all_suites_pass(verify_tstar):
    cfg, report, pipeline, out = verify_tstar
    assert [s.name for s in report.suites] == EXPECTED_SUITES
    failed = [s.name for s in report.suites if not s.passed]
    assert not failed, f"failed suites: {failed}"
    assert report.all_passed


def test_report_dict_shape(verify_tstar):
    cfg, report, pipeline, out = verify_tstar
    data = report.to_dict()
    assert data["quiver"] == "tstar-p1"
    assert data["all_passed"] is True
    assert data["config_sha256"] == cfg.digest()
    assert "output_dir" not in data["config"]
    assert len(data["suites"]) == len(EXPECTED_SUITES)
    for s in data["suites"]:
        assert set(s) >= {"name", "passed", "worst_residual"}


def test_output_files(verify_tstar, tmp_path):
    cfg, report, pipeline, out = verify_tstar
    ql.write_outputs(report, pipeline, str(tmp_path))
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["convergence.csv", "dimension_audit.csv",
                     "fingerprints.csv", "flow_trace.csv", "report.json"]
    parsed = json.loads((tmp_path / "report.json").read_text())
    assert parsed["all_passed"] is True
    conv = (tmp_path / "convergence.csv").read_text().splitlines()
    assert conv[0] == ("hbar,R,distance,start_solve,rotation_real,"
                      "rotation_complex,rescale_complex,final_solve")
    # one row per (hbar, R) pair
    assert len(conv) == 1 + len(cfg.hbar_grid) * len(cfg.r_grid)
    audit = (tmp_path / "dimension_audit.csv").read_text().splitlines()
    assert audit[1].startswith("tstar-p1,4,4,2,")


@pytest.mark.parametrize("quiver", ["tstar-p1", "bench/quivers/a3_chain.json"])
def test_outputs_are_reproducible(tmp_path, quiver):
    # same config apart from the destination, fresh run: identical bytes in
    # every artifact
    spec = str(ROOT / quiver) if quiver.endswith(".json") else quiver
    for run in ("a", "b"):
        out = str(tmp_path / run)
        report, pipeline = ql.verify_run(
            ql.RunConfig(quiver_file=spec, seed=0, output_dir=out))
        ql.write_outputs(report, pipeline, out)
    for name in ("report.json", "convergence.csv", "dimension_audit.csv",
                 "fingerprints.csv", "flow_trace.csv"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, name


def test_wall_quiver_fails_genericity_only():
    report, pipeline = ql.verify_run(ql.RunConfig(quiver_file="a2-wall", seed=0))
    assert not report.all_passed
    by_name = {s.name: s for s in report.suites}
    assert not by_name["genericity"].passed
    others = [s for s in report.suites if s.name != "genericity"]
    assert all(s.passed for s in others)


def test_verify_accepts_quiver_file(tmp_path):
    pre = ql.get_preset("tstar-p1")
    path = tmp_path / "q.json"
    path.write_text(json.dumps(ql.quiver_to_dict(pre.quiver, pre.dims, pre.central)))
    report, pipeline = ql.verify_run(ql.RunConfig(quiver_file=str(path), seed=0))
    assert report.all_passed


def test_rigid_quiver_passes_vacuously(tmp_path):
    # zero-dimensional moduli: the slice suites have nothing to test and
    # must say so instead of reporting a phantom prerequisite failure
    path = tmp_path / "rigid.json"
    path.write_text(json.dumps({
        "vertices": 2, "edges": [[0, 1]], "v": [1, 1], "w": [1, 0],
        "sigma": [1.5, -0.5], "c": [[0.0, 0.0], [0.0, 0.0]],
    }))
    report, pipeline = ql.verify_run(ql.RunConfig(quiver_file=str(path), seed=0))
    assert report.all_passed
    notes = {s.name: s.note for s in report.suites}
    for name in ("slice_correction", "attracting_slice",
                 "conformal_convergence", "escape_rates"):
        assert "zero-dimensional" in notes[name]
