"""The composite verification pipeline and its file outputs."""

import json

import numpy as np
import pytest

import quiverlim as ql

from conftest import COMMITTED_QUIVERS, is_nilpotent_by_paths, quiver_spec

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
    spec = quiver_spec(quiver)
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


# the verdict net: every suite must pass on each committed quiver over
# seeds 0-11 (the former log-log fit of the escape rates failed on 29 of
# these 72 runs)
@pytest.mark.parametrize("quiver, seed", [
    (quiver, seed) for quiver in COMMITTED_QUIVERS for seed in range(12)])
def test_every_suite_passes_on_committed_quivers(quiver, seed):
    spec = quiver_spec(quiver)
    report, _ = ql.verify_run(ql.RunConfig(quiver_file=spec, seed=seed))
    assert [s.name for s in report.suites] == EXPECTED_SUITES
    failed = {s.name: s.note for s in report.suites if not s.passed}
    assert not failed


def test_a4_chain_passes_without_long_path_walks(monkeypatch):
    # rep dim 62: the paths up to 2 sum(v) = 20 tokens number 3.6 million,
    # so every path walk must stay at the configured max_len
    lengths = []
    enumerate_paths = ql.invariants.enumerate_paths

    def recorded(quiver, dims, max_len, kind):
        lengths.append(max_len)
        return enumerate_paths(quiver, dims, max_len, kind)
    monkeypatch.setattr(ql.invariants, "enumerate_paths", recorded)
    monkeypatch.setattr(ql.verify, "enumerate_paths", recorded)
    for seed in range(3):
        cfg = ql.RunConfig(quiver_file=quiver_spec("tests/quivers/a4_chain.json"), seed=seed)
        report, _ = ql.verify_run(cfg)
        assert [s.name for s in report.suites] == EXPECTED_SUITES
        assert not {s.name: s.note for s in report.suites if not s.passed}, seed
    assert lengths and max(lengths) <= cfg.max_len


@pytest.mark.parametrize("seed", range(2))
def test_oriented_cycle_fails_escape_as_not_nilpotent(seed):
    # the oriented 3-cycle keeps the degree-0 trace of B2 B1 B0 at the
    # scaling limit, so its limit point is not nilpotent
    report, pipeline = ql.verify_run(ql.RunConfig(
        quiver_file=quiver_spec("tests/quivers/cycle3.json"), seed=seed))
    by_name = {s.name: s for s in report.suites}
    assert not by_name["escape_rates"].passed
    assert by_name["escape_rates"].worst == 1.0
    # the note names the surviving 3-cycle trace and its size
    assert by_name["escape_rates"].note == (
        "scaling limit point is not nilpotent; L:h0.h1.h2 has size "
        + ("8.564e-03", "4.095e-01")[seed])
    assert not ql.is_nilpotent(pipeline.p0)
    assert not is_nilpotent_by_paths(pipeline.p0)


@pytest.mark.parametrize("seed", range(2))
def test_point_quiver_passes_every_suite(seed):
    # A2 with v = (0, 0): the variety is one point and every rep-space axis
    # has length 0
    report, _ = ql.verify_run(ql.RunConfig(
        quiver_file=quiver_spec("tests/quivers/point.json"), seed=seed))
    assert [s.name for s in report.suites] == EXPECTED_SUITES
    assert not {s.name: s.note for s in report.suites if not s.passed}


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


def test_sampling_fault_fails_its_dependents_by_name(monkeypatch):
    # the sampling stage raises: it reports the error by type, the two
    # suites that draw their own points still pass, and every suite that
    # builds on the sample names the stage it is missing
    def faulty(*args, **kwargs):
        raise ql.SamplingFailed("injected")
    monkeypatch.setattr(ql.verify, "sample_on_variety", faulty)
    report, _ = ql.verify_run(ql.RunConfig(quiver_file="a3-star", seed=0))
    assert [(s.name, s.note) for s in report.suites] == [
        ("genericity", ""),
        ("sampling", "SamplingFailed: injected"),
        ("adjoint_identities", ""),
        ("solver_uniqueness", "prerequisite failed: sampling"),
        ("twistor_rotation", "prerequisite failed: sampling"),
        ("fixed_point_flow", "prerequisite failed: sampling"),
        ("dimension_audit", "prerequisite failed: sampling or grading"),
        ("isotropy", "prerequisite failed: attracting basis"),
        ("slice_correction", "prerequisite failed: tangent basis"),
        ("attracting_slice", "prerequisite failed: attracting basis"),
        ("conformal_convergence", "prerequisite failed: attracting slice"),
        ("gauge_invariance", "prerequisite failed: sampling"),
        ("escape_rates", "prerequisite failed: attracting slice"),
    ]
    passed = {s.name for s in report.suites if s.passed}
    assert passed == {"genericity", "adjoint_identities"}
    assert all(s.worst == np.inf for s in report.suites if not s.passed)


def test_linalg_error_in_one_suite_fails_that_suite_only(monkeypatch):
    # an error type no stage raises on purpose still becomes the suite's
    # verdict, and the run goes on with every other suite as before
    cfg = ql.RunConfig(quiver_file="a3-star", seed=0)
    clean, _ = ql.verify_run(cfg)

    def faulty(*args, **kwargs):
        raise np.linalg.LinAlgError("injected")
    monkeypatch.setattr(ql.verify, "slice_solve", faulty)
    report, _ = ql.verify_run(cfg)
    faulted = {s.name: s for s in report.suites}["slice_correction"]
    assert faulted.to_dict() == {"name": "slice_correction", "passed": False,
                                 "worst_residual": np.inf,
                                 "note": "LinAlgError: injected"}
    assert ([s.to_dict() for s in report.suites if s.name != "slice_correction"]
            == [s.to_dict() for s in clean.suites if s.name != "slice_correction"])
