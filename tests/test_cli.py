"""Command-line entry points, exit codes, and JSON artifacts."""

import csv
import json

import pytest

import quiverlim as ql
from quiverlim.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_generic(capsys, tmp_path):
    code, out, err = run(capsys, "check", "tstar-p1", "--out", str(tmp_path))
    assert code == 0
    assert "generic" in out.lower()
    data = json.loads((tmp_path / "check.json").read_text())
    assert data["generic"] is True


def test_check_wall_stays_informative(capsys):
    code, out, err = run(capsys, "check", "a2-wall")
    assert code == 0
    assert "wall" in out.lower()


def test_check_rejects_missing_file(capsys):
    code, out, err = run(capsys, "check", "/no/such/file.json")
    assert code == 2
    assert "error" in err.lower()


def test_sample_writes_point(capsys, tmp_path):
    code, out, err = run(capsys, "sample", "tstar-p1", "--seed", "3",
                         "--out", str(tmp_path))
    assert code == 0
    data = json.loads((tmp_path / "sample.json").read_text())
    assert data["seed"] == 3
    assert data["residual"] <= 1e-10


def test_flow_reports_fixed_limit(capsys, tmp_path):
    code, out, err = run(capsys, "flow", "tstar-p1", "--out", str(tmp_path))
    assert code == 0
    data = json.loads((tmp_path / "flow.json").read_text())
    assert data["fixed"] is True


def test_fixed_reports_weights(capsys, tmp_path):
    code, out, err = run(capsys, "fixed", "a3-star", "--out", str(tmp_path))
    assert code == 0
    data = json.loads((tmp_path / "fixed.json").read_text())
    assert data["weights"] == [[1], [0, 1], [0]]


def test_bb_basis_counts(capsys, tmp_path):
    code, out, err = run(capsys, "bb-basis", "a3-star", "--out", str(tmp_path))
    assert code == 0
    data = json.loads((tmp_path / "bb_basis.json").read_text())
    assert data["count"] == 2


def test_climit(capsys, tmp_path):
    code, out, err = run(capsys, "climit", "tstar-p1", "--hbar", "0.5",
                         "--out", str(tmp_path))
    assert code == 0
    data = json.loads((tmp_path / "climit.json").read_text())
    assert data["residual"] <= 1e-10


def test_family_slope(capsys, tmp_path):
    code, out, err = run(capsys, "family", "tstar-p1", "--out", str(tmp_path))
    assert code == 0
    data = json.loads((tmp_path / "family.json").read_text())
    assert 1.75 <= data["slope"] <= 2.5


def test_invariants_labels(capsys, tmp_path):
    code, out, err = run(capsys, "invariants", "tstar-p1", "--out", str(tmp_path))
    assert code == 0
    data = json.loads((tmp_path / "invariants.json").read_text())
    pre = ql.get_preset("tstar-p1")
    labels = ql.fingerprint_labels(pre.quiver, pre.dims, data["max_len"])
    assert set(data["fingerprint"]) == set(labels)


def test_escape(capsys, tmp_path):
    code, out, err = run(capsys, "escape", "tstar-p1", "--path", "P:c0.j0",
                         "--out", str(tmp_path))
    assert code == 0
    data = json.loads((tmp_path / "escape.json").read_text())
    assert abs(data["slope"] + 1.0) < 0.2


def test_escape_honours_explicit_grid(capsys, tmp_path):
    # an explicit --grid is used even when it equals the family's default grid
    code, out, err = run(capsys, "escape", "tstar-p1", "--path", "P:c0.j0",
                         "--grid", "0.4,0.2,0.1,0.05", "--out", str(tmp_path))
    assert code == 0
    data = json.loads((tmp_path / "escape.json").read_text())
    assert [h for h, _ in data["rows"]] == [0.4, 0.2, 0.1, 0.05]


def test_escape_bad_path(capsys):
    code, out, err = run(capsys, "escape", "tstar-p1", "--path", "Q:zz")
    assert code == 2


def test_verify_exit_codes(capsys):
    code, out, err = run(capsys, "verify", "tstar-p1")
    assert code == 0
    assert "all suites passed" in out
    code, out, err = run(capsys, "verify", "a2-wall")
    assert code == 1
    assert "FAIL  genericity" in out


def test_verify_cli_matches_library_outputs(capsys, tmp_path, verify_tstar):
    # the CLI run and a library run with the same config produce the same bytes
    cfg, report, pipeline, out = verify_tstar
    d = tmp_path / "cli"
    code, _, _ = run(capsys, "verify", "tstar-p1", "--out", str(d))
    assert code == 0
    for name in ("report.json", "convergence.csv", "dimension_audit.csv",
                 "fingerprints.csv", "flow_trace.csv"):
        assert (d / name).read_bytes() == (out / name).read_bytes(), name


def test_quiver_file_through_cli(capsys, tmp_path):
    pre = ql.get_preset("kronecker2")
    path = tmp_path / "kron.json"
    path.write_text(json.dumps(ql.quiver_to_dict(pre.quiver, pre.dims, pre.central)))
    code, out, err = run(capsys, "check", str(path))
    assert code == 0


def write_quiver(tmp_path, name, data):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("name", ["tstar-p1", "a3-star"])
def test_climit_matches_verify_limit(capsys, tmp_path, name):
    # on a quiver file the CLI builds the fixed point, grading and attracting
    # increment as verify does, so both report the same conformal limit
    pre = ql.get_preset(name)
    path = write_quiver(tmp_path, name,
                        ql.quiver_to_dict(pre.quiver, pre.dims, pre.central))
    code, _, _ = run(capsys, "climit", path, "--hbar", "1.0", "--seed", "0",
                     "--out", str(tmp_path / "climit"))
    assert code == 0
    run(capsys, "verify", path, "--seed", "0", "--out", str(tmp_path / "verify"))
    fp = json.loads((tmp_path / "climit" / "climit.json").read_text())["fingerprint"]
    with open(tmp_path / "verify" / "fingerprints.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    assert {r["path"]: float(r["conformal_limit_value"]) for r in rows} == fp


EMPTY_VARIETIES = {
    # A2 with v=(2,1), w=(1,0): expected dimension -4
    "a2-overfull": {"vertices": 2, "edges": [[0, 1]], "v": [2, 1], "w": [1, 0],
                    "sigma": [1.5, -0.5]},
    # one vertex without framing: expected dimension -4
    "unframed": {"vertices": 1, "edges": [], "v": [1], "w": [0], "sigma": [1.0]},
}


@pytest.mark.parametrize("name", sorted(EMPTY_VARIETIES))
@pytest.mark.parametrize("command", ["check", "verify"])
def test_empty_variety_refused_by_name(capsys, tmp_path, command, name):
    path = write_quiver(tmp_path, name, EMPTY_VARIETIES[name])
    code, out, err = run(capsys, command, path)
    assert code == 1
    assert err.startswith("error: EmptyVariety: expected dimension -4")


@pytest.mark.parametrize("command", ["climit", "family", "escape"])
def test_wall_parameter_refused_by_name(capsys, command):
    # these constructions need a generic parameter; check, fixed and bb-basis
    # still run on a wall
    extra = ("--path", "P:c0.j0") if command == "escape" else ()
    code, out, err = run(capsys, command, "a2-wall", *extra)
    assert code == 1
    assert out == ""
    assert err.startswith("error: OnWall: ")
    assert "wall at root theta=[1, 1]" in err
