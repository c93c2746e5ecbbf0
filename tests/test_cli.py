"""Command-line entry points, exit codes, and JSON artifacts."""

import argparse
import csv
import json

import numpy as np
import pytest

import quiverlim as ql
from quiverlim.cli import build_parser, main
from quiverlim.config import IDENTITY_TOL

from conftest import NON_ROOT_VERTEX, NON_ROOTS, quiver_spec, write_quiver

# the optional flags of each subcommand: the RunConfig fields its handler
# reads (--out is output_dir), plus --hbar and --path
SEEDED = ["--out", "--seed"]
FLAGS = {
    "check": ["--out"],
    "sample": SEEDED,
    "flow": SEEDED,
    "fixed": SEEDED,
    "bb-basis": SEEDED,
    "climit": ["--hbar", "--max-len", "--out", "--seed"],
    "family": ["--grid", "--hbar", "--max-len", "--out", "--seed"],
    "invariants": ["--max-len", "--out", "--seed"],
    "escape": ["--out", "--path", "--seed"],
    "verify": ["--grid", "--hbar-grid", "--max-len", "--out", "--seed"],
}


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
    assert data["expected_exponent"] == 1
    assert data["mismatch"] <= IDENTITY_TOL and data["outside"] <= IDENTITY_TOL
    assert data["passed"] is True
    assert "PASS" in out


def test_escape_fails_on_a_wrong_family(capsys, monkeypatch, tmp_path):
    # a family that divides its degree-1 slots by hbar twice blows up one
    # order too fast; escape must say FAIL and exit 1
    family = ql.invariants.conformal_flat

    def wrong(inc, hbar):
        flat = family(inc, hbar)
        return np.where(inc.p0.layout.scaled, flat / hbar, flat)
    monkeypatch.setattr(ql.invariants, "conformal_flat", wrong)
    code, out, err = run(capsys, "escape", "kronecker2", "--path", "L:h0.h0~",
                         "--out", str(tmp_path))
    assert code == 1
    assert "FAIL" in out
    data = json.loads((tmp_path / "escape.json").read_text())
    assert data["passed"] is False
    assert data["mismatch"] > IDENTITY_TOL


@pytest.mark.parametrize("path", ["Q:zz", "P:c5.j5", "L:h3.h3~", "P:c-1.j-1"])
def test_escape_bad_path(capsys, path):
    # tstar-p1 has one vertex and no edges, so c5, h3 and c-1 name no slot
    code, out, err = run(capsys, "escape", "tstar-p1", "--path", path)
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (("invariants", "tstar-p1", "--max-len", "0"), "max_len must be at least 1"),
    (("climit", "tstar-p1", "--max-len", "0"), "max_len must be at least 1"),
    (("family", "tstar-p1", "--grid", "0.1,0.2"), "r_grid must be strictly decreasing"),
    (("family", "a3-star", "--grid", "inf,0.1"), "r_grid entries must be finite"),
    (("family", "a3-star", "--grid", "0.4,nan"), "r_grid entries must be finite"),
    (("verify", "a3-star", "--hbar-grid", "1,nan"), "hbar_grid entries must be finite"),
    (("climit", "a3-star", "--hbar", "nan"), "hbar must be finite and nonzero"),
    (("climit", "a3-star", "--hbar", "inf"), "hbar must be finite and nonzero"),
], ids=["invariants-max-len", "climit-max-len", "family-grid", "family-grid-inf",
        "family-grid-nan", "verify-hbar-grid-nan", "climit-hbar-nan", "climit-hbar-inf"])
def test_common_options_validated_for_every_command(capsys, argv, message):
    # main builds one RunConfig from the options a command reads, so its
    # rules refuse a bad value before any computation
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_each_command_registers_only_the_flags_it_reads():
    ap = build_parser()
    sub, = (a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    flags = {name: sorted(opt for a in p._actions for opt in a.option_strings
                          if opt not in ("-h", "--help"))
             for name, p in sub.choices.items()}
    assert flags == FLAGS
    assert sum(map(len, flags.values())) == 29


def test_unread_flag_refused(capsys):
    # flow reads no max_len, and no command reads a tolerance
    for argv in (("flow", "tstar-p1", "--max-len", "9"),
                 ("verify", "tstar-p1", "--tol", "1e-10")):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[2:])}" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_every_command_runs_with_defaults(capsys, command):
    extra = ("--path", "P:c0.j0") if command == "escape" else ()
    code, out, err = run(capsys, command, "tstar-p1", *extra)
    assert code == 0, err
    assert err == ""


@pytest.mark.parametrize("command", ["bb-basis", "climit", "family"])
def test_commands_run_on_the_point_quiver(capsys, tmp_path, command):
    # every rep-space axis of tests/quivers/point.json has length 0
    code, out, err = run(capsys, command, quiver_spec("tests/quivers/point.json"),
                         "--out", str(tmp_path))
    assert code == 0, err


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


@pytest.mark.parametrize("name, as_file", [
    pytest.param("tstar-p1", True, id="tstar-p1"),
    pytest.param("a3-star", True, id="a3-star"),
    *(pytest.param(name, False, id=f"preset-{name}")
      for name in ("tstar-p1", "a2-star", "kronecker2", "a3-star")),
])
def test_climit_matches_verify_limit(capsys, tmp_path, name, as_file):
    # on a preset as on a quiver file the CLI builds the fixed point, grading
    # and attracting increment as verify does, so both report the same
    # conformal limit
    path = name
    if as_file:
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


@pytest.mark.parametrize("name", sorted(NON_ROOTS))
def test_check_refuses_a_non_root(capsys, tmp_path, name):
    # the expected dimension is positive; the root test names the vertex
    path = write_quiver(tmp_path, name, NON_ROOTS[name])
    code, out, err = run(capsys, "check", path)
    assert code == 1
    assert out == ""
    assert err.startswith("error: EmptyVariety: (v, 1) is not a root of the framed quiver")
    assert f"reflecting at vertex {NON_ROOT_VERTEX[name]} makes its entry negative" in err


GOOD_FILE = {"vertices": 2, "edges": [[0, 1]], "v": [1, 1], "w": [1, 1],
             "sigma": [1.0, -1.0], "c": [[0.0, 0.0], [0.0, 0.0]]}
MALFORMED_FILES = {
    # each entry: (the change to GOOD_FILE, the field the error names)
    "vertices-float": ({"vertices": 2.7}, "vertices"),
    "edge-end-float": ({"edges": [[0, 1.9]]}, "edges"),
    "edge-not-pair": ({"edges": [[0]]}, "edges"),
    "edges-not-list": ({"edges": 1}, "edges"),
    "v-float": ({"v": [1.5, 2]}, "v"),
    "w-bool": ({"w": [True, 0]}, "w"),
    "sigma-string-nan": ({"sigma": ["nan", 1.0]}, "sigma"),
    "sigma-nan": ({"sigma": [float("nan"), 1.0]}, "sigma"),
    "c-short-pair": ({"c": [[1]]}, "c"),
    "c-inf": ({"c": [[0.0, float("inf")], 0.0]}, "c"),
    "c-string": ({"c": ["1", 0.0]}, "c"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_FILES) + ["top-level-list"])
def test_malformed_quiver_file_refused_by_field(capsys, tmp_path, name):
    # a file whose fields have the wrong type is refused before anything
    # reads it, with a ValueError that names the field (exit 2)
    if name == "top-level-list":
        data, field = [GOOD_FILE], "JSON object"
    else:
        change, field = MALFORMED_FILES[name]
        data = {**GOOD_FILE, **change}
    code, out, err = run(capsys, "check", write_quiver(tmp_path, name, data))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and field in err
    assert "Traceback" not in err


def test_well_formed_quiver_file_is_checked(capsys, tmp_path):
    code, out, err = run(capsys, "check", write_quiver(tmp_path, "good", GOOD_FILE))
    assert code == 0 and err == ""


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
