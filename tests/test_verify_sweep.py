"""scripts/verify_sweep.py: its output lines, and --compare matching entries by key."""

import hashlib
import importlib.util
import json
import pathlib
import re
import sys

import pytest

import quiverlim as ql

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "verify_sweep", ROOT / "scripts" / "verify_sweep.py")
sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sweep)

REPORT = {"config": {"seed": 0, "tol": 1e-10}, "config_sha256": "abc",
          "suites": [{"name": "sampling", "passed": True, "worst_residual": 0.999}]}
CSV = {
    "dimension_audit.csv": "quiver,expected_real\ntstar-p1,4\n",
    "flow_trace.csv": "R,shrinking_energy,fixed_point_residual\n0.5,2.0,1e-3\n",
    "convergence.csv": "hbar,R,distance\n1.0,0.4,0.25\n1.0,0.2,0.0625\n",
    "fingerprints.csv": "path,fixed_point_value,conformal_limit_value\n"
                        "P:c0.j0,1e-16,3.5\nL:h0.h0~,0.0,7.25\n",
}


def _write(directory: pathlib.Path, report: dict, csvs: dict) -> str:
    directory.mkdir()
    (directory / "report.json").write_text(json.dumps(report))
    for name, text in csvs.items():
        (directory / name).write_text(text)
    return str(directory)


def test_identical_trees_have_no_differences(tmp_path):
    a = _write(tmp_path / "a", REPORT, CSV)
    b = _write(tmp_path / "b", REPORT, CSV)
    assert sweep._moves(a, b) == ((0.0, "-"), [])


def test_compare_survives_a_change_of_layout(tmp_path):
    # three differences: a dropped JSON key, a dropped CSV column, and one
    # shared number moved by 1e-3 relative
    new_report = json.loads(json.dumps(REPORT))
    del new_report["config"]["tol"]
    new_report["suites"][0]["worst_residual"] = 1.0
    new_csv = dict(CSV, **{"fingerprints.csv": "path,conformal_limit_value\n"
                                               "P:c0.j0,3.5\nL:h0.h0~,7.25\n"})
    old = _write(tmp_path / "old", REPORT, CSV)
    new = _write(tmp_path / "new", new_report, new_csv)
    (move, where), other = sweep._moves(old, new)
    assert move == pytest.approx(1e-3, rel=1e-9)
    assert where == "report.json:/suites/0/worst_residual"
    assert other == ["report.json /config/tol: old side only",
                     "fingerprints.csv column fixed_point_value: old side only"]


def test_non_finite_change_is_another_difference(tmp_path):
    # a failing suite reports an infinite worst residual; its relative move
    # is undefined, so it is listed rather than lost
    failed = json.loads(json.dumps(REPORT))
    failed["suites"][0]["worst_residual"] = float("inf")
    old = _write(tmp_path / "old", REPORT, CSV)
    new = _write(tmp_path / "new", failed, CSV)
    assert sweep._moves(old, new) == (
        (0.0, "-"), ["report.json /suites/0/worst_residual: 0.999 -> inf"])
    assert sweep._moves(new, new) == ((0.0, "-"), [])


def test_summary_gives_the_largest_move_per_file(tmp_path, capsys):
    # run 0 moves flow_trace.csv completely (its rows pair different R),
    # run 1 moves one report.json number by 1e-3: the summary's overall
    # maximum names the first, and its per-file part still shows the second
    moved_flow = dict(CSV, **{"flow_trace.csv": "R,shrinking_energy,fixed_point_residual\n"
                                                "0.125,2.0,1e-3\n"})
    moved_report = json.loads(json.dumps(REPORT))
    moved_report["suites"][0]["worst_residual"] = 1.0
    for n, (report, csvs) in enumerate([(REPORT, moved_flow), (moved_report, CSV)]):
        (tmp_path / "old").mkdir(exist_ok=True)
        (tmp_path / "new").mkdir(exist_ok=True)
        _write(tmp_path / "old" / str(n), REPORT, CSV)
        _write(tmp_path / "new" / str(n), report, csvs)
    lines = {"old": ["a3-star 0 PPP", "a3-star 1 PPP"],
             "new": ["a3-star 0 PPP", "a3-star 1 PPP"]}
    assert sweep._report(lines, str(tmp_path)) == 0
    summary = capsys.readouterr().out.splitlines()[-1]
    assert summary == (
        "summary: verdicts same on 2/2 runs, max_rel=7.50e-01 "
        "at=a3-star:0:flow_trace.csv:1:R, other differences on 0 runs; per file: "
        "report.json max_rel=1.00e-03 at=a3-star:1:/suites/0/worst_residual, "
        "dimension_audit.csv max_rel=0.00e+00 at=-, "
        "flow_trace.csv max_rel=7.50e-01 at=a3-star:0:1:R, "
        "convergence.csv max_rel=0.00e+00 at=-, "
        "fingerprints.csv max_rel=0.00e+00 at=-")


@pytest.mark.parametrize("new_lines, said", [
    (["a3-star 0 PPP", "a3-star 1 PFP"], "summary: verdicts same on 1/2 runs"),
    (["a3-star 0 PPP", "a3-star 1 PPP", "a3-star 2 PPP"],
     "line counts differ: old 2, new 3; the first 2 runs are compared"),
    (["a3-star 0 PPP"], "line counts differ: old 2, new 1; the first 1 runs are compared"),
], ids=["verdict", "extra_run", "lost_run"])
def test_compare_fails_on_a_verdict_or_a_lost_run(tmp_path, capsys, new_lines, said):
    # numbers that do not move leave only the verdicts and the run count to decide
    for side in ("old", "new"):
        (tmp_path / side).mkdir()
        for n in range(3):
            _write(tmp_path / side / str(n), REPORT, CSV)
    lines = {"old": ["a3-star 0 PPP", "a3-star 1 PPP"], "new": new_lines}
    assert sweep._report(lines, str(tmp_path)) == 1
    assert said in capsys.readouterr().out


def test_sweep_prints_digests_on_stdout_and_its_time_on_stderr(tmp_path, monkeypatch,
                                                              capsys):
    # standard output is one line per run and nothing else, so two sweeps
    # still diff line by line; the wall time, the peak RSS and the source
    # tree go to standard error
    monkeypatch.setattr(sweep, "QUIVERS", ("tstar-p1",))
    monkeypatch.setattr(sweep, "SEEDS", range(1))
    monkeypatch.setattr(sweep, "WALL_RUNS", ())
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.chdir(ROOT)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    assert sweep.main(["--out", str(tmp_path)]) == 0
    out, err = capsys.readouterr()
    digests = [hashlib.sha256((tmp_path / "0" / name).read_bytes()).hexdigest()
               for name in sweep.ARTEFACTS]
    report = json.loads((tmp_path / "0" / "report.json").read_text())
    verdicts = "".join("P" if st["passed"] else "F" for st in report["suites"])
    assert out == " ".join(["tstar-p1", "0", *digests, verdicts]) + "\n"
    assert re.fullmatch(r"sweep of 1 runs: \d+\.\d\d s wall time, \d+\.\d MB peak RSS, "
                        r"src (.+)\n", err).group(1) == str(ROOT / "src")


def test_generated_sweep_prints_one_line_per_input_and_a_summary(monkeypatch, capsys):
    # the first two generated inputs: each line names the input and its 13
    # verdicts (or the error that refused it), and the summary counts each
    # input once under its first failing suite
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.chdir(ROOT)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    assert sweep.main(["--generated", "2"]) == 0
    out, err = capsys.readouterr()
    *lines, summary = out.splitlines()
    inputs = sweep._generated_inputs(ql, 2)
    assert len(lines) == len(inputs) == 2
    for line, (quiver, dims, zeta) in zip(lines, inputs):
        edges, v, w, sigma, outcome = line.split()
        assert edges == "edges=" + ";".join(f"{a}>{b}" for a, b in quiver.edges)
        assert (v, w) == ("v=" + ",".join(map(str, dims.v)), "w=" + ",".join(map(str, dims.w)))
        assert sigma == "sigma=" + ",".join(f"{s:g}" for s in zeta.sigma)
        assert re.fullmatch(r"[PF]{13}|[A-Za-z]+", outcome)
    assert lines[0].endswith(" " + "P" * 13)
    counts = re.fullmatch(r"summary: 2 generated inputs at seed 0, by first failing "
                          r"suite: (.+)", summary).group(1)
    assert sum(int(part.rsplit(" ", 1)[1]) for part in counts.split(", ")) == 2
    assert err.startswith("generated sweep of 2 inputs: ")
