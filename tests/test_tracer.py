"""bench/tracer.py: every traced function still exists and a traced verify run counts."""

import importlib.util
import pathlib
import sys

import quiverlim as ql

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("tracer", ROOT / "bench" / "tracer.py")
tracer_mod = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer_mod)


def test_tracer_wraps_a_verify_run():
    # a traced function that was deleted or renamed breaks the traced
    # benchmark only, so resolve every name and count one traced verify run
    for modname, fns in tracer_mod.SPAN_LAYERS.values():
        mod = sys.modules[modname]
        for fn in fns:
            assert callable(getattr(mod, fn, None)), f"{modname}.{fn}"
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        tracer.active = True
        report, _ = ql.verify.verify_run(ql.RunConfig(quiver_file="tstar-p1", seed=0))
    finally:
        tracer.active = False
        tracer.uninstall()
    assert tuple(st.name for st in report.suites) == tracer_mod.SUITE_NAMES
    assert tracer.counts["solver.newton_iters"] > 0
    assert {f"verify.suite.{name}" for name in tracer_mod.SUITE_NAMES} <= set(tracer.names)
