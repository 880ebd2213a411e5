"""The benchmark's tracer still finds the engine functions it wraps.

`perfbench/tracer.py` binds its wrappers by module and function name, so a
rename or a move of a traced target would make traced benchmark runs read
zero for that layer.  This test fails instead.
"""

import pathlib
import sys

import eliminant
from eliminant import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "fixtures"

TRACED = (
    "parser.parse_ideal_file",
    "compat.compatible_split",
    "compat.lc_compatibility_check",
    "pseudo.pseudo_divide",
    "pqr.proper_divide",
    "assembly.gcd_reduce",
    "assembly.make_reduced",
    "assembly.is_member",
    "pseudo.pseudo_eliminant",
    "pqr.proper_eliminant",
)


def test_tracer_binds_engine_targets(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    sys.modules.pop("tracer", None)
    import tracer

    trace = tracer.Tracer()
    trace.install()
    try:
        for name in ("simple.ideal", "modular.ideal"):
            # looked up at call time, as the benchmark does
            ideal = eliminant.parse_ideal_file((FIXTURES / name).read_text())
            report = cli.run_pipeline(ideal)
            report.to_json()
            assert eliminant.is_member(ideal.generators[0], report.decomposition)
    finally:
        trace.restore()
    totals = trace.totals()
    for name in TRACED:
        assert totals[name][0] >= 1, f"{name} recorded no call"
    assert tracer.installed_wrappers() == []
