"""The benchmark's tracer still finds the engine functions it wraps.

`perfbench/tracer.py` binds its wrappers by module and function name, so a
rename or a move of a traced target would make traced benchmark runs read
zero for that layer, or fail to install.  These tests fail instead.
"""

import importlib
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


def _tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    sys.modules.pop("tracer", None)
    return importlib.import_module("tracer")


def _src_module(name):
    mod = importlib.import_module(name)
    assert (ROOT / "src") in pathlib.Path(mod.__file__).resolve().parents, mod.__file__
    return mod


def test_every_tracer_target_resolves_in_src(monkeypatch):
    tracer = _tracer(monkeypatch)
    for modname, fname in tracer.SPAN_FUNCTIONS:
        fn = vars(_src_module(modname)).get(fname)
        assert callable(fn) and fn.__module__ == modname, f"{modname}.{fname}"
    methods = list(tracer.SPAN_METHODS)
    for targets in tracer.COUNTED_METHODS.values():
        methods.extend(targets)
    for modname, cname, meth in methods:
        cls = vars(_src_module(modname)).get(cname)
        assert isinstance(cls, type) and callable(vars(cls).get(meth)), f"{modname}.{cname}.{meth}"


def test_tracer_binds_engine_targets(monkeypatch):
    tracer = _tracer(monkeypatch)

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
