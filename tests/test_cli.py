import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import eliminant.cli as cli
from eliminant.assembly import lift_component_basis
from eliminant.cli import (
    EXIT_INTERNAL,
    EXIT_NOT_ZERO_DIM,
    EXIT_OK,
    EXIT_PARSE,
    main,
    run_pipeline,
)
from eliminant.parser import parse_ideal_file, parse_poly
from eliminant.pqr import NotAUnitError, ZeroElementError

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def run_cli(*args, env=None):
    proc = subprocess.run(
        [sys.executable, "-m", "eliminant.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_exit_codes(tmp_path):
    code, _, _ = run_cli(str(FIXTURES / "simple.ideal"))
    assert code == EXIT_OK

    bad = tmp_path / "bad.ideal"
    bad.write_text("field Q\nvars z < y\nideal:\nx+++\n")
    code, _, err = run_cli(str(bad))
    assert code == EXIT_PARSE and "line" in err

    posdim = tmp_path / "posdim.ideal"
    posdim.write_text("field Q\nvars z < y < x\nideal:\nx+z\n")
    code, _, err = run_cli(str(posdim))
    assert code == EXIT_NOT_ZERO_DIM

    trivial = tmp_path / "trivial.ideal"
    trivial.write_text("field Q\nvars z < y\nideal:\ny\n3\n")
    code, out, _ = run_cli(str(trivial))
    assert code == EXIT_OK and "trivial" in out


def test_positive_dimensional_with_univariate_member_is_answered(tmp_path):
    # documented choice: exit 3 only when no univariate member exists
    from eliminant.buchberger import oracle_member, reduced_groebner

    path = tmp_path / "posdim.ideal"
    path.write_text("field Q\nvars z < y\nideal:\nz^2\ny*z\n")
    probes = tmp_path / "probes.txt"
    probes.write_text("y\nz\nz*y\n1\n")
    code, out, _ = run_cli(str(path), "--emit", "json", "--membership", str(probes))
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["eliminant"] == "z^2"
    assert [comp["basis"] for comp in doc["components"]] == [["z*y"]]
    ideal = parse_ideal_file(path.read_text())
    gb = reduced_groebner(ideal.generators)
    verdicts = [entry["member"] for entry in doc["membership"]]
    assert verdicts == [False, False, True, False]
    assert verdicts == [
        oracle_member(parse_poly(entry["probe"], ideal.ctx), gb) for entry in doc["membership"]
    ]


def test_pretty_multiplier_is_primitive_with_positive_lead():
    from fractions import Fraction

    from eliminant.fields import GF, QQ
    from eliminant.unipoly import UniPoly

    q = UniPoly(QQ, [Fraction(4, 3), Fraction(-2, 3)])
    assert cli._pretty_multiplier(q, "z") == "z - 2"
    assert cli._pretty_multiplier(-q, "z") == "z - 2"
    assert cli._pretty_multiplier(UniPoly(GF(5), [1, 3]), "z") == "z + 2"


def test_byte_identical_reports():
    args = (str(FIXTURES / "modular.ideal"), "--emit", "both")
    _, out1, _ = run_cli(*args)
    _, out2, _ = run_cli(*args)
    assert out1 == out2
    assert "timings" not in out1


def test_debug_checks_verify_triangular_identity():
    # the triangular check's exact quotients need the unreduced multiplier
    # lift: on this valid input its residue mod q does not divide exactly
    args = (str(FIXTURES / "triangular_gf5.ideal"), "--emit", "both")
    code, plain, _ = run_cli(*args)
    assert code == EXIT_OK
    code, checked, err = run_cli(*args, env={**os.environ, "ELIMINANT_DEBUG_CHECKS": "1"})
    assert code == EXIT_OK, err
    assert checked == plain


def test_json_round_trip():
    code, out, _ = run_cli(str(FIXTURES / "simple.ideal"), "--emit", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    ideal = parse_ideal_file((FIXTURES / "simple.ideal").read_text())
    ctx = ideal.ctx
    # every emitted polynomial string parses back
    reparsed = parse_poly(doc["eliminant"], ctx)
    assert reparsed.is_coeff
    for comp in doc["components"]:
        for text in comp["basis"] + comp["lifted_basis"]:
            parse_poly(text, ctx)
    report = run_pipeline(ideal)
    assert parse_poly(doc["pseudo_eliminant"], ctx).as_coeff() == report.pseudo.eliminant


def test_membership_cli():
    code, out, _ = run_cli(
        str(FIXTURES / "simple.ideal"),
        "--membership",
        str(FIXTURES / "probes.txt"),
    )
    assert code == EXIT_OK
    lines = [l for l in out.splitlines() if l.startswith("member")]
    assert len(lines) == 3
    assert "member True" in lines[0] and "member False" in lines[1]


def test_strategy_toggles_cli():
    base = run_cli(str(FIXTURES / "modular.ideal"), "--emit", "json")
    doc = json.loads(base[1])
    for toggles in ("no-coprime-skip", "no-triangular-skip", "no-chi-delta", "no-base-change"):
        code, out, _ = run_cli(
            str(FIXTURES / "modular.ideal"), "--emit", "json", "--strategy", toggles
        )
        assert code == EXIT_OK
        other = json.loads(out)
        assert other["eliminant"] == doc["eliminant"]
    code, _, err = run_cli(str(FIXTURES / "modular.ideal"), "--strategy", "bogus")
    assert code == EXIT_PARSE


def test_lift_flag_and_compare():
    code, out, _ = run_cli(
        str(FIXTURES / "twovars.ideal"),
        "--emit",
        "json",
        "--lift",
        "pseudo",
        "--compare-buchberger",
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["oracle"]["eliminants_agree"] is True


@pytest.mark.parametrize(
    "name, field",
    [
        ("simple.ideal", "Q"),
        ("simple.ideal", "GF 5"),
        ("modular.ideal", "Q"),
        ("modular.ideal", "GF 5"),
        ("triangular_gf5.ideal", "GF 5"),
        ("twovars.ideal", "Q"),
    ],
)
def test_proj_lifted_basis_prints_the_lifted_component_basis(name, field):
    """The default lift form prints each basis as it prints lifted, then the modulus."""
    text = (FIXTURES / name).read_text().replace("field Q", f"field {field}")
    report = run_pipeline(parse_ideal_file(text))
    dec = report.decomposition
    entries = report.to_json_dict()["components"]
    assert len(entries) == len(dec.components)
    for entry, comp in zip(entries, dec.components):
        lifted = lift_component_basis(comp, dec.base_ctx)
        assert entry["lifted_basis"] == [b.fmt() for b in lifted]


def test_timings_flag():
    code, out, _ = run_cli(str(FIXTURES / "simple.ideal"), "--timings")
    assert code == EXIT_OK and "time " in out


def test_trivial_ideal_reports_every_requested_section(tmp_path, capsys):
    ideal = tmp_path / "trivial.ideal"
    ideal.write_text("field Q\nvars z < y\nideal:\ny\ny+1\nz\n")
    probes = tmp_path / "probes.txt"
    probes.write_text("z*y\n1\n")
    args = [str(ideal), "--membership", str(probes), "--compare-buchberger", "--timings"]
    assert main([*args, "--emit", "text"]) == EXIT_OK
    text = capsys.readouterr().out
    assert "ideal      : trivial" in text
    assert "    eliminants agree : True" in text
    assert "member True  : z*y\nmember True  : 1\n" in text
    assert "time pseudo" in text
    assert main([*args, "--emit", "json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["inconsistent"] and doc["oracle"]["eliminants_agree"] is True
    assert [m["member"] for m in doc["membership"]] == [True, True]
    assert "pseudo" in doc["timings"]


def test_main_entry_direct(capsys):
    assert main([str(FIXTURES / "simple.ideal"), "--emit", "text"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "eliminant" in out


@pytest.mark.parametrize(
    "exc",
    [NotAUnitError("no inverse"), ZeroElementError("gcd(0, 0)"), ArithmeticError("inexact")],
    ids=lambda e: type(e).__name__,
)
def test_internal_arithmetic_failure_exits_4(exc, monkeypatch, capsys):
    def fail(*_args, **_kwargs):
        raise exc

    monkeypatch.setattr(cli, "run_pipeline", fail)
    assert main([str(FIXTURES / "simple.ideal")]) == EXIT_INTERNAL
    assert str(exc) in capsys.readouterr().err


@pytest.mark.parametrize(
    "body",
    [
        "field Q\nvars z < y < x\nideal:\nx^100000000\n",
        "field Q\nvars z < y < x\nideal:\nz^100000000\n",
        "field GF 1000000000000000000000000000000000000003\nvars z < y\nideal:\ny - z\nz^2\n",
        "field Q\nvars z < y < x\nideal:\n(x+y+z+1)^1000\n",
        "field Q\nvars z < y < x\nideal:\n((2^1000)^1000)^8*x\n",
        "field Q\nvars z < y < x\nideal:\n(2^1000*x)^1000\n",
        "field Q\nvars z < y < x\nideal:\n(1/3*x+1/2)^1000\n",
    ],
    ids=[
        "tail-exponent",
        "x1-exponent",
        "40-digit-prime",
        "term-count",
        "constant-power",
        "term-power",
        "rational-power",
    ],
)
def test_hostile_inputs_exit_2_quickly(body, tmp_path, capsys):
    path = tmp_path / "hostile.ideal"
    path.write_text(body)
    t0 = time.perf_counter()
    assert main([str(path)]) == EXIT_PARSE
    assert time.perf_counter() - t0 < 1.0
    assert "error" in capsys.readouterr().err


def test_json_report_text_is_json_dumps_indent_2():
    # the emitter against json.dumps on every value kind a report holds, and on whole reports
    odd = {
        "quotes \"and\" \\ slashes\n\ttabs": ["é ü 😀", "\x00\x1f", ""],
        "empty": [{}, [], ()],
        "scalars": [True, False, None, 0, -7, 2**70, 1.5, -0.0, 1e300, 3.141592653589793],
        "nested": {"a": [{"b": [[1], {"c": None}]}], "t": (1, "x")},
    }
    out = []
    cli._emit_json(odd, "\n", out)
    assert "".join(out) == json.dumps(odd, indent=2)
    for name in ("simple.ideal", "modular.ideal", "twovars.ideal", "rebase/q_extra_z.ideal"):
        report = run_pipeline(parse_ideal_file((FIXTURES / name).read_text()))
        if name == "simple.ideal":
            cli.attach_oracle(report)
        report.timings = dict(report._times)
        for lift in ("proj", "pseudo"):
            report.lift_form = lift
            assert report.to_json() == json.dumps(report.to_json_dict(), indent=2)
    ideal = parse_ideal_file((FIXTURES / "simple.ideal").read_text())
    report = run_pipeline(ideal)
    probes = cli.parse_probe_file((FIXTURES / "probes.txt").read_text(), ideal.ctx)
    cli.attach_membership(report, probes)
    assert report.to_json() == json.dumps(report.to_json_dict(), indent=2)
