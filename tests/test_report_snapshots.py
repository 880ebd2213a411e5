"""Byte-identical CLI reports against committed snapshots.

Each snapshot is the full `--emit both` output (text, then JSON) of one
fixture under one set of options, so eliminants, components, reduced bases,
multipliers, membership verdicts and remainders are all pinned, under every
strategy toggle, with and without debug checks.  The files are expected
output: a change that alters any of them changes what the engine reports
and must say why.
"""

import pathlib

import pytest

from eliminant.cli import EXIT_OK, main
from eliminant.pseudo import DEBUG_ENV

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
SNAPSHOTS = FIXTURES / "snapshots"

CASES = {
    "simple.both": ("simple.ideal",),
    "modular.both": ("modular.ideal",),
    "twovars.both": ("twovars.ideal",),
    "modular.no-coprime-skip": ("modular.ideal", "--strategy", "no-coprime-skip"),
    "modular.no-triangular-skip": ("modular.ideal", "--strategy", "no-triangular-skip"),
    "modular.no-chi-delta": ("modular.ideal", "--strategy", "no-chi-delta"),
    "modular.no-base-change": ("modular.ideal", "--strategy", "no-base-change"),
    "simple.membership": ("simple.ideal", "--membership", str(FIXTURES / "probes.txt")),
    # probes of both components: substitution in the compatible one, gcd-division in the modular one
    "modular.membership": ("modular.ideal", "--membership", str(FIXTURES / "modular_probes.txt")),
    "twovars.lift-pseudo": ("twovars.ideal", "--lift", "pseudo"),
    # grevlex on the tail block, over GF(5), with two composite divisors
    "grevlex_gf5.both": ("grevlex_gf5.ideal",),
    # modular runs that rebase while pairs are queued
    **{
        f"rebase.{name}.{tag}": (f"rebase/{name}.ideal", *options)
        for name in ("gf2_unit_a", "gf2_unit_b", "q_extra_z")
        for tag, options in (("both", ()), ("no-base-change", ("--strategy", "no-base-change")))
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_snapshot(name, capsys):
    _check_snapshot(name, capsys)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_snapshot_with_debug_checks(name, capsys, monkeypatch):
    """Debug mode reports exactly what the served path reports."""
    monkeypatch.setenv(DEBUG_ENV, "1")
    _check_snapshot(name, capsys)


def _check_snapshot(name, capsys):
    fixture, *options = CASES[name]
    assert main([str(FIXTURES / fixture), "--emit", "both", *options]) == EXIT_OK
    expected = (SNAPSHOTS / f"{name}.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected
