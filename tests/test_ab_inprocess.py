"""Smoke test of `tools/ab_inprocess.py`: an A/A run, and B sides whose reports differ."""

import json
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "ab_inprocess.py"


def _run(a, b, *options):
    return subprocess.run(
        [sys.executable, str(TOOL), str(a), str(b), "--ideals", "3", "--rounds", "1", *options],
        capture_output=True,
        text=True,
        timeout=300,
        # the tool refuses to time the debug checks
        env={k: v for k, v in os.environ.items() if k != "ELIMINANT_DEBUG_CHECKS"},
    )


def test_a_a_run_covers_every_workload_with_identical_reports():
    done = _run(ROOT, ROOT)
    assert done.returncode == 0, done.stderr
    results = json.loads(done.stdout.splitlines()[-1])
    assert sorted(results) == ["compat_q", "member_q", "modular_gf"]
    for res in results.values():
        assert res["identical"] and res["ideals"] == 3
        for kind in ("ideal", "probe", "per_probe"):
            s = res[kind]
            assert 0 < s["a_p50_ms"] <= s["a_p95_ms"] and 0 < s["b_p50_ms"] <= s["b_p95_ms"]
            assert 0 < s["ratio_median"] < 100
        # a probe takes part of its ideal's summed probe time
        for side in "ab":
            assert res["per_probe"][f"{side}_p50_ms"] <= res["probe"][f"{side}_p95_ms"]


def _changed_tree(tmp_path, patch: str):
    """A copy of the package with `patch` appended to its `__init__.py`."""
    other = tmp_path / "tree"
    shutil.copytree(ROOT / "src" / "eliminant", other / "src" / "eliminant",
                    ignore=shutil.ignore_patterns("__pycache__"))
    init = other / "src" / "eliminant" / "__init__.py"
    init.write_text(init.read_text() + patch)
    return other


def test_a_changed_report_is_flagged(tmp_path):
    # the reports differ in their bytes only, in no JSON value
    other = _changed_tree(tmp_path, (
        "\nfrom . import cli\n_to_json = cli.PipelineReport.to_json\n"
        "cli.PipelineReport.to_json = lambda self: _to_json(self) + ' '\n"))
    done = _run(ROOT, other, "--workload", "compat_q")
    assert done.returncode == 1, done.stderr
    results = json.loads(done.stdout.splitlines()[-1])
    assert list(results) == ["compat_q"] and not results["compat_q"]["identical"]
    assert results["compat_q"]["differing"] == {"count": 3, "first": [0, 1, 2], "keys": ["formatting"]}


def test_differing_pool_indices_and_keys_are_named(tmp_path):
    # the order is renamed in every report and each verdict flipped: all 7
    # ideals differ, the first 5 are named, with both keys
    other = _changed_tree(tmp_path, (
        "\nfrom . import cli\n_to_json = cli.PipelineReport.to_json\n"
        "cli.PipelineReport.to_json = lambda self: _to_json(self).replace("
        "'\"order\": \"lex\"', '\"order\": \"LEX\"')\n"
        "_is_member = is_member\n"
        "is_member = lambda f, dec: not _is_member(f, dec)\n"))
    done = _run(ROOT, other, "--workload", "compat_q", "--ideals", "7")
    assert done.returncode == 1, done.stderr
    results = json.loads(done.stdout.splitlines()[-1])
    assert list(results) == ["compat_q"] and not results["compat_q"]["identical"]
    assert results["compat_q"]["differing"] == {
        "count": 7, "first": [0, 1, 2, 3, 4], "keys": ["order", "verdicts"]}
    assert "7 differ, first at pool indices 0, 1, 2, 3, 4; keys: order, verdicts" in done.stdout


def _differential(a, b, ideals: int):
    done = subprocess.run(
        [sys.executable, str(TOOL), str(a), str(b), "--differential", "1", "--ideals", str(ideals)],
        capture_output=True, text=True, timeout=300,
        env={k: v for k, v in os.environ.items() if k != "ELIMINANT_DEBUG_CHECKS"},
    )
    return done, json.loads(done.stdout.splitlines()[-1])


TOGGLE_SETS = ["default", "no-base-change", "no-chi-delta", "no-chi-delta,no-base-change",
               "no-coprime-skip", "no-triangular-skip"]


def test_differential_a_a_run_finds_no_difference():
    done, results = _differential(ROOT, ROOT, 6)
    assert done.returncode == 0, done.stderr
    assert sorted(results) == TOGGLE_SETS
    for classes in results.values():
        assert sorted(classes) == ["components", "eliminant", "tails", "verdicts"]
        assert all(c == {"count": 0, "first": []} for c in classes.values())


def test_differential_sorts_differences_into_tails_and_verdicts(tmp_path):
    # the printed bases change after their leading terms only: tails, which
    # pass; flipped verdicts fail the run
    tails = _changed_tree(tmp_path / "tails", (
        "\nimport json as _json\nfrom . import cli\n_to_json = cli.PipelineReport.to_json\n"
        "def _padded(self):\n"
        "    report = _json.loads(_to_json(self))\n"
        "    for comp in report.get('components', []):\n"
        "        comp['basis'] = [b + ' + 0' for b in comp['basis']]\n"
        "    return _json.dumps(report)\n"
        "cli.PipelineReport.to_json = _padded\n"))
    done, results = _differential(ROOT, tails, 6)
    assert done.returncode == 0, done.stderr
    for classes in results.values():
        assert classes["tails"]["count"] > 0
        assert all(classes[c]["count"] == 0 for c in ("eliminant", "components", "verdicts"))
    flipped = _changed_tree(tmp_path / "flipped", (
        "\n_is_member = is_member\nis_member = lambda f, dec: not _is_member(f, dec)\n"))
    done, results = _differential(ROOT, flipped, 6)
    assert done.returncode == 1, done.stderr
    for classes in results.values():
        assert classes["verdicts"]["count"] > 0 and classes["tails"]["count"] == 0
    assert "verdicts" in done.stdout
