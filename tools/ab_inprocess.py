"""Interleaved in-process A/B timing of two source trees on the benchmark pools.

    python3 tools/ab_inprocess.py PARENT_TREE CHANGED_TREE --workload compat_q --seed 701

Each tree's `src/eliminant` is copied under its own package name (`ab_a`,
`ab_b`) into a temporary directory and both are imported into one process,
so both sides share the interpreter, the machine and its drift.  Every pool
ideal of `perfbench/gen.py` goes through both sides once per round, in
alternating order (A first for even ideal + round, B first otherwise): parse,
`run_pipeline`, `to_json`, then its probes through `is_member`.

Per workload it prints the p50 and p95 of the per-ideal best times (the
minimum over rounds) of each side, the median per-ideal ratio B/A, and
whether every JSON report and probe verdict is byte-identical between the
sides; when they are not, the first few pool indices that differ and the
top-level JSON keys (or `verdicts`) that differ there.  Where the workload has probes it prints the same three for the
summed probe time of an ideal (`probe`) and for each probe's own best time
(`per_probe`), the figure that perfbench's `probe_*` metrics count.  The
last line of standard output is one JSON object with those figures per
workload.  An A/A run (one tree twice) shows the noise floor.

    python3 tools/ab_inprocess.py PARENT_TREE CHANGED_TREE --differential 1

`--differential SEED` times nothing.  It compares the full reports of the
first `--ideals` (default 1200) texts that `tests/test_differential.py`'s
`random_ideal_text` draws from `random.Random(SEED)`, each under the six
toggle sets of `STRATEGIES`, with two probes per text built from its
generator lines as that test's `random_probe` builds them.  A refusal is a
report too.  Each differing (text, toggle set) goes into the first class
that applies: `eliminant` (a refusal, or any report key outside the
components), `components` (a component's kind, moduli, proper eliminant or
the leading terms of its basis, or the trivial components), `verdicts`, and
`tails` (only the tails of basis elements).  It prints the count per toggle
set and class with the first few text indices, and the last line is one
JSON object of the same; the exit status is 1 when anything but tails
differs.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEBUG_ENV = "ELIMINANT_DEBUG_CHECKS"
SHOWN = 5                    # differing pool indices printed per workload
STRATEGIES = ("", "no-coprime-skip", "no-triangular-skip", "no-chi-delta", "no-base-change",
              "no-chi-delta,no-base-change")
CLASSES = ("eliminant", "components", "verdicts", "tails")
PROBE_FACTORS = ("1", "z", "y", "z+1", "2*y-z")


def load_side(tree: Path, name: str, into: Path):
    """Copy tree/src/eliminant to into/name and import it as package `name`."""
    src = tree / "src" / "eliminant"
    if not (src / "__init__.py").is_file():
        raise SystemExit(f"no eliminant package under {tree}")
    shutil.copytree(src, into / name, ignore=shutil.ignore_patterns("__pycache__"))
    pkg = importlib.import_module(name)
    return pkg, importlib.import_module(f"{name}.cli")


def run_case(side, case) -> tuple[float, list[float], tuple[str, list]]:
    """(ideal seconds, each probe's seconds, (JSON report, verdicts)) of one pool case on one side."""
    pkg, cli = side
    clock = time.perf_counter
    t0 = clock()
    ideal = pkg.parse_ideal_file(case.text)
    report = cli.run_pipeline(ideal)
    out = report.to_json()
    t1 = clock()
    probes = [pkg.parse_poly(text, ideal.ctx) for text, _ in case.probes]
    verdicts, probe_s = [], []
    for probe in probes:
        t2 = clock()
        verdicts.append(pkg.is_member(probe, report.decomposition))
        probe_s.append(clock() - t2)
    return t1 - t0, probe_s, (out, verdicts)


def differing_keys(a: tuple[str, list], b: tuple[str, list]) -> list[str]:
    """The top-level JSON keys, and `verdicts`, in which two outputs of `run_case` differ.

    Reports that differ only in their bytes, not in any value, give `formatting`.
    """
    ja, jb = json.loads(a[0]), json.loads(b[0])
    keys = [k for k in sorted(ja.keys() | jb.keys()) if ja.get(k) != jb.get(k)]
    if a[1] != b[1]:
        keys.append("verdicts")
    return keys or ["formatting"]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q / 100.0 * len(ordered)) - 1))]


def summary(best_a: list[float], best_b: list[float]) -> dict:
    return {
        "a_p50_ms": 1e3 * statistics.median(best_a),
        "a_p95_ms": 1e3 * percentile(best_a, 95),
        "b_p50_ms": 1e3 * statistics.median(best_b),
        "b_p95_ms": 1e3 * percentile(best_b, 95),
        "ratio_median": statistics.median(b / a for a, b in zip(best_a, best_b)),
    }


def compare(sides, workload, seed: int, ideals: int | None, rounds: int) -> dict:
    pool = [workload.case(seed, i) for i in range(ideals or workload.pool)]
    # best[kind][side][i]: the least time of pool ideal i over the rounds;
    # best["per_probe"][side][i][k] that of its probe k
    best = {kind: [[float("inf")] * len(pool) for _ in sides] for kind in ("ideal", "probe")}
    best["per_probe"] = [[[float("inf")] * len(case.probes) for case in pool] for _ in sides]
    differ = {}                  # pool index -> differing keys, from the first round
    for r in range(rounds):
        for i, case in enumerate(pool):
            outputs = {}
            for s in (0, 1) if (i + r) % 2 == 0 else (1, 0):
                ideal_s, probe_s, outputs[s] = run_case(sides[s], case)
                best["ideal"][s][i] = min(best["ideal"][s][i], ideal_s)
                best["probe"][s][i] = min(best["probe"][s][i], sum(probe_s))
                each = best["per_probe"][s][i]
                each[:] = map(min, each, probe_s)
            if r == 0 and outputs[0] != outputs[1]:
                differ[i] = differing_keys(outputs[0], outputs[1])
    out = {"ideals": len(pool), "rounds": rounds, "identical": not differ}
    if differ:
        out["differing"] = {"count": len(differ), "first": sorted(differ)[:SHOWN],
                            "keys": sorted({k for keys in differ.values() for k in keys})}
    out["ideal"] = summary(*best["ideal"])
    if workload.probes_per_ideal:
        out["probe"] = summary(*best["probe"])
        out["per_probe"] = summary(*[[t for each in side for t in each]
                                     for side in best["per_probe"]])
    return out


def probe_texts(rng: random.Random, text: str, count: int = 2) -> list[str]:
    """Probe texts as `test_differential.random_probe` builds probes, from the generator lines."""
    gens = text.split("ideal:\n", 1)[1].splitlines()
    out = []
    for _ in range(count):
        parts = [f"({rng.choice(PROBE_FACTORS)})*({g})" for g in gens if rng.random() < 0.7]
        member = " + ".join(parts) or "0"
        out.append(member + " + 1" if rng.random() < 0.5 else member)
    return out


def full_report(side, text: str, toggles: str, probes: list[str]) -> dict:
    """What a text gives on one side: the report's JSON, the components' heads, the verdicts."""
    pkg, cli = side
    ideal = pkg.parse_ideal_file(text)
    try:
        report = cli.run_pipeline(ideal, pkg.StrategyConfig.from_toggles(toggles))
    except pkg.NotZeroDimensionalError:
        return {"refused": True}
    dec = report.decomposition
    # a leading term is printed as a polynomial, which every tree can print,
    # whatever type its coefficients have
    return {
        "json": json.loads(report.to_json()),
        "heads": [(comp.kind, comp.modulus.fmt(),
                   [b.from_sorted(b.ctx, b.terms[:1]).fmt() for b in comp.basis])
                  for comp in dec.components],
        "verdicts": [pkg.is_member(pkg.parse_poly(t, ideal.ctx), dec) for t in probes],
    }


def difference_class(a: dict, b: dict) -> str | None:
    """The first class of `CLASSES` in which two `full_report`s differ, or None."""
    if a == b:
        return None
    if "refused" in a or "refused" in b:
        return "eliminant"
    ja, jb = a["json"], b["json"]
    outside = ("components", "trivial_components")
    if any(ja.get(k) != jb.get(k) for k in ja.keys() | jb.keys() if k not in outside):
        return "eliminant"
    if a["heads"] != b["heads"] or ja.get("trivial_components") != jb.get("trivial_components"):
        return "components"
    if a["verdicts"] != b["verdicts"]:
        return "verdicts"
    return "tails"


def differential(sides, seed: int, ideals: int) -> dict:
    sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "src")]
    from test_differential import random_ideal_text

    rng = random.Random(seed)
    found = {t: {c: [] for c in CLASSES} for t in STRATEGIES}
    for i in range(ideals):
        text = random_ideal_text(rng)
        probes = probe_texts(random.Random(f"{seed}:{i}"), text)
        for toggles in STRATEGIES:
            kind = difference_class(*(full_report(side, text, toggles, probes) for side in sides))
            if kind is not None:
                found[toggles][kind].append(i)
    return {
        toggles or "default": {c: {"count": len(seen), "first": seen[:SHOWN]}
                               for c, seen in found[toggles].items()}
        for toggles in STRATEGIES
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", type=Path, help="source tree of side A (the parent)")
    ap.add_argument("b", type=Path, help="source tree of side B (the change)")
    ap.add_argument("--workload", action="append", help="a perfbench workload; repeatable, "
                    "default all")
    ap.add_argument("--seed", type=int, default=701)
    ap.add_argument("--ideals", type=int, default=None, help="pool prefix (default whole pool)")
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--differential", type=int, metavar="SEED", help="compare the reports of "
                    "random ideals under every toggle set instead of timing the pools")
    args = ap.parse_args(argv)
    if os.environ.get(DEBUG_ENV, "") not in ("", "0"):
        print(f"refusing to run: {DEBUG_ENV} turns on expansion checks, which change the cost",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "perfbench"))
    import gen

    names = args.workload or sorted(gen.WORKLOADS)
    if set(names) - set(gen.WORKLOADS):
        ap.error(f"unknown workload; choose from {', '.join(sorted(gen.WORKLOADS))}")
    if args.rounds < 1 or (args.ideals is not None and args.ideals < 1):
        ap.error("--rounds and --ideals must be at least 1")
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        sides = [load_side(args.a.resolve(), "ab_a", Path(tmp)),
                 load_side(args.b.resolve(), "ab_b", Path(tmp))]
        if args.differential is not None:
            results = differential(sides, args.differential, args.ideals or 1200)
            for toggles, res in results.items():
                print(f"{toggles}: " + ", ".join(
                    f"{c} {r['count']}" + (f" (first {', '.join(map(str, r['first']))})"
                                           if r["count"] else "")
                    for c, r in res.items()))
            print(json.dumps(results, sort_keys=True))
            return int(any(r[c]["count"] for r in results.values() for c in CLASSES[:3]))
        for name in names:
            res = results[name] = compare(sides, gen.WORKLOADS[name], args.seed, args.ideals,
                                          args.rounds)
            print(f"{name}: {res['ideals']} ideals x {res['rounds']} rounds, reports "
                  f"{'identical' if res['identical'] else 'DIFFER'}")
            if not res["identical"]:
                d = res["differing"]
                print(f"  {d['count']} differ, first at pool indices "
                      f"{', '.join(map(str, d['first']))}; keys: {', '.join(d['keys'])}")
            for kind in ("ideal", "probe", "per_probe"):
                if kind in res:
                    s = res[kind]
                    print(f"  {kind:9}  A p50 {s['a_p50_ms']:.4f} ms  p95 {s['a_p95_ms']:.4f} ms"
                          f"  |  B p50 {s['b_p50_ms']:.4f} ms  p95 {s['b_p95_ms']:.4f} ms"
                          f"  |  median B/A {s['ratio_median']:.4f}")
    print(json.dumps(results, sort_keys=True))
    return 0 if all(r["identical"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
