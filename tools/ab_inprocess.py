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
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEBUG_ENV = "ELIMINANT_DEBUG_CHECKS"
SHOWN = 5                    # differing pool indices printed per workload


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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", type=Path, help="source tree of side A (the parent)")
    ap.add_argument("b", type=Path, help="source tree of side B (the change)")
    ap.add_argument("--workload", action="append", help="a perfbench workload; repeatable, "
                    "default all")
    ap.add_argument("--seed", type=int, default=701)
    ap.add_argument("--ideals", type=int, default=None, help="pool prefix (default whole pool)")
    ap.add_argument("--rounds", type=int, default=3)
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
