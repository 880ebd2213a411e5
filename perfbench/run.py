"""Benchmark of the eliminant engine on seeded known-answer workloads.

    python3 perfbench/run.py --workload compat_q --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the engine is imported from ./src.
One run is a closed loop with a single client: one ideal at a time, in a
fixed seeded order, through the public entry points

    parse_ideal_file -> run_pipeline -> PipelineReport.to_json   (per ideal)
    is_member on the finished decomposition                      (per probe)

Every eliminant and every membership verdict is checked against the answer
the generator built in (see gen.py); a wrong answer makes the run exit 1.
With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
wraps the engine's functions (see tracer.py), reports per-layer metrics per
ideal, writes its spans to perfbench/out/, and compares its time in requests
with an untraced pass over the same requests.  End-to-end times are scaled
to nominal machine speed (see REF_NOMINAL_S).  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import re
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import gen
import tracer as tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DEBUG_ENV = "ELIMINANT_DEBUG_CHECKS"

SETUP_REPEATS = 5        # set-ups per untraced run; setup_s is their median
WARMUP_IDEALS = 3        # pool ideals run through the full path during set-up
ORACLE_IDEALS = 2        # pool ideals cross-checked against the Buchberger oracle
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0)
TAIL_BEYOND = 20         # distinct inputs required beyond the reported tail percentile
# The machine's speed is sampled with a fixed pure-Python kernel before every
# ideal.  Co-tenants on a shared host slow every process on it by up to 1.7x
# for seconds to minutes at a time, so times are reported at the nominal
# speed: each latency is scaled by REF_NOMINAL_S over the median kernel time
# of the REF_WINDOW samples around it, each set-up by the samples just before
# and after it.  REF_NOMINAL_S is the kernel's time on an uncontended core of
# the 2-vCPU VM the benchmark was written on (Python 3.11.7).
REF_ITERATIONS = 250
REF_NOMINAL_S = 0.0008
REF_WINDOW = 9

NUMBER = re.compile(r"(?<![\^\w])\d+")


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


# -- engine access ------------------------------------------------------------


class Engine:
    """The public entry points, looked up at call time so tracer wrappers apply."""

    def __init__(self):
        self.api = importlib.import_module("eliminant")
        self.cli = importlib.import_module("eliminant.cli")
        where = Path(self.api.__file__).resolve()
        if SRC.resolve() not in where.parents:
            raise BenchError(f"eliminant imported from {where}, not from {SRC}")

    def decompose(self, text: str):
        ideal = self.api.parse_ideal_file(text)
        report = self.cli.run_pipeline(ideal)
        return ideal, report, report.to_json()

    def is_member(self, probe, report) -> bool:
        return self.api.is_member(probe, report.decomposition)


def fresh_import() -> Engine:
    for key in [k for k in sys.modules if k == "eliminant" or k.startswith("eliminant.")]:
        del sys.modules[key]
    return Engine()


# -- answers --------------------------------------------------------------------


def renamed(text: str, rename: int) -> str:
    """The text with variables z, y, x renamed for a later pass over the pool.

    Repeated ideals then differ as inputs, so no result cache can serve them.
    """
    if not rename:
        return text
    return text.translate({ord(v): f"{v}{rename}" for v in gen.VARS})


def parse_univariate(text: str, var: str) -> dict:
    """{degree: Fraction} from the engine's printed univariate polynomial."""
    out = {}
    for term in text.replace(" - ", " + -").split(" + "):
        sign = -1 if term.startswith("-") else 1
        parts = term.lstrip("-").split("*")
        deg = 0
        if parts[-1] == var:
            deg, parts = 1, parts[:-1]
        elif parts[-1].startswith(var + "^"):
            deg, parts = int(parts[-1][len(var) + 1 :]), parts[:-1]
        out[deg] = out.get(deg, 0) + sign * Fraction(parts[0] if parts else 1)
    return out


def eliminant_ok(report_json: dict, case: gen.Case, var: str, p: int) -> bool:
    got = parse_univariate(report_json["eliminant"], var)
    if p:
        got = {k: c % p for k, c in got.items()}
    return {k: c for k, c in got.items() if c} == {
        k: c for k, c in enumerate(case.eliminant) if c
    }


def basis_bits(report_json: dict) -> int:
    """Largest coefficient bit length in the reported reduced component bases."""
    return max(
        (
            int(n).bit_length()
            for comp in report_json.get("components", ())
            for b in comp["basis"]
            for n in NUMBER.findall(b)
        ),
        default=0,
    )


# -- the closed loop ----------------------------------------------------------------


def reference_kernel() -> float:
    """Seconds the fixed reference kernel takes now: a sample of machine speed.

    Fraction arithmetic, tuple keys and dict updates: the same interpreter
    work the engine does, so contention slows both alike.
    """
    t0 = time.perf_counter()
    acc: dict = {}
    step = Fraction(3, 7)
    for i in range(REF_ITERATIONS):
        key = (i % 13, i % 7)
        acc[key] = acc.get(key, 0) + step * i
    return time.perf_counter() - t0


def speed_scales(ref: list[float]) -> list[float]:
    """Per ideal slot: REF_NOMINAL_S over the median reference time around it."""
    half = REF_WINDOW // 2
    return [
        REF_NOMINAL_S / statistics.median(ref[max(0, i - half) : i + half + 1])
        for i in range(len(ref))
    ]


class Results:
    def __init__(self):
        self.ideal_lat: list[float] = []  # measured seconds
        self.probe_lat: list[float] = []
        self.ideal_slot: list[int] = []   # slot of each latency, to find its speed sample
        self.probe_slot: list[int] = []
        self.ref: list[float] = []        # reference kernel seconds, one per slot
        self.busy = 0.0                   # measured seconds spent inside timed requests
        self.attempted = 0
        self.exceptions = 0
        self.wrong: list[str] = []
        self.bits: dict[int, int] = {}  # pool index -> largest basis coefficient bit length
        self.slots = 0

    @property
    def failed(self) -> int:
        return self.exceptions + len(self.wrong)

    def scaled(self) -> tuple[list[float], list[float]]:
        """Ideal and probe latencies at nominal machine speed."""
        scale = speed_scales(self.ref)
        return (
            [t * scale[i] for t, i in zip(self.ideal_lat, self.ideal_slot)],
            [t * scale[i] for t, i in zip(self.probe_lat, self.probe_slot)],
        )

    def error(self, what: str) -> None:
        self.exceptions += 1
        if self.exceptions == 1:
            print(f"first failure ({what}):", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)


def run_loop(engine: Engine, workload: gen.Workload, pool: list, *, seconds=None, slots=None,
             trace=None, observer=None) -> Results:
    """Run pool ideals in order, cycling, for `seconds` or exactly `slots` ideals."""
    res = Results()
    clock = time.perf_counter
    start = clock()
    request = 0
    while (res.slots < slots) if slots is not None else (clock() - start < seconds):
        res.ref.append(reference_kernel())
        slot = res.slots
        case = pool[slot % len(pool)]
        rename = slot // len(pool)
        var = renamed("z", rename)
        res.slots += 1
        res.attempted += 1
        if trace is not None:
            trace.request = request
        request += 1
        t0 = clock()
        try:
            ideal, report, out = engine.decompose(renamed(case.text, rename))
        except Exception:
            res.busy += clock() - t0
            res.error("ideal")
            continue
        dt = clock() - t0
        res.busy += dt
        res.ideal_lat.append(dt)
        res.ideal_slot.append(slot)
        report_json = json.loads(out)
        if not eliminant_ok(report_json, case, var, workload.p):
            res.wrong.append(f"eliminant of ideal {slot}: {report_json['eliminant']}")
        res.bits[slot % len(pool)] = basis_bits(report_json)
        if observer is not None:
            observer.ideal_done(report, dt)
        for text, truth in case.probes:
            res.attempted += 1
            if trace is not None:
                trace.request = request
            request += 1
            try:
                probe = engine.api.parse_poly(renamed(text, rename), ideal.ctx)
                t0 = clock()
                verdict = engine.is_member(probe, report)
                dt = clock() - t0
            except Exception:
                res.error("probe")
                continue
            res.busy += dt
            res.probe_lat.append(dt)
            res.probe_slot.append(slot)
            if verdict != truth:
                res.wrong.append(f"probe {text!r} of ideal {slot}: {verdict}")
    return res


def oracle_self_check(engine: Engine, pool: list) -> list[str]:
    """Generator answers against the Buchberger oracle; outside every timed region."""
    api = engine.api
    problems = []
    for index, case in enumerate(pool[:ORACLE_IDEALS]):
        ideal = api.parse_ideal_file(case.text)
        gb = api.reduced_groebner(ideal.generators)
        chi = api.oracle_eliminant(gb, ideal.field)
        if tuple(chi.coeffs) != case.eliminant:
            problems.append(f"oracle eliminant of ideal {index} differs from the generator's")
        for text, truth in case.probes:
            if api.oracle_member(api.parse_poly(text, ideal.ctx), gb) != truth:
                problems.append(f"oracle verdict on probe {text!r} differs from the generator's")
    return problems


# -- statistics --------------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    xs = sorted(values)
    return xs[max(0, math.ceil(q / 100.0 * len(xs)) - 1)]


def tail_percentile(distinct: int) -> float:
    """The highest ladder percentile with at least TAIL_BEYOND distinct inputs beyond it.

    Later passes over the pool repeat inputs, so samples beyond a percentile
    count only as often as there are distinct inputs behind them.  Tied to
    the pool size, the percentile stays the same however fast the engine is.
    """
    best = TAIL_LADDER[0]
    for q in TAIL_LADDER:
        if distinct - math.ceil(q / 100.0 * distinct) >= TAIL_BEYOND:
            best = q
    return best


# -- per-layer observation (traced runs) -------------------------------------------------------


class LayerObserver:
    """Per-ideal facts read from each finished report, outside the spans."""

    def __init__(self, trace: tracing.Tracer):
        self.trace = trace
        self.ideals = 0
        self.basis_size = 0
        self.multipliers = 0
        self.pseudo_degree = 0
        self.degree = 0
        self.pseudo_bits = 0
        self.composites = 0
        self.components = 0
        self.run_shares: list[float] = []

    def ideal_done(self, report, latency: float) -> None:
        self.ideals += 1
        pseudo = report.pseudo
        self.basis_size += len(pseudo.basis)
        self.multipliers += len(pseudo.multipliers)
        self.pseudo_degree += pseudo.eliminant.degree
        self.degree += report.decomposition.eliminant.degree
        for b in pseudo.basis:
            for _, c in b.terms:
                for a in c.coeffs:
                    a = Fraction(a)
                    self.pseudo_bits = max(
                        self.pseudo_bits, abs(a.numerator).bit_length(), a.denominator.bit_length()
                    )
        if report.split is not None:
            self.composites += len(report.split.composite_divisors())
        self.components += len(report.decomposition.components)
        runs = self.trace.run_seconds
        if runs:
            self.run_shares.append(max(runs) / latency)
            runs.clear()


def layer_metrics(trace: tracing.Tracer, obs: LayerObserver, overhead: float) -> dict:
    n = max(obs.ideals, 1)
    totals = trace.totals()
    layer_self = trace.layer_self_seconds()

    def calls(name):
        return totals[name][0]

    def incl(name):
        return totals[name][1]

    def share(num, den):
        return num / den if den else 0.0

    stage = {
        "pseudo": incl("pseudo.pseudo_eliminant"),
        "compat": incl("compat.compatible_split") + incl("compat.lc_compatibility_check"),
        "pqr": incl("pqr.proper_eliminant"),
        "assembly": incl("assembly.assemble"),
    }
    traced_time = incl("cli.run_pipeline") + incl("parser.parse_ideal_file") + incl(
        "cli.PipelineReport.to_json"
    ) + incl("assembly.is_member")
    pq_runs = calls("pqr.proper_eliminant")
    m = {
        f"{name}.stage_share": (share(t, sum(stage.values())), "ratio") for name, t in stage.items()
    }
    m.update({
        "parser.self_s": (layer_self.get("parser", 0.0) / n, "s/ideal"),
        "pseudo.self_s": (layer_self.get("pseudo", 0.0) / n, "s/ideal"),
        "pseudo.divide_calls": (calls("pseudo.pseudo_divide") / n, "calls/ideal"),
        "pseudo.divide_s": (incl("pseudo.pseudo_divide") / n, "s/ideal"),
        "pseudo.zero_remainder_share": (
            share(trace.zero_remainders["pseudo"], calls("pseudo.pseudo_divide")), "ratio"),
        "pseudo.basis_size": (obs.basis_size / n, "elems/ideal"),
        "pseudo.multipliers": (obs.multipliers / n, "polys/ideal"),
        "pseudo.extraneous_degree_share": (1.0 - share(obs.degree, obs.pseudo_degree), "ratio"),
        "pseudo.basis_coeff_bits_max": (obs.pseudo_bits, "bits"),
        "compat.self_s": (layer_self.get("compat", 0.0) / n, "s/ideal"),
        "compat.composite_divisors": (obs.composites / n, "polys/ideal"),
        "pqr.self_s": (layer_self.get("pqr", 0.0) / n, "s/ideal"),
        "pqr.runs": (pq_runs / n, "runs/ideal"),
        "pqr.divide_calls": (calls("pqr.proper_divide") / n, "calls/ideal"),
        "pqr.zero_remainder_share": (
            share(trace.zero_remainders["pqr"], calls("pqr.proper_divide")), "ratio"),
        "pqr.trivial_share": (share(trace.trivial_runs, pq_runs), "ratio"),
        "pqr.max_run_share": (
            statistics.fmean(obs.run_shares) if obs.run_shares else 0.0, "ratio"),
        "assembly.self_s": (layer_self.get("assembly", 0.0) / n, "s/ideal"),
        "assembly.assemble_s": (incl("assembly.assemble") / n, "s/ideal"),
        "assembly.reduce_s": (incl("assembly.make_reduced") / n, "s/ideal"),
        "assembly.gcd_reduce_calls": (calls("assembly.gcd_reduce") / n, "calls/ideal"),
        "assembly.gcd_reduce_s": (incl("assembly.gcd_reduce") / n, "s/ideal"),
        "assembly.member_s": (incl("assembly.is_member") / n, "s/ideal"),
        "assembly.member_share": (share(incl("assembly.is_member"), traced_time), "ratio"),
        "assembly.components": (obs.components / n, "comps/ideal"),
        "unipoly.self_s": (layer_self.get("unipoly", 0.0) / n, "s/ideal"),
    })
    for fn in ("poly_gcd", "poly_lcm", "divrem", "poly_ext_gcd", "poly_multi_ext_gcd",
               "squarefree_decomposition", "UniPoly.__mul__"):
        m[f"unipoly.{fn}.calls"] = (calls(f"unipoly.{fn}") / n, "calls/ideal")
        m[f"unipoly.{fn}.s"] = (incl(f"unipoly.{fn}") / n, "s/ideal")
    q_ops, gf_ops = trace.count("fields.q_ops"), trace.count("fields.gf_ops")
    m.update({
        "fields.ops": ((q_ops + gf_ops) / n, "ops/ideal"),
        "fields.q_ops": (q_ops / n, "ops/ideal"),
        "fields.gf_ops": (gf_ops / n, "ops/ideal"),
        "multipoly.ops": (trace.count("multipoly.ops") / n, "ops/ideal"),
        "multipoly.spoly_terms_max": (trace.dividend_terms_max, "terms"),
        "cli.pipeline_s": (totals["cli.run_pipeline"][2] / n, "s/ideal"),
        "cli.report_s": (totals["cli.PipelineReport.to_json"][2] / n, "s/ideal"),
        "trace.overhead_ratio": (overhead, "ratio"),
    })
    return m


# -- runs --------------------------------------------------------------------------------------


def setup(workload: gen.Workload, seed: int):
    """Import, input generation and warm-up: everything before the first timed request.

    Returns the measured seconds, the engine and the pool.
    """
    t0 = time.perf_counter()
    engine = fresh_import()
    pool = [workload.case(seed, i) for i in range(workload.pool)]
    for case in pool[:WARMUP_IDEALS]:
        ideal, report, _ = engine.decompose(case.text)
        for text, _ in case.probes:
            engine.is_member(engine.api.parse_poly(text, ideal.ctx), report)
    return time.perf_counter() - t0, engine, pool


def require_clean() -> None:
    left = tracing.installed_wrappers()
    if left:
        raise BenchError(f"tracer wrappers still installed: {left}")


def untraced_run(workload: gen.Workload, seed: int, seconds: float):
    setups = []
    for _ in range(SETUP_REPEATS):
        before = [reference_kernel() for _ in range(REF_WINDOW)]
        dt, engine, pool = setup(workload, seed)
        after = [reference_kernel() for _ in range(REF_WINDOW)]
        setups.append(dt * REF_NOMINAL_S / statistics.median(before + after))
    require_clean()
    res = run_loop(engine, workload, pool, seconds=seconds)
    problems = oracle_self_check(engine, pool)
    lines, metrics = [], {}

    def put(name, value, unit, note=""):
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"{name:22} = {value:.6g} {unit}{note}")

    put("setup_s", statistics.median(setups), "s", f"  (median of {len(setups)} set-ups)")
    lines.insert(0, f"{'machine speed':22} = {REF_NOMINAL_S / statistics.median(res.ref):.4g} "
                    f"of nominal  (median of {len(res.ref)} reference samples)")
    ideal_lat, probe_lat = res.scaled()
    busy = sum(ideal_lat) + sum(probe_lat)
    for kind, lat, raw, per_s, per_ideal in (
        ("ideal", ideal_lat, res.ideal_lat, "ideals_per_s", 1),
        ("probe", probe_lat, res.probe_lat, "probes_per_s", workload.probes_per_ideal),
    ):
        if not lat:
            raise BenchError(f"no {kind} request completed")
        distinct = min(len(lat), len(pool) * per_ideal)
        q = tail_percentile(distinct)
        put(f"{kind}_p50_ms", 1e3 * statistics.median(lat), "ms",
            f"  (n={len(lat)}; measured {1e3 * statistics.median(raw):.4g} ms)")
        put(f"{kind}_tail_ms", 1e3 * percentile(lat, q), "ms",
            f"  (p{q:g}, n={len(lat)}, {distinct} distinct inputs, "
            f"{distinct - math.ceil(q / 100.0 * distinct)} beyond; "
            f"measured {1e3 * percentile(raw, q):.4g} ms)")
        put(per_s, len(lat) / busy, "1/s",
            f"  ({busy:.3f} s in requests at nominal speed; measured {res.busy:.3f} s)")
    fail_share = res.failed / res.attempted
    lines.append(f"{'fail_share':22} = {fail_share:.6g} ratio  "
                 f"({res.failed} of {res.attempted}; reported as ok_share)")
    put("ok_share", 1.0 - fail_share, "ratio")
    put("basis_coeff_bits_mean", statistics.fmean(res.bits.values()), "bits",
        f"  (mean over {len(res.bits)} distinct ideals; max {max(res.bits.values())})")
    put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return res, problems, lines, metrics


def traced_run(workload: gen.Workload, seed: int, seconds: float):
    _, engine, pool = setup(workload, seed)
    require_clean()
    trace = tracing.Tracer()
    obs = LayerObserver(trace)
    trace.install()
    try:
        res = run_loop(engine, workload, pool, seconds=seconds, trace=trace, observer=obs)
    finally:
        trace.restore()
    require_clean()
    ref = run_loop(engine, workload, pool, slots=res.slots)
    traced_busy, plain_busy = (sum(map(sum, r.scaled())) for r in (res, ref))
    overhead = traced_busy / plain_busy
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload.name}-seed{seed}.tsv"
    written = trace.write_spans(spans_path)
    problems = oracle_self_check(engine, pool)
    res.attempted += ref.attempted
    res.wrong += ref.wrong
    res.exceptions += ref.exceptions
    lines = [
        f"traced {res.slots} ideals: {traced_busy:.3f} s in requests; untraced "
        f"{plain_busy:.3f} s, both at nominal speed (overhead x{overhead:.3f})",
        f"spans written: {written} to {spans_path.relative_to(ROOT)}"
        + (f" ({trace.dropped} more not recorded)" if trace.dropped else ""),
    ]
    metrics = {}
    for name, (value, unit) in layer_metrics(trace, obs, overhead).items():
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"{name:36} = {value:.6g} {unit}")
    return res, problems, lines, metrics


def declared_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if os.environ.get(DEBUG_ENV, "") not in ("", "0"):
        print(f"refusing to run: {DEBUG_ENV} turns on expansion checks, which change the cost",
              file=sys.stderr)
        return 2
    if not SRC.is_dir():
        print(f"refusing to run: no engine sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = gen.WORKLOADS[args.workload]
    try:
        declared = declared_metrics(bool(args.trace))
        run = traced_run if args.trace else untraced_run
        res, problems, lines, metrics = run(workload, args.seed, args.seconds)
        if {k: v["unit"] for k, v in metrics.items()} != declared:
            raise BenchError("reported metrics differ from BENCHMARK.json")
    except (BenchError, ImportError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"python {platform.python_version()}  nproc {len(os.sched_getaffinity(0))}")
    for line in lines:
        print(line)
    wrong = res.wrong + problems
    for w in wrong[:10]:
        print(f"WRONG: {w}")
    correct = not wrong
    print(json.dumps({
        "correct": correct,
        "attempted": res.attempted,
        "failed": res.failed + len(problems),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
