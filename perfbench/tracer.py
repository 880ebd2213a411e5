"""Outside-in tracer: wraps the engine's functions where they are looked up.

Nothing in the engine changes.  `Tracer.install` replaces every binding of
each target function in every loaded `eliminant` module (a function imported
into three modules is wrapped in all three) and the target methods on their
classes; `Tracer.restore` puts every original back.  Span wrappers record
name, start, end, parent and request id in memory and keep running per-name
totals; count wrappers only count calls.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

MARK = "__perfbench_wrapper__"

# Functions timed as spans, by defining module and name.  Every binding of the
# function object in any eliminant module is wrapped.
SPAN_FUNCTIONS = (
    ("eliminant.parser", "parse_ideal_file"),
    ("eliminant.cli", "run_pipeline"),
    ("eliminant.pseudo", "normalize_content"),
    ("eliminant.pseudo", "pseudo_eliminant"),
    ("eliminant.pseudo", "pseudo_divide"),
    ("eliminant.compat", "compatible_split"),
    ("eliminant.compat", "lc_compatibility_check"),
    ("eliminant.pqr", "residue_context"),
    ("eliminant.pqr", "proper_eliminant"),
    ("eliminant.pqr", "proper_divide"),
    ("eliminant.assembly", "assemble"),
    ("eliminant.assembly", "make_reduced"),
    ("eliminant.assembly", "gcd_reduce"),
    ("eliminant.assembly", "is_member"),
    ("eliminant.unipoly", "poly_gcd"),
    ("eliminant.unipoly", "poly_lcm"),
    ("eliminant.unipoly", "divrem"),
    ("eliminant.unipoly", "poly_ext_gcd"),
    ("eliminant.unipoly", "poly_multi_ext_gcd"),
    ("eliminant.unipoly", "squarefree_decomposition"),
)

# Methods timed as spans: (module, class, method).
SPAN_METHODS = (
    ("eliminant.cli", "PipelineReport", "to_json"),
    ("eliminant.unipoly", "UniPoly", "__mul__"),
)

# Methods only counted: counter name -> ((module, class, method), ...).
COUNTED_METHODS = {
    "fields.q_ops": tuple(
        ("eliminant.fields", "RationalField", m) for m in ("add", "sub", "mul", "div", "inv")
    ),
    "fields.gf_ops": tuple(
        ("eliminant.fields", "PrimeField", m) for m in ("add", "sub", "mul", "div", "inv")
    ),
    "multipoly.ops": tuple(
        ("eliminant.multipoly", "MultiPoly", m)
        for m in ("__add__", "__sub__", "__mul__", "scale", "mul_term")
    ),
}


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def loaded_modules() -> list:
    return [
        mod
        for key, mod in sorted(sys.modules.items())
        if mod is not None and (key == "eliminant" or key.startswith("eliminant."))
    ]


def installed_wrappers() -> list[str]:
    """Names of every perfbench wrapper currently bound in the engine."""
    found = []
    for mod in loaded_modules():
        for key, value in vars(mod).items():
            if getattr(value, MARK, False):
                found.append(f"{mod.__name__}.{key}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    if getattr(member, MARK, False):
                        found.append(f"{mod.__name__}.{key}.{attr}")
    return found


class Tracer:
    def __init__(self, span_capacity: int = 200_000):
        self.names: list[str] = []
        self.stats: list[list] = []          # per name: [calls, inclusive s, self s]
        self.counters: dict[str, list] = {}
        self.span_capacity = span_capacity
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_request = array("l")
        self.dropped = 0
        self.request = -1
        self.stack: list[list] = []          # open spans: [index, child seconds]
        self.zero_remainders: dict[str, int] = {}
        self.dividend_terms_max = 0
        self.run_seconds: list[float] = []   # proper_eliminant durations, current request
        self.trivial_runs = 0
        self._patches: list = []

    # -- wrappers ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.stats.append([0, 0.0, 0.0])
        return len(self.names) - 1

    def _span(self, name: str, fn, after=None):
        nid = self._name_id(name)
        stat = self.stats[nid]
        stack = self.stack
        sn, ss, se, sp, sr = (
            self.span_name, self.span_start, self.span_end, self.span_parent, self.span_request,
        )

        def wrapper(*args, **kwargs):
            if len(ss) < self.span_capacity:
                idx = len(ss)
                sn.append(nid)
                sp.append(stack[-1][0] if stack else -1)
                sr.append(self.request)
                ss.append(0.0)
                se.append(0.0)
            else:
                idx = -1
                self.dropped += 1
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[1]
                if idx >= 0:
                    ss[idx] = t0
                    se[idx] = t1
            if after is not None:
                after(args, result, dur)
            return result

        setattr(wrapper, MARK, True)
        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name: str, fn):
        cell = self.counters.setdefault(name, [0])

        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        setattr(wrapper, MARK, True)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks that derive ratios where the work happens -------------------------

    def _after_divide(self, key: str):
        self.zero_remainders.setdefault(key, 0)

        def after(args, result, _dur):
            if result.remainder.is_zero:
                self.zero_remainders[key] += 1
            self.dividend_terms_max = max(self.dividend_terms_max, len(args[0].terms))

        return after

    def _after_proper_eliminant(self, _args, result, dur):
        self.run_seconds.append(dur)
        if result.inconsistent:
            self.trivial_runs += 1

    # -- install / restore ------------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {m.__name__: m for m in loaded_modules()}
        hooks = {
            "pseudo_divide": self._after_divide("pseudo"),
            "proper_divide": self._after_divide("pqr"),
            "proper_eliminant": self._after_proper_eliminant,
        }
        for modname, fname in SPAN_FUNCTIONS:
            original = getattr(mods[modname], fname)
            wrapper = self._span(f"{modname.split('.')[-1]}.{fname}", original, hooks.get(fname))
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        for modname, cname, meth in SPAN_METHODS:
            cls = getattr(mods[modname], cname)
            name = f"{modname.split('.')[-1]}.{cname}.{meth}"
            self._patch(cls, meth, self._span(name, vars(cls)[meth]))
        for counter, targets in COUNTED_METHODS.items():
            for modname, cname, meth in targets:
                cls = getattr(mods[modname], cname)
                self._patch(cls, meth, self._counter(counter, vars(cls)[meth]))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """Per span name: [calls, inclusive seconds, self seconds]."""
        return {name: stat for name, stat in zip(self.names, self.stats)}

    def layer_self_seconds(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, (_, _, self_s) in self.totals().items():
            out[layer_of(name)] = out.get(layer_of(name), 0.0) + self_s
        return out

    def count(self, name: str) -> int:
        return self.counters.get(name, [0])[0]

    def write_spans(self, path) -> int:
        """Write the recorded spans as tab-separated text; returns the span count."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("index\tname\tstart_s\tend_s\tparent\trequest\n")
            t_base = self.span_start[0] if self.span_start else 0.0
            for i in range(len(self.span_start)):
                out.write(
                    f"{i}\t{self.names[self.span_name[i]]}\t"
                    f"{self.span_start[i] - t_base:.9f}\t{self.span_end[i] - t_base:.9f}\t"
                    f"{self.span_parent[i]}\t{self.span_request[i]}\n"
                )
        return len(self.span_start)
