"""Command-line front end: ingest an ideal file, run the pipeline, report.

Exit codes: 0 success (including a trivial ideal, which is reported, not
fatal), 2 parse error, 3 not zero-dimensional, 4 internal invariant
violation or arithmetic failure.  Reports are byte-identical across runs
unless --timings is given.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field as dc_field
from json.encoder import encode_basestring_ascii as _encode_str

from .assembly import (
    Decomposition,
    assemble,
    component_remainder,
    lift_component_basis,
)
from .buchberger import groebner_self_check, oracle_eliminant, reduced_groebner
from .compat import compatible_split, lc_compatibility_check
from .multipoly import MultiPoly
from .parser import IdealFile, ParseError, parse_ideal_file, parse_probe_file
from .pqr import NotAUnitError, proper_eliminant, residue_context
from .pseudo import (
    NotZeroDimensionalError,
    PseudoOutcome,
    StrategyConfig,
    pseudo_eliminant,
)
from .unipoly import UniPoly, content_scale

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NOT_ZERO_DIM = 3
EXIT_INTERNAL = 4


def _emit_json(value, newline: str, out: list) -> None:
    """Append the pieces of `json.dumps(value, indent=2)` to `out`.

    `newline` is a line break and the indent of the line `value` starts on.
    The indented form makes `json` use its pure-Python encoder; this writes
    the same text with the C string encoder, and the caller joins the pieces
    once.  Dict keys are strings.
    """
    t = type(value)
    if t is str:
        out.append(_encode_str(value))
    elif t is dict or t is list or t is tuple:
        if not value:
            out.append("{}" if t is dict else "[]")
            return
        inner = newline + "  "
        if t is dict:
            sep = "{" + inner
            for k, v in value.items():
                out.append(sep + _encode_str(k) + ": ")
                _emit_json(v, inner, out)
                sep = "," + inner
            out.append(newline + "}")
        else:
            sep = "[" + inner
            for v in value:
                out.append(sep)
                _emit_json(v, inner, out)
                sep = "," + inner
            out.append(newline + "]")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif value is None:
        out.append("null")
    elif t is int:
        out.append(repr(value))
    else:
        out.append(json.dumps(value))


def _pretty_multiplier(p: UniPoly, x1: str) -> str:
    """Print monic-normalized multipliers with primitive integer coefficients."""
    return p.scale(content_scale(p.field, [p], p.nums[-1])).fmt(x1)


@dataclass
class PipelineReport:
    ideal: IdealFile
    strategy: StrategyConfig
    pseudo: PseudoOutcome
    split: object
    lc_verdicts: list
    decomposition: Decomposition
    lift_form: str = "proj"
    oracle: dict | None = None
    membership: list = dc_field(default_factory=list)
    timings: dict | None = None

    # -- structured form --------------------------------------------------

    def to_json_dict(self) -> dict:
        x1 = self.ideal.x1
        dec = self.decomposition
        # the eliminants, the compatible part and the moduli are often one
        # polynomial: each is formatted once per call, and nothing is kept after
        printed: dict = {}

        def fmt(p: UniPoly) -> str:
            text = printed.get(p)
            if text is None:
                text = printed[p] = p.fmt(x1)
            return text

        out = {
            "field": repr(self.ideal.field),
            "variables": [x1, *self.ideal.tilde],
            "order": self.ideal.order,
            "generators": list(self.ideal.generator_texts),
            "strategy": {
                "coprime_skip": self.strategy.coprime_skip,
                "triangular_skip": self.strategy.triangular_skip,
                "chi_delta": self.strategy.chi_delta,
                "base_change": self.strategy.base_change,
            },
            "inconsistent": dec.inconsistent,
            "pseudo_eliminant": fmt(self.pseudo.eliminant),
            "multipliers": [_pretty_multiplier(m, x1) for m in self.pseudo.multipliers],
            "leading_coefficient_gcds": [
                _pretty_multiplier(m, x1) for m in self.pseudo.lc_gcds
            ],
            "eliminant": fmt(dec.eliminant),
        }
        if not dec.inconsistent:
            out["compatible_part"] = fmt(self.split.compatible_part)
            out["composite_divisors"] = [fmt(q) for q in self.split.composite_divisors()]
            out["coefficient_criterion"] = [
                {
                    "factor": fmt(v.factor),
                    "exponent": v.exponent,
                    "coprime_to_leading_coefficients": v.coprime_to_lcs,
                }
                for v in self.lc_verdicts
            ]
            comps = []
            for comp in dec.components:
                basis = [b.fmt() for b in comp.basis]
                if self.lift_form == "pseudo":
                    lifted = lift_component_basis(comp, dec.base_ctx, self.pseudo.basis)
                    lifted = [b.fmt() for b in lifted]
                else:
                    # a residue prints as its canonical representative, so as its lift
                    lifted = basis + [MultiPoly.from_coeff(dec.base_ctx, comp.modulus).fmt()]
                entry = {
                    "kind": comp.kind,
                    "modulus": fmt(comp.modulus),
                    "basis": basis,
                    "lifted_basis": lifted,
                }
                if comp.kind == "modular":
                    entry["composite_divisor"] = fmt(comp.source_modulus)
                    entry["proper_eliminant"] = comp.eliminant_code
                comps.append(entry)
            out["components"] = comps
            out["trivial_components"] = [
                {
                    "composite_divisor": fmt(t.source_modulus),
                    "proper_eliminant": t.eliminant_code,
                }
                for t in dec.trivial
            ]
        if self.oracle is not None:
            out["oracle"] = self.oracle
        if self.membership:
            out["membership"] = self.membership
        if self.timings is not None:
            out["timings"] = self.timings
        return out

    def to_json(self) -> str:
        """The report as `json.dumps(self.to_json_dict(), indent=2)` writes it."""
        out: list = []
        _emit_json(self.to_json_dict(), "\n", out)
        return "".join(out)

    # -- human form ---------------------------------------------------------

    def to_text(self) -> str:
        x1 = self.ideal.x1
        dec = self.decomposition
        lines = []
        lines.append(f"field      : {self.ideal.field!r}")
        lines.append(f"variables  : {x1} < " + " < ".join(self.ideal.tilde))
        lines.append(f"order      : {self.ideal.order}")
        if dec.inconsistent:
            lines.append("ideal      : trivial (contains a nonzero constant)")
            lines.append("reduced basis: { 1 }")
        else:
            lines.append(f"pseudo-eliminant : {self.pseudo.eliminant.fmt(x1)}")
            if self.pseudo.multipliers:
                lines.append("multipliers      :")
                for m in self.pseudo.multipliers:
                    lines.append(f"    {_pretty_multiplier(m, x1)}")
            else:
                lines.append("multipliers      : (none)")
            if self.pseudo.lc_gcds:
                lines.append("lc gcd sweep     :")
                for m in self.pseudo.lc_gcds:
                    lines.append(f"    {_pretty_multiplier(m, x1)}")
            lines.append(f"compatible part  : {self.split.compatible_part.fmt(x1)}")
            comps = self.split.composite_divisors()
            if comps:
                lines.append("composite divisors:")
                for q in comps:
                    lines.append(f"    {q.fmt(x1)}")
            else:
                lines.append("composite divisors: (none)")
            lines.append(f"eliminant        : {dec.eliminant.fmt(x1)}")
            for comp in dec.components:
                if comp.kind == "compatible":
                    lines.append(f"component (compatible part, modulus {comp.modulus.fmt(x1)})")
                else:
                    lines.append(
                        f"component (composite divisor {comp.source_modulus.fmt(x1)}, "
                        f"proper eliminant {comp.eliminant_code})"
                    )
                lines.append("  reduced basis:")
                for b in comp.basis:
                    lines.append(f"    {b.fmt()}")
            for t in dec.trivial:
                lines.append(
                    f"component (composite divisor {t.source_modulus.fmt(x1)}): "
                    "trivial, proper eliminant 1"
                )
        if self.oracle is not None:
            lines.append("oracle comparison:")
            lines.append(f"    eliminants agree : {self.oracle['eliminants_agree']}")
            lines.append(f"    oracle eliminant : {self.oracle['eliminant']}")
        for entry in self.membership:
            lines.append(f"member {entry['member']!s:5} : {entry['probe']}")
        if self.timings is not None:
            for k, v in self.timings.items():
                lines.append(f"time {k:14}: {v:.3f}s")
        return "\n".join(lines) + "\n"


def run_pipeline(ideal: IdealFile, strategy: StrategyConfig | None = None) -> PipelineReport:
    """Eliminant, decomposition and reduced bases for a parsed ideal file."""
    strategy = strategy or StrategyConfig()
    times: dict[str, float] = {}
    t0 = time.perf_counter()
    # both searches scale each generator they insert to its canonical form
    pseudo = pseudo_eliminant(ideal.generators, strategy)
    times["pseudo"] = time.perf_counter() - t0
    if pseudo.inconsistent:
        split, verdicts = None, []
        dec = Decomposition(
            eliminant=UniPoly.one(ideal.field),
            inconsistent=True,
            base_ctx=ideal.ctx,
        )
    else:
        t0 = time.perf_counter()
        split = compatible_split(pseudo.eliminant, pseudo.screen_multipliers)
        verdicts = lc_compatibility_check(pseudo.eliminant, pseudo.basis, split.squarefree_parts)
        times["split"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        propers = {}
        for q in split.composite_divisors():
            propers[q] = proper_eliminant(
                pseudo.basis, residue_context(ideal.ctx, q), strategy, pseudo.settled
            )
        times["modular"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        dec = assemble(pseudo, split, propers, ideal.ctx)
        times["assembly"] = time.perf_counter() - t0
    report = PipelineReport(
        ideal=ideal,
        strategy=strategy,
        pseudo=pseudo,
        split=split,
        lc_verdicts=verdicts,
        decomposition=dec,
    )
    report._times = times  # stashed; exposed only with --timings
    return report


def attach_oracle(report: PipelineReport) -> None:
    gb = reduced_groebner(report.ideal.generators)
    chi = oracle_eliminant(gb, report.ideal.field)
    report.oracle = {
        "eliminant": chi.fmt(report.ideal.x1),
        "eliminants_agree": chi == report.decomposition.eliminant,
        "self_check": groebner_self_check(gb, report.ideal.field),
        "basis_size": len(gb),
    }


def attach_membership(report: PipelineReport, probes: list) -> None:
    """Verdict and per-component remainders of each probe, reducing it once per component.

    The verdict is the one `is_member` gives: every remainder is zero, and a
    trivial ideal contains every probe.
    """
    dec = report.decomposition
    for text, probe in probes:
        if dec.inconsistent:
            report.membership.append({"probe": text, "member": True})
            continue
        remainders = [component_remainder(probe, comp) for comp in dec.components]
        report.membership.append(
            {
                "probe": text,
                "member": all(r.is_zero for r in remainders),
                "remainders": [r.fmt() for r in remainders],
            }
        )


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="eliminant",
        description=(
            "Compute the eliminant, ideal decomposition and reduced modular "
            "bases of a zero-dimensional polynomial ideal, exactly."
        ),
    )
    ap.add_argument("file", help="ideal file (see README for the format)")
    ap.add_argument("--emit", choices=("text", "json", "both"), default="text")
    ap.add_argument(
        "--compare-buchberger",
        action="store_true",
        help="also run the classical basis and compare eliminants",
    )
    ap.add_argument("--membership", metavar="FILE", help="file of probe expressions")
    ap.add_argument(
        "--strategy",
        default="",
        metavar="TOGGLES",
        help="comma list: [no-]coprime-skip, [no-]triangular-skip, [no-]chi-delta, [no-]base-change",
    )
    ap.add_argument(
        "--lift",
        choices=("proj", "pseudo"),
        default="proj",
        help="which lifted basis form to emit per component",
    )
    ap.add_argument("--timings", action="store_true", help="include wall-clock timings")
    args = ap.parse_args(argv)

    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            ideal = parse_ideal_file(fh.read())
        strategy = StrategyConfig.from_toggles(args.strategy)
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    try:
        report = run_pipeline(ideal, strategy)
        report.lift_form = args.lift
        if args.compare_buchberger:
            attach_oracle(report)
        if args.membership:
            with open(args.membership, "r", encoding="utf-8") as fh:
                probes = parse_probe_file(fh.read(), ideal.ctx)
            attach_membership(report, probes)
    except NotZeroDimensionalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_ZERO_DIM
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (AssertionError, ArithmeticError, NotAUnitError) as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INTERNAL

    if args.timings:
        report.timings = getattr(report, "_times", None)
    if args.emit in ("text", "both"):
        sys.stdout.write(report.to_text())
    if args.emit in ("json", "both"):
        sys.stdout.write(report.to_json() + "\n")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
