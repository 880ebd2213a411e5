"""Split a pseudo-eliminant into its trustworthy part and suspect blocks.

A squarefree-power factor of the pseudo-eliminant is trustworthy exactly
when it shares nothing with the multipliers collected during the reductions;
the remaining prime-power blocks are grouped into pairwise coprime composite
divisors, each of which later becomes the modulus of a residue-ring run.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .unipoly import (
    ConstantInputError,
    UniPoly,
    exact_div,
    poly_gcd,
    squarefree_decomposition,
)


def poly_sort_key(p: UniPoly):
    """The order of every printed list of univariate polynomials: degree, then coefficients."""
    return (p.degree, tuple(str(c) for c in p.coeffs))


@dataclass
class CompatSplit:
    compatible_part: UniPoly                 # monic
    omega_sets: dict = dc_field(default_factory=dict)   # exponent -> [UniPoly]
    # the squarefree decomposition of chi_eps, for lc_compatibility_check to reuse
    squarefree_parts: list | None = dc_field(default=None, compare=False, repr=False)
    # the powers omega^i sorted by poly_sort_key, built once by compatible_split
    divisors: list = dc_field(kw_only=True, compare=False, repr=False)

    def composite_divisors(self) -> list[UniPoly]:
        """The pairwise coprime moduli omega^i, sorted deterministically.

        The pipeline, the assembly and the report each ask for them, so they
        are built once per split, where they are divided out of chi_eps.
        """
        return list(self.divisors)


def _sorted_multipliers(multipliers) -> list[UniPoly]:
    return sorted({m.monic() for m in multipliers if not m.is_constant}, key=poly_sort_key)


def _refined(part: UniPoly, polys) -> list[UniPoly]:
    """The gcds of the squarefree part with each of polys, split until pairwise coprime.

    Each gcd d goes into the bucket in turn; an entry w that shares g with d
    is replaced by g and w/g, and d goes on as d/g.  Bucket entries stay
    squarefree, monic and pairwise coprime throughout.
    """
    bucket: list[UniPoly] = []
    for p in polys:
        d = poly_gcd(p, part)
        k = 0
        while k < len(bucket) and not d.is_constant:
            g = poly_gcd(d, bucket[k])
            if g.is_constant:
                k += 1
                continue
            cof = exact_div(bucket[k], g).monic()
            repl = [g.monic()]
            if not cof.is_constant:
                repl.append(cof)
            bucket[k : k + 1] = repl
            d = exact_div(d, g).monic()
            k += len(repl)
        if not d.is_constant:
            bucket.append(d.monic())
    return bucket


def compatible_split(chi_eps: UniPoly, multipliers) -> CompatSplit:
    """Separate chi_eps into the multiplier-free part and composite divisors.

    chi_eps is squarefree-factorized as prod q_i^i; for each exponent i the
    gcds of q_i with every multiplier are folded into a pairwise coprime set
    Omega_i.  Whatever the Omega products leave of chi_eps is the part whose
    factors are provably factors of the true eliminant.
    """
    if chi_eps.is_constant:
        raise ConstantInputError("cannot split a constant")
    chi_eps = chi_eps.monic()
    parts = squarefree_decomposition(chi_eps)
    lams = _sorted_multipliers(multipliers)
    omega: dict[int, list[UniPoly]] = {}
    for qi, i in parts:
        bucket = _refined(qi, lams)
        if bucket:
            omega[i] = sorted(bucket, key=poly_sort_key)
    divisors = sorted((w**i for i, ws in omega.items() for w in ws), key=poly_sort_key)
    cp = chi_eps
    for d in divisors:
        cp = exact_div(cp, d)
    return CompatSplit(
        compatible_part=cp.monic(), omega_sets=omega, squarefree_parts=parts, divisors=divisors
    )


@dataclass
class LcVerdict:
    factor: UniPoly
    exponent: int
    coprime_to_lcs: bool


def lc_compatibility_check(chi_eps: UniPoly, basis, parts=None) -> list[LcVerdict]:
    """Fast sufficient check against the basis leading coefficients.

    Refines each squarefree-power factor of chi_eps by its gcds with the
    leading coefficients; pieces that share a factor with some leading
    coefficient fail the check (they may still be vindicated by the
    multiplier criterion, which is the authoritative one).  `parts` is the
    squarefree decomposition of chi_eps if known (`CompatSplit.squarefree_parts`).
    """
    if chi_eps.is_constant:
        raise ConstantInputError("cannot check a constant")
    lcs = [b.lc for b in basis if not b.lc.is_constant]
    verdicts: list[LcVerdict] = []
    if parts is None:
        parts = squarefree_decomposition(chi_eps.monic())
    for qi, i in parts:
        rest = qi
        for w in _refined(qi, lcs):
            verdicts.append(LcVerdict(factor=w, exponent=i, coprime_to_lcs=False))
            rest = exact_div(rest, w).monic()
        if not rest.is_constant:
            verdicts.append(LcVerdict(factor=rest, exponent=i, coprime_to_lcs=True))
    return verdicts
