"""Assemble the eliminant and ideal decomposition, and normalize bases.

The true eliminant is the compatible part of the pseudo-eliminant times the
contribution of each composite divisor (its modulus when the modular run
ends at zero, the lifted modular eliminant otherwise, nothing when the
component is trivial).  Each surviving component carries a basis over its
residue ring; membership and normal forms reduce component-wise and, for
normal forms, recombine by the Chinese remainder theorem over the pairwise
coprime moduli.

Reduction here is gcd-division: a term is reducible when its coefficient
lies in the ideal generated by g = gcd(q, eligible leading coefficients),
that is, when g divides it, and the reduction combines all eligible divisors
through the cofactors of g against the modulus.  Every step has multiplier
one, so the verdict is read off the remainder.  This is the
membership-grade reduction; the eliminant engines never use it because the
cofactors are where coefficient swell hides.

The gcd and its cofactors depend only on which divisors are eligible, so a
step looks them up in a table keyed by the tuple of eligible indices.  Each
gcd-division builds its own table, and each component owns one for its
basis, which never changes after assembly; the component's first probe
fills it, so assembly itself never pays for it.

Probes skip gcd-division in a component in shape position, the generic case
by the Shape Lemma (Gianni & Mora 1987): its reduced basis is one element
x_i + t_i per tail variable, with t_i at the constant monomial (a reduced
basis scales every unit leading coefficient to one).  That basis generates
<x_i - r_i> with r_i = -t_i, so f reduces to the residue f(x1, r), which is
the unique remainder and therefore the gcd-division remainder.  The first
probe reads r off the basis, as it fills the step table of other
components.  The CRT data of normal forms are inverted by
`poly_half_ext_gcd`, which tracks only the one cofactor an inverse needs.
Probes keep what they build in the component's `images`: the powers of each
r_i, reduced mod q, and the image r_1^a_1*...*r_n^a_n of each tail monomial
they meet.  That is one image per distinct tail monomial probed, of degree
< n*deg q, and the powers of r_i up to the largest exponent of x_i probed.
A later probe then forms no product or partial sum of polynomials: its
terms c*image go through one `sum_of_products` pass, reduced mod q once.
Normal forms recombine the same way, one `sum_of_products` per monomial
reduced once mod the eliminant.

A modular component's basis is projected onto its ring only when the run
ended over another one (without base change, the temporary eliminant's
ring is not the run's); a proper basis already over its component's ring,
as every one is under base change, is used as it is.

The basis ladder (irredundant, then minimal, then reduced) asks of most
elements only whether a step exists.  That needs no cofactors: a term is
reducible exactly when some divisor is eligible and g, the gcd of the
modulus and the eligible leading coefficients, divides its coefficient.
The minimal pass computes cofactors only for the elements it replaces.
Every element the ladder makes is brought to `standard_form`: its leading
coefficient is the monic gcd of itself with the modulus.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property, partial
from itertools import groupby
from operator import itemgetter

from .compat import CompatSplit
from .engine import Division, debug_checks_enabled, divide, sort_key
from .multipoly import MultiPoly, VarContext, mon_div, mon_divides, mon_is_one
from .pqr import PqrCtx, ProperOutcome, lift_multipoly, project_multipoly, residue_context
from .pseudo import PseudoOutcome
from .unipoly import (
    UniPoly,
    coprime_part,
    divrem,
    exact_div,
    poly_gcd,
    poly_half_ext_gcd,
    poly_multi_ext_gcd,
    sum_of_products,
)


class MissingComponentError(ValueError):
    pass


# -- gcd-term reduction ---------------------------------------------------------


def _coprime_adjust(g: UniPoly, d_st: UniPoly, modulus: UniPoly) -> UniPoly:
    """A lift w with w*d_st congruent to g mod q and w coprime to q, the modulus.

    g is a nonzero lift with gcd(g, q) = d_st.  Write a = g/d_st and
    b = q/d_st, which are coprime.  When a is coprime to q, w = a.
    Otherwise w = a + t*b, where t is the part of q coprime to both a and b;
    then w*d_st = g + t*q.  Take a prime p dividing q.  If p divides a, it
    divides neither b nor t, so p does not divide w = a + t*b.  If p divides
    b, it does not divide a, and w = a mod p.  If p divides neither, it
    divides t, and again w = a mod p.  So no prime of q divides w.
    """
    a = exact_div(g, d_st)
    if poly_gcd(a, modulus).is_constant:
        return a
    b = exact_div(modulus, d_st)
    return a + coprime_part(coprime_part(modulus, a), b) * b


def _eligible(divisors, mon) -> tuple:
    """Indices of the divisors whose leading monomial divides mon."""
    return tuple(i for i, b in enumerate(divisors) if mon_divides(b.lm, mon))


def _lc_gcd(divisors, hits, ring: PqrCtx):
    """(g, cofactors as residues) for the divisors at `hits`.

    g = gcd(q, lc_1, ..., lc_k) is monic, and the cofactors a_i give
    a_1*lc_1 + ... + a_k*lc_k = g mod q: q's own cofactor is dropped.  When
    the leading coefficients are monic divisors of q, as in every reduced
    basis, their gcd already divides q, and appending q changes neither g
    nor the cofactors.
    """
    g, cofs = poly_multi_ext_gcd([divisors[i].lc for i in hits] + [ring.modulus])
    return g, [ring.elem(cof) for cof in cofs[:-1]]


def _lc_content(divisors, hits, d: UniPoly) -> UniPoly:
    """Monic gcd of d and the leading coefficients of the divisors at `hits`.

    With d the modulus this is the g of `_lc_gcd`, found without cofactors.
    """
    for i in hits:
        if d.is_one:
            break
        d = poly_gcd(divisors[i].lc, d)
    return d


def _gcd_step(divisors, mon, c, table):
    # the term is reducible when g = gcd(q, eligible leading coefficients)
    # divides c; then (c/g)*sum(a_i*lc_i) = c mod q, so the step subtracts
    # (c/g)*a_i times each eligible divisor with multiplier one.  `_lc_gcd`
    # depends only on which divisors are eligible, so `table` keeps it by
    # the tuple of eligible indices.
    hits = _eligible(divisors, mon)
    if not hits:
        return None
    ring: PqrCtx = divisors[hits[0]].ctx.ring
    entry = table.get(hits)
    if entry is None:
        entry = table[hits] = _lc_gcd(divisors, hits, ring)
    g, cofs = entry
    if g.is_one:
        scale = c
    else:
        scale, rem = divrem(c, g)
        if not rem.is_zero:
            return None
    parts = [(i, ring.mul(scale, cof)) for i, cof in zip(hits, cofs)]
    return ring.one_elem(), [(i, factor) for i, factor in parts if not factor.is_zero]


def gcd_reduce(f: MultiPoly, divisors: list[MultiPoly], table: dict | None = None) -> Division:
    """Full gcd-division of f by the divisor list over a residue context.

    Every step has multiplier one, for any divisors, so the multiplier of
    the division is one and f - remainder lies in the ideal of the divisors.
    `table` is the step table of this exact divisor list (see
    `Component.table`); without one, the call builds its own.
    """
    return divide(f, divisors, partial(_gcd_step, table={} if table is None else table))


# -- basis normalization ladder ---------------------------------------------------


def _basis_sorted(basis: list[MultiPoly]) -> list[MultiPoly]:
    """Sorted by (leading monomial, lc degree); `fmt()` only breaks ties.

    Each element's sort key is computed once.
    """
    out = []
    keyed = sorted([(sort_key(b), b) for b in basis], key=itemgetter(0))
    for _, run in groupby(keyed, key=itemgetter(0)):
        run = [b for _, b in run]
        out.extend(sorted(run, key=MultiPoly.fmt) if len(run) > 1 else run)
    return out


def _lt_reducible(b: MultiPoly, others: list[MultiPoly]) -> bool:
    """Whether `_gcd_step` has a step for b's leading term, without its cofactors.

    It has one exactly when some divisor is eligible and g, the gcd of q and
    their leading coefficients, divides lc(b).
    """
    hits = _eligible(others, b.lm)
    if not hits:
        return False
    g = _lc_content(others, hits, b.ctx.ring.modulus)
    return g.is_constant or (b.lc % g).is_zero


def standard_form(f: MultiPoly) -> MultiPoly:
    """f times the unit that turns lc f into its standard factor gcd(lc f, q).

    Every residue is a unit times its standard factor, so this is the normal
    form of f up to units (Norton & Salagean 2001).  A constant lc is
    inverted in the field, a unit lc by one `poly_half_ext_gcd` with q, and
    any other lc, w*gcd(lc, q), through the unit lift w of `_coprime_adjust`.
    An f already in this form is returned as it is.
    """
    lc = f.lc
    if lc.is_constant:
        if lc.is_one:
            return f
        k = lc._lc_inverse()
        return MultiPoly.from_sorted(f.ctx, [(m, c.scale(k)) for m, c in f.terms])
    ring: PqrCtx = f.ctx.ring
    d, inverse = poly_half_ext_gcd(lc, ring.modulus)
    if d.is_constant:
        unit = ring.elem(inverse)
    elif d == lc:
        return f
    else:
        unit = ring.inverse(ring.elem(_coprime_adjust(lc, d, ring.modulus)))
    return f.scale(unit)


def make_irredundant(basis: list[MultiPoly]) -> list[MultiPoly]:
    """Drop elements whose leading term the rest already covers; bring the rest to `standard_form`.

    Candidates are tried most-complex-first so that of two elements with
    mutually reducible leading terms the simpler one survives.  Whether a
    leading term is reducible depends only on standard factors, so the drop
    pass reads the elements as they come, and only the survivors are scaled.
    """
    out = _basis_sorted([b for b in basis if not b.is_zero])
    # dropping an element only shrinks the divisor sets of the others, which
    # never makes a kept element reducible, so one pass from the end suffices
    for i in range(len(out) - 1, -1, -1):
        rest = out[:i] + out[i + 1 :]
        if rest and _lt_reducible(out[i], rest):
            del out[i]
    return _basis_sorted([standard_form(b) for b in out])


def make_minimal(basis: list[MultiPoly]) -> list[MultiPoly]:
    """Irredundant basis whose leading coefficients attain the local gcds.

    The result is irredundant, so no redundancy pass follows.  Let B be the
    irredundant basis and s_M = gcd(q, lc c : c in B, lm c | M) for a
    monomial M.  Every f in B is replaced by an element with leading
    monomial lm f whose leading coefficient is s_(lm f), and one replacement
    is kept per leading monomial.  B is in standard form, so each lc f is
    its own standard factor, and so is a replacement's: its leading
    coefficient is the g of `_lc_gcd`, which is s_(lm f).  Take the kept b
    with leading monomial M.  The other kept elements whose leading
    monomials divide M stand for the elements of B whose monomials strictly
    divide M (with none, b has no divisor), so b is reducible when
    d = gcd(q, lc c : c in B, lm c strictly divides M) divides s_M, that is,
    when d divides the leading coefficient of every f in B with lm f = M.
    Then the rest of B has gcd d at M for any such f, and f was reducible
    in B, which is irredundant.  So every element's leading coefficient is
    its standard factor, and the duplicate check reads it there; debug
    checks confirm it for each replacement.

    When no element is replaced, B is the result as it is.  Two elements f, g
    of B with one leading monomial M cannot both be kept: both standard
    factors would be s_M, so gcd(q, lc g) divides lc f and f was reducible
    in B.  So B has no duplicates and no two elements share a leading
    monomial; it is sorted by `sort_key` with no ties, which is
    `_basis_sorted` order.
    """
    return _make_minimal(basis, debug_checks_enabled())


def _make_minimal(basis: list[MultiPoly], check: bool) -> list[MultiPoly]:
    """`make_minimal`, with the debug switch read by the caller."""
    out = make_irredundant(basis)
    if not out:
        return out
    ctx = out[0].ctx
    ring: PqrCtx = ctx.ring
    replaced = []
    swapped = False
    for f in out:
        hits = _eligible(out, f.lm)
        # f is among the hits, so d divides lc f; cofactors only on a mismatch
        d = _lc_content(out, hits, f.lc)
        if d == f.lc:
            replaced.append(f)
            continue
        g, cofs = _lc_gcd(out, hits, ring)
        acc = MultiPoly.zero(ctx)
        for i, cof in zip(hits, cofs):
            if cof.is_zero:
                continue
            b = out[i]
            acc = acc + b.mul_term(cof, mon_div(f.lm, b.lm))
        if acc.is_zero or acc.lm != f.lm:
            raise AssertionError("minimal-basis combination lost its leading term")
        if check and (acc.lc != g or g != d):
            raise AssertionError("replacement's leading coefficient is not its standard factor")
        replaced.append(acc)
        swapped = True
    if not swapped:
        return out
    # drop later duplicates, whose leading terms are equal
    kept = {}
    for b in _basis_sorted(replaced):
        kept.setdefault((b.lm, b.lc), b)
    return list(kept.values())


def make_reduced(basis: list[MultiPoly]) -> list[MultiPoly]:
    """Fully tail-reduced minimal basis, each leading coefficient its standard factor.

    No term of an element is reducible by the others, the leading monomials
    are those of a minimal basis of the ideal, and every leading coefficient
    is the monic gcd of itself with q (`standard_form`), so no unit a run
    gave an element survives.  Still open: a tail coefficient that is not a
    multiple of the eligible leading coefficients' gcd is kept as it is, so
    two runs may leave tails that differ by such a multiple, as strategies
    do for 4 of the first 1200 ideals `test_differential.random_ideal_text`
    draws from `random.Random(1)` (ideals 164, 423, 453 and 1061).  Strong
    reduction (Kandri-Rody & Kapur 1988) would close that.

    One tail-reduction pass suffices.  The basis is minimal, so a pass keeps
    every leading term: a term is reducible only when the gcd of q and the
    eligible leading coefficients divides its coefficient, and every step
    has multiplier one.  So reducibility stays fixed while later elements
    are replaced, and a second pass would change nothing; debug checks run
    it to confirm, comparing every remainder.  The first pass keeps an
    element whose gcd-division took no step.  No sort key changes, and a
    minimal basis has no ties, so the basis stays sorted.
    """
    check = debug_checks_enabled()
    out = _make_minimal(basis, check)
    if len(out) <= 1:
        return out
    for n in range(2 if check else 1):
        for i in range(len(out)):
            rest = out[:i] + out[i + 1 :]
            division = gcd_reduce(out[i], rest)
            if not n and not division.steps:
                continue
            r = division.remainder
            if r.is_zero:
                raise AssertionError("reduced-basis element vanished")
            if n and r != out[i]:
                raise AssertionError("a second tail-reduction pass changed the basis")
            out[i] = r
    return out


# -- decomposition -----------------------------------------------------------------


@dataclass
class Component:
    kind: str                      # "compatible" or "modular"
    modulus: UniPoly               # monic, non-constant
    var_ctx: VarContext
    basis: list                    # reduced basis over var_ctx
    source_modulus: UniPoly | None = None   # composite divisor for modular parts
    eliminant_code: str = ""
    # gcd-step table of `basis` for probes, filled by the first one; valid
    # because the basis never changes once assembled, as is `images`, which
    # probes in shape position fill (see `_image`)
    table: dict = dc_field(default_factory=dict, repr=False, compare=False)
    images: dict = dc_field(default_factory=dict, repr=False, compare=False)

    def project(self, f: MultiPoly) -> MultiPoly:
        return project_multipoly(f, self.var_ctx)

    @cached_property
    def substitution(self) -> list | None:
        """r with x_i = r_i when the basis is in shape position, else None.

        The first probe computes it, as it fills `table`.
        """
        return shape_substitution(self.basis, self.var_ctx)


@dataclass
class TrivialComponent:
    source_modulus: UniPoly
    eliminant_code: str = "1"


@dataclass
class Decomposition:
    eliminant: UniPoly
    components: list = dc_field(default_factory=list)
    trivial: list = dc_field(default_factory=list)
    inconsistent: bool = False
    base_ctx: VarContext | None = None

    @cached_property
    def crt_data(self):
        """`_crt_data` of this decomposition, computed by the first `normal_form`."""
        return _crt_data(self)


def assemble(
    pseudo: PseudoOutcome,
    split: CompatSplit,
    propers: dict,
    base_ctx: VarContext,
) -> Decomposition:
    """Combine the pseudo run, the split and the modular runs.

    `propers` maps each composite divisor (as produced by the split) to its
    modular outcome.  Component bases are pushed through the normalization
    ladder so reduced, canonical bases are what membership uses and reports
    show.
    """
    field = base_ctx.field
    chi = split.compatible_part.monic()
    components: list[Component] = []
    trivial: list[TrivialComponent] = []
    if not split.compatible_part.is_constant:
        ctx_d = residue_context(base_ctx, split.compatible_part)
        basis = [project_multipoly(b, ctx_d) for b in pseudo.basis]
        basis = [b for b in basis if not b.is_zero]
        if any(b.is_coeff for b in basis):
            raise AssertionError("pseudo-basis element projected to a nonzero residue")
        components.append(
            Component(
                kind="compatible",
                modulus=split.compatible_part,
                var_ctx=ctx_d,
                basis=make_reduced(basis),
            )
        )
    for q in split.composite_divisors():
        if q not in propers:
            raise MissingComponentError(f"no modular run for {q.fmt()}")
        outcome: ProperOutcome = propers[q]
        if outcome.inconsistent:
            trivial.append(TrivialComponent(source_modulus=q))
            continue
        delta = q if outcome.eliminant is None else outcome.eliminant
        chi = chi * delta
        ctx_delta = residue_context(base_ctx, delta)
        if outcome.basis_var_ctx == ctx_delta:
            # already over the component's ring, as every basis is under base
            # change: projecting again would return equal representatives
            ctx_delta = outcome.basis_var_ctx
            basis = outcome.basis
        else:
            basis = [project_multipoly(b, ctx_delta) for b in outcome.basis]
            basis = [b for b in basis if not b.is_zero]
        if any(b.is_coeff for b in basis):
            raise AssertionError("modular basis element projected to a nonzero residue")
        components.append(
            Component(
                kind="modular",
                modulus=delta,
                var_ctx=ctx_delta,
                basis=make_reduced(basis),
                source_modulus=q,
                eliminant_code=outcome.eliminant_code,
            )
        )
    return Decomposition(
        eliminant=chi.monic(),
        components=components,
        trivial=trivial,
        inconsistent=pseudo.inconsistent,
        base_ctx=base_ctx,
    )


# -- membership and normal forms -----------------------------------------------------


def shape_substitution(basis: list[MultiPoly], ctx: VarContext) -> list | None:
    """[r_1, ..., r_n] when basis is {x_i + t_i}, else None.

    Each tail variable x_i leads exactly one element, with leading
    coefficient one, t_i sits at the constant monomial, and r_i = -t_i is a
    residue.  A reduced basis in shape position has this form, since every
    leading coefficient of a unit is one (`make_reduced`); any other basis
    answers by gcd-division.
    """
    r = [None] * ctx.arity
    for b in basis:
        (mon, u), *rest = b.terms
        if not u.is_one or sum(mon) != 1 or len(rest) > 1:
            return None
        if rest and not mon_is_one(rest[0][0]):
            return None
        i = mon.index(1)
        if r[i] is not None:
            return None
        r[i] = -rest[0][1] if rest else ctx.ring.zero_elem()
    return None if None in r else r


def _image(mon: tuple, comp: Component, r: list) -> UniPoly:
    """r_1^a_1*...*r_n^a_n for mon = (a_1, ..., a_n), kept in `comp.images`.

    `images` maps each tail monomial a probe has met to its image, the
    unreduced product of the reduced powers, and each tail index i to the
    powers [1, r_i, r_i^2, ...] reduced mod q, grown as far as the probes'
    exponents of x_i need.  So it holds one entry per distinct tail monomial
    probed, each of degree < n*deg q, and per x_i the powers up to the
    largest exponent of x_i probed (at least the first), each of degree
    < deg q.
    """
    images = comp.images
    modulus = comp.var_ctx.ring.modulus
    image = None
    for i, e in enumerate(mon):
        if e:
            pw = images.get(i)
            if pw is None:
                pw = images[i] = [UniPoly.one(modulus.field), r[i]]
            while len(pw) <= e:
                pw.append(pw[-1] * pw[1] % modulus)
            image = pw[e] if image is None else image * pw[e]
    if image is None:
        image = UniPoly.one(modulus.field)
    images[mon] = image
    return image


def _substituted(f: MultiPoly, comp: Component, r: list) -> UniPoly:
    """f(x1, r) in the component's ring, f over K[x1], on representatives in K[x1].

    Each term c*r_1^a_1*...*r_n^a_n is c times its monomial's image, kept
    across probes (see `_image`); one `sum_of_products` call forms the
    unreduced sum of the terms, reduced mod q once.
    """
    ring: PqrCtx = comp.var_ctx.ring
    images = comp.images
    pairs = []
    for mon, c in f.terms:
        image = images.get(mon)
        if image is None:
            image = _image(mon, comp, r)
        pairs.append((c, image))
    return ring.elem(sum_of_products(ring.field, pairs))


def component_remainder(f: MultiPoly, comp: Component) -> MultiPoly:
    """gcd-division remainder of f in the component's ring, with multiplier one.

    In shape position it is the residue f(x1, r), the unique remainder.
    """
    r = comp.substitution
    if r is not None:
        return MultiPoly.from_coeff(comp.var_ctx, _substituted(f, comp, r))
    return gcd_reduce(comp.project(f), comp.basis, comp.table).remainder


def is_member(f: MultiPoly, dec: Decomposition) -> bool:
    """Membership in the original ideal, component by component.

    Every gcd-division step has multiplier one, so the verdict is read off
    the remainder itself; in shape position that is the residue f(x1, r).
    """
    if dec.inconsistent:
        return True
    return all(
        _substituted(f, comp, r).is_zero
        if (r := comp.substitution) is not None
        else gcd_reduce(comp.project(f), comp.basis, comp.table).remainder.is_zero
        for comp in dec.components
    )


def _crt_data(dec: Decomposition):
    """(eliminant, combos): combos[i] is 1 mod component i's modulus and 0 mod the others'."""
    moduli = [comp.modulus for comp in dec.components]
    total = dec.eliminant
    combos = []
    for m in moduli:
        rest = exact_div(total, m)
        u = poly_half_ext_gcd(rest % m, m)[1]
        combos.append((rest * u) % total)
    return total, combos


def normal_form(f: MultiPoly, dec: Decomposition):
    """Per-component remainders and their CRT recombination mod the eliminant.

    Returns (combined, remainders); the combined representative satisfies
    normal_form(f - combined) == 0 and is a fixpoint of normal_form itself.
    """
    if dec.base_ctx is None:
        raise ValueError("decomposition lacks its base context")
    remainders = [component_remainder(f, comp) for comp in dec.components]
    total, combos = dec.crt_data
    mons = sorted(
        {m for r in remainders for m, _ in r.terms},
        key=dec.base_ctx.order.key,
        reverse=True,
    )
    out = []
    for mon in mons:
        pairs = [(r.coeff_at(mon), combo) for r, combo in zip(remainders, combos)]
        out.append((mon, sum_of_products(dec.base_ctx.field, pairs) % total))
    combined = MultiPoly.from_sorted(dec.base_ctx, out)
    return combined, remainders


def lift_component_basis(comp: Component, base_ctx: VarContext, pseudo_basis=None):
    """Generators of (ideal + modulus) up in the polynomial ring.

    Default form lifts the component's reduced basis; passing the pseudo
    basis swaps in its elements instead, which span the same ideal alongside
    the modulus.
    """
    mod_poly = MultiPoly.from_coeff(base_ctx, comp.modulus)
    if pseudo_basis is not None:
        return list(pseudo_basis) + [mod_poly]
    return [lift_multipoly(b, base_ctx) for b in comp.basis] + [mod_poly]
