"""Sparse polynomials in the eliminated-from variables with univariate
coefficients, plus elimination orderings.

A polynomial in K[x1, x2, ..., xn] is stored as a term map from monomials in
the tail variables (x2..xn) to coefficients in K[x1]; the same class also
carries residue-ring coefficients for the modular phase.  Monomials are bare
exponent tuples indexed by the tail variables in ascending precedence.

The search spends much of its time on term bookkeeping, so the monomial
helpers are `map` calls over `operator` functions (C loops, no generator
frames), each order binds its sort key once, and a constructor whose output
order cannot differ from its input's skips the sort: `MultiPoly.from_sorted`
takes terms already in decreasing order and only drops zero coefficients.
Mapping each coefficient (scale, negate, normalize, project, lift) or
shifting every monomial by one (`mul_term`; an order is multiplicative) keeps
the order; a sum or product can merge terms, so it sorts.
"""

from __future__ import annotations

from operator import add, itemgetter, le, mul, neg, sub

from .unipoly import UniPoly

Monomial = tuple  # exponent tuple over the tail variables


class ContextMismatchError(ValueError):
    """Operands built over different variable contexts."""


class ArityMismatchError(ValueError):
    """Monomials of different arity compared."""


class ZeroPolynomialError(ValueError):
    """Leading data requested from the zero polynomial."""


# -- monomial helpers ---------------------------------------------------------


def mon_one(arity: int) -> Monomial:
    return (0,) * arity


def mon_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def mon_divides(a: Monomial, b: Monomial) -> bool:
    return all(map(le, a, b))


def mon_div(a: Monomial, b: Monomial) -> Monomial:
    out = tuple(map(sub, a, b))
    if min(out, default=0) < 0:
        raise ArithmeticError("monomial division with negative exponent")
    return out


def mon_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def mon_coprime(a: Monomial, b: Monomial) -> bool:
    return not any(map(mul, a, b))


def mon_is_one(a: Monomial) -> bool:
    return not any(a)


# Order keys: larger key, larger monomial.  Lex reads the exponents from the
# last (highest-precedence) variable down; grevlex compares total degree, then
# the negated exponents from the first (lowest-precedence) variable up.
_lex_key = itemgetter(slice(None, None, -1))


def _grevlex_key(m: Monomial):
    return (sum(m), tuple(map(neg, m)))


class ElimOrder:
    """Monomial ordering on the tail-variable block (lex or grevlex).

    Exponent tuples are indexed smallest variable first, so lex compares from
    the last coordinate down.  Any tail monomial dominates any power of the
    eliminated variable, which lives in the coefficients and never enters the
    comparison.  `key` is bound once per order, so sorting with it runs no
    Python frame for lex and one for grevlex.
    """

    TAGS = ("lex", "grevlex")
    _KEYS = {"lex": _lex_key, "grevlex": _grevlex_key}

    def __init__(self, tag: str):
        if tag not in self.TAGS:
            raise ValueError(f"unknown ordering {tag!r}")
        self.tag = tag
        self.key = self._KEYS[tag]

    def compare(self, a: Monomial, b: Monomial) -> int:
        if len(a) != len(b):
            raise ArityMismatchError("monomial arity mismatch")
        ka, kb = self.key(a), self.key(b)
        if ka < kb:
            return -1
        if ka > kb:
            return 1
        return 0

    def __eq__(self, other) -> bool:
        return isinstance(other, ElimOrder) and other.tag == self.tag

    def __hash__(self) -> int:
        return hash(("ElimOrder", self.tag))

    def __repr__(self) -> str:
        return f"ElimOrder({self.tag})"


class VarContext:
    """Session object fixing the field/ring, variable names and ordering.

    `ring` is the coefficient ring marker: the field itself for K[x1]
    coefficients, or a residue-ring context for modular coefficients.
    Mixing polynomials from different contexts is a hard error.
    """

    __slots__ = ("ring", "field", "x1", "tilde", "order")

    def __init__(self, ring, field, x1: str, tilde: tuple[str, ...], order: ElimOrder):
        if x1 in tilde:
            raise ValueError("eliminated variable duplicated in the tail block")
        self.ring = ring
        self.field = field
        self.x1 = x1
        self.tilde = tuple(tilde)
        self.order = order

    @property
    def arity(self) -> int:
        return len(self.tilde)

    def mon_one(self) -> Monomial:
        return mon_one(self.arity)

    def ring_zero(self):
        return self.ring.zero_elem()

    def ring_one(self):
        return self.ring.one_elem()

    def with_ring(self, ring) -> "VarContext":
        return VarContext(ring, self.field, self.x1, self.tilde, self.order)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VarContext)
            and self.ring == other.ring
            and self.field == other.field
            and self.x1 == other.x1
            and self.tilde == other.tilde
            and self.order == other.order
        )

    def __hash__(self) -> int:
        return hash((self.ring, self.field, self.x1, self.tilde, self.order))

    def __repr__(self) -> str:
        names = f"{self.x1} < " + " < ".join(self.tilde)
        return f"VarContext({self.ring!r}; {names}; {self.order.tag})"


class _PolyRingTag:
    """Marker for plain K[x1] coefficients."""

    def __init__(self, field):
        self.field = field

    @staticmethod
    def elem(p: UniPoly) -> UniPoly:
        """The coefficient p of K[x1] itself, as a residue ring projects its representatives."""
        return p

    def zero_elem(self) -> UniPoly:
        return UniPoly.zero(self.field)

    def one_elem(self) -> UniPoly:
        return UniPoly.one(self.field)

    def __eq__(self, other) -> bool:
        return isinstance(other, _PolyRingTag) and other.field == self.field

    def __hash__(self) -> int:
        return hash(("PolyRing", self.field))

    def __repr__(self) -> str:
        return f"{self.field!r}[x1]"


def base_context(field, x1: str, tilde: tuple[str, ...], order: str = "lex") -> VarContext:
    return VarContext(_PolyRingTag(field), field, x1, tuple(tilde), ElimOrder(order))


class MultiPoly:
    """Immutable sparse polynomial over a VarContext.

    Terms are kept sorted descending under the context ordering so the
    leading term is terms[0] and reduction loops walk the support in
    decreasing order.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: VarContext, term_map: dict):
        mons = [m for m, c in term_map.items() if not c.is_zero]
        mons.sort(key=ctx.order.key, reverse=True)
        self.ctx = ctx
        self.terms = tuple([(m, term_map[m]) for m in mons])

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ctx: VarContext) -> "MultiPoly":
        return cls(ctx, {})

    @classmethod
    def from_sorted(cls, ctx: VarContext, terms) -> "MultiPoly":
        """The polynomial of (monomial, coefficient) pairs already in order.

        Precondition: the monomials are distinct and strictly decreasing
        under ctx.order, as they are when a polynomial's terms are mapped
        coefficient by coefficient or all shifted by one monomial.  Zero
        coefficients are dropped; nothing is sorted or merged.
        """
        self = object.__new__(cls)
        self.ctx = ctx
        self.terms = tuple([t for t in terms if not t[1].is_zero])
        return self

    @classmethod
    def from_coeff(cls, ctx: VarContext, c) -> "MultiPoly":
        return cls(ctx, {ctx.mon_one(): c})

    @classmethod
    def term(cls, ctx: VarContext, c, mon: Monomial) -> "MultiPoly":
        return cls(ctx, {tuple(mon): c})

    @classmethod
    def var(cls, ctx: VarContext, name: str) -> "MultiPoly":
        if name == ctx.x1:
            return cls.from_coeff(ctx, ctx.ring.elem(UniPoly.gen(ctx.field)))
        if name not in ctx.tilde:
            raise ValueError(f"unknown variable {name!r}")
        mon = tuple(1 if v == name else 0 for v in ctx.tilde)
        return cls.term(ctx, ctx.ring_one(), mon)

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_coeff(self) -> bool:
        """True when the support is contained in {1} (no tail variables)."""
        return not self.terms or (len(self.terms) == 1 and mon_is_one(self.terms[0][0]))

    def as_coeff(self):
        if self.is_zero:
            return self.ctx.ring_zero()
        if not self.is_coeff:
            raise ValueError("polynomial has tail-variable terms")
        return self.terms[0][1]

    @property
    def lm(self) -> Monomial:
        if not self.terms:
            raise ZeroPolynomialError("leading monomial of zero")
        return self.terms[0][0]

    @property
    def lc(self):
        if not self.terms:
            raise ZeroPolynomialError("leading coefficient of zero")
        return self.terms[0][1]

    def coeff_at(self, mon: Monomial):
        for m, c in self.terms:
            if m == mon:
                return c
        return self.ctx.ring_zero()

    def tail(self) -> "MultiPoly":
        """Drop the leading term."""
        return MultiPoly.from_sorted(self.ctx, self.terms[1:])

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "MultiPoly"):
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ContextMismatchError("mixed variable contexts")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms:
            if m in out:
                out[m] = out[m] + c
            else:
                out[m] = c
        return MultiPoly(self.ctx, out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly.from_sorted(self.ctx, [(m, -c) for m, c in self.terms])

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out: dict = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = mon_mul(m1, m2)
                p = c1 * c2
                if m in out:
                    out[m] = out[m] + p
                else:
                    out[m] = p
        return MultiPoly(self.ctx, out)

    def scale(self, c) -> "MultiPoly":
        return MultiPoly.from_sorted(self.ctx, [(m, a * c) for m, a in self.terms])

    def mul_term(self, c, mon: Monomial) -> "MultiPoly":
        return MultiPoly.from_sorted(self.ctx, [(mon_mul(m, mon), a * c) for m, a in self.terms])

    def sub_mul_term(self, other: "MultiPoly", c, mon: Monomial) -> "MultiPoly":
        """self - other.mul_term(c, mon), built and sorted once.

        A term of self that meets only zero products is kept as it is.
        """
        self._check(other)
        out = dict(self.terms)
        for m, a in other.terms:
            p = a * c
            if p.is_zero:
                continue
            m = mon_mul(m, mon)
            out[m] = out[m] - p if m in out else -p
        return MultiPoly(self.ctx, out)

    def tail_difference(
        self, c, mon: Monomial, other: "MultiPoly", d, other_mon: Monomial
    ) -> "MultiPoly":
        """(self - lt self)*c*mon - (other - lt other)*d*other_mon, built and sorted once.

        This is the S-polynomial when lc self*c == lc other*d and lm self*mon ==
        lm other*other_mon: the two leading terms cancel, so neither is formed.
        """
        self._check(other)
        out = {mon_mul(m, mon): a * c for m, a in self.terms[1:]}
        for m, a in other.terms[1:]:
            p = a * d
            m = mon_mul(m, other_mon)
            out[m] = out[m] - p if m in out else -p
        return MultiPoly(self.ctx, out)

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.ctx == other.ctx
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.ctx, self.terms))

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- printing ----------------------------------------------------------

    def _mon_fmt(self, mon: Monomial) -> str:
        parts = []
        for name, e in reversed(list(zip(self.ctx.tilde, mon))):
            if e == 0:
                continue
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts)

    def fmt(self) -> str:
        if not self.terms:
            return "0"
        x1 = self.ctx.x1
        pieces = []
        for mon, c in self.terms:
            cs = c.rep.fmt(x1)
            if mon_is_one(mon):
                body, neg = cs, False
                if body.startswith("-") and " " not in body:
                    body, neg = body[1:], True
                elif body.startswith("-"):
                    # multi-term with negative head: keep sign inside parens
                    body, neg = f"({cs})", False
                elif " " in body:
                    body = f"({cs})"
            else:
                ms = self._mon_fmt(mon)
                neg = False
                if " " in cs:
                    body = f"({cs})*{ms}"
                elif cs == "1":
                    body = ms
                elif cs == "-1":
                    body, neg = ms, True
                elif cs.startswith("-"):
                    body, neg = f"{cs[1:]}*{ms}", True
                else:
                    body = f"{cs}*{ms}"
            if not pieces:
                pieces.append(("-" if neg else "") + body)
            else:
                pieces.append((" - " if neg else " + ") + body)
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"MultiPoly({self.fmt()})"
