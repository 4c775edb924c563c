"""Exact sparse arithmetic for Laurent polynomials in two variables t1, t2.

A polynomial is a finite map from exponent pairs (e1, e2), either of which
may be negative, to nonzero arbitrary-precision integer coefficients.  The
zero polynomial is the empty map.  Operations return new objects; instances
are never mutated after construction, so values are safe to share between
threads.

Leading terms, exact division and the canonical term order all use graded
lexicographic order on (e1, e2).  Like the Newton polygon, the ascending
term order is computed once per polynomial, on first use, and cached, or
carried: negation and t -> t^k keep it, and Δ is built in it.  The printed
text and the basic classes read that order.

``FactoredDelta`` reads Δ's centering, polygon, term count and text off
its factors, and refuses, with TooLarge, to expand a product that could
have more than MAX_TERMS terms, before it multiplies anything.  It
expands on one integer key per term, K(e) = (e1 + e2)·m + e1 with
m = 2x + 1 and x the largest |e1| of Δ: the key orders terms as graded
lex does and is linear in e, so a product term's key is the sum of its
factors' keys.  The report's JSON and every expanded print of Δ or of
its SW polynomial read the terms straight from those sorted keys.
"""

import heapq
from fractions import Fraction
from math import prod
from operator import index

from .errors import ComputationError

# The most terms FactoredDelta.expand may expand: Π len(factor) bounds the
# product's term count, so the 12-node chain's Δ (3^12 = 531,441 terms)
# is expanded and the 14-node chain's (3^14 = 4,782,969) is refused.
MAX_TERMS = 2 ** 20


class NotDivisible(ComputationError):
    """Exact division has no Laurent-polynomial quotient."""


class ZeroPolynomial(ComputationError):
    """The operation needs a nonzero polynomial."""


class TooLarge(ComputationError):
    """The expanded polynomial could have more than MAX_TERMS terms."""


class OddSpan(ComputationError):
    """Centering is impossible because some exponent span is odd.

    Carries the factors of the uncentered polynomial (``factors``), whose
    product is never expanded, and the half-integral shift (``shift``)
    that centering would require.
    """

    def __init__(self, factors, shift):
        super().__init__("cannot center: required shift (%s, %s) is not "
                         "integral" % shift)
        self.factors = tuple(factors)
        self.shift = shift


def _grlex_key(e):
    """Graded-lexicographic sort key for an exponent pair: (e1 + e2, e1),
    which fixes e2, so no third entry is needed."""
    return (e[0] + e[1], e[0])


def _term_text(e1, e2, c):
    """One term of the printed polynomial with its leading " + " or " - "."""
    if e1:
        m = "t1" if e1 == 1 else "t1^%d" % e1
        if e2:
            m += " t2" if e2 == 1 else " t2^%d" % e2
    elif e2:
        m = "t2" if e2 == 1 else "t2^%d" % e2
    else:
        return " - %d" % -c if c < 0 else " + %d" % c
    if c == 1:
        return " + " + m
    if c == -1:
        return " - " + m
    return " - %d %s" % (-c, m) if c < 0 else " + %d %s" % (c, m)


def _text(terms):
    """The printed polynomial of (e1, e2, coefficient) terms given in
    ascending graded-lex order: the highest term first, "0" for none."""
    pieces = [_term_text(e1, e2, c) for e1, e2, c in terms]
    if not pieces:
        return "0"
    pieces.reverse()
    # the leading term drops the " + " or keeps only the "-" of " - "
    first = pieces[0]
    pieces[0] = "-" + first[3:] if first[1] == "-" else first[3:]
    return "".join(pieces)


def convex_hull(points):
    """Vertices of the convex hull of a set of integer points.

    Returned counterclockwise, starting from the lexicographically
    smallest vertex.  Collinear non-extreme points are excluded.  A single
    point gives itself; a collinear set gives its two endpoints.
    """
    pts = sorted(set(tuple(p) for p in points))
    if len(pts) <= 2:
        return pts

    def turn(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and turn(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and turn(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _center(factors):
    """The integer shift (s1, s2), s_i = (max_i + min_i) / 2, that centers
    the product of the nonzero factors, read off the factors' extremes,
    which sum to the product's (Ostrowski).  Raises OddSpan, carrying the
    factors, when a shift is half-integral."""
    t1 = t2 = 0
    for factor in factors:
        e1s = [e[0] for e in factor.support()]
        e2s = [e[1] for e in factor.support()]
        t1 += max(e1s) + min(e1s)
        t2 += max(e2s) + min(e2s)
    if t1 % 2 or t2 % 2:
        raise OddSpan(factors, (Fraction(t1, 2), Fraction(t2, 2)))
    return t1 // 2, t2 // 2


class LaurentPoly:
    """Sparse bivariate Laurent polynomial with integer coefficients."""

    __slots__ = ("_terms", "_hull", "_order")

    def __init__(self, terms=None):
        data = {}
        if terms:
            items = terms.items() if hasattr(terms, "items") else terms
            for exps, coeff in items:
                key = (index(exps[0]), index(exps[1]))
                coeff = index(coeff)
                if not coeff:
                    continue
                c = data.get(key, 0) + coeff
                if c:
                    data[key] = c
                else:
                    data.pop(key, None)
        self._terms = data
        self._hull = None
        self._order = None

    @classmethod
    def _raw(cls, data, hull=None, order=None):
        # data is normalized (no zero coefficients); hull: its polygon or
        # None; order: its keys in ascending graded-lex order or None
        obj = cls.__new__(cls)
        obj._terms = data
        obj._hull = hull
        obj._order = order
        return obj

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({(0, 0): 1})

    @classmethod
    def constant(cls, c):
        return cls({(0, 0): c})

    @classmethod
    def monomial(cls, e1, e2, coeff=1):
        return cls({(e1, e2): coeff})

    # ------------------------------------------------------------- inspection

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        return len(self._terms)

    def support(self):
        """The set of exponent pairs carrying a nonzero coefficient."""
        return self._terms.keys()

    def items(self):
        return self._terms.items()

    def coefficient(self, e1, e2):
        return self._terms.get((e1, e2), 0)

    def _sorted_keys(self):
        """The exponent pairs in ascending graded-lex order, sorted once and
        cached."""
        if self._order is None:
            self._order = sorted(self._terms, key=_grlex_key)
        return self._order

    def leading_term(self):
        """((e1, e2), coeff) at the graded-lex-largest exponent pair."""
        if not self._terms:
            raise ZeroPolynomial("the zero polynomial has no leading term")
        e = max(self._terms, key=_grlex_key)
        return e, self._terms[e]

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    # ------------------------------------------------------------- arithmetic

    @staticmethod
    def _coerce(other):
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, int):
            return LaurentPoly.constant(other)
        return None

    def __neg__(self):
        return LaurentPoly._raw({e: -c for e, c in self._terms.items()},
                                self._hull, self._order)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = {}
        for (a1, a2), c in self._terms.items():
            for (b1, b2), d in other._terms.items():
                e = (a1 + b1, a2 + b2)
                s = out.get(e, 0) + c * d
                if s:
                    out[e] = s
                else:
                    del out[e]
        return LaurentPoly._raw(out)

    __rmul__ = __mul__

    def exact_divide(self, q):
        """Return r with r * q == self, or raise NotDivisible.

        Both operands are shifted so that their supports touch the
        coordinate axes (minimal exponents become zero); the shifted
        dividend is then reduced by leading-term elimination against the
        shifted divisor in graded-lex order.  A leading term whose
        exponents or coefficient the divisor's leading term does not
        divide proves there is no quotient over the integers.
        """
        q = self._coerce(q)
        if q is None:
            raise TypeError("divisor must be a LaurentPoly or int")
        if not q:
            raise ZeroPolynomial("division by the zero polynomial")
        if not self:
            return LaurentPoly.zero()

        sp1 = min(e[0] for e in self._terms)
        sp2 = min(e[1] for e in self._terms)
        sq1 = min(e[0] for e in q._terms)
        sq2 = min(e[1] for e in q._terms)
        rem = {(e[0] - sp1, e[1] - sp2): c for e, c in self._terms.items()}
        qd = {(e[0] - sq1, e[1] - sq2): c for e, c in q._terms.items()}
        qe = max(qd, key=_grlex_key)
        qc = qd[qe]
        qrest = [(e, c) for e, c in qd.items() if e != qe]

        # max-heap on graded-lex order, with lazy deletion of stale entries
        heap = [(-(e[0] + e[1]), -e[0], -e[1]) for e in rem]
        heapq.heapify(heap)
        quot = {}
        while heap:
            key = heapq.heappop(heap)
            e = (-key[1], -key[2])
            c = rem.get(e, 0)
            if c == 0:
                continue
            de = (e[0] - qe[0], e[1] - qe[1])
            if de[0] < 0 or de[1] < 0 or c % qc != 0:
                raise NotDivisible("no exact Laurent quotient")
            f = c // qc
            quot[de] = f
            del rem[e]
            for oe, oc in qrest:
                ne = (de[0] + oe[0], de[1] + oe[1])
                s = rem.get(ne, 0) - f * oc
                if s:
                    if ne not in rem:
                        heapq.heappush(heap, (-(ne[0] + ne[1]), -ne[0], -ne[1]))
                    rem[ne] = s
                else:
                    rem.pop(ne, None)

        off1 = sp1 - sq1
        off2 = sp2 - sq2
        return LaurentPoly._raw(
            {(e[0] + off1, e[1] + off2): c for e, c in quot.items()})

    def substitute_power(self, k):
        """Substitute t1 -> t1^k and t2 -> t2^k for a positive integer k.
        A polygon or order self already has is scaled by k, not
        recomputed: scaling keeps graded-lex order."""
        if k < 1:
            raise ValueError("power substitution needs k >= 1")
        if k == 1:
            return self
        terms, order = self._terms, self._order
        data = {(k * e[0], k * e[1]): terms[e] for e in order or terms}
        return LaurentPoly._raw(
            data, self._hull and [(k * e[0], k * e[1]) for e in self._hull],
            order and list(data))

    def shift(self, d1, d2):
        """Multiply by the monomial t1^d1 t2^d2.  A polygon self already
        has is translated, not recomputed."""
        if d1 == 0 and d2 == 0:
            return self
        return LaurentPoly._raw(
            {(e[0] + d1, e[1] + d2): c for e, c in self._terms.items()},
            self._hull and [(e[0] + d1, e[1] + d2) for e in self._hull])

    def symmetrize(self):
        """Center the support about the origin.

        Divides by t1^s1 t2^s2 where s_i = (max_i + min_i) / 2 over the
        support, so that per variable the maximal exponent equals minus
        the minimal one.  Returns (centered polynomial, (s1, s2)).
        Raises OddSpan when a shift is half-integral and ZeroPolynomial
        on zero input.
        """
        if not self._terms:
            raise ZeroPolynomial("cannot symmetrize the zero polynomial")
        s1, s2 = _center([self])
        return self.shift(-s1, -s2), (s1, s2)

    def newton_polygon(self):
        """Convex hull vertices of the support (see convex_hull).

        Computed once and cached, or carried: -p, shift, substitute_power
        map a polygon p has (keeping vertex order); Δ gets its zonotope.
        """
        if not self._terms:
            raise ZeroPolynomial("the zero polynomial has no Newton polygon")
        if self._hull is None:
            self._hull = convex_hull(self._terms.keys())
        return list(self._hull)

    # --------------------------------------------------------------- printing

    def __str__(self):
        terms = self._terms
        return _text((e[0], e[1], terms[e]) for e in self._sorted_keys())

    def __repr__(self):
        return "LaurentPoly(%r)" % (self._terms,)


class FactoredDelta:
    """Δ as the factors alexander_factors gives, one per kernel line and
    each lying on its line (Eisenbud & Neumann).  Hull, term count and text
    are read off them; only ``terms`` multiplies them, once, and ``expand``
    and ``expanded_text`` read its terms.  The constructor centers, so it
    raises OddSpan where symmetrize would.  Nothing checks that each
    factor lies on a line: for a factor that does not, ``newton_polygon``
    and the polygon ``expand`` gives its product are unspecified."""

    __slots__ = ("factors", "shift", "_expansion")

    def __init__(self, factors):
        self.factors = tuple(factors)
        self.shift = _center(self.factors)
        self._expansion = None

    def newton_polygon(self):
        """``expand().newton_polygon()`` without expanding: the factors'
        polygons are segments, so their Minkowski sum (Ostrowski) is a
        zonotope, walked counterclockwise from the sum of their lex-least
        points along the segments by ascending slope, then negated."""
        x, y = -self.shift[0], -self.shift[1]
        edges = {}
        for factor in self.factors:
            lo, hi = min(factor.support()), max(factor.support())
            x, y = x + lo[0], y + lo[1]
            dx, dy = hi[0] - lo[0], hi[1] - lo[1]
            if dx or dy:  # one key per slope (dy > 0 when dx == 0)
                ex, ey = edges.get((dx == 0, Fraction(dy, dx or dy)), (0, 0))
                edges[dx == 0, Fraction(dy, dx or dy)] = (ex + dx, ey + dy)
        steps = [edges[key] for key in sorted(edges)]
        vertices = [(x, y)]
        # the last negated step would close the walk at the start vertex
        for dx, dy in steps + [(-dx, -dy) for dx, dy in steps[:-1]]:
            x, y = x + dx, y + dy
            vertices.append((x, y))
        return vertices

    def term_count(self):
        """The product's number of terms: Π len(factor) when a mixed-radix
        certificate holds, else the number of expanded terms.  The
        certificate: projected onto e1 (failing that, e2) each factor's
        support is injective and, ordered by projected span, each factor's
        smallest gap exceeds the spans before it, so each choice of one
        term per factor has its own projected sum and nothing cancels."""
        for axis in (0, 1):
            projections = []
            for factor in self.factors:
                values = sorted({e[axis] for e in factor.support()})
                if len(values) < len(factor):
                    break
                projections.append(values)
            else:
                reach = 0
                for values in sorted(projections, key=lambda v: v[-1] - v[0]):
                    if any(b - a <= reach for a, b in zip(values, values[1:])):
                        break
                    reach += values[-1] - values[0]
                else:
                    return prod(len(factor) for factor in self.factors)
        return len(self._expand_keys()[1])

    def _expand_keys(self):
        """(x, keys, coefficients): the centered product with a positive
        graded-lex-leading coefficient, as its terms' integer keys
        K(e) = (m + 1) e1 + m e2, m = 2x + 1, ascending, and the
        coefficients in parallel; built on the first call and kept.

        x, the largest |e1| of the centered product, is half the sum of
        the factors' e1 spans, so every e1 lies in [-x, x] and K orders
        terms as graded lex does.  That order is translation invariant, so
        LT(fg) = LT(f) LT(g): the factors' keyed terms are multiplied onto
        the key of the monomial carrying shift and sign.  Raises TooLarge,
        before reading any factor's terms, when Π len(factor), a bound on
        the term count, exceeds MAX_TERMS."""
        if self._expansion is None:
            bound = prod(len(f) for f in self.factors)
            if bound > MAX_TERMS:
                raise TooLarge("the product could have %d terms, more than %d"
                               % (bound, MAX_TERMS))
            sign = (-1) ** sum(f.leading_term()[1] < 0 for f in self.factors)
            x = sum(max(e[0] for e in f.support())
                    - min(e[0] for e in f.support())
                    for f in self.factors) // 2
            m = 2 * x + 1
            terms = {-(m + 1) * self.shift[0] - m * self.shift[1]: sign}
            for factor in self.factors:
                keyed = [((m + 1) * e1 + m * e2, c)
                         for (e1, e2), c in factor.items()]
                product = {}
                get = product.get
                for k, c in terms.items():
                    for fk, fc in keyed:
                        key = k + fk
                        s = get(key, 0) + c * fc
                        if s:
                            product[key] = s
                        else:
                            del product[key]
                terms = product
            keys = sorted(terms)
            self._expansion = (x, keys, [terms[k] for k in keys])
        return self._expansion

    def terms(self, power=1):
        """The terms of Δ(t1^power, t2^power) as (e1, e2, coefficient) in
        ascending graded-lex order (t -> t^k keeps it), decoded from the
        integer keys.  Expands, or raises TooLarge, when called, not when
        first iterated."""
        x, keys, coeffs = self._expand_keys()
        m = 2 * x + 1

        def decoded():
            for k, c in zip(keys, coeffs):
                e1 = (k + x) % m - x
                yield power * e1, power * ((k - e1) // m - e1), c
        return decoded()

    def expand(self):
        """Δ as a LaurentPoly, built from ``terms()``: their order is its
        cached order and the factors' zonotope is its polygon, so nothing
        is multiplied or sorted again.  Raises TooLarge as ``terms``."""
        data = {(e1, e2): c for e1, e2, c in self.terms()}
        return LaurentPoly._raw(data, self.newton_polygon(), list(data))

    def expanded_text(self, power=1):
        """Δ(t1^power, t2^power) printed term by term, as str prints its
        expanded polynomial.  Its leading coefficient is Δ's, so positive:
        for power 2 this is also the SW polynomial's text."""
        return _text(self.terms(power))

    def text(self, power=1):
        """Δ(t1^power, t2^power) as the product of the centered factors;
        used for the chain family, whose factors are trinomials."""
        return "".join("(%s)" % f.symmetrize()[0].substitute_power(power)
                       for f in self.factors)
