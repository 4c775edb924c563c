"""Fibration invariants of a 2-component graph link read off its diagram.

Everything here consumes only the linking numbers of the link components
with the virtual components (nodes and boundary vertices) and the vertex
degrees, via the standard weighted-tree formulas of splice calculus:

* a class (m1, m2) is fibered iff it pairs nontrivially with every virtual
  component;
* its norm is sum over virtual vertices v of
  (degree(v) - 2) * |m1 * lk(K1, v) + m2 * lk(K2, v)|,
  so boundary vertices (degree 1) contribute negatively;
* the Alexander polynomial is the alternating product of the binomials
  t1^lk(K1,v) t2^lk(K2,v) - 1 raised to degree(v) - 2, symmetrized.  It is
  built one kernel line at a time: binomials of distinct primitive
  directions share no irreducible factor, so the product is a Laurent
  polynomial exactly when each line's quotient is (alexander_factors).

A SpliceDiagram is valid by construction, so every weight is at least 1
and every lk(K_i, v), a product of weights, is too: no form is zero, and
every form has a kernel line.
"""

from collections import namedtuple
from functools import cmp_to_key
from math import gcd

from .errors import ComputationError
from .laurent import FactoredDelta, LaurentPoly, NotDivisible
from .splice import linking_number


class DegenerateForm(ComputationError):
    """The norm unit ball is not a bounded polygon: the diagram has no
    non-fibered ray, or a ray of norm 0."""


class ZeroSlope(ComputationError):
    """The boundary slope vanishes."""


class Ray(namedtuple("Ray", "primitive norm")):
    """A primitive lattice direction (an integer pair) together with its
    integer norm."""
    __slots__ = ()


class BoundarySlope(namedtuple("BoundarySlope",
                               "component_index meridian_coeff "
                               "longitude_coeff divisibility beta_primitive")):
    """The cable curve cut out on one boundary torus by a fibration class.

    Coordinates are taken in the (meridian, longitude) basis of the
    component; the slope factors as divisibility * beta_primitive.
    """
    __slots__ = ()


def is_fibered(d, m):
    """True iff (m1, m2) pairs nontrivially with every node and boundary
    vertex.  The zero class is never fibered."""
    m1, m2 = m
    if m1 == 0 and m2 == 0:
        return False
    return all(m1 * a + m2 * b != 0 for _v, a, b, _deg in d.virtual_forms())


def thurston_norm(d, m):
    """Weighted-tree norm of the class (m1, m2).

    Sum over nodes and boundary vertices of
    (degree - 2) * |m1 * lk(K1, v) + m2 * lk(K2, v)|; the degree-1
    boundary vertices subtract.
    """
    m1, m2 = m
    total = 0
    for _v, a, b, deg in d.virtual_forms():
        total += (deg - 2) * abs(m1 * a + m2 * b)
    return total


def _normalize_direction(x, y):
    g = gcd(x, y)
    x, y = x // g, y // g
    if x < 0 or (x == 0 and y < 0):
        x, y = -x, -y
    return x, y


def _descending_angle(p, q):
    c = p[0] * q[1] - p[1] * q[0]
    return (c > 0) - (c < 0)


def _forms_by_line(d):
    """The entries of d.virtual_forms() grouped by the kernel line of their
    form: a dict keyed by the line's primitive (positive first nonzero
    coordinate), in decreasing-angle order."""
    lines = {}
    for form in d.virtual_forms():
        _v, a, b, _deg = form
        lines.setdefault(_normalize_direction(b, -a), []).append(form)
    order = sorted(lines, key=cmp_to_key(_descending_angle))
    return {p: lines[p] for p in order}


def nonfibered_rays(d):
    """The non-fibered lattice directions of the diagram, with norms.

    Each virtual component contributes the kernel line of its pairing
    form (lk(K1, v), lk(K2, v)); proportional lines are reported once.
    Primitives are normalized to have positive first nonzero coordinate,
    and the list is ordered by decreasing angle from the positive m1-axis
    (for the chain family this is the natural index order of the rays).
    """
    return [Ray(p, thurston_norm(d, p)) for p in _forms_by_line(d)]


def _check_line_quotient(forms):
    """Raise NotDivisible unless the quotient of one kernel line's node
    binomials by its degree-1 binomials is a Laurent polynomial, without
    multiplying anything.

    On the line with primitive p every form is g·(−p2, p1), |g| the gcd of
    its two linking numbers, so with u = t^(−p2, p1) each binomial is
    u^g − 1 = Π_{k | g} Φ_k(u) up to a unit.  Cyclotomic polynomials are
    irreducible and distinct, so the quotient exists iff
    e_k = Σ_v (deg_v − 2)·[k divides |g_v|] is ≥ 0 for every k.  e_k
    depends only on the set of |g_v| that k divides, and that set is the
    one of their gcd G, an element of the gcd-closure of the |g_v|; so
    checking e_G ≥ 0 over that closure decides, with no factorization
    (Eisenbud & Neumann)."""
    weighted = [(gcd(a, b), deg - 2) for _v, a, b, deg in forms if deg != 2]
    closure = set()
    for g, _w in weighted:
        closure |= {gcd(g, h) for h in closure}
        closure.add(g)
    for divisor in closure:
        if sum(w for g, w in weighted if g % divisor == 0) < 0:
            raise NotDivisible("no exact Laurent quotient")


def alexander_factors(d):
    """The uncentered factors of the Alexander polynomial, one per ray of
    nonfibered_rays and in its order: the product of
    (t1^lk(K1,v) t2^lk(K2,v) - 1)^(degree(v) - 2) over the virtual
    vertices whose kernel line is that ray.  Every line is checked for an
    exact quotient before any is multiplied (NotDivisible); then the
    degree-1 binomials are divided out of the line's numerator one at a
    time.  The 2n-node chain gives 2n trinomials."""
    lines = list(_forms_by_line(d).values())
    for forms in lines:
        _check_line_quotient(forms)
    factors = []
    for forms in lines:
        numerator = LaurentPoly.one()
        denominators = []
        for _v, a, b, deg in forms:
            binomial = LaurentPoly({(a, b): 1, (0, 0): -1})
            for _ in range(deg - 2):
                numerator = numerator * binomial
            if deg == 1:
                denominators.append(binomial)
        for binomial in denominators:
            numerator = numerator.exact_divide(binomial)
        factors.append(numerator)
    return factors


def alexander_polynomial(d):
    """The symmetrized 2-variable Alexander polynomial of the link: the
    product of alexander_factors, centered and sign-normalized so that
    the graded-lex-leading coefficient is positive (FactoredDelta.expand),
    carrying the factors' zonotope as its Newton polygon."""
    return FactoredDelta(alexander_factors(d)).expand()


def boundary_slope(d, m, i):
    """Boundary slope of the class m on the i-th boundary torus (i in 1, 2).

    sigma_i = -(m_j * lk(K1, K2)) * meridian + m_i * longitude, j != i.
    Raises ZeroSlope when sigma_i vanishes (in particular for m = 0).
    """
    if i not in (1, 2):
        raise ValueError("component index must be 1 or 2")
    m1, m2 = m
    k1, k2 = d.arrowheads
    lk = linking_number(d, k1.id, k2.id)
    if i == 1:
        meridian, longitude = -m2 * lk, m1
    else:
        meridian, longitude = -m1 * lk, m2
    if meridian == 0 and longitude == 0:
        raise ZeroSlope("class (%d, %d) gives the zero slope on component %d"
                        % (m1, m2, i))
    div = gcd(meridian, longitude)
    return BoundarySlope(i, meridian, longitude, div,
                         (meridian // div, longitude // div))
