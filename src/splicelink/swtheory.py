"""The gauge-theoretic layer of the link-surgery 4-manifold, at the level
it can be computed from the link alone.

The Seiberg-Witten polynomial of the manifold built from two rational
elliptic pieces and the circle times the link exterior is, up to sign, the
symmetrized Alexander polynomial with both variables squared.  Its support
gives the basic classes; the induced norm on the relevant rank-2 slice is
the maximal pairing with a basic class; the canonical class of a fibered
face is its integer class S_F, twice its dual vertex in the norm ball.
"""

from collections import namedtuple

from .laurent import ZeroPolynomial, convex_hull
from .polytope import divisibility


class BasicClassSet:
    """Support of the SW polynomial with coefficients.

    ``classes`` and ``coefficients`` run in parallel, ascending graded-lex.
    Their convex hull is computed once on demand, unless basic_classes set it.
    """

    def __init__(self, classes, coefficients):
        if len(classes) != len(coefficients):
            raise ValueError("classes and coefficients must match in length")
        if any(c == 0 for c in coefficients):
            raise ValueError("basic classes carry nonzero coefficients")
        self.classes = list(classes)
        self.coefficients = list(coefficients)
        self._hull = None

    def __len__(self):
        return len(self.classes)

    def hull(self):
        if self._hull is None:
            self._hull = convex_hull(self.classes)
        return list(self._hull)


class CanonicalClass(namedtuple("CanonicalClass", "face klass divisibility")):
    """Canonical class attached to a fibered face: its class S_F, twice
    its dual vertex, which pairs positively with the face's own cone."""
    __slots__ = ()


def sw_polynomial(delta):
    """SW polynomial from a symmetrized Alexander polynomial: substitute
    t -> t^2 in both variables and normalize the leading coefficient to be
    positive."""
    sw = delta.substitute_power(2)
    if sw and sw.leading_term()[1] < 0:
        sw = -sw
    return sw


def basic_classes(sw):
    """All exponent pairs with nonzero coefficient in the SW polynomial, in
    its cached order, and its polygon as their hull if it carries one."""
    if not sw:
        raise ZeroPolynomial("the zero polynomial has no basic classes")
    classes = sw._sorted_keys()
    bcs = BasicClassSet(classes, [sw._terms[e] for e in classes])
    bcs._hull = sw._hull
    return bcs


def sw_norm(bcs, m):
    """max over basic classes k of k1*m1 + k2*m2.

    The maximum of a linear functional over a finite set is attained on
    its convex hull, so only hull vertices are scanned.
    """
    if not bcs.classes:
        raise ValueError("need a nonempty basic class set")
    m1, m2 = m
    return max(k1 * m1 + k2 * m2 for k1, k2 in bcs.hull())


def is_homotopy_k3(lk12):
    """Homotopy K3, for a link whose Δ exists: lk(K1, K2) is odd.  Every
    basic class is then even, since the SW polynomial is Δ(t1^2, t2^2)."""
    return lk12 % 2 == 1


def canonical_classes(ball):
    """One canonical class per fibered face, the face's integer class S_F,
    with its divisibility.  S_F already pairs positively with the face's
    open cone, since ray norms are positive."""
    return [CanonicalClass(f, f.klass, divisibility(f.klass))
            for f in ball.faces]
