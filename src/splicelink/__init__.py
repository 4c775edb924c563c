"""Exact invariants of 2-component graph links given by splice diagrams.

The chain runs: splice diagram -> linking numbers -> fiberedness and the
weighted-tree norm -> Alexander polynomial -> norm unit ball with dual
vertices -> SW polynomial, basic and canonical classes of the associated
link-surgery 4-manifold -> divisibility and symmetry-orbit lower bounds on
the number of inequivalent symplectic structures.
"""

from .laurent import (LaurentPoly, NotDivisible, OddSpan, TooLarge,
                      ZeroPolynomial)
from .splice import (DiagramSyntaxError, Edge, SpliceDiagram, UnknownVertex,
                     ValidationError, Vertex, VertexKind, build_k2n,
                     linking_number, parse_diagram, render_diagram)
from .invariants import (BoundarySlope, DegenerateForm, Ray, ZeroSlope,
                         alexander_factors, alexander_polynomial,
                         boundary_slope, is_fibered, nonfibered_rays,
                         thurston_norm)
from .polytope import (FibredFace, NormBall, ZeroVector, alexander_norm,
                       divisibility, unit_ball)
from .swtheory import (BasicClassSet, CanonicalClass, basic_classes,
                       canonical_classes, sw_norm, sw_polynomial)
from .orbits import (LatticeMap, NotAGroup, OrbitPartition, face_orbits,
                     lattice_symmetries, min_structure_count)

__version__ = "0.1.0"
