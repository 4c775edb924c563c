"""Command line interface.

Subcommands (every one except gen reads a DSL diagram file argument or
builds a chain diagram with --family N):

    gen       write a generated family diagram to a DSL file
    lk        linking numbers of the components with the virtual components
    fibered   test a cohomology class for fiberedness
    norm      weighted-tree norm of a class
    slopes    boundary slopes of a class on both components
    alex      Alexander polynomial
    ball      norm unit ball: rays, faces, dual vertices (--svg, --log-scale)
    hull      Newton polygon of the Alexander polynomial (--svg)
    sw        SW polynomial, basic classes, evenness
    orbits    orbit count of fibered faces under lattice symmetries
    report    everything above as text, or as JSON with --json FILE

Exit codes: 0 success, 1 usage error, 2 computation error (the
module-qualified error name is printed on stderr).  Output is always plain
text, so NO_COLOR needs no special handling.  Classes are passed as
``-m a,b``; use the ``-m=-1,2`` form when the first coordinate is negative.
"""

import argparse
import functools
import json
import sys
from collections import namedtuple

from .errors import ComputationError
from .invariants import (alexander_factors, boundary_slope, is_fibered,
                         thurston_norm)
from .laurent import FactoredDelta
from .orbits import face_orbits, lattice_symmetries, min_structure_count
from .polytope import unit_ball
from .splice import build_k2n, linking_number, parse_diagram, render_diagram
from .svg import ball_svg, hull_svg
from .swtheory import canonical_classes, is_homotopy_k3, sw_polynomial

# One [e1, e2, "coefficient"] term of a report's term arrays, as
# json.dumps(..., indent=2) lays it out at that depth (a decimal string
# needs no escaping).
_TERM_JSON = '    [\n      %d,\n      %d,\n      "%d"\n    ]'
_TERM_BLOCK = 256   # terms per chunk of a streamed term array


class UsageError(Exception):
    """Bad command line; exit code 1."""


class IoError(ComputationError):
    """File could not be read or written."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("%r is not an integer" % text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _parse_class(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected a class 'a,b', got %r"
                                         % text)
    try:
        return (int(parts[0]), int(parts[1]))
    except ValueError:
        raise argparse.ArgumentTypeError("class coordinates must be integers,"
                                         " got %r" % text)


def _read_text(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(str(exc)) from exc


def _half(x):
    """x / 2 for an integer x as str(Fraction(x, 2)) writes it: the
    integer when x is even, else "x/2" (odd x is already in lowest
    terms)."""
    return "%d" % (x // 2) if x % 2 == 0 else "%d/2" % x


def _write_chunks(path, chunks):
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
    except OSError as exc:
        raise IoError(str(exc)) from exc


def recognize_family(d):
    """The family parameter n when the diagram's shape, the set of (id,
    kind) pairs, the sorted edges as sorted (id, weight) end pairs and the
    first arrowhead, is the generated 2n-node chain's, else None.  Used
    only to pretty-print polynomials in factored form."""
    node_count = len(d.nodes)
    if node_count == 0 or node_count % 2:
        return None

    def shape(d):
        return ({(v.id, v.kind) for v in d.vertices},
                sorted(sorted([(e.a, e.weight_a), (e.b, e.weight_b)])
                       for e in d.edges),
                d.arrowheads[:1])

    n = node_count // 2
    return n if shape(d) == shape(build_k2n(n)) else None


def _load_diagram(args):
    if args.family is not None and args.diagram is not None:
        raise UsageError("give either a diagram file or --family, not both")
    if args.family is not None:
        return build_k2n(args.family)
    if args.diagram is None:
        raise UsageError("a diagram file or --family N is required")
    return parse_diagram(_read_text(args.diagram))


# --------------------------------------------------------------------- report

class Report(namedtuple("Report", "diagram family_n lk rays faces alexander "
                               "canonical_classes orbit_count homotopy_k3")):
    """Machine-readable summary of every computed invariant.

    ``alexander`` is Δ as its FactoredDelta.  In the JSON all potentially
    large integers are decimal strings, and Δ's terms are [e1, e2, coefficient]
    triples in ascending graded-lex order, written twice: as ``alexander``
    and, exponents doubled, as ``sw_basic_classes`` (SW = Δ(t1^2, t2^2)).
    """
    __slots__ = ()

    def json_chunks(self):
        """The JSON text in pieces, the one source of its bytes: the fields
        in order, with ``alexander`` followed by ``sw_basic_classes``, laid
        out as json.dumps(..., indent=2) lays them out, and a final newline.

        json.dumps with an indent runs CPython's pure-Python encoder, so
        the two term arrays, the bulk of the text, are written straight
        from the expanded Δ (never zero, so never empty) with one string
        template, a block of terms per chunk; every other field goes
        through json.dumps and is indented one level deeper."""
        separator = "{\n"
        for name, value in zip(self._fields, self):
            if name == "alexander":
                # t -> t^2 keeps the graded-lex order, so both arrays walk
                # Δ's one cached order
                expanded = value.expand()
                keys, coeffs = expanded._sorted_keys(), expanded._terms
                for array, power in (("alexander", 1),
                                     ("sw_basic_classes", 2)):
                    yield '%s  "%s": ' % (separator, array)
                    for i in range(0, len(keys), _TERM_BLOCK):
                        yield ("[\n" if i == 0 else ",\n") + ",\n".join(
                            [_TERM_JSON
                             % (power * e[0], power * e[1], coeffs[e])
                             for e in keys[i:i + _TERM_BLOCK]])
                    yield "\n  ]"
            else:
                yield "%s  %s: " % (separator, json.dumps(name))
                yield json.dumps(value, indent=2).replace("\n", "\n  ")
            separator = ",\n"
        yield "\n}\n"


def build_report(d, family_n, delta):
    """The Report of d, whose FactoredDelta is ``delta``."""
    k1, k2 = d.arrowheads
    lk12 = linking_number(d, k1.id, k2.id)
    ball = unit_ball(d)
    canon = canonical_classes(ball)
    orbit_count = face_orbits(ball, lattice_symmetries(ball)).orbit_count
    return Report(
        diagram=d.name,
        family_n=family_n,
        lk={
            "k1_k2": str(lk12),
            "virtual": [
                {"vertex": v.id, "kind": v.kind.value,
                 "lk_k1": str(a), "lk_k2": str(b)}
                for v, a, b, _deg in d.virtual_forms()
            ],
        },
        rays=[{"primitive": [str(x) for x in r.primitive], "norm": str(r.norm)}
              for r in ball.nonfibered_rays()],
        faces=[{"lo": [str(x) for x in f.ray_lo.primitive],
                "hi": [str(x) for x in f.ray_hi.primitive],
                "dual": [_half(f.klass[0]), _half(f.klass[1])]}
               for f in ball.faces],
        alexander=delta,
        canonical_classes=[{"class": [str(x) for x in c.klass],
                            "divisibility": str(c.divisibility)}
                           for c in canon],
        orbit_count=orbit_count,
        homotopy_k3=is_homotopy_k3(lk12),
    )


# ------------------------------------------------------------------- commands

def cmd_gen(args):
    _write_chunks(args.output, (render_diagram(build_k2n(args.n)),))
    return 0


def cmd_lk(args):
    d = _load_diagram(args)
    k1, k2 = d.arrowheads
    print("lk(%s,%s) = %d" % (k1.id, k2.id, linking_number(d, k1.id, k2.id)))
    for v, a, b, _deg in d.virtual_forms():
        print("lk(%s,%s) = %d  lk(%s,%s) = %d" % (k1.id, v.id, a, k2.id, v.id, b))
    return 0


def cmd_fibered(args):
    d = _load_diagram(args)
    print("fibered" if is_fibered(d, args.m) else "non-fibered")
    return 0


def cmd_norm(args):
    d = _load_diagram(args)
    print(thurston_norm(d, args.m))
    return 0


def cmd_slopes(args):
    d = _load_diagram(args)
    for i in (1, 2):
        s = boundary_slope(d, args.m, i)
        print("sigma_%d = %d mu + %d lambda  (divisibility %d, "
              "primitive (%d,%d))"
              % (i, s.meridian_coeff, s.longitude_coeff, s.divisibility,
                 s.beta_primitive[0], s.beta_primitive[1]))
    return 0


def cmd_alex(args):
    d = _load_diagram(args)
    family_n = args.family or recognize_family(d)
    delta = FactoredDelta(alexander_factors(d))
    print(delta.text() if family_n else delta.expand())
    return 0


def cmd_ball(args):
    d = _load_diagram(args)
    ball = unit_ball(d)
    for r in ball.rays:
        print("ray (%d,%d)  norm %d" % (r.primitive[0], r.primitive[1], r.norm))
    for f in ball.faces:
        print("face (%d,%d)-(%d,%d)  dual (%s,%s)"
              % (f.ray_lo.primitive[0], f.ray_lo.primitive[1],
                 f.ray_hi.primitive[0], f.ray_hi.primitive[1],
                 _half(f.klass[0]), _half(f.klass[1])))
    if args.svg:
        _write_chunks(args.svg, ball_svg(ball, log_scale=args.log_scale))
    return 0


def cmd_hull(args):
    d = _load_diagram(args)
    hull = FactoredDelta(alexander_factors(d)).newton_polygon()
    for e1, e2 in hull:
        print("vertex (%d,%d)" % (e1, e2))
    if args.svg:
        _write_chunks(args.svg, hull_svg(hull))
    return 0


def cmd_sw(args):
    d = _load_diagram(args)
    family_n = args.family or recognize_family(d)
    delta = FactoredDelta(alexander_factors(d))
    # The SW polynomial is Δ(t1^2, t2^2): Δ's term count, Δ's hull doubled.
    # Only a diagram outside the family prints, so expands, Δ.
    print("SW polynomial: %s" % (delta.text(2) if family_n
                                 else sw_polynomial(delta.expand())))
    print("basic classes: %d" % delta.term_count())
    print("hull vertices: %s" % " ".join(
        "(%d,%d)" % (2 * e1, 2 * e2) for e1, e2 in delta.newton_polygon()))
    print("all classes even: yes")  # sw is Δ(t1^2, t2^2)
    return 0


def cmd_orbits(args):
    print(min_structure_count(_load_diagram(args)))
    return 0


def cmd_report(args):
    d = _load_diagram(args)
    family_n = args.family or recognize_family(d)
    delta = FactoredDelta(alexander_factors(d))
    # Δ is expanded only to write its coefficients, and before any output
    if args.json or not family_n:
        delta.expand()
    report = build_report(d, family_n, delta)
    print("diagram %s%s" % (report.diagram,
                            "  (family n=%d)" % family_n
                            if family_n is not None else ""))
    print("lk(K1,K2) = %s" % report.lk["k1_k2"])
    print("rays:")
    for r in report.rays:
        print("  (%s,%s)  norm %s" % (r["primitive"][0], r["primitive"][1],
                                      r["norm"]))
    print("faces and dual vertices:")
    for f in report.faces:
        print("  (%s,%s)-(%s,%s) -> (%s,%s)"
              % (f["lo"][0], f["lo"][1], f["hi"][0], f["hi"][1],
                 f["dual"][0], f["dual"][1]))
    print("alexander polynomial: %s"
          % (delta.text() if family_n else delta.expand()))
    # The SW polynomial Δ(t1^2, t2^2) has one basic class per term of Δ.
    print("sw basic classes: %d" % delta.term_count())
    print("canonical classes:")
    for c in report.canonical_classes:
        print("  (%s,%s)  divisibility %s"
              % (c["class"][0], c["class"][1], c["divisibility"]))
    print("orbit count: %d" % report.orbit_count)
    print("homotopy K3: %s" % ("yes" if report.homotopy_k3 else "no"))
    if args.json:
        _write_chunks(args.json, report.json_chunks())
    return 0


# --------------------------------------------------------------------- parser

@functools.cache
def build_parser():
    """The argument parser, built once per process and shared: parsing
    reads it and returns a fresh namespace, it never changes the parser."""
    parser = _Parser(prog="splicelink",
                     description="Exact invariants of 2-component graph "
                                 "links given by splice diagrams.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command", parser_class=_Parser)

    gen = sub.add_parser("gen", help="write a family diagram to a DSL file")
    gen.add_argument("--n", type=_positive_int, required=True,
                     help="family parameter: the chain has 2n nodes")
    gen.add_argument("-o", "--output", required=True, help="output DSL file")
    gen.set_defaults(func=cmd_gen)

    def common(name, help_text, with_class=False, with_svg=False,
               with_json=False):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("diagram", nargs="?", help="DSL diagram file")
        sp.add_argument("--family", type=_positive_int, metavar="N",
                        help="use the generated 2N-node chain instead of a file")
        if with_class:
            sp.add_argument("-m", type=_parse_class, required=True,
                            metavar="a,b", help="cohomology class")
        if with_svg:
            sp.add_argument("--svg", metavar="FILE", help="write an SVG figure")
        if with_json:
            sp.add_argument("--json", metavar="FILE", help="write JSON")
        return sp

    common("lk", "linking numbers").set_defaults(func=cmd_lk)
    common("fibered", "fiberedness of a class",
           with_class=True).set_defaults(func=cmd_fibered)
    common("norm", "norm of a class", with_class=True).set_defaults(
        func=cmd_norm)
    common("slopes", "boundary slopes of a class",
           with_class=True).set_defaults(func=cmd_slopes)
    common("alex", "Alexander polynomial").set_defaults(func=cmd_alex)
    ball = common("ball", "norm unit ball", with_svg=True)
    ball.add_argument("--log-scale", action="store_true",
                      help="compress radii logarithmically in the SVG")
    ball.set_defaults(func=cmd_ball)
    common("hull", "Newton polygon of the Alexander polynomial",
           with_svg=True).set_defaults(func=cmd_hull)
    common("sw", "SW polynomial and basic classes").set_defaults(func=cmd_sw)
    common("orbits", "orbit count of fibered faces").set_defaults(
        func=cmd_orbits)
    common("report", "full report", with_json=True).set_defaults(
        func=cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 1
    except (ComputationError, OSError) as exc:
        module = type(exc).__module__.rsplit(".", 1)[-1]
        print("%s.%s: %s" % (module, type(exc).__name__, exc),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
