"""Deterministic SVG figures: the norm unit ball and the basic-class hull.

Geometry arrives exact and is converted to floats only at emission time,
printed with a fixed 6-decimal format, so identical inputs always produce
byte-identical files.  The vertical axis is flipped so the pictures use
the usual mathematical orientation.  A builder checks its input and places
the view box when called, then yields the text one element (a line) a chunk.
"""

from math import hypot, isfinite, log10

from .errors import ComputationError

_PAD = 0.12    # view box margin on each side, a share of the larger span


class DegenerateRadius(ComputationError):
    """A ball vertex radius beyond what the log scale can place in floats."""


def _fmt(x):
    return "%.6f" % (x + 0.0,)


def _bbox(points):
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    span = max(max_x - min_x, max_y - min_y) or 1.0
    pad = span * _PAD
    return min_x - pad, min_y - pad, (max_x - min_x) + 2 * pad, \
        (max_y - min_y) + 2 * pad, span


def _flipped(points):
    """The points with y negated for the downward SVG axis, each
    coordinate normalised once so that a zero never prints as
    -0.000000; a scaled zero stays a positive zero."""
    return [(x + 0.0, -y + 0.0) for x, y in points]


def _figure(view, outline, marks):
    """Header, axes, the polygon through the flipped points `outline` if
    any, marks, end tag."""
    min_x, min_y, width, height, span = view
    yield '<?xml version="1.0" encoding="UTF-8"?>\n'
    yield ('<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
           'width="640" height="640" viewBox="%s %s %s %s">\n'
           % (_fmt(min_x), _fmt(min_y), _fmt(width), _fmt(height)))
    yield ('<line x1="%s" y1="0.000000" x2="%s" y2="0.000000" '
           'stroke="#bbbbbb" stroke-width="%s"/>\n'
           % (_fmt(min_x), _fmt(min_x + width), _fmt(span * 0.002)))
    yield ('<line x1="0.000000" y1="%s" x2="0.000000" y2="%s" '
           'stroke="#bbbbbb" stroke-width="%s"/>\n'
           % (_fmt(min_y), _fmt(min_y + height), _fmt(span * 0.002)))
    if outline:
        coords = " ".join("%.6f,%.6f" % p for p in outline)
        yield ('<polygon points="%s" fill="none" stroke="#000000" '
               'stroke-width="%s"/>\n' % (coords, _fmt(span * 0.004)))
    yield from marks
    yield '</svg>\n'


def _dot(span):
    """Template of a dot at a flipped point (x, y)."""
    return ('<circle cx="%%.6f" cy="%%.6f" r="%s" fill="#000000"/>\n'
            % _fmt(span * 0.008))


def _label(span):
    """Template of a label (e1,e2) at a flipped point (x, y)."""
    return ('<text x="%%.6f" y="%%.6f" font-size="%s" '
            'text-anchor="middle">(%%d,%%d)</text>\n' % _fmt(span * 0.045))


def _ball_marks(pts, span, rays):
    line = ('<line x1="0.000000" y1="0.000000" x2="%%.6f" y2="%%.6f" '
            'stroke="#888888" stroke-width="%s"/>\n' % _fmt(span * 0.002))
    label = _label(span)
    for (x, y), ray in zip(pts, rays):
        yield line % (x * 1.12, y * 1.12)
        yield label % (x * 1.30, y * 1.30, ray.primitive[0], ray.primitive[1])
    dot = _dot(span)
    yield from (dot % p for p in pts)


def _hull_marks(pts, span, points):
    dot, label = _dot(span), _label(span)
    for (x, y), (e1, e2) in zip(pts, points):
        yield dot % (x, y)
        yield label % (x * 1.14, y * 1.14, e1, e2)


def ball_svg(ball, log_scale=False):
    """SVG text for a norm unit ball, as chunks.

    The polygon runs through the ball vertices (ray primitive divided by
    its norm); every ray is drawn from the origin and labeled with its
    primitive coordinates.  With log_scale the radii are compressed as
    1 + log10(r / r_min), which keeps wildly different ray norms visible
    in one picture; angles are never changed.  DegenerateRadius when a
    radius or 1 / r_min, the largest factor, is not a positive finite float.
    """
    if not ball.faces:
        raise ValueError("cannot draw a ball with no faces")
    pts = [(r.primitive[0] / r.norm, r.primitive[1] / r.norm)
           for r in ball.rays]
    if log_scale:
        radii = [hypot(x, y) for x, y in pts]
        r_min, r_max = min(radii), max(radii)
        if not (r_min > 0.0 and isfinite(1.0 / r_min) and isfinite(r_max)):
            raise DegenerateRadius("log-scaled radii %r..%r" % (r_min, r_max))
        factors = [(1.0 + log10(r / r_min)) / r for r in radii]
        pts = [(x * f, y * f) for (x, y), f in zip(pts, factors)]
    view = _bbox([(x * 1.30, y * 1.30) for x, y in pts])
    pts = _flipped(pts)
    return _figure(view, pts, _ball_marks(pts, view[4], ball.rays))


def hull_svg(points):
    """SVG text for a convex lattice polygon, vertices labeled by their
    exponent pairs, as chunks."""
    if not points:
        raise ValueError("cannot draw an empty hull")
    pts = [(float(x), float(y)) for x, y in points]
    outline = pts if len(pts) > 1 else ()
    view = _bbox([(x * 1.14, y * 1.14) for x, y in outline] or pts)
    pts = _flipped(pts)
    return _figure(view, pts if outline else (),
                   _hull_marks(pts, view[4], points))
