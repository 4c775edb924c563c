"""Independent expectations and output checks of the splicelink benchmark.

Nothing here imports splicelink.  Linking numbers come from one
depth-first pass with a running product (the program walks a separate
breadth-first path per pair); the Alexander polynomial of a weight-p chain
is known in closed form as the product of centred cyclotomic factors
1 + u + ... + u^(p-1), whose support is a balanced base-p digit set; its
Newton polygon is the zonotope of the factor segments (Ostrowski); the
norm equals the support width of that polygon (McMullen's theorem that
the Alexander norm is the Thurston norm).

Each check_* function returns a list of failure messages; an empty list
means every check passed.
"""

import json
import re
from fractions import Fraction
from math import gcd

# ------------------------------------------------------------------ forms


def linking_from(tree, root):
    """lk(root, v) for every vertex v of the tree, by the path rule: the
    product over nodes on the path of the node-end weights of edges off
    the path.  `root` must be an arrowhead."""
    adj = tree.adjacency()
    kinds = tree.kinds
    out = {}
    stack = [(root, None, None, 1)]
    while stack:
        v, parent, w_in, acc = stack.pop()
        is_node = kinds[v] == "node"
        if is_node:
            total = 1
            for _nbr, w_here, _w_there in adj[v]:
                total *= w_here
            out[v] = acc * total // w_in
        else:
            out[v] = acc
        for nbr, w_here, w_there in adj[v]:
            if nbr == parent:
                continue
            child_acc = acc * total // (w_in * w_here) if is_node else acc
            stack.append((nbr, v, w_there, child_acc))
    return out


class Forms:
    """lk(K1, K2) and (vertex, lk(K1, v), lk(K2, v), degree) for every
    node and boundary vertex, in declaration order."""

    def __init__(self, lk12, virtual):
        self.lk12 = lk12
        self.virtual = virtual


def forms(tree):
    arrows = [vid for vid, kind in tree.kinds.items() if kind == "arrow"]
    k1, k2 = arrows
    from1 = linking_from(tree, k1)
    from2 = linking_from(tree, k2)
    deg = tree.degrees()
    virtual = [(vid, from1[vid], from2[vid], deg[vid])
               for vid, kind in tree.kinds.items() if kind != "arrow"]
    return Forms(from1[k2], virtual)


def chain_forms(n, weight=3):
    """Closed forms of the 2n-node weight-p chain: lk(K1, Hi) = p^i,
    lk(K2, Hi) = p^(2n-i+1), lk(K1, Si) = p^(i-1), lk(K2, Si) = p^(2n-i),
    lk(K1, K2) = p^(2n)."""
    p, count = weight, 2 * n
    virtual = [("H%d" % i, p ** i, p ** (count - i + 1), 3)
               for i in range(1, count + 1)]
    virtual += [("S%d" % i, p ** (i - 1), p ** (count - i), 1)
                for i in range(1, count + 1)]
    return Forms(p ** count, virtual)


def norm(fm, m):
    return sum((deg - 2) * abs(m[0] * a + m[1] * b)
               for _v, a, b, deg in fm.virtual)


def fibered(fm, m):
    return m != (0, 0) and all(m[0] * a + m[1] * b != 0
                               for _v, a, b, _deg in fm.virtual)


def _primitive(x, y):
    g = gcd(x, y)
    x, y = x // g, y // g
    if x < 0 or (x == 0 and y < 0):
        x, y = -x, -y
    return x, y


def ray_norms(fm):
    """The distinct non-fibered directions (kernels of the pairings,
    positive first nonzero coordinate) with their norms."""
    prims = {_primitive(b, -a) for _v, a, b, _deg in fm.virtual}
    return sorted((p, norm(fm, p)) for p in prims)


def slopes(lk12, m):
    """(meridian, longitude, divisibility, primitive) on components 1, 2:
    sigma_i = -(m_j lk(K1, K2)) mu + m_i lambda."""
    out = []
    for mu, lam in ((-m[1] * lk12, m[0]), (-m[0] * lk12, m[1])):
        g = gcd(mu, lam)
        out.append((mu, lam, g, (mu // g, lam // g)))
    return out


# ------------------------------------------------------- chain polynomials


def chain_generators(n, weight=3):
    """The exponent vectors u_i = (p^(i-1), p^(2n-i)) of the chain's
    cyclotomic factors."""
    return [(weight ** (i - 1), weight ** (2 * n - i))
            for i in range(1, 2 * n + 1)]


def digit_support(n, weight=3):
    """{sum d_i u_i : d_i in -(p-1)/2 .. (p-1)/2}, the support of the
    centred Alexander polynomial of the weight-p chain."""
    half = (weight - 1) // 2
    support = {(0, 0)}
    for g in chain_generators(n, weight):
        support = {(x + d * g[0], y + d * g[1])
                   for x, y in support for d in range(-half, half + 1)}
    return support


def zonotope(generators):
    """Vertices of the Minkowski sum of the segments [-g, g]."""
    merged = {}
    for g in generators:
        if g[1] < 0 or (g[1] == 0 and g[0] < 0):
            g = (-g[0], -g[1])
        key = _primitive(*g)
        s = merged.get(key, (0, 0))
        merged[key] = (s[0] + g[0], s[1] + g[1])
    gens = list(merged.values())
    # all generators lie in the upper half-plane: sort by angle from 0 to pi
    gens.sort(key=lambda g: (1, Fraction(-g[0], g[1])) if g[1] else (0, 0))
    x = -sum(g[0] for g in gens)
    y = -sum(g[1] for g in gens)
    out = []
    for sign in (2, -2):
        for g in gens:
            x, y = x + sign * g[0], y + sign * g[1]
            out.append((x, y))
    return set(out)


def support_width(generators, m):
    """Width of the zonotope of `generators` in the direction m."""
    return sum(2 * abs(g[0] * m[0] + g[1] * m[1]) for g in generators)


# ------------------------------------------------------------ text parsing

_TERM_EXP = re.compile(r"^t([12])(?:\^(-?\d+))?$")


def parse_poly(text):
    """Parse splicelink's printed Laurent polynomial into {(e1, e2): c}.
    Raises ValueError on text that is not a well-formed polynomial or
    repeats a monomial."""
    text = text.strip()
    if text == "0":
        return {}
    terms = {}
    sign, coeff, exps, seen = 1, None, [0, 0], False

    def flush():
        key = tuple(exps)
        if not seen or key in terms:
            raise ValueError("malformed polynomial near %r" % text[:60])
        terms[key] = sign * (1 if coeff is None else coeff)

    tokens = text.split(" ")
    if tokens[0].startswith("-") and len(tokens[0]) > 1:
        sign, tokens[0] = -1, tokens[0][1:]
    for tok in tokens:
        if tok in ("+", "-"):
            flush()
            sign = 1 if tok == "+" else -1
            coeff, exps, seen = None, [0, 0], False
            continue
        match = _TERM_EXP.match(tok)
        if match:
            exps[int(match.group(1)) - 1] = int(match.group(2) or 1)
        elif tok.isdigit() and coeff is None and exps == [0, 0]:
            coeff = int(tok)
        else:
            raise ValueError("unexpected token %r" % tok)
        seen = True
    flush()
    return terms


def parse_factored(text):
    """Parse '(u + 1 + u^-1)(...)...' into the list of exponent vectors u."""
    factors = re.findall(r"\(([^()]*)\)", text)
    if "".join("(%s)" % f for f in factors) != text.strip():
        raise ValueError("not a product of parenthesised factors")
    out = []
    for f in factors:
        terms = parse_poly(f)
        ups = [e for e in terms if e > (0, 0)]
        if len(terms) != 3 or terms.get((0, 0)) != 1 or len(ups) != 1:
            raise ValueError("factor %r is not u + 1 + 1/u" % f)
        u = ups[0]
        if terms.get(u) != 1 or terms.get((-u[0], -u[1])) != 1:
            raise ValueError("factor %r is not u + 1 + 1/u" % f)
        out.append(u)
    return out


def _pair(text):
    a, b = text.split(",")
    return int(a), int(b)


def _fraction_pair(text):
    a, b = text.split(",")
    return Fraction(a), Fraction(b)


_LK12 = re.compile(r"^lk\((\w+),(\w+)\) = (-?\d+)$")
_LKV = re.compile(r"^lk\((\w+),(\w+)\) = (-?\d+)  "
                  r"lk\((\w+),(\w+)\) = (-?\d+)$")
_RAY = re.compile(r"^ray \((-?\d+,-?\d+)\)  norm (-?\d+)$")
_FACE = re.compile(r"^face \((-?\d+,-?\d+)\)-\((-?\d+,-?\d+)\)  "
                   r"dual \(([-\d/]+,[-\d/]+)\)$")
_SLOPE = re.compile(r"^sigma_([12]) = (-?\d+) mu \+ (-?\d+) lambda  "
                    r"\(divisibility (-?\d+), "
                    r"primitive \((-?\d+),(-?\d+)\)\)$")
_VERTEX = re.compile(r"^vertex \((-?\d+,-?\d+)\)$")
_SVG_LABEL = re.compile(r">\((-?\d+),(-?\d+)\)</text>")


def parse_lk(text):
    """lk output -> (lk12, [(vertex, lk1, lk2), ...])."""
    lines = text.splitlines()
    head = _LK12.match(lines[0]) if lines else None
    if not head or (head.group(1), head.group(2)) != ("K1", "K2"):
        raise ValueError("first lk line is not lk(K1,K2)")
    rows = []
    for line in lines[1:]:
        m = _LKV.match(line)
        if not m or m.group(1) != "K1" or m.group(4) != "K2" \
                or m.group(2) != m.group(5):
            raise ValueError("bad lk line %r" % line)
        rows.append((m.group(2), int(m.group(3)), int(m.group(6))))
    return int(head.group(3)), rows


def parse_ball(text):
    """ball output -> ([(primitive, norm)], [(lo, hi, dual)])."""
    rays, faces = [], []
    for line in text.splitlines():
        m = _RAY.match(line)
        if m:
            rays.append((_pair(m.group(1)), int(m.group(2))))
            continue
        m = _FACE.match(line)
        if not m:
            raise ValueError("bad ball line %r" % line)
        faces.append((_pair(m.group(1)), _pair(m.group(2)),
                      _fraction_pair(m.group(3))))
    return rays, faces


# ------------------------------------------------------------------ checks


class Failures(list):
    def expect(self, ok, message):
        if not ok:
            self.append(message)
        return ok


def _check_lk_text(fail, text, fm, label):
    try:
        lk12, rows = parse_lk(text)
    except ValueError as exc:
        fail.append("%s lk: %s" % (label, exc))
        return
    fail.expect(lk12 == fm.lk12, "%s lk(K1,K2) = %d, expected %d"
                % (label, lk12, fm.lk12))
    fail.expect(rows == [(v, a, b) for v, a, b, _d in fm.virtual],
                "%s lk lines differ from the path rule" % label)


def _check_svg(fail, svg, labels, label):
    fail.expect(svg.startswith('<?xml version="1.0"') and
                svg.rstrip().endswith("</svg>") and "<polygon" in svg,
                "%s SVG is not a complete figure" % label)
    fail.expect(svg.count("<circle") == len(labels),
                "%s SVG has %d vertex marks, expected %d"
                % (label, svg.count("<circle"), len(labels)))
    found = [(int(a), int(b)) for a, b in _SVG_LABEL.findall(svg)]
    fail.expect(sorted(found) == sorted(labels),
                "%s SVG labels differ" % label)


def check_ball(fail, text, fm, label):
    """Rays are the non-fibered directions and their negatives with the
    path-rule norms; each face joins two consecutive rays and its dual
    vertex pairs to norm/2 with both of them."""
    try:
        rays, faces = parse_ball(text)
    except ValueError as exc:
        fail.append("%s ball: %s" % (label, exc))
        return None
    expected = {}
    for (x, y), nm in ray_norms(fm):
        expected[(x, y)] = nm
        expected[(-x, -y)] = nm
    fail.expect(dict(rays) == expected and len(rays) == len(expected),
                "%s ball rays or norms differ from the path rule" % label)
    fail.expect(len(faces) == len(rays), "%s ball: %d faces for %d rays"
                % (label, len(faces), len(rays)))
    order = [p for p, _n in rays]
    for i, (lo, hi, dual) in enumerate(faces):
        if not fail.expect(i < len(order) and lo == order[i]
                           and hi == order[(i + 1) % len(order)],
                           "%s face %d does not join consecutive rays"
                           % (label, i)):
            break
        for ray in (lo, hi):
            pairing = dual[0] * ray[0] + dual[1] * ray[1]
            if not fail.expect(pairing == Fraction(expected.get(ray, 0), 2),
                               "%s dual vertex %s pairs to %s with ray %s"
                               % (label, dual, pairing, ray)):
                return None
    return rays


def check_tree_session(out, tree_label, fm, m, chain_n=None):
    """Checks of one tree's lk, ball, orbits, norm, fibered and slopes
    output in the tree-forms workload (`out` maps command -> stdout, and
    'ball.svg' -> the SVG file)."""
    fail = Failures()
    label = tree_label
    if chain_n is not None:
        closed = chain_forms(chain_n)
        fail.expect(closed.virtual == fm.virtual and closed.lk12 == fm.lk12,
                    "%s path rule disagrees with the closed forms" % label)
        fm = closed
    _check_lk_text(fail, out["lk"], fm, label)
    rays = check_ball(fail, out["ball"], fm, label)
    if rays is not None:
        _check_svg(fail, out["ball.svg"], [p for p, _n in rays], label)
    try:
        orbits = int(out["orbits"])
    except ValueError:
        fail.append("%s orbits: not an integer" % label)
    else:
        if chain_n is not None:
            fail.expect(orbits == chain_n + 1, "%s orbit count %d, expected %d"
                        % (label, orbits, chain_n + 1))
        else:
            faces = 2 * len(ray_norms(fm))
            fail.expect(1 <= orbits <= faces // 2,
                        "%s orbit count %d outside 1..%d (minus identity "
                        "pairs opposite faces)" % (label, orbits, faces // 2))
    fail.expect(out["norm"].strip() == str(norm(fm, m)),
                "%s norm %s, expected %d" % (label, out["norm"].strip(),
                                             norm(fm, m)))
    want = "fibered" if fibered(fm, m) else "non-fibered"
    fail.expect(out["fibered"].strip() == want,
                "%s fibered says %r, expected %r"
                % (label, out["fibered"].strip(), want))
    lines = out["slopes"].splitlines()
    ok = len(lines) == 2
    for i, (line, exp) in enumerate(zip(lines, slopes(fm.lk12, m)), 1):
        g = _SLOPE.match(line)
        ok = ok and bool(g) and int(g.group(1)) == i and \
            (int(g.group(2)), int(g.group(3)), int(g.group(4)),
             (int(g.group(5)), int(g.group(6)))) == exp
    fail.expect(ok, "%s slopes differ from the lk(K1,K2) formula" % label)
    return fail


def _check_report_json(fail, text, n, weight, label):
    try:
        rep = json.loads(text)
    except ValueError as exc:
        fail.append("%s JSON: %s" % (label, exc))
        return
    support = digit_support(n, weight)
    alex = rep.get("alexander", [])
    fail.expect(len(alex) == len(support) == weight ** (2 * n),
                "%s alexander has %d terms, expected %d"
                % (label, len(alex), weight ** (2 * n)))
    fail.expect(all(c == "1" for _a, _b, c in alex),
                "%s alexander has a coefficient other than 1" % label)
    fail.expect({(a, b) for a, b, _c in alex} == support,
                "%s alexander support is not the balanced base-%d digit set"
                % (label, weight))
    sw = rep.get("sw_basic_classes", [])
    fail.expect(len(sw) == len(alex),
                "%s %d basic classes for %d alexander terms"
                % (label, len(sw), len(alex)))
    fail.expect({(a, b) for a, b, _c in sw} ==
                {(2 * a, 2 * b) for a, b in support},
                "%s basic classes are not twice the alexander support" % label)
    half = (weight - 1) // 2
    hull = zonotope([(half * x, half * y)
                     for x, y in chain_generators(n, weight)])
    duals = [(Fraction(f["dual"][0]), Fraction(f["dual"][1]))
             for f in rep.get("faces", [])]
    fail.expect(len(duals) == len(hull) and set(duals) == hull,
                "%s ball dual vertices differ from the hull vertices" % label)
    fail.expect(rep.get("lk", {}).get("k1_k2") == str(weight ** (2 * n)),
                "%s lk(K1,K2) is not %d^%d" % (label, weight, 2 * n))
    fail.expect(rep.get("homotopy_k3") is True,
                "%s homotopy_k3 is not true" % label)
    if weight == 3:
        fail.expect(rep.get("orbit_count") == n + 1,
                    "%s orbit count %r, expected %d"
                    % (label, rep.get("orbit_count"), n + 1))
        fail.expect(rep.get("family_n") == n,
                    "%s family_n is %r" % (label, rep.get("family_n")))


def _stdout_field(text, prefix):
    for line in text.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):]
    return None


def _expect_factors(fail, text, want, label):
    try:
        fail.expect(parse_factored(text or "") == want,
                    "%s factors are not %s" % (label, want))
    except ValueError as exc:
        fail.append("%s: %s" % (label, exc))


def check_chain_delta(out, n, weight_n, weight):
    """Checks of one chain-delta session.  `out` maps each command label to
    its stdout, plus the files it wrote ('hull.svg', 'family.json',
    'weighted.json')."""
    fail = Failures()
    gens = chain_generators(n)
    hull = zonotope(gens)

    _expect_factors(fail, out["alex"], gens, "family alex")

    verts = []
    for line in out["hull"].splitlines():
        g = _VERTEX.match(line)
        if not fail.expect(g, "bad hull line %r" % line):
            break
        verts.append(_pair(g.group(1)))
    fail.expect(len(verts) == len(hull) and set(verts) == hull,
                "hull vertices differ from the zonotope of the factors")
    _check_svg(fail, out["hull.svg"], sorted(hull), "hull")

    sw = out["sw"].splitlines()
    _expect_factors(fail, _stdout_field(out["sw"], "SW polynomial: "),
                    [(2 * x, 2 * y) for x, y in gens], "family sw")
    fail.expect(_stdout_field(out["sw"], "basic classes: ")
                == str(3 ** (2 * n)),
                "sw basic class count is not 3^(2n)")
    sw_hull = _stdout_field(out["sw"], "hull vertices: ") or ""
    pts = [tuple(map(int, p.split(","))) for p in re.findall(r"\(([^)]*)\)",
                                                            sw_hull)]
    fail.expect(len(pts) == len(hull) and
                set(pts) == {(2 * x, 2 * y) for x, y in hull},
                "sw hull is not twice the Alexander hull")
    fail.expect(len(sw) == 4 and sw[3] == "all classes even: yes",
                "sw does not report all classes even")

    _check_report_json(fail, out["family.json"], n, 3, "family report")
    rep = out["report"]
    _expect_factors(fail, _stdout_field(rep, "alexander polynomial: "), gens,
                    "family report")
    fail.expect(_stdout_field(rep, "orbit count: ") == str(n + 1),
                "family report orbit count is not n+1")
    fail.expect(_stdout_field(rep, "homotopy K3: ") == "yes",
                "family report does not say homotopy K3: yes")
    fail.expect(_stdout_field(rep, "sw basic classes: ") == str(3 ** (2 * n)),
                "family report basic class count is not 3^(2n)")

    support = {e: 1 for e in digit_support(weight_n, weight)}
    for label in ("alex5", "report5"):
        text = out[label] if label == "alex5" else \
            _stdout_field(out[label], "alexander polynomial: ") or ""
        try:
            fail.expect(parse_poly(text) == support,
                        "%s text is not the balanced base-%d polynomial"
                        % (label, weight))
        except ValueError as exc:
            fail.append("%s: %s" % (label, exc))
    _check_report_json(fail, out["weighted.json"], weight_n, weight,
                       "weighted report")
    fail.expect(_stdout_field(out["report5"], "homotopy K3: ") == "yes",
                "weighted report does not say homotopy K3: yes")
    return fail


def class_expectations(n, classes):
    """What (thurston_norm, is_fibered, slope 1, slope 2, alexander_norm,
    sw_norm) must return for each class on the 2n-node chain."""
    fm = chain_forms(n)
    gens = chain_generators(n)
    out = []
    for m in classes:
        width = support_width(gens, m)
        s1, s2 = slopes(fm.lk12, m)
        out.append((width, fibered(fm, m), (1,) + s1, (2,) + s2, width, width))
    return out
