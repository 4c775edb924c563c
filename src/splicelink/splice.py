"""Splice diagrams of 2-component graph links: data model, DSL, generators.

A splice diagram is a weighted tree.  Nodes stand for the Seifert-fibered
pieces of the link exterior, boundary vertices for tubular neighborhoods of
singular fibers, and arrowheads for the actual link components.  Each edge
end carries a positive integer weight (the order of the corresponding
fiber); only the weights written at node ends enter linking-number
computations, leaf-end weights are conventionally 1.

Diagrams are written in a line-oriented DSL (UTF-8, ``#`` starts a comment):

    diagram <name>
    node <id>
    bvertex <id>
    arrow <id>
    edge <idA> <idB> <weight_at_A> <weight_at_B>

Arrowheads are numbered K1, K2 in declaration order.  A valid diagram is a
tree with exactly two arrowheads, arrowheads and boundary vertices are
leaves, and every weight is positive.  Constructing a SpliceDiagram checks
this and raises ValidationError otherwise, so every function here and in
the later stages works on valid diagrams only.

Linking numbers follow the classical splice-calculus path rule: the linking
number of two (possibly virtual) components is the product, over all nodes
on the tree path joining them, of the node-end weights of the edges incident
to that node but not lying on the path.
"""

from collections import deque, namedtuple
from enum import Enum

from .errors import ComputationError


class DiagramSyntaxError(ComputationError):
    """Malformed DSL text.  Carries the 1-based line number."""

    def __init__(self, line, message):
        super().__init__("line %d: %s" % (line, message))
        self.line = line
        self.message = message


class ValidationError(ComputationError):
    """A structurally invalid diagram.  Carries the violation list."""

    def __init__(self, violations):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


class UnknownVertex(ComputationError):
    """A vertex id that does not occur in the diagram."""


class VertexKind(Enum):
    NODE = "node"
    BOUNDARY = "bvertex"
    ARROW = "arrow"


_KINDS = {kind.value: kind for kind in VertexKind}


class Vertex(namedtuple("Vertex", "id kind")):
    """A vertex id (str) with its VertexKind."""
    __slots__ = ()


class Edge(namedtuple("Edge", "a b weight_a weight_b")):
    """An edge between vertex ids a and b, with the integer weight at each
    end."""
    __slots__ = ()


def _bfs(adj, start):
    """Parent map of a breadth-first search of `adj` from `start`, in the
    order reached: each vertex maps to its parent, `start` to None.  The
    constructor reads the set of reached ids, the linking rows the map."""
    parents = {start: None}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for nxt, _weight in adj[cur]:
            if nxt not in parents:
                parents[nxt] = cur
                queue.append(nxt)
    return parents


def _weights_off_path(adj, vid, prev, nxt):
    """Product of the weights at `vid` toward neighbours other than its
    path neighbours `prev` and `nxt` (None where the path ends)."""
    product = 1
    for nbr, weight in adj[vid]:
        if nbr != prev and nbr != nxt:
            product *= weight
    return product


class SpliceDiagram:
    """A named weighted tree of nodes, boundary vertices and arrowheads.

    The constructor runs the structural checks and raises ValidationError,
    carrying every violation, unless the vertices and edges form a valid
    diagram.  Codes: DuplicateId, UnknownVertex, NonpositiveWeight,
    ArrowheadCount, LeafDegree, NotATree.  The same pass builds the
    adjacency map (vertex id to its (neighbour id, weight at this end)
    pairs), so it is built once.  Instances are treated as immutable; the
    linking numbers lk(src, x) of every x, one row per source vertex src
    that has been asked for, and the linking forms of the virtual
    components are computed on first use and cached.
    """

    def __init__(self, name, vertices, edges):
        self.name = name
        self.vertices = list(vertices)
        self.edges = list(edges)
        problems = []
        by_id = {}
        adj = {}
        for v in self.vertices:
            if v.id in by_id:
                problems.append("DuplicateId: vertex id %r declared more "
                                "than once" % v.id)
            by_id[v.id] = v
            adj[v.id] = []

        usable = 0
        for a, b, weight_a, weight_b in self.edges:
            if a not in by_id or b not in by_id:
                missing = [x for x in (a, b) if x not in by_id]
                problems.append("UnknownVertex: edge %s-%s references "
                                "undeclared %s" % (a, b, ", ".join(
                                    repr(x) for x in missing)))
            elif a == b:
                problems.append("NotATree: self-loop at %r" % a)
            else:
                adj[a].append((b, weight_a))
                adj[b].append((a, weight_b))
                usable += 1
            if weight_a < 1 or weight_b < 1:
                problems.append("NonpositiveWeight: edge %s-%s carries "
                                "weights (%d, %d)"
                                % (a, b, weight_a, weight_b))

        self.arrowheads = tuple(v for v in self.vertices
                                if v.kind is VertexKind.ARROW)
        if len(self.arrowheads) != 2:
            problems.append("ArrowheadCount: expected 2 arrowheads, found %d"
                            % len(self.arrowheads))

        for v in self.vertices:
            if v.kind is not VertexKind.NODE and len(adj[v.id]) != 1:
                problems.append("LeafDegree: %s %r has degree %d, leaves must "
                                "have degree 1"
                                % (v.kind.value, v.id, len(adj[v.id])))

        if not self.vertices:
            problems.append("NotATree: empty diagram")
        elif usable != len(by_id) - 1:
            problems.append("NotATree: %d vertices need %d edges, found %d"
                            % (len(by_id), len(by_id) - 1, usable))
        elif _bfs(adj, self.vertices[0].id).keys() != by_id.keys():
            problems.append("NotATree: diagram is disconnected")

        if problems:
            raise ValidationError(problems)
        self._by_id = by_id
        self._adj = adj
        self._lk_rows = {}
        self._forms = None

    def vertex(self, vid):
        try:
            return self._by_id[vid]
        except KeyError:
            raise UnknownVertex("no vertex %r in diagram %r"
                                % (vid, self.name)) from None

    @property
    def nodes(self):
        return [v for v in self.vertices if v.kind is VertexKind.NODE]

    def _lk_from(self, src):
        """Map from vertex id x to lk(src, x), for every x.

        The row is filled in the order of `_bfs`'s parent map, so each
        vertex comes after its parent on the tree path from `src`.  A
        vertex's product of the node weights off the path before it is its
        parent's times, at a node parent, the weights there toward neither
        it nor the grandparent; a node x adds its own weights off the
        path, all but the one to its parent.
        """
        row = self._lk_rows.get(src)
        if row is None:
            adj, by_id = self._adj, self._by_id
            node = VertexKind.NODE
            parents = _bfs(adj, src)
            row = {}
            before = {}     # vertex -> its product
            for cur, prev in parents.items():
                if prev is None:
                    product = 1
                else:
                    product = before[prev]
                    if by_id[prev].kind is node:
                        product *= _weights_off_path(adj, prev, parents[prev],
                                                     cur)
                before[cur] = product
                row[cur] = (product * _weights_off_path(adj, cur, prev, None)
                            if by_id[cur].kind is node else product)
            self._lk_rows[src] = row
        return row

    def virtual_forms(self):
        """(vertex, lk(K1, v), lk(K2, v), degree) for every node and
        boundary vertex, in declaration order.  Cached on first use."""
        if self._forms is None:
            k1, k2 = self.arrowheads
            adj = self._adj
            forms = []
            for v in self.vertices:
                if v.kind is VertexKind.ARROW:
                    continue
                forms.append((v,
                              linking_number(self, k1.id, v.id),
                              linking_number(self, k2.id, v.id),
                              len(adj[v.id])))
            self._forms = forms
        return self._forms


def linking_number(d, v, w):
    """Linking number of the (real or virtual) components at vertices v, w.

    Product over all nodes on the tree path from v to w (endpoints count
    when they are nodes) of the node-end weights of every incident edge
    not on the path, that is, of every edge to a neighbour other than the
    node's path neighbours.  The whole row lk(v, .) is computed by one
    pass on the first call from v and cached on the diagram, so later
    calls from v are lookups.  The vertex checks run only on a miss;
    they raise UnknownVertex for an undeclared id, the only id a row
    lacks.
    """
    if v == w:
        raise ValueError("linking number needs two distinct vertices")
    row = d._lk_rows.get(v)
    if row is not None and w in row:
        return row[w]
    d.vertex(v)
    d.vertex(w)
    return d._lk_from(v)[w]


def validate(vertices, edges):
    """The violation strings that SpliceDiagram(name, vertices, edges)
    raises in its ValidationError, in that order; empty when the vertices
    and edges form a valid diagram."""
    try:
        SpliceDiagram(None, vertices, edges)
    except ValidationError as error:
        return error.violations
    return []


def parse_diagram(text):
    """Parse DSL text into a SpliceDiagram.

    Raises DiagramSyntaxError on malformed lines and, from the
    constructor, ValidationError when the described graph is not a valid
    diagram.
    """
    name = None
    vertices = []
    edges = []
    ids = {}    # declared id -> its string, shared by the edges that end there
    last_line = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        last_line = lineno
        line = (raw.split("#", 1)[0] if "#" in raw else raw).strip()
        if not line:
            continue
        parts = line.split()
        kw = parts[0]
        if name is None and kw != "diagram":
            raise DiagramSyntaxError(lineno, "first directive must be 'diagram'")
        if kw == "diagram":
            if name is not None:
                raise DiagramSyntaxError(lineno, "duplicate 'diagram' header")
            if len(parts) != 2:
                raise DiagramSyntaxError(lineno, "usage: diagram <name>")
            name = parts[1]
        elif kw in _KINDS:
            if len(parts) != 2:
                raise DiagramSyntaxError(lineno, "usage: %s <id>" % kw)
            vertices.append(Vertex(ids.setdefault(parts[1], parts[1]),
                                   _KINDS[kw]))
        elif kw == "edge":
            if len(parts) != 5:
                raise DiagramSyntaxError(
                    lineno, "usage: edge <idA> <idB> <weightA> <weightB>")
            try:
                wa, wb = int(parts[3]), int(parts[4])
            except ValueError:
                raise DiagramSyntaxError(
                    lineno, "edge weights must be integers") from None
            edges.append(Edge(ids.get(parts[1], parts[1]),
                              ids.get(parts[2], parts[2]), wa, wb))
        else:
            raise DiagramSyntaxError(lineno, "unknown directive %r" % kw)
    if name is None:
        raise DiagramSyntaxError(last_line + 1, "missing 'diagram' header")
    return SpliceDiagram(name, vertices, edges)


def render_diagram(d):
    """Canonical DSL text for a diagram; inverse of parse_diagram."""
    lines = ["diagram %s" % d.name]
    for v in d.vertices:
        lines.append("%s %s" % (v.kind.value, v.id))
    for e in d.edges:
        lines.append("edge %s %s %d %d" % (e.a, e.b, e.weight_a, e.weight_b))
    return "\n".join(lines) + "\n"


def build_k2n(n):
    """The 2n-node chain link obtained from the unknot by iterating the
    (3,1)-cable-and-splice construction 2n times.

    Nodes H1..H{2n} form a chain; node Hi carries a boundary vertex Si on
    an edge of weight 3 at the node end; the two link components K1, K2
    hang off the end nodes on weight-1 edges.  With these weights the
    linking numbers come out as lk(K1, Hi) = 3^i, lk(K2, Hi) = 3^(2n-i+1),
    lk(K1, Si) = 3^(i-1), lk(K2, Si) = 3^(2n-i) and lk(K1, K2) = 3^(2n).
    """
    if n < 1:
        raise ValueError("the family is defined for n >= 1")
    count = 2 * n
    vertices = [Vertex("H%d" % i, VertexKind.NODE) for i in range(1, count + 1)]
    vertices += [Vertex("S%d" % i, VertexKind.BOUNDARY)
                 for i in range(1, count + 1)]
    vertices += [Vertex("K1", VertexKind.ARROW), Vertex("K2", VertexKind.ARROW)]
    edges = [Edge("H1", "K1", 1, 1)]
    for i in range(1, count + 1):
        edges.append(Edge("H%d" % i, "S%d" % i, 3, 1))
        if i < count:
            edges.append(Edge("H%d" % i, "H%d" % (i + 1), 1, 1))
    edges.append(Edge("H%d" % count, "K2", 1, 1))
    return SpliceDiagram("K%d" % count, vertices, edges)
