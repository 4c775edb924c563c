"""Seeded inputs of the splicelink benchmark.

Everything here is written without importing splicelink: the diagrams are
produced as DSL text, which the program under test then parses, and the
class samples are plain integer pairs.

Run as a script to write one random branching tree, for example to
reproduce a slow or failing diagram:

    python3 splicebench/gen.py --seed 3 --nodes 20 --vertices 64 -o t.sd
"""

import argparse
import random

from oracle import forms, ray_norms

TREE_NODES = 16         # the random tree of the tree-forms workload
TREE_VERTICES = 56
WEIGHTS = (1, 2, 3, 5)


class Tree:
    """A splice diagram as plain data: kinds by vertex id (declaration
    order kept) and edges (a, b, weight_at_a, weight_at_b)."""

    def __init__(self, name, kinds, edges):
        self.name = name
        self.kinds = kinds
        self.edges = edges

    def dsl(self):
        lines = ["diagram %s" % self.name]
        lines += ["%s %s" % (kind, vid) for vid, kind in self.kinds.items()]
        lines += ["edge %s %s %d %d" % e for e in self.edges]
        return "\n".join(lines) + "\n"

    def adjacency(self):
        """vertex id -> list of (neighbour, weight at this end, weight at
        the neighbour's end)."""
        adj = {vid: [] for vid in self.kinds}
        for a, b, wa, wb in self.edges:
            adj[a].append((b, wa, wb))
            adj[b].append((a, wb, wa))
        return adj

    def degrees(self):
        return {vid: len(nbrs) for vid, nbrs in self.adjacency().items()}


def chain(n, weight=3):
    """The 2n-node chain H1..H2n, each Hi carrying a boundary vertex Si on
    an edge with `weight` at the node end, K1 and K2 at the two ends.  With
    weight 3 this is the paper's family; vertex ids, declaration order and
    edges follow the family's own construction, so splicelink recognises
    it."""
    count = 2 * n
    kinds = {}
    for i in range(1, count + 1):
        kinds["H%d" % i] = "node"
    for i in range(1, count + 1):
        kinds["S%d" % i] = "bvertex"
    kinds["K1"] = "arrow"
    kinds["K2"] = "arrow"
    edges = [("H1", "K1", 1, 1)]
    for i in range(1, count + 1):
        edges.append(("H%d" % i, "S%d" % i, weight, 1))
        if i < count:
            edges.append(("H%d" % i, "H%d" % (i + 1), 1, 1))
    edges.append(("H%d" % count, "K2", 1, 1))
    name = "K%d" % count if weight == 3 else "C%dw%d" % (count, weight)
    return Tree(name, kinds, edges)


def _random_tree_once(rng, nodes, vertices):
    parent = [None] + [rng.randrange(i) for i in range(1, nodes)]
    node_edges = [(parent[i], i) for i in range(1, nodes)]
    degree = [0] * nodes
    for p, c in node_edges:
        degree[p] += 1
        degree[c] += 1
    arrows = rng.sample(range(nodes), 2)
    for a in arrows:
        degree[a] += 1
    bvertex_at = []
    for i in range(nodes):
        bvertex_at += [i] * max(0, 3 - degree[i])
    extra = vertices - nodes - 2 - len(bvertex_at)
    if extra < 0:
        return None
    bvertex_at += [rng.randrange(nodes) for _ in range(extra)]

    kinds = {"N%d" % (i + 1): "node" for i in range(nodes)}
    for j in range(len(bvertex_at)):
        kinds["S%d" % (j + 1)] = "bvertex"
    kinds["K1"] = "arrow"
    kinds["K2"] = "arrow"
    edges = [("N%d" % (p + 1), "N%d" % (c + 1), rng.choice(WEIGHTS),
              rng.choice(WEIGHTS)) for p, c in node_edges]
    edges += [("N%d" % (i + 1), "S%d" % (j + 1), rng.choice(WEIGHTS), 1)
              for j, i in enumerate(bvertex_at)]
    edges += [("N%d" % (a + 1), "K%d" % (k + 1), rng.choice(WEIGHTS), 1)
              for k, a in enumerate(arrows)]
    rng.shuffle(edges)
    return Tree("R%d" % nodes, kinds, edges)


def random_tree(seed, nodes=TREE_NODES, vertices=TREE_VERTICES):
    """A random branching splice tree, the same one for the same arguments.

    `nodes` nodes form a random recursive tree (each node hangs off a
    uniformly chosen earlier one, so paths are short and degrees vary).
    K1 and K2 hang off two distinct nodes; every node gets boundary
    vertices until its degree is at least 3, and the rest of the
    `vertices` budget goes to boundary vertices on random nodes.  Node-end
    weights are drawn from WEIGHTS.  Draws whose norm ball would be
    degenerate (a non-fibered ray of norm <= 0) are rejected and redrawn
    from the same stream.
    """
    rng = random.Random("tree:%d:%d:%d:%s" % (seed, nodes, vertices,
                                             ",".join(map(str, WEIGHTS))))
    while True:
        tree = _random_tree_once(rng, nodes, vertices)
        if tree is None:
            raise ValueError("%d vertices are too few for %d nodes"
                             % (vertices, nodes))
        if all(norm > 0 for _ray, norm in ray_norms(forms(tree))):
            return tree


def class_sample(seed, count, rays):
    """`count` nonzero integer classes, the same ones for the same seed.

    One in ten is a multiple of a non-fibered ray from `rays` (so the
    non-fibered branches run too); the rest are uniform in [-40, 40]^2
    without the origin.
    """
    rng = random.Random("classes:%d" % seed)
    out = []
    while len(out) < count:
        if rng.randrange(10) == 0:
            x, y = rng.choice(rays)
            k = rng.choice((-2, -1, 1, 2))
            out.append((k * x, k * y))
            continue
        m = (rng.randint(-40, 40), rng.randint(-40, 40))
        if m != (0, 0):
            out.append(m)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--nodes", type=int, default=TREE_NODES)
    parser.add_argument("--vertices", type=int, default=TREE_VERTICES,
                        help="total vertex count")
    parser.add_argument("-o", "--output", required=True)
    args = parser.parse_args(argv)
    tree = random_tree(args.seed, args.nodes, args.vertices)
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(tree.dsl())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
