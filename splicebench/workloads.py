"""The two workloads of the splicelink benchmark and the sessions they
are made of.

Each session is built from its seeds, together with everything the
checks need (computed here, untimed, without splicelink).  `setup(pkg)`
prepares the program side from a freshly imported package, `op()` runs
one session and returns its outputs, and `check(output)` returns the list
of failed checks.
"""

import contextlib
import io
import os
import random

import gen
import oracle

FAMILY_N = 3            # chain session: family member with 3^6 = 729 terms
WEIGHTED_N = 2          # chain session: 4-node chain ...
WEIGHT = 5              # ... with weight 5: 5^4 = 625 terms
TREE_CHAIN_N = 12       # tree-forms: 24-node chain
QUERY_N = 4             # class queries: 8-node chain, 3^8 = 6561 terms
QUERY_CLASSES = 200


class CommandFailed(Exception):
    """A command of the session exited with a nonzero code."""


class _CliWorkload:
    """A session of `splicelink` command lines run in-process through
    cli.main, with stdout captured and written files read back."""

    commands = ()   # (label, argv, file label or None)

    def __init__(self, workdir):
        self.workdir = workdir
        self._verdicts = {}

    def path(self, name):
        return os.path.join(self.workdir, name)

    def setup(self, pkg):
        os.makedirs(self.workdir, exist_ok=True)
        for name, text in self.inputs():
            with open(self.path(name), "w", encoding="utf-8") as handle:
                handle.write(text)
        self.main = pkg.cli.main

    def before_op(self):
        for _label, _argv, written in self.commands:
            if written:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(self.path(written))

    def op(self):
        out = []
        for label, argv, _written in self.commands:
            buf, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(err):
                code = self.main(argv)
            if code != 0:
                raise CommandFailed("%s exited %d: %s"
                                    % (label, code, err.getvalue().strip()))
            out.append((label, buf.getvalue()))
        return tuple(out)

    def collect(self, out):
        """The op's outputs with the files it wrote, read back untimed."""
        files = []
        for _label, _argv, written in self.commands:
            if written:
                try:
                    with open(self.path(written), encoding="utf-8") as handle:
                        files.append((written, handle.read()))
                except FileNotFoundError:
                    files.append((written, None))
        return out + tuple(files)

    def out_bytes(self, output):
        return sum(len((text or "").encode("utf-8")) for _name, text in output)

    def check(self, output):
        verdict = self._verdicts.get(output)
        if verdict is None:
            verdict = self._check(output)
            self._verdicts[output] = verdict
        return verdict

    def _check(self, output):
        missing = ["%s was not written" % name
                   for name, text in output if text is None]
        return missing or list(self.check_texts(dict(output)))


class ChainSession(_CliWorkload):
    """alex, hull --svg, sw and report --json on --family 3; alex and
    report --json on the weight-5 4-node chain read from a DSL file."""

    def __init__(self, workdir):
        super().__init__(workdir)
        w5 = self.path("weighted.sd")
        self.commands = (
            ("alex", ["alex", "--family", str(FAMILY_N)], None),
            ("hull", ["hull", "--family", str(FAMILY_N), "--svg",
                      self.path("hull.svg")], "hull.svg"),
            ("sw", ["sw", "--family", str(FAMILY_N)], None),
            ("report", ["report", "--family", str(FAMILY_N), "--json",
                        self.path("family.json")], "family.json"),
            ("alex5", ["alex", w5], None),
            ("report5", ["report", w5, "--json", self.path("weighted.json")],
             "weighted.json"),
        )

    def inputs(self):
        return [("weighted.sd", gen.chain(WEIGHTED_N, WEIGHT).dsl())]

    def check_texts(self, texts):
        return oracle.check_chain_delta(texts, FAMILY_N, WEIGHTED_N, WEIGHT)


class TreeForms(_CliWorkload):
    """lk, ball --svg, orbits, norm -m, fibered -m and slopes -m on a
    24-node chain and on a seeded random branching tree."""

    def __init__(self, seed, workdir, tree_seed=None, class_seed=None):
        super().__init__(workdir)
        tree_seed = seed if tree_seed is None else tree_seed
        class_seed = seed if class_seed is None else class_seed
        self.trees = {"chain": gen.chain(TREE_CHAIN_N),
                      "tree": gen.random_tree(tree_seed)}
        self.forms = {k: oracle.forms(t) for k, t in self.trees.items()}
        rng = random.Random("tree-forms:%d" % class_seed)
        rays = {k: [p for p, _n in oracle.ray_norms(fm)]
                for k, fm in self.forms.items()}
        self.classes = {"chain": gen.class_sample(class_seed, 1,
                                                  rays["chain"])[0]}
        x, y = rng.choice(rays["tree"])
        k = rng.choice((-2, -1, 1, 2))
        self.classes["tree"] = (k * x, k * y)
        commands = []
        for key in self.trees:
            sd = self.path(key + ".sd")
            m = "-m=%d,%d" % self.classes[key]
            svg = key + ".svg"
            commands += [
                (key + ":lk", ["lk", sd], None),
                (key + ":ball", ["ball", sd, "--svg", self.path(svg)], svg),
                (key + ":orbits", ["orbits", sd], None),
                (key + ":norm", ["norm", sd, m], None),
                (key + ":fibered", ["fibered", sd, m], None),
                (key + ":slopes", ["slopes", sd, m], None),
            ]
        self.commands = tuple(commands)

    def inputs(self):
        return [(key + ".sd", t.dsl()) for key, t in self.trees.items()]

    def check_texts(self, texts):
        failures = []
        for key in self.trees:
            out = {label.split(":", 1)[1]: text
                   for label, text in texts.items()
                   if label.startswith(key + ":")}
            out["ball.svg"] = texts[key + ".svg"]
            failures += oracle.check_tree_session(
                out, key, self.forms[key], self.classes[key],
                chain_n=TREE_CHAIN_N if key == "chain" else None)
        return failures


class ClassQueries:
    """thurston_norm, is_fibered, boundary_slope (both components),
    alexander_norm and sw_norm for a batch of seeded classes on the n = 4
    chain, with forms, Delta, its hull and the basic classes built in
    set-up."""

    def __init__(self, class_seed):
        self.dsl = gen.chain(QUERY_N).dsl()
        rays = [p for p, _n in oracle.ray_norms(oracle.chain_forms(QUERY_N))]
        self.classes = gen.class_sample(class_seed, QUERY_CLASSES, rays)
        self.expected = oracle.class_expectations(QUERY_N, self.classes)

    def setup(self, pkg):
        self.inv, self.poly = pkg.invariants, pkg.polytope
        self.sw = pkg.swtheory
        self.d = pkg.splice.parse_diagram(self.dsl)
        self.d.virtual_forms()
        self.delta = self.inv.alexander_polynomial(self.d)
        self.delta.newton_polygon()
        self.bcs = self.sw.basic_classes(self.sw.sw_polynomial(self.delta))
        self.bcs.hull()

    def before_op(self):
        pass

    def op(self):
        inv, poly, sw = self.inv, self.poly, self.sw
        d, delta, bcs = self.d, self.delta, self.bcs
        out = []
        for m in self.classes:
            s1 = inv.boundary_slope(d, m, 1)
            s2 = inv.boundary_slope(d, m, 2)
            out.append((inv.thurston_norm(d, m), inv.is_fibered(d, m),
                        s1, s2, poly.alexander_norm(delta, m),
                        sw.sw_norm(bcs, m)))
        return out

    def collect(self, out):
        return [(tn, fib,
                 (s1.component_index, s1.meridian_coeff, s1.longitude_coeff,
                  s1.divisibility, s1.beta_primitive),
                 (s2.component_index, s2.meridian_coeff, s2.longitude_coeff,
                  s2.divisibility, s2.beta_primitive), an, sn)
                for tn, fib, s1, s2, an, sn in out]

    def out_bytes(self, _output):
        return 0

    def check(self, output):
        bad = [(m, got, want) for m, got, want
               in zip(self.classes, output, self.expected) if got != want]
        if len(output) != len(self.expected):
            return ["%d results for %d classes" % (len(output),
                                                   len(self.expected))]
        return ["class %s: got %s, expected %s" % bad[0]] if bad else []


class ChainDelta:
    """One ChainSession, then one ClassQueries batch, timed as one op.

    The queries share the op rather than having a workload of their own,
    so that the benchmark has two workloads and its runs can be longer on
    a machine whose speed drifts (see README.md, Reference figures)."""

    def __init__(self, seed, workdir, class_seed=None, **_seeds):
        class_seed = seed if class_seed is None else class_seed
        self.parts = (ChainSession(workdir), ClassQueries(class_seed))

    def setup(self, pkg):
        for part in self.parts:
            part.setup(pkg)

    def before_op(self):
        for part in self.parts:
            part.before_op()

    def op(self):
        return tuple(part.op() for part in self.parts)

    def collect(self, out):
        return tuple(part.collect(o) for part, o in zip(self.parts, out))

    def out_bytes(self, output):
        return sum(part.out_bytes(o) for part, o in zip(self.parts, output))

    def check(self, output):
        return [failure for part, o in zip(self.parts, output)
                for failure in part.check(o)]


WORKLOADS = {"chain-delta": ChainDelta, "tree-forms": TreeForms}
