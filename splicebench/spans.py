"""Span tracing of splicelink from the outside.

`Tracer.install` replaces every public function of the traced modules, at
every module attribute that names it (cli imports names directly, and
`virtual_forms` finds `linking_number` as a module global), and the public
and operator methods of LaurentPoly, SpliceDiagram and Report on their
classes, with wrappers that record one span per call: id, parent id, op
number, name, start, end and, for `alexander_polynomial`, the term count
of the result.  Properties are left alone.  Spans stay in memory until
`write` saves them; `uninstall` puts the original functions back.
"""

import functools
import gzip
import inspect
from array import array
from collections import defaultdict
from statistics import median
from time import perf_counter_ns

MODULES = ("splice", "invariants", "laurent", "polytope", "swtheory",
           "orbits", "cli", "svg")
CLASSES = (("laurent", "LaurentPoly"), ("splice", "SpliceDiagram"),
           ("cli", "Report"))
OPERATORS = ("__neg__", "__add__", "__radd__", "__sub__", "__rsub__",
             "__mul__", "__rmul__", "__eq__", "__str__")
# span name -> function of the result giving the span's size
SIZES = {"invariants.alexander_polynomial": len}


class Tracer:
    def __init__(self):
        self.names = []
        self.op = 0
        self._stack = [-1]
        self._active = []
        self._next_id = 0
        self.ids = array("q")
        self.parents = array("q")
        self.ops = array("q")
        self.name_ix = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.sizes = array("q")
        self._restore = []

    def __len__(self):
        return len(self.ids)

    # ------------------------------------------------------------ wrapping

    def _wrap(self, fn, name):
        ix = len(self.names)
        self.names.append(name)
        self._active.append(0)
        size_of = SIZES.get(name)
        stack = self._stack
        active = self._active
        record = self._record

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            nested = active[ix]
            stack.append(sid)
            active[ix] = nested + 1
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = perf_counter_ns()
                stack.pop()
                active[ix] = nested
                record(sid, parent, ix, start, end, -1, nested)
                raise
            end = perf_counter_ns()
            stack.pop()
            active[ix] = nested
            record(sid, parent, ix, start, end,
                   size_of(result) if size_of else -1, nested)
            return result

        return traced

    def _record(self, sid, parent, ix, start, end, size, nested):
        self.ids.append(sid)
        self.parents.append(parent)
        self.ops.append(self.op)
        self.name_ix.append(ix if not nested else -1 - ix)
        self.starts.append(start)
        self.ends.append(end)
        self.sizes.append(size)

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package):
        """Wrap the package's public functions and class methods."""
        mods = {name: getattr(package, name) for name in MODULES}
        targets = list(mods.values()) + [package]
        wrapped = {}
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                wrapped[fn] = self._wrap(fn, "%s.%s" % (short, attr))
        for mod in targets:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._set(mod, attr, wrapped[value])
        for short, cls_name in CLASSES:
            cls = getattr(mods[short], cls_name)
            done = {}
            for attr, raw in list(vars(cls).items()):
                if attr.startswith("_") and attr not in OPERATORS:
                    continue
                fn = raw.__func__ if isinstance(raw, (classmethod,
                                                      staticmethod)) else raw
                if not inspect.isfunction(fn):
                    continue
                if fn not in done:
                    done[fn] = self._wrap(fn, "%s.%s.%s" % (short, cls_name,
                                                            fn.__name__))
                new = done[fn]
                if isinstance(raw, classmethod):
                    new = classmethod(new)
                elif isinstance(raw, staticmethod):
                    new = staticmethod(new)
                self._set(cls, attr, new)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------- results

    def per_op(self):
        """op number -> {'incl': {name: ns}, 'calls': {name: n},
        'size': {name: n}, 'self': {module: ns}} over that op's spans.

        Inclusive time counts only spans with no enclosing span of the same
        name, so recursion is not counted twice.  A module's self time is
        its spans' durations minus the parts their child spans cover."""
        child_ns = defaultdict(int)
        for i in range(len(self.ids)):
            p = self.parents[i]
            if p >= 0:
                child_ns[p] += self.ends[i] - self.starts[i]
        module_of = [n.split(".", 1)[0] for n in self.names]
        out = defaultdict(lambda: {"incl": defaultdict(int),
                                   "calls": defaultdict(int),
                                   "size": defaultdict(int),
                                   "self": defaultdict(int)})
        for i in range(len(self.ids)):
            rec = out[self.ops[i]]
            ix = self.name_ix[i]
            nested = ix < 0
            if nested:
                ix = -1 - ix
            name = self.names[ix]
            dur = self.ends[i] - self.starts[i]
            rec["calls"][name] += 1
            if self.sizes[i] >= 0:
                rec["size"][name] += self.sizes[i]
            rec["self"][module_of[ix]] += dur - child_ns[self.ids[i]]
            if not nested:
                rec["incl"][name] += dur
        return out

    def _name(self, i):
        ix = self.name_ix[i]
        return self.names[ix if ix >= 0 else -1 - ix]

    def write(self, path):
        """Save every span as gzipped CSV: id, parent, op, name, start_ns,
        end_ns, size (-1 when the span has none); times are relative to the
        first span's start."""
        base = min(self.starts) if self.starts else 0
        with gzip.open(path, "wt", encoding="utf-8",
                       compresslevel=1) as handle:
            handle.write("id,parent,op,name,start_ns,end_ns,size\n")
            for i in range(len(self.ids)):
                handle.write("%d,%d,%d,%s,%d,%d,%d\n" % (
                    self.ids[i], self.parents[i], self.ops[i],
                    self._name(i), self.starts[i] - base,
                    self.ends[i] - base, self.sizes[i]))


def layer_metrics(per_op, table, op_numbers):
    """Median over the given ops of each metric in `table`:
    name -> (kind, key), kind one of 'ms' (inclusive time of span `key`),
    'calls', 'size' and 'self_ms' (self time of module `key`)."""
    out = {}
    for metric, (kind, key) in table.items():
        values = []
        for op in op_numbers:
            rec = per_op.get(op)
            if rec is None:
                values.append(0)
            elif kind == "ms":
                values.append(rec["incl"].get(key, 0) / 1e6)
            elif kind == "self_ms":
                values.append(rec["self"].get(key, 0) / 1e6)
            elif kind == "calls":
                values.append(rec["calls"].get(key, 0))
            else:
                values.append(rec["size"].get(key, 0))
        out[metric] = median(values)
    return out
