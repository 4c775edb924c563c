"""splicelink benchmark: run one workload, check every output, print metrics.

    python3 splicebench/run.py --workload chain-delta --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout: the package is imported from
./src.  One closed loop with one client runs sessions ("ops") back to back
for --seconds; every op is the same session and is checked against
independent expectations (oracle.py).  The last line of stdout is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics.  --trace 1 runs half the time
untraced and half with every public function of splicelink wrapped in
spans (spans.py), and reports the per-layer metrics, each the median over
traced ops, with the tracing overhead; the spans go to
splicebench/_out/trace-<workload>.csv.gz.
"""

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PACKAGE = "splicelink"
SETUP_REPS = 12         # set-ups per untraced run: one before the loop,
                        # the rest spread evenly over it
SPAN_CAP = 600_000      # spans kept in memory; the traced phase stops here
MIN_TAIL_OPS = 100      # op_p90_ms has at least ten samples beyond it

# per-layer metric -> (kind, span name or module), see spans.layer_metrics
LAYERS = {}
for _mod in spans.MODULES:
    LAYERS[_mod + ".self_ms"] = ("self_ms", _mod)
for _metric, _span in (
        ("splice.parse_diagram", "splice.parse_diagram"),
        ("splice.virtual_forms", "splice.SpliceDiagram.virtual_forms"),
        ("splice.linking_number", "splice.linking_number"),
        ("splice.build_k2n", "splice.build_k2n"),
        ("invariants.alexander_polynomial", "invariants.alexander_polynomial"),
        ("invariants.nonfibered_rays", "invariants.nonfibered_rays"),
        ("invariants.thurston_norm", "invariants.thurston_norm"),
        ("invariants.is_fibered", "invariants.is_fibered"),
        ("invariants.boundary_slope", "invariants.boundary_slope"),
        ("laurent.mul", "laurent.LaurentPoly.__mul__"),
        ("laurent.exact_divide", "laurent.LaurentPoly.exact_divide"),
        ("laurent.newton_polygon", "laurent.LaurentPoly.newton_polygon"),
        ("laurent.to_json_terms", "laurent.LaurentPoly.to_json_terms"),
        ("laurent.from_json_terms", "laurent.LaurentPoly.from_json_terms"),
        ("laurent.str", "laurent.LaurentPoly.__str__"),
        ("polytope.unit_ball", "polytope.unit_ball"),
        ("polytope.alexander_norm", "polytope.alexander_norm"),
        ("swtheory.sw_polynomial", "swtheory.sw_polynomial"),
        ("swtheory.basic_classes", "swtheory.basic_classes"),
        ("swtheory.sw_norm", "swtheory.sw_norm"),
        ("orbits.lattice_symmetries", "orbits.lattice_symmetries"),
        ("orbits.face_orbits", "orbits.face_orbits"),
        ("cli.build_report", "cli.build_report"),
        ("cli.report_to_json", "cli.Report.to_json"),
        ("cli.recognize_family", "cli.recognize_family"),
        ("svg.hull_svg", "svg.hull_svg"),
        ("svg.ball_svg", "svg.ball_svg")):
    LAYERS[_metric + "_ms"] = ("ms", _span)
for _metric, _span in (
        ("splice.linking_number_calls", "splice.linking_number"),
        ("splice.incident_calls", "splice.SpliceDiagram.incident"),
        ("invariants.nonfibered_rays_calls", "invariants.nonfibered_rays"),
        ("laurent.mul_calls", "laurent.LaurentPoly.__mul__"),
        ("laurent.exact_divide_calls", "laurent.LaurentPoly.exact_divide")):
    LAYERS[_metric] = ("calls", _span)
LAYERS["laurent.delta_terms"] = ("size", "invariants.alexander_polynomial")


def import_fresh(src):
    """Import splicelink from `src`, dropping any copy already imported, so
    that every set-up pays the import."""
    for name in [n for n in sys.modules
                 if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module(PACKAGE)
    for mod in spans.MODULES:
        importlib.import_module(PACKAGE + "." + mod)
    if not os.path.abspath(pkg.__file__).startswith(src + os.sep):
        raise RuntimeError("imported %s from %s, not from %s"
                           % (PACKAGE, pkg.__file__, src))
    return pkg


class Loop:
    """Closed loop of checked ops.  `durations` (seconds), `passed` (op
    numbers) and `out_bytes` hold the ops that passed; a failed op, one
    that raised or whose output failed a check, is only counted."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.durations = []
        self.passed = []
        self.out_bytes = []
        self.failed = 0
        self.failures = []

    def run_one(self):
        wl = self.workload
        number = self.attempted
        self.attempted += 1
        wl.before_op()
        start = time.perf_counter()
        try:
            out = wl.op()
        except Exception as exc:  # a failed op is counted, the loop goes on
            self._fail(["op raised %s: %s" % (type(exc).__name__, exc)])
            return
        duration = time.perf_counter() - start
        output = wl.collect(out)
        bad = wl.check(output)
        if bad:
            self._fail(bad)
            return
        self.durations.append(duration)
        self.passed.append(number)
        self.out_bytes.append(wl.out_bytes(output))

    def _fail(self, messages):
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(messages)

    def run_for(self, seconds, stop=lambda: False, aside=None, every=None):
        """Run ops for `seconds` of loop time.  With `aside`, call it each
        time another `every` seconds of loop time have passed; the time it
        takes is not loop time."""
        start = time.perf_counter()
        paused = 0.0
        next_aside = every
        while True:
            self.run_one()
            elapsed = time.perf_counter() - start - paused
            if elapsed >= seconds or stop():
                break
            if aside is not None and elapsed >= next_aside:
                pause = time.perf_counter()
                aside()
                paused += time.perf_counter() - pause
                next_aside += every


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def parse_args(argv):
    parser = argparse.ArgumentParser(description="splicelink benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--tree-seed", type=int, default=None,
                        help="seed of the random tree (default: --seed)")
    parser.add_argument("--class-seed", type=int, default=None,
                        help="seed of the class sample (default: --seed)")
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, PACKAGE, "__init__.py")):
        print("no %s package under %s: run from the root of a splicelink "
              "checkout" % (PACKAGE, src), file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    os.makedirs(os.path.join(HERE, "_out"), exist_ok=True)
    workdir = os.path.join(HERE, "_out", args.workload)
    workload = WORKLOADS[args.workload](args.seed, workdir,
                                        tree_seed=args.tree_seed,
                                        class_seed=args.class_seed)

    setup_s = []

    def set_up():
        start = time.perf_counter()
        pkg = import_fresh(src)
        workload.setup(pkg)
        workload.before_op()
        workload.op()
        setup_s.append(time.perf_counter() - start)
        gc.collect()
        return pkg

    pkg = set_up()
    loop = Loop(workload)
    if not args.trace:
        # The other set-ups are spread over the run, so that their median
        # sees the same slow and fast periods of the machine as the ops do.
        loop.run_for(args.seconds, aside=set_up,
                     every=args.seconds / SETUP_REPS)
        if not loop.durations:
            return no_op_passed(loop)
        metrics = end_to_end(loop, setup_s, workload)
    else:
        loop.run_for(args.seconds / 2)
        untraced = list(loop.durations)
        tracer = spans.Tracer()
        tracer.install(pkg)
        first = loop.attempted
        tracer.op = first

        def next_op():
            tracer.op += 1
            return len(tracer) >= SPAN_CAP

        loop.run_for(args.seconds / 2, stop=next_op)
        tracer.uninstall()
        if len(loop.durations) == len(untraced) or not untraced:
            return no_op_passed(loop)
        metrics = per_layer(loop, tracer, first, untraced)
        tracer.write(os.path.join(HERE, "_out",
                                  "trace-%s.csv.gz" % args.workload))

    print_failures(loop)
    result = {"correct": loop.failed == 0,
              "attempted": loop.attempted, "failed": loop.failed,
              "metrics": metrics}
    line = json.dumps(result)
    with open(os.path.join(HERE, "_out", "result-%s-trace%d.json"
                           % (args.workload, args.trace)), "w") as handle:
        handle.write(line + "\n")
    print(line)
    return 0


def print_failures(loop):
    for messages in loop.failures:
        print("FAILED: " + "; ".join(messages[:5]), file=sys.stderr)


def no_op_passed(loop):
    print_failures(loop)
    print("no op passed its checks, so there is nothing to time",
          file=sys.stderr)
    return 1


def end_to_end(loop, setup_s, workload):
    ms = [d * 1e3 for d in loop.durations]
    if len(ms) < MIN_TAIL_OPS:
        print("warning: %d ops, fewer than %d, so op_p90_ms has fewer than "
              "ten samples beyond it" % (len(ms), MIN_TAIL_OPS),
              file=sys.stderr)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    workload.before_op()
    gc.collect()  # the same collector state on every run
    tracemalloc.start()
    workload.op()
    alloc_mb = tracemalloc.get_traced_memory()[1] / 2 ** 20
    tracemalloc.stop()
    return {
        "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
        "ops_per_s": {"value": len(ms) / sum(loop.durations), "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(ms), "unit": "ms"},
        "op_p90_ms": {"value": percentile(ms, 90), "unit": "ms"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MiB"},
        "peak_alloc_mb": {"value": alloc_mb, "unit": "MiB"},
    }


def per_layer(loop, tracer, first, untraced):
    traced_ops = [n for n in loop.passed if n >= first]
    values = spans.layer_metrics(tracer.per_op(), LAYERS, traced_ops)
    split = len(untraced)   # passed ops before the tracer was installed
    units = {"ms": "ms", "self_ms": "ms", "calls": "count", "size": "terms"}
    metrics = {name: {"value": values[name], "unit": units[kind]}
               for name, (kind, _key) in LAYERS.items()}
    metrics["cli.out_bytes"] = {
        "value": statistics.median(loop.out_bytes[split:]), "unit": "bytes"}
    traced_p50 = statistics.median(loop.durations[split:]) * 1e3
    untraced_p50 = statistics.median(untraced) * 1e3
    metrics["trace.traced_op_p50_ms"] = {"value": traced_p50, "unit": "ms"}
    metrics["trace.untraced_op_p50_ms"] = {"value": untraced_p50, "unit": "ms"}
    metrics["trace.overhead_ratio"] = {"value": traced_p50 / untraced_p50,
                                       "unit": "ratio"}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
