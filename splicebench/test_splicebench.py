"""Tests of the benchmark itself: its checks accept splicelink's real
output and reject a corrupted copy, its independent linking numbers agree
with the program's, and its tracer records nested spans and restores the
functions it wrapped.

Run with the package importable, e.g.
PYTHONPATH=src python -m pytest splicebench -q
"""

import importlib
import json
import time

import pytest

import gen
import oracle
import run
import spans
from workloads import ChainDelta, ChainSession, ClassQueries, TreeForms


@pytest.fixture(scope="module")
def pkg():
    package = importlib.import_module("splicelink")
    for name in spans.MODULES:
        importlib.import_module("splicelink." + name)
    return package


def _session(workload, pkg):
    workload.setup(pkg)
    workload.before_op()
    return workload.collect(workload.op())


def _replace(output, name, old, new, count=1):
    items = dict(output)
    assert old in items[name], (name, old)
    items[name] = items[name].replace(old, new, count)
    return tuple(items.items())


def test_chain_delta_checks(pkg, tmp_path):
    wl = ChainSession(str(tmp_path))
    output = _session(wl, pkg)
    assert wl.check(output) == []

    report = json.loads(dict(output)["weighted.json"])
    report["alexander"][7][2] = "2"
    bad = _replace(output, "weighted.json", dict(output)["weighted.json"],
                   json.dumps(report, indent=2) + "\n")
    assert any("coefficient other than 1" in f for f in wl.check(bad))

    bad = _replace(output, "hull", "vertex (", "vertex (1")
    assert any("hull vertices differ" in f for f in wl.check(bad))

    bad = _replace(output, "alex5", " + t1", " + 2 t1")
    assert any("alex5 text" in f for f in wl.check(bad))

    bad = _replace(output, "report", "orbit count: 4", "orbit count: 5")
    assert any("orbit count is not n+1" in f for f in wl.check(bad))


def test_tree_forms_checks(pkg, tmp_path):
    wl = TreeForms(1, str(tmp_path))
    output = _session(wl, pkg)
    assert wl.check(output) == []

    norm = dict(output)["tree:norm"].strip()
    bad = _replace(output, "tree:norm", norm, str(int(norm) + 2))
    assert any("tree norm" in f for f in wl.check(bad))

    bad = _replace(output, "chain:lk", "= 3", "= 9")
    assert any("chain lk" in f for f in wl.check(bad))

    fib = dict(output)["tree:fibered"]
    assert fib.strip() == "non-fibered"  # the tree's class lies on a ray
    bad = _replace(output, "tree:fibered", "non-fibered", "fibered")
    assert any("fibered says" in f for f in wl.check(bad))

    bad = _replace(output, "chain:ball", "dual (", "dual (1")
    assert any("dual vertex" in f or "ball:" in f for f in wl.check(bad))


def test_class_queries_checks(pkg):
    wl = ClassQueries(1)
    wl.setup(pkg)
    output = wl.collect(wl.op())
    assert wl.check(output) == []
    bad = list(output)
    tn, fib, s1, s2, an, sn = bad[3]
    bad[3] = (tn, fib, s1, s2, an, sn + 2)
    assert wl.check(bad) and "class" in wl.check(bad)[0]


def test_chain_delta_checks_both_parts(pkg, tmp_path):
    wl = ChainDelta(1, str(tmp_path))
    session, batch = _session(wl, pkg)
    assert wl.check((session, batch)) == []
    bad = _replace(session, "report", "homotopy K3: yes", "homotopy K3: no")
    assert any("K3" in f for f in wl.check((bad, batch)))
    tn, fib, s1, s2, an, sn = batch[0]
    bad = [(tn + 2, fib, s1, s2, an, sn)] + batch[1:]
    assert any("class" in f for f in wl.check((session, bad)))


class _Flaky:
    """Ops 0 and 3 raise, op 1 gives a wrong output, the rest pass."""

    def __init__(self):
        self.n = -1

    def before_op(self):
        self.n += 1

    def op(self):
        if self.n % 3 == 0:
            raise RuntimeError("boom")
        return "wrong" if self.n == 1 else "right"

    def collect(self, out):
        return out

    def out_bytes(self, output):
        return len(output)

    def check(self, output):
        return [] if output == "right" else ["got " + output]


def test_loop_keeps_failed_ops_out_of_the_timings():
    loop = run.Loop(_Flaky())
    for _ in range(6):
        loop.run_one()
    assert (loop.attempted, loop.failed) == (6, 3)
    assert loop.passed == [2, 4, 5] and len(loop.durations) == 3
    assert loop.out_bytes == [5, 5, 5]


def test_loop_time_leaves_out_the_aside_calls():
    calls = []
    loop = run.Loop(_Flaky())
    loop.run_for(0.05, aside=lambda: calls.append(time.sleep(0.03)),
                 every=0.01)
    # 0.05 s of loop time holds four 0.01 s marks; were the 0.03 s asides
    # counted as loop time, there would be room for two at most
    assert len(calls) >= 3


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_oracle_forms_match_program(pkg, seed):
    tree = gen.random_tree(seed, 12, 40)
    d = pkg.splice.parse_diagram(tree.dsl())
    fm = oracle.forms(tree)
    assert [(v.id, a, b, deg) for v, a, b, deg in d.virtual_forms()] \
        == fm.virtual
    assert pkg.splice.linking_number(d, "K1", "K2") == fm.lk12


def test_zonotope_is_the_alexander_hull(pkg):
    for n, weight in ((1, 3), (2, 3), (2, 5)):
        d = pkg.splice.parse_diagram(gen.chain(n, weight).dsl())
        delta = pkg.invariants.alexander_polynomial(d)
        assert set(delta.support()) == oracle.digit_support(n, weight)
        half = (weight - 1) // 2
        segments = [(half * x, half * y)
                    for x, y in oracle.chain_generators(n, weight)]
        assert set(delta.newton_polygon()) == oracle.zonotope(segments)


def test_tracer_records_nested_spans_and_restores(pkg):
    original = pkg.invariants.thurston_norm
    tracer = spans.Tracer()
    tracer.install(pkg)
    try:
        assert pkg.invariants.thurston_norm is not original
        d = pkg.splice.build_k2n(1)
        pkg.invariants.nonfibered_rays(d)
    finally:
        tracer.uninstall()
    assert pkg.invariants.thurston_norm is original
    names = [tracer._name(i) for i in range(len(tracer))]
    assert "invariants.nonfibered_rays" in names
    outer = tracer.ids[names.index("invariants.nonfibered_rays")]
    norms = [i for i, n in enumerate(names) if n == "invariants.thurston_norm"]
    assert norms and all(tracer.parents[i] == outer for i in norms)
    rec = tracer.per_op()[0]
    assert rec["calls"]["splice.linking_number"] == 2 * 4  # 4 virtual vertices
    total = sum(rec["self"].values())
    top = sum(tracer.ends[i] - tracer.starts[i] for i in range(len(tracer))
              if tracer.parents[i] < 0)
    assert total == top
