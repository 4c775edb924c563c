import gc
import json
import os
import random
import resource
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import splicelink
from splicelink.cli import _half, build_report, main, recognize_family
from splicelink.errors import ComputationError
from splicelink.invariants import alexander_factors
from splicelink.laurent import FactoredDelta, LaurentPoly
from splicelink.polytope import NormBall, unit_ball
from splicelink.splice import build_k2n, parse_diagram, render_diagram
from splicelink.svg import ball_svg, hull_svg
from test_splice import random_diagram


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasicCommands:
    def test_gen_then_norm(self, tmp_path, capsys):
        path = tmp_path / "k4.sd"
        assert main(["gen", "--n", "2", "-o", str(path)]) == 0
        code, out, _err = run(["norm", str(path), "-m", "27,-1"], capsys)
        assert code == 0
        assert out.strip() == "2080"

    def test_orbits_family(self, capsys):
        code, out, _err = run(["orbits", "--family", "4"], capsys)
        assert code == 0
        assert out.strip() == "5"

    def test_fibered(self, capsys):
        code, out, _err = run(["fibered", "--family", "2", "-m", "1,1"],
                              capsys)
        assert code == 0 and out.strip() == "fibered"
        code, out, _err = run(["fibered", "--family", "2", "-m", "27,-1"],
                              capsys)
        assert code == 0 and out.strip() == "non-fibered"

    def test_lk(self, capsys):
        code, out, _err = run(["lk", "--family", "1"], capsys)
        assert code == 0
        assert "lk(K1,K2) = 9" in out
        assert "lk(K1,H1) = 3  lk(K2,H1) = 9" in out

    def test_alex_factored_for_family(self, capsys):
        code, out, _err = run(["alex", "--family", "1"], capsys)
        assert code == 0
        assert out.strip() == \
            "(t1 t2^3 + 1 + t1^-1 t2^-3)(t1^3 t2 + 1 + t1^-3 t2^-1)"

    def test_alex_expanded_for_plain_diagram(self, tmp_path, capsys):
        # same structure but renamed vertices: not recognized as family
        text = render_diagram(build_k2n(1)).replace("H1", "A1")
        path = tmp_path / "renamed.sd"
        path.write_text(text)
        code, out, _err = run(["alex", str(path)], capsys)
        assert code == 0
        assert "(" not in out.strip()
        assert "t1^4 t2^4" in out

    def test_slopes(self, capsys):
        code, out, _err = run(["slopes", "--family", "2", "-m", "1,1"],
                              capsys)
        assert code == 0
        assert "sigma_1 = -81 mu + 1 lambda" in out
        assert "divisibility 1" in out

    def test_sw(self, capsys):
        code, out, _err = run(["sw", "--family", "1"], capsys)
        assert code == 0
        assert "basic classes: 9" in out
        assert "(8,8)" in out
        assert "all classes even: yes" in out

    def test_hull(self, capsys):
        code, out, _err = run(["hull", "--family", "2"], capsys)
        assert code == 0
        assert "vertex (40,40)" in out


class TestExitCodes:
    def test_malformed_class_is_usage_error(self, capsys):
        code, _out, err = run(["norm", "--family", "1", "-m", "1,"], capsys)
        assert code == 1
        assert "usage error" in err

    def test_missing_input(self, capsys):
        code, _out, err = run(["lk"], capsys)
        assert code == 1

    def test_both_inputs(self, tmp_path, capsys):
        path = tmp_path / "k.sd"
        path.write_text(render_diagram(build_k2n(1)))
        code, _out, err = run(["lk", str(path), "--family", "1"], capsys)
        assert code == 1

    def test_bad_diagram_is_computation_error(self, tmp_path, capsys):
        path = tmp_path / "bad.sd"
        path.write_text("diagram X\nnode A\n")
        code, _out, err = run(["lk", str(path)], capsys)
        assert code == 2
        assert "splice.ValidationError" in err

    def test_syntax_error_name(self, tmp_path, capsys):
        path = tmp_path / "bad.sd"
        path.write_text("nonsense\n")
        code, _out, err = run(["lk", str(path)], capsys)
        assert code == 2
        assert "splice.DiagramSyntaxError" in err

    def test_missing_file(self, tmp_path, capsys):
        code, _out, err = run(["lk", str(tmp_path / "absent.sd")], capsys)
        assert code == 2
        assert "cli.IoError" in err


class TestOneProcess:
    # Each call runs once as `python -m splicelink` and once through main:
    # successes, a usage error (exit 1), a computation error (exit 2), then
    # `ball` with and without --svg, so that a leaked --svg would show as
    # a second written file.
    CALLS = (["alex", "--family", "1"],
             ["lk", "--family", "1"],
             ["norm", "--family", "1", "-m", "1,"],
             ["slopes", "--family", "1", "-m", "0,0"],
             ["ball", "--family", "2", "--svg", "ball.svg"],
             ["ball", "--family", "2"])

    @staticmethod
    def written(directory):
        return {p.name: p.read_bytes() for p in directory.iterdir()}

    def test_calls_in_one_process_match_separate_processes(
            self, tmp_path, capsys, monkeypatch):
        src = str(Path(splicelink.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        results = []
        for i, argv in enumerate(self.CALLS):
            alone = tmp_path / ("alone%d" % i)
            alone.mkdir()
            proc = subprocess.run([sys.executable, "-m", "splicelink"] + argv,
                                  cwd=alone, env=env, capture_output=True,
                                  text=True)
            shared = tmp_path / ("shared%d" % i)
            shared.mkdir()
            monkeypatch.chdir(shared)
            code, out, err = run(argv, capsys)
            assert (code, out, err, self.written(shared)) == \
                (proc.returncode, proc.stdout, proc.stderr,
                 self.written(alone)), argv
            results.append(code)
        assert results == [0, 0, 1, 2, 0, 0]


def run_in_one_gib(argv):
    """Run the CLI in a child process limited to 1 GiB of address space."""
    def limit_address_space():  # runs in the child only
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(Path(splicelink.__file__).parents[1])
    return subprocess.run([sys.executable, "-m", "splicelink"] + argv,
                          env=dict(os.environ, PYTHONPATH=src),
                          preexec_fn=limit_address_space,
                          capture_output=True, text=True, timeout=120)


def test_found_tree_fails_cleanly_in_bounded_memory():
    # The dense product of this 20-node tree's node binomials ran out of
    # memory; per kernel line, one division fails first.
    found20 = Path(__file__).parent / "data" / "found20.sd"
    proc = run_in_one_gib(["alex", str(found20)])
    assert proc.returncode == 2
    assert proc.stderr.startswith("laurent.NotDivisible: ")


def test_hull_is_read_off_the_factors_in_bounded_memory():
    # Δ of the 16-node chain has 3^16 terms, far beyond 1 GiB expanded;
    # its hull is the zonotope of 16 segments in distinct directions.
    proc = run_in_one_gib(["hull", "--family", "8"])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert len(proc.stdout.splitlines()) == 32


@pytest.mark.parametrize("n", [7, 50])
def test_too_large_report_fails_cleanly_in_bounded_memory(n, tmp_path):
    # Δ of the 2n-node chain has 3^(2n) terms, more than MAX_TERMS from
    # n = 7 on; the JSON writes them all, so the guard, which reads the
    # bound off the factors, refuses before any output.
    path = tmp_path / "r.json"
    proc = run_in_one_gib(["report", "--family", str(n), "--json", str(path)])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("laurent.TooLarge: ")
    assert not path.exists()


@pytest.mark.parametrize("argv", ["alex --family 7", "sw --family 7",
                                  "report --family 7", "report --family 200"],
                         ids=["alex", "sw", "report", "report-200"])
def test_factored_commands_run_past_the_term_limit(argv):
    # The family's alex, sw and text report print the factors and count
    # the terms without expanding Δ (hull:
    # test_hull_is_read_off_the_factors...).
    proc = run_in_one_gib(argv.split())
    assert (proc.returncode, proc.stderr) == (0, "")


def test_too_large_is_raised_before_any_product(monkeypatch, capsys,
                                                tmp_path):
    # the expansion's first read of a factor is its terms, items()
    real_factors = splicelink.cli.alexander_factors

    def refuse(_self):
        raise AssertionError("a factor's terms were read before the size "
                             "check")

    def factors(d):
        out = real_factors(d)
        monkeypatch.setattr(LaurentPoly, "items", refuse)
        return out

    monkeypatch.setattr(splicelink.cli, "alexander_factors", factors)
    path = tmp_path / "r.json"
    code, out, err = run(["report", "--family", "7", "--json", str(path)],
                         capsys)
    assert (code, out) == (2, "")
    assert err.startswith("laurent.TooLarge: ")
    assert not path.exists()


@pytest.mark.parametrize("command", ["alex", "hull", "sw", "report"])
def test_odd_span_is_reported_without_expanding_the_product(
        command, monkeypatch, capsys):
    # Once Δ's factors are built, the half-integral shift is read off
    # their extremes; an OddSpan carries the factors, not their product.
    oddspan = Path(__file__).parent / "data" / "oddspan.sd"
    factored = []
    late_products = []
    real_factors = splicelink.cli.alexander_factors
    real_mul = LaurentPoly.__mul__

    def factors(d):
        out = real_factors(d)
        factored.append(len(out))
        return out

    def counting_mul(self, other):
        if factored:
            late_products.append((len(self), len(other)))
        return real_mul(self, other)

    monkeypatch.setattr(splicelink.cli, "alexander_factors", factors)
    monkeypatch.setattr(LaurentPoly, "__mul__", counting_mul)
    code, out, err = run([command, str(oddspan)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("laurent.OddSpan: ")
    assert factored and factored[0] > 1
    assert late_products == []


def test_non_utf8_file_is_an_io_error(tmp_path, capsys):
    path = tmp_path / "bad.sd"
    path.write_bytes(b"\xff\n")
    code, out, err = run(["alex", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("cli.IoError: ")


def test_unwritable_output_is_an_io_error(tmp_path, capsys):
    path = tmp_path / "absent" / "k4.sd"
    code, out, err = run(["gen", "--n", "2", "-o", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("cli.IoError: ")
    assert not path.parent.exists()


def test_internal_value_error_is_not_a_computation_error(monkeypatch):
    def broken(_d, _m):
        raise ValueError("internal bug")

    monkeypatch.setattr("splicelink.cli.thurston_norm", broken)
    with pytest.raises(ValueError, match="internal bug"):
        main(["norm", "--family", "1", "-m", "1,1"])


class TestRecognizeFamily:
    def test_generated_family(self):
        assert recognize_family(build_k2n(3)) == 3

    def test_round_tripped_family(self):
        d = parse_diagram(render_diagram(build_k2n(2)))
        assert recognize_family(d) == 2

    def test_renamed_vertices(self):
        d = parse_diagram(render_diagram(build_k2n(1)).replace("S1", "T1"))
        assert recognize_family(d) is None

    def test_changed_weight(self):
        d = parse_diagram(render_diagram(build_k2n(1)).replace(
            "edge H1 S1 3 1", "edge H1 S1 5 1"))
        assert recognize_family(d) is None

    def test_k2_declared_first(self):
        text = render_diagram(build_k2n(2)).replace(
            "arrow K1\narrow K2\n", "arrow K2\narrow K1\n")
        d = parse_diagram(text)
        assert d.arrowheads[0].id == "K2"
        assert recognize_family(d) is None

    def test_reversed_edges_in_shuffled_lines(self):
        # every edge written from its other end, the lines in a seeded
        # order, K1 still declared before K2
        header, *body = render_diagram(build_k2n(3)).splitlines()
        lines = []
        for line in body:
            kw, *rest = line.split()
            if kw == "edge":
                a, b, weight_a, weight_b = rest
                line = "edge %s %s %s %s" % (b, a, weight_b, weight_a)
            lines.append(line)
        random.Random(3).shuffle(lines)
        first, second = sorted(map(lines.index, ["arrow K1", "arrow K2"]))
        lines[first], lines[second] = "arrow K1", "arrow K2"
        d = parse_diagram("\n".join([header] + lines))
        assert not set(d.edges) & set(build_k2n(3).edges)
        assert recognize_family(d) == 3


class TestReport:
    def test_written_json_is_the_joined_chunks(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code, _out, _err = run(
            ["report", "--family", "2", "--json", str(path)], capsys)
        assert code == 0
        d = build_k2n(2)
        assert path.read_text() == "".join(
            build_report(d, 2, FactoredDelta(alexander_factors(d)))
            .json_chunks())

    def test_byte_identical_json(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run(["report", "--family", "1", "--json", str(a)], capsys)
        run(["report", "--family", "1", "--json", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_schema_keys(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        run(["report", "--family", "2", "--json", str(path)], capsys)
        data = json.loads(path.read_text())
        assert list(data) == ["diagram", "family_n", "lk", "rays", "faces",
                              "alexander", "sw_basic_classes",
                              "canonical_classes", "orbit_count",
                              "homotopy_k3"]
        assert data["family_n"] == 2
        assert data["lk"]["k1_k2"] == "81"
        assert data["orbit_count"] == 3
        assert data["homotopy_k3"] is True
        assert all(isinstance(c, str)
                   for _e1, _e2, c in data["alexander"])

    def test_duals_are_half_the_canonical_classes(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        run(["report", "--family", "2", "--json", str(path)], capsys)
        data = json.loads(path.read_text())
        duals = [tuple(2 * int(x) for x in f["dual"]) for f in data["faces"]]
        classes = [tuple(int(x) for x in c["class"])
                   for c in data["canonical_classes"]]
        assert duals == classes

    @staticmethod
    def assert_json_matches_asdict(report):
        """The joined JSON chunks against json.dumps of a plain dict built
        here: _asdict for every field but Δ, and both term arrays from a
        sort of Δ's terms of this test's own."""
        terms = sorted(report.alexander.expand().items(),
                       key=lambda t: (t[0][0] + t[0][1], t[0][0], t[0][1]))
        plain = {}
        for key, value in report._asdict().items():
            if key == "alexander":
                plain["alexander"] = [[e1, e2, str(c)]
                                      for (e1, e2), c in terms]
                plain["sw_basic_classes"] = [[2 * e1, 2 * e2, str(c)]
                                             for (e1, e2), c in terms]
            else:
                plain[key] = value
        text = "".join(report.json_chunks())
        assert text == json.dumps(plain, indent=2) + "\n"

    @pytest.mark.parametrize("weight,n", [(3, 1), (3, 2), (3, 3), (5, 2),
                                          (3, 4)])
    def test_to_json_matches_asdict(self, weight, n):
        text = render_diagram(build_k2n(n)).replace(" 3 1\n",
                                                    " %d 1\n" % weight)
        d = parse_diagram(text)
        self.assert_json_matches_asdict(build_report(
            d, recognize_family(d), FactoredDelta(alexander_factors(d))))

    def test_to_json_matches_asdict_on_random_diagrams(self):
        built = 0
        for seed in range(200):
            d = random_diagram(seed)
            try:
                report = build_report(d, recognize_family(d),
                                      FactoredDelta(alexander_factors(d)))
            except ComputationError:
                continue
            self.assert_json_matches_asdict(report)
            built += 1
        assert built == 31

    def test_text_output(self, capsys):
        code, out, _err = run(["report", "--family", "2"], capsys)
        assert code == 0
        assert "orbit count: 3" in out
        assert "homotopy K3: yes" in out


class TestStreamedReport:
    """The report JSON and the SVG figures go to their files in chunks,
    never as one string."""

    @staticmethod
    def recorded_writes(argv, monkeypatch, capsys):
        """The CLI's write calls while it runs argv, one list per file."""
        writes = []

        class Recording:
            def __init__(self, handle):
                self.handle = handle
                self.calls = []
                writes.append(self.calls)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self.handle.__exit__(*exc)

            def write(self, text):
                self.calls.append(text)
                return self.handle.write(text)

            def writelines(self, lines):
                for line in lines:
                    self.write(line)

        monkeypatch.setattr(splicelink.cli, "open",
                            lambda *a, **k: Recording(open(*a, **k)),
                            raising=False)
        code, _out, _err = run(argv, capsys)
        assert code == 0
        return writes

    @pytest.mark.parametrize("argv", [
        ["gen", "--n", "2", "-o", "{tmp}/k4.sd"]])
    def test_text_files_take_one_write(self, argv, tmp_path, monkeypatch,
                                       capsys):
        argv = [a.format(tmp=tmp_path) for a in argv]
        writes = self.recorded_writes(argv, monkeypatch, capsys)
        assert [len(calls) for calls in writes] == [1]
        assert writes[0][0] == Path(argv[-1]).read_text()

    @pytest.mark.parametrize("argv", [
        ["hull", "--family", "2", "--svg", "{tmp}/hull.svg"],
        ["ball", "--family", "2", "--svg", "{tmp}/ball.svg"],
        ["ball", "--family", "2", "--svg", "{tmp}/ball.svg", "--log-scale"]])
    def test_svg_is_written_one_element_a_chunk(self, argv, tmp_path,
                                                monkeypatch, capsys):
        argv = [a.format(tmp=tmp_path) for a in argv]
        writes = self.recorded_writes(argv, monkeypatch, capsys)
        assert len(writes) == 1
        chunks = writes[0]
        assert "".join(chunks) == Path(argv[4]).read_text()
        assert len(chunks) > 10
        for chunk in chunks:
            # one line, one element: a tag and, for a label, its text
            assert chunk.startswith("<") and chunk.endswith(">\n")
            assert chunk.count("\n") == 1
            assert chunk.count("<") - chunk.count("</") <= 1

    def test_report_is_written_in_term_blocks(self, tmp_path, monkeypatch,
                                              capsys):
        path = tmp_path / "r.json"
        writes = self.recorded_writes(
            ["report", "--family", "3", "--json", str(path)], monkeypatch,
            capsys)
        assert len(writes) == 1
        chunks = writes[0]
        assert "".join(chunks) == path.read_text()
        # 729 terms in each of two arrays, 256 terms a chunk
        terms = [chunk.count('"\n    ]') for chunk in chunks]
        assert [t for t in terms if t] == [256, 256, 217] * 2

    def test_peak_memory_is_a_small_multiple_of_delta(self, tmp_path,
                                                      capsys):
        run(["report", "--family", "1"], capsys)  # caches and imports
        gc.collect()
        tracemalloc.start()
        try:
            factors = alexander_factors(build_k2n(4))
            before = tracemalloc.get_traced_memory()[0]
            delta = FactoredDelta(factors).expand()
            delta_size = tracemalloc.get_traced_memory()[0] - before
            del delta, factors
            gc.collect()
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            code, _out, _err = run(["report", "--family", "4", "--json",
                                    str(tmp_path / "r.json")], capsys)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= 2.0 * delta_size


@pytest.mark.parametrize("argv,text,count", [
    ("alex --family 6", "(", 12),  # one parenthesized trinomial a node
    ("hull --family 6", "vertex ", 24),
    ("sw --family 6", "basic classes: %d\n" % 3 ** 12, 1),
    ("hull --family 200", "vertex ", 800),
    ("report --family 6", "sw basic classes: %d\n" % 3 ** 12, 1)],
    ids=["alex-6", "hull-6", "sw-6", "hull-200", "report-6"])
def test_family_commands_do_not_expand(argv, text, count, monkeypatch,
                                       capsys):
    def refuse(_self):
        raise AssertionError("%s expanded the family's Δ" % argv)

    # every expansion, expand() and terms() alike, builds the keyed terms
    monkeypatch.setattr(FactoredDelta, "_expand_keys", refuse)
    start = time.perf_counter()
    code, out, _err = run(argv.split(), capsys)
    elapsed = time.perf_counter() - start
    assert (code, out.count(text)) == (0, count)
    assert elapsed < 0.1


def stdout_field(text, prefix):
    """The rest of the one line of text that starts with prefix."""
    (line,) = [line for line in text.splitlines() if line.startswith(prefix)]
    return line[len(prefix):]


@pytest.mark.parametrize(
    "source", [["--family", str(n)] for n in range(1, 13)] +
    [[str(Path(__file__).parent / "data" / "w5.sd")]],
    ids=["family-%d" % n for n in range(1, 13)] + ["w5"])
def test_report_agrees_with_the_single_commands(source, capsys):
    def stdout(command):
        code, out, _err = run([command] + source, capsys)
        assert code == 0
        return out

    report = stdout("report")
    assert stdout_field(report, "alexander polynomial: ") + "\n" == \
        stdout("alex")
    assert stdout_field(report, "sw basic classes: ") == \
        stdout_field(stdout("sw"), "basic classes: ")
    assert stdout_field(report, "orbit count: ") + "\n" == stdout("orbits")


HALVED = (list(range(-60, 61))
          + [sign * 3 ** 401 + step for sign in (1, -1) for step in (1, -1)])


def test_integer_half_matches_fraction():
    for x in HALVED:
        assert _half(x) == str(Fraction(x, 2))


@pytest.mark.parametrize("source", ["family", "tree5"])
def test_ball_prints_the_face_duals_as_fractions(source, capsys):
    if source == "family":
        d, argv = build_k2n(3), ["ball", "--family", "3"]
    else:
        path = Path(__file__).parent / "data" / "tree5.sd"
        d, argv = parse_diagram(path.read_text()), ["ball", str(path)]
    code, out, _err = run(argv, capsys)
    assert code == 0
    duals = [line.rsplit("dual ", 1)[1] for line in out.splitlines()
             if line.startswith("face ")]
    assert duals == ["(%s,%s)" % f.dual for f in unit_ball(d).faces]
    assert any("/" in dual for dual in duals) == (source == "tree5")


class TestSvg:
    def test_ball_svg_written_with_labels(self, tmp_path, capsys):
        path = tmp_path / "ball.svg"
        code, _out, _err = run(
            ["ball", "--family", "2", "--svg", str(path)], capsys)
        assert code == 0
        text = path.read_text()
        assert text.startswith("<?xml")
        assert ">(27,-1)<" in text

    def test_hull_svg_labels(self, tmp_path, capsys):
        path = tmp_path / "hull.svg"
        run(["hull", "--family", "2", "--svg", str(path)], capsys)
        assert ">(40,40)<" in path.read_text()

    def test_byte_identical(self, tmp_path, capsys):
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        run(["ball", "--family", "2", "--svg", str(a)], capsys)
        run(["ball", "--family", "2", "--svg", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_log_scale_differs_but_is_deterministic(self, tmp_path, capsys):
        plain = tmp_path / "plain.svg"
        log1 = tmp_path / "log1.svg"
        log2 = tmp_path / "log2.svg"
        run(["ball", "--family", "2", "--svg", str(plain)], capsys)
        run(["ball", "--family", "2", "--svg", str(log1), "--log-scale"],
            capsys)
        run(["ball", "--family", "2", "--svg", str(log2), "--log-scale"],
            capsys)
        assert log1.read_bytes() == log2.read_bytes()
        assert log1.read_bytes() != plain.read_bytes()

    def test_empty_ball_rejected(self):
        with pytest.raises(ValueError):
            ball_svg(NormBall((), ()))

    def test_empty_hull_rejected(self):
        with pytest.raises(ValueError):
            hull_svg([])

    def test_direct_builders_match_cli(self, tmp_path, capsys, k4):
        path = tmp_path / "ball.svg"
        run(["ball", "--family", "2", "--svg", str(path)], capsys)
        assert path.read_text() == "".join(ball_svg(unit_ball(k4)))

    @pytest.mark.parametrize("n", [330, 350])
    def test_log_scale_out_of_float_range_fails_cleanly(self, n, tmp_path,
                                                        capsys):
        # n = 350: a vertex radius underflows to 0.0; n = 330: it is
        # subnormal, and its scale factor 1 / r overflows
        path = tmp_path / "f.svg"
        code, _out, err = run(["ball", "--family", str(n), "--svg",
                               str(path), "--log-scale"], capsys)
        assert code == 2
        assert err.startswith("svg.DegenerateRadius: ")
        assert not path.exists()

    @pytest.mark.parametrize("argv", [["ball", "--family", "200"],
                                      ["hull", "--family", "50"]])
    def test_svg_memory_is_below_its_file_size(self, argv, tmp_path, capsys):
        path = tmp_path / "f.svg"
        run(argv + ["--svg", str(path)], capsys)  # caches and imports

        def peak(extra):
            gc.collect()
            tracemalloc.start()
            try:
                code, _out, _err = run(argv + extra, capsys)
                traced_peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
            return traced_peak

        excess = peak(["--svg", str(path)]) - peak([])
        assert excess < path.stat().st_size
