"""Byte-identity of the command line: for each command, its exit code and
the SHA-256 (first 16 hex digits) of its stdout, its stderr and every file
it writes.

`{tmp}` in a command is a fresh directory, `{tree}` the small random tree
in `tests/data/tree5.sd`, `{tree56}` the 56-vertex random tree of
`splicebench/gen.py` `random_tree(7)` in `tests/data/tree56.sd`,
`{found20}` the 20-node random tree in
`tests/data/found20.sd`, `{oddspan}` the small tree in
`tests/data/oddspan.sd` whose Δ cannot be centered, `{w5}` the 4-node
chain with weight 5 on every boundary edge from the chain-delta
benchmark workload (`splicebench/gen.py` `chain(2, 5)`, in
`tests/data/w5.sd`; it is not the family, so `report` prints its Δ
expanded), `{hopf}` the Hopf link in `tests/data/hopf.sd` (two
arrowheads, one edge: Δ = 1, and a degenerate norm ball), and `{k4}`
the file written by `gen --n 2`.  A
change that alters output on purpose updates the table and says so; run
this file as a script to print the table for the current code:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import hashlib
import io
import shlex
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from splicelink.cli import main

TREE = Path(__file__).parent / "data" / "tree5.sd"
TREE56 = Path(__file__).parent / "data" / "tree56.sd"
FOUND20 = Path(__file__).parent / "data" / "found20.sd"
ODDSPAN = Path(__file__).parent / "data" / "oddspan.sd"
W5 = Path(__file__).parent / "data" / "w5.sd"
HOPF = Path(__file__).parent / "data" / "hopf.sd"

EMPTY = "e3b0c44298fc1c14"  # the digest of no output

# (command, exit code, stdout, stderr, {written file name: digest})
GOLDEN = [
    ("lk --family 1", 0, "fba11d4fe300942e", EMPTY, {}),
    ("fibered --family 1 -m 1,1", 0, "9600415f6f3b4916", EMPTY, {}),
    ("norm --family 1 -m 1,1", 0, "e6c21e8d260fe718", EMPTY, {}),
    ("slopes --family 1 -m 1,1", 0, "976864f4f5f0bf6d", EMPTY, {}),
    ("ball --family 1 --svg {tmp}/ball.svg", 0,
     "001ffc9d03b1f4f8", EMPTY, {"ball.svg": "6cc047011303f898"}),
    ("hull --family 1 --svg {tmp}/hull.svg", 0,
     "1cc255aff4ebfbee", EMPTY, {"hull.svg": "dfebdc92a24307f8"}),
    ("orbits --family 1", 0, "53c234e5e8472b6a", EMPTY, {}),
    ("alex --family 1", 0, "21f64270753d8a79", EMPTY, {}),
    ("sw --family 1", 0, "8f98a87a6808ba4b", EMPTY, {}),
    ("report --family 1 --json {tmp}/report.json", 0,
     "a12bd5840ef2350c", EMPTY, {"report.json": "37aceb16bb8a9c49"}),
    ("lk --family 2", 0, "ceae260ecd9df1e6", EMPTY, {}),
    ("fibered --family 2 -m 1,1", 0, "9600415f6f3b4916", EMPTY, {}),
    ("norm --family 2 -m 1,1", 0, "1cb3ae0c7cf44aff", EMPTY, {}),
    ("slopes --family 2 -m 1,1", 0, "03d7e6102f21fe04", EMPTY, {}),
    ("ball --family 2 --svg {tmp}/ball.svg", 0,
     "e735bf634a9b0e0a", EMPTY, {"ball.svg": "ff4063d2c8189d50"}),
    ("hull --family 2 --svg {tmp}/hull.svg", 0,
     "b851e83d49de9750", EMPTY, {"hull.svg": "c9e558423f2a666b"}),
    ("orbits --family 2", 0, "1121cfccd5913f0a", EMPTY, {}),
    ("alex --family 2", 0, "c4e2d5263c255fd0", EMPTY, {}),
    ("sw --family 2", 0, "21b1f78138d2e1b0", EMPTY, {}),
    ("report --family 2 --json {tmp}/report.json", 0,
     "3800a7fad460b0de", EMPTY, {"report.json": "b1cf21e15ce90081"}),
    ("lk --family 3", 0, "d29ad1b40d8f1fb1", EMPTY, {}),
    ("fibered --family 3 -m 1,1", 0, "9600415f6f3b4916", EMPTY, {}),
    ("norm --family 3 -m 1,1", 0, "5cb824c310043f4c", EMPTY, {}),
    ("slopes --family 3 -m 1,1", 0, "4fc61353a69ffb2e", EMPTY, {}),
    ("ball --family 3 --svg {tmp}/ball.svg", 0,
     "05ecbf75794dae8a", EMPTY, {"ball.svg": "112520ff489170e5"}),
    ("hull --family 3 --svg {tmp}/hull.svg", 0,
     "258d276163ce1f15", EMPTY, {"hull.svg": "b2cd175b61c0d263"}),
    ("orbits --family 3", 0, "7de1555df0c27003", EMPTY, {}),
    ("alex --family 3", 0, "8d4479daba74bfc2", EMPTY, {}),
    ("sw --family 3", 0, "dc340e01bcffc8e4", EMPTY, {}),
    ("report --family 3 --json {tmp}/report.json", 0,
     "cc35c635258f8029", EMPTY, {"report.json": "f64789b7f8f58020"}),
    ("report --family 4 --json {tmp}/report.json", 0,
     "8b1dd154d3d2966b", EMPTY, {"report.json": "59c2360d8e875e55"}),
    ("report {w5} --json {tmp}/report.json", 0,
     "b24823ca815c1849", EMPTY, {"report.json": "c3a561e3fcde8071"}),
    # The Δ commands off the family: Δ expanded, and `sw` printing the
    # SW polynomial and its term count.
    ("alex {w5}", 0, "92d41056198b7575", EMPTY, {}),
    ("hull {w5} --svg {tmp}/hull.svg", 0,
     "05ffc7a93d243d26", EMPTY, {"hull.svg": "0cbd2f9ee9d2493c"}),
    ("sw {w5}", 0, "4a49d46e8515f831", EMPTY, {}),
    ("gen --n 2 -o {tmp}/k4.sd", 0,
     EMPTY, EMPTY, {"k4.sd": "5f632a4867e4b041"}),
    ("alex {k4}", 0, "c4e2d5263c255fd0", EMPTY, {}),
    ("sw {k4}", 0, "21b1f78138d2e1b0", EMPTY, {}),
    ("report {k4} --json {tmp}/report.json", 0,
     "3800a7fad460b0de", EMPTY, {"report.json": "b1cf21e15ce90081"}),
    ("orbits {k4}", 0, "1121cfccd5913f0a", EMPTY, {}),
    ("ball {tree} --svg {tmp}/ball.svg", 0,
     "ff67f05dfbab8743", EMPTY, {"ball.svg": "3d22b7f3961bb912"}),
    ("orbits {tree}", 0, "7de1555df0c27003", EMPTY, {}),
    ("norm {tree} -m 1,1", 0, "9df75c0ff9adcf39", EMPTY, {}),
    ("fibered {tree} -m 1,1", 0, "9600415f6f3b4916", EMPTY, {}),
    ("fibered {tree} -m 1,-125", 0, "5496ca78c8ad9092", EMPTY, {}),
    ("slopes {tree} -m 1,1", 0, "efb93d629c707000", EMPTY, {}),
    ("lk {tree}", 0, "36d1b1fe5cced6f1", EMPTY, {}),
    ("alex {tree}", 2, EMPTY, "5c0c2f7480f849d1", {}),
    # Recorded with Δ built one kernel line at a time; the dense product
    # of all of this tree's node binomials runs out of memory.
    ("alex {found20}", 2, EMPTY, "5c0c2f7480f849d1", {}),
    ("hull {found20}", 2, EMPTY, "5c0c2f7480f849d1", {}),
    # Its ball exists all the same, and all ten of its duals are
    # half-integral, as are {tree}'s.
    ("ball {found20}", 0, "2267572ce418908c", EMPTY, {}),
    ("orbits {found20}", 0, "f0b5c2c2211c8d67", EMPTY, {}),
    # The error paths of the commands that print Δ's hull or its size:
    # NotDivisible on {tree}, OddSpan on {oddspan}.
    ("hull {tree}", 2, EMPTY, "5c0c2f7480f849d1", {}),
    ("sw {tree}", 2, EMPTY, "5c0c2f7480f849d1", {}),
    ("report {tree}", 2, EMPTY, "5c0c2f7480f849d1", {}),
    ("alex {oddspan}", 2, EMPTY, "0c349e07e344bf8e", {}),
    ("hull {oddspan}", 2, EMPTY, "0c349e07e344bf8e", {}),
    ("sw {oddspan}", 2, EMPTY, "0c349e07e344bf8e", {}),
    ("report {oddspan}", 2, EMPTY, "0c349e07e344bf8e", {}),
    # The 56-vertex random tree and the 24-node chain of the tree-forms
    # benchmark workload.
    ("ball {tree56} --svg {tmp}/ball.svg", 0,
     "d8a32777cb91816d", EMPTY, {"ball.svg": "59b68b7d6e092bd7"}),
    ("orbits {tree56}", 0, "7de1555df0c27003", EMPTY, {}),
    ("lk {tree56}", 0, "8c9bd6045532f151", EMPTY, {}),
    ("norm {tree56} -m 1,1", 0, "95207cb64210cf07", EMPTY, {}),
    ("norm {tree56} -m 2,-24", 0, "e1a4b131cdb70223", EMPTY, {}),
    ("fibered {tree56} -m 1,1", 0, "9600415f6f3b4916", EMPTY, {}),
    ("fibered {tree56} -m 2,-24", 0, "5496ca78c8ad9092", EMPTY, {}),
    ("slopes {tree56} -m 1,1", 0, "c115dfbe45cfa763", EMPTY, {}),
    ("slopes {tree56} -m=-45,2", 0, "469d6ba65d15f45a", EMPTY, {}),
    ("ball --family 12 --svg {tmp}/ball.svg", 0,
     "59f06d365cb4757f", EMPTY, {"ball.svg": "fe3cfa1e0c345e13"}),
    ("orbits --family 12", 0, "1a252402972f6057", EMPTY, {}),
    ("orbits {tree} --family 1", 1, EMPTY, "5d8b8086241fdbf9", {}),
    ("norm --family 1", 1, EMPTY, "75468fe77a318e33", {}),
    ("orbits --family 0", 1, EMPTY, "3725ad2c7f633651", {}),
    ("orbits --family x", 1, EMPTY, "9cbc29fc3ffdc790", {}),
    ("norm --family 1 -m 1", 1, EMPTY, "454b5e6ddc778b7b", {}),
    # The Hopf link: Δ = 1 is printed, hulled and counted, but its norm
    # ball has no non-fibered ray.
    ("lk {hopf}", 0, "3e42fa2084bfdc4f", EMPTY, {}),
    ("alex {hopf}", 0, "4355a46b19d348dc", EMPTY, {}),
    ("hull {hopf}", 0, "944abf3e60d48c0b", EMPTY, {}),
    ("sw {hopf}", 0, "ff38903975ab70ab", EMPTY, {}),
    ("ball {hopf}", 2, EMPTY, "a45b15871576a50d", {}),
    ("orbits {hopf}", 2, EMPTY, "a45b15871576a50d", {}),
    ("report {hopf}", 2, EMPTY, "a45b15871576a50d", {}),
]


def _digest(data):
    return hashlib.sha256(data).hexdigest()[:16]


def _written_files(argv):
    """Paths that follow an output flag in `argv`."""
    return [argv[i + 1] for i, arg in enumerate(argv[:-1])
            if arg in ("--svg", "--json", "-o")]


def run_command(command, tmp, k4):
    """Run one table command in process; returns its table row."""
    argv = shlex.split(command.format(tmp=shlex.quote(str(tmp)),
                                      tree=shlex.quote(str(TREE)),
                                      tree56=shlex.quote(str(TREE56)),
                                      found20=shlex.quote(str(FOUND20)),
                                      oddspan=shlex.quote(str(ODDSPAN)),
                                      w5=shlex.quote(str(W5)),
                                      hopf=shlex.quote(str(HOPF)),
                                      k4=shlex.quote(str(k4))))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    files = {Path(p).name: _digest(Path(p).read_bytes())
             for p in _written_files(argv)}
    return (command, code, _digest(out.getvalue().encode("utf-8")),
            _digest(err.getvalue().encode("utf-8")), files)


def _write_k4(directory):
    path = Path(directory) / "k4.sd"
    assert main(["gen", "--n", "2", "-o", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def k4(tmp_path_factory):
    return _write_k4(tmp_path_factory.mktemp("gen"))


@pytest.mark.parametrize("row", GOLDEN, ids=[row[0] for row in GOLDEN])
def test_output_is_byte_identical(row, tmp_path, k4):
    assert run_command(row[0], tmp_path, k4) == row


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        k4_path = _write_k4(tmp)
        for row in GOLDEN:
            print("    %r," % (run_command(row[0], tmp, k4_path),))
