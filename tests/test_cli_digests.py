"""Golden digests of the CLI: every command and format on the builtin quivers.

Each line of ``cli_digests.txt`` is one in-process ``cli.main`` job: its exit
code, the sha256 of its stdout and of its stderr, and its argv as JSON.  A
change that alters an output on purpose rewrites the file and says why:

    PYTHONPATH=src python tests/test_cli_digests.py
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from qqkit.cli import main

DIGESTS = Path(__file__).with_name("cli_digests.txt")


def _k4(prefix):
    nodes = [f"{prefix}{k}" for k in range(4)]
    return nodes, [(a, b) for k, a in enumerate(nodes) for b in nodes[k + 1:]]


def _quiver(nodes, edges, d=None):
    return json.dumps({
        "nodes": [{"id": i, "d": (d or {}).get(i, 1)} for i in nodes],
        "edges": [{"from": a, "to": b} for a, b in edges],
    })


_A, _B = _k4("a"), _k4("b")
TWO_K4 = _quiver(_A[0] + _B[0], _A[1] + _B[1])
JOINED_K4 = _quiver(_A[0] + _B[0], _A[1] + _B[1] + [("a3", "b0")])
# two K_{1,5} stars whose centres are joined through one extra node: a 13-node tree
STARS = _quiver(
    ["c", "m", "e"] + [f"c{k}" for k in range(5)] + [f"e{k}" for k in range(5)],
    [("c", "m"), ("m", "e")] + [("c", f"c{k}") for k in range(5)] + [("e", f"e{k}") for k in range(5)],
)
# a finite pair (d = 3, 2) beside a Kronecker pair
KRONECKER = _quiver(["0", "1", "2", "3"], [("0", "1"), ("2", "3"), ("2", "3")], {"0": 3, "1": 2})
# D4 with the trivalent node 2
D4 = _quiver(["1", "2", "3", "4"], [("2", "1"), ("2", "3"), ("2", "4")])
# one node whose id needs escaping in JSON: a non-ASCII letter and a double quote
ESCAPED_ID = 'é"1'
ESCAPED = json.dumps({"nodes": [{"id": ESCAPED_ID}], "edges": []})


def _job(command, quiver, w, *flags):
    return [command, "--quiver", quiver, "--w", json.dumps(w), *flags]


LADDER = ("--higgs", '{"x(1,2)": "x(1,1)*q1"}')

JOBS = [
    *(_job("expand", "A1", {"1": 2}, "--format", f) for f in ("json", "latex", "dot", "text")),
    *(_job("expand", "A2", {"1": 1, "2": 1}, "--format", f) for f in ("json", "latex", "dot", "text")),
    *(_job("expand", "BC2", {"1": 1, "2": 1}, "--format", f) for f in ("json", "latex", "dot", "text")),
    *(_job("expand", "A0hat", {"0": 1}, "--max-deg", "2", "--format", f) for f in ("json", "latex", "dot", "text")),
    *(_job("expand", "Arhat(2)", {"0": 1}, "--max-deg", "2", "--format", f) for f in ("json", "latex", "text")),
    *(_job("higgs", "A1", {"1": 2}, *LADDER, "--format", f) for f in ("json", "latex", "dot", "text")),
    _job("higgs", "A2", {"1": 2, "2": 1}, *LADDER, "--format", "latex"),
    _job("higgs", "BC2", {"1": 1, "2": 1}, "--higgs", '{"x(2,1)": "x(1,1)*q1^2"}', "--format", "text"),
    *(_job("limit", "A1", {"1": 2}, *LADDER, "--limit", q, "--format", f)
      for q in ("q1", "q2") for f in ("json", "latex", "text")),
    _job("limit", "A2", {"1": 1, "2": 1}, "--limit", "q2", "--format", "text"),
    _job("limit", "BC2", {"1": 1, "2": 1}, "--limit", "q1", "--format", "json"),
    *(_job("hasse", q, w) for q, w in (("A1", {"1": 2}), ("A2", {"1": 1, "2": 1}), ("BC2", {"1": 1}))),
    _job("hasse", "A1", {"1": 2}, "--format", "latex"),
    *(_job("affine-expand", "A0hat", {"0": 1}, "--max-deg", "2", "--format", f) for f in ("json", "latex", "text")),
    _job("affine-expand", "Arhat(2)", {"0": 1, "1": 1}, "--max-deg", "2", "--format", "text"),
    ["burge-check", "--r", "1", "--i", "0", "--j", "1", "--max-size", "3"],
    ["burge-check", "--r", "2", "--i", "0", "--j", "2", "--max-size", "2"],
    # a finite quiver has no counting degree to cut
    _job("expand", "A1", {"1": 2}, "--max-deg", "0", "--format", "text"),
    _job("limit", "A1", {"1": 2}, "--max-deg", "0", "--limit", "q1", "--format", "text"),
    # errors, each with qqkit's own text
    _job("expand", "E8", {"1": 1}),
    _job("expand", "A1", {"2": 1}),
    _job("expand", "A0hat", {"0": 1}),
    _job("expand", "A1", {"1": 2}, "--params", '{"1,2": "x(1,1)"}'),
    _job("limit", "A1", {"1": 1}, "--limit", "q1", "--format", "dot"),
    _job("higgs", "A1", {"1": 2}, "--higgs", '{"x(1,2)": "x(1,2)*q1"}'),
    _job("higgs", "BC2", {"1": 1, "2": 1}, "--higgs", '{"x(2,1)": "x(1,1)*q1"}'),
    _job("limit", "A1", {"1": 2}, "--higgs", '{"x(1,2)": "x(1,1)*q1^2"}', "--limit", "q1"),
    _job("higgs", "A1", {"1": 2}, "--higgs", '{"x(1,3)": "x(1,1)*q1"}'),
    _job("higgs", "A1", {"1": 2}, "--higgs", '{"y": "x(1,1)*q1"}'),
    _job("higgs", "A1", {"1": 2}, "--params", '{"1,1": "y"}', "--higgs", '{"x(1,1)": "y*q1"}'),
    ["burge-check", "--i", "1", "--j", "1"],
    # quivers of indefinite type
    _job("expand", TWO_K4, {"a0": 1}),
    _job("expand", JOINED_K4, {"a0": 1}),
    _job("expand", STARS, {"c": 1}),
    _job("expand", KRONECKER, {"0": 1}, "--max-deg", "1"),
    # generic weights of several units, and the error of a unit whose own expansion fails
    _job("expand", D4, {"1": 1, "2": 1}),
    *(_job("expand", "BC2", {"1": 2, "2": 2}, "--format", f) for f in ("json", "dot")),
    # a sigma across nodes is no ladder: the generic character is expanded, then Higgsed
    _job("higgs", "A2", {"1": 2, "2": 1}, "--higgs", '{"x(2,1)": "x(1,1)*q1"}', "--format", "json"),
    # resonant affine weights, both routes: an S-pole in the weight of one tuple (q3^2, q4),
    # S-zeros that drop terms (q1), and a pole in the sum where the engine needs a derivative
    *(_job(c, "A0hat", {"0": 2}, "--max-deg", "4", "--params", json.dumps({"0,2": f"x(0,1)*{s}"}))
      for s in ("q3^2", "q4", "q1") for c in ("expand", "affine-expand")),
    *(_job(c, "Arhat(2)", {"0": 1, "1": 1}, "--max-deg", "4", "--params", '{"1,1": "x(0,1)*q3"}')
      for c in ("expand", "affine-expand")),
    # the largest LaTeX document of the finite bench workload
    _job("expand", "BC2", {"1": 2, "2": 2}, "--format", "latex"),
    # a weights block whose parameters are images, and a partition-sum series
    _job("expand", "A2", {"1": 2, "2": 2}, "--params",
         '{"1,1": "x(1,1)*q1^2*q2", "1,2": "x(1,2)*q1^3", "2,1": "x(2,1)*q1", "2,2": "x(2,2)*q1^2*q2^2"}', "--format", "json"),
    _job("affine-expand", "Arhat(2)", {"0": 1, "1": 1}, "--max-deg", "2", "--format", "json"),
    # a node id that JSON escapes, in every format
    *(_job("expand", ESCAPED, {ESCAPED_ID: 1}, "--format", f) for f in ("json", "latex", "dot", "text")),
    # a factor 1 is the unit, and a factor 2 is no generator
    *(_job("higgs", "A1", {"1": 2}, "--higgs", json.dumps({"x(1,2)": f"{n}*x(1,1)*q1"}), "--format", "text")
      for n in (1, 2)),
    # a quiver name that is not a string
    _job("expand", json.dumps({"nodes": [{"id": "1"}], "edges": [], "name": {"a": 1}}), {"1": 1}, "--format", "json"),
]


def _digest(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    sha = [hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (out, err)]
    return f"{code} {sha[0]} {sha[1]} {json.dumps(argv)}"


def test_cli_output_matches_the_digests():
    assert [_digest(argv) for argv in JOBS] == DIGESTS.read_text(encoding="utf-8").splitlines()


if __name__ == "__main__":
    DIGESTS.write_text("".join(_digest(argv) + "\n" for argv in JOBS), encoding="utf-8")
