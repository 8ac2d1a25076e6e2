import copy
import json
import os
import shlex
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from qqkit import cli, errors, monomial, verify
from qqkit.cli import main
from qqkit.engine import MAX_UNITS
from qqkit.job import Job
from qqkit.quiver import MAX_EDGES, MAX_NODES
from qqkit.render import json_document
from qqkit.verify import BURGE_MAX_R, BURGE_MAX_SIZE, FIXTURE_DIR, burge_rows, load_corpus, run_corpus, run_fixture


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_expand_latex(capsys):
    code, out, _ = run_cli(["expand", "--quiver", "A1", "--w", '{"1": 2}', "--format", "latex"], capsys)
    assert code == 0
    assert "\\mathscr{S}" in out and "\\mathsf{Y}_{x_{1}}" in out


def test_hasse_digraph(capsys):
    code, out, _ = run_cli(["hasse", "--quiver", "A1", "--w", '{"1": 1}'], capsys)
    assert code == 0
    assert out.count(" -> ") == 1 and out.startswith("digraph")


def test_hasse_takes_only_the_dot_format(capsys):
    argv = ["hasse", "--quiver", "A1", "--w", '{"1": 1}']
    assert run_cli([*argv, "--format", "dot"], capsys) == run_cli(argv, capsys)
    for fmt in ("json", "latex", "text"):
        code, out, err = run_cli([*argv, "--format", fmt], capsys)
        assert (code, out) == (2, "")
        assert err == f"validation error: hasse draws the reflection graph and prints only format dot, got '{fmt}'\n"


def test_json_pipeline_round_trip(capsys):
    code, out, _ = run_cli(["expand", "--quiver", "BC2", "--w", '{"1": 1}', "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert len(data["terms"]) == 5


def test_run_job_with_higgs_and_limit(tmp_path, capsys):
    job = {
        "quiver": "A1",
        "w": {"1": 2},
        "command": "limit",
        "higgs": {"x(1,2)": "x(1,1)*q1"},
        "limit": "q1",
        "format": "json",
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code, out, _ = run_cli(["run", str(path)], capsys)
    assert code == 0
    data = json.loads(out)
    assert sorted(t["coeff"] for t in data["terms"]) == [1, 1, 2]


def test_job_rejects_unknown_fields(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"quiver": "A1", "w": {"1": 1}, "bogus": True}))
    code, _, err = run_cli(["run", str(path)], capsys)
    assert code == 2 and "unknown job fields" in err


def test_affine_expand_series(capsys):
    code, out, _ = run_cli(
        ["affine-expand", "--quiver", "A0hat", "--w", '{"0": 1}', "--max-deg", "1", "--format", "json"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert [blk["qdeg"] for blk in data["series"]] == [0, 1]


def test_affine_expand_skips_the_empty_partitions_of_a_large_weight(capsys):
    # at degree 0 every one of the 1200 partitions is empty, so the weight has no S-value
    start = time.perf_counter()
    code, out, _ = run_cli(["affine-expand", "--quiver", "A0hat", "--w", '{"0": 1200}', "--max-deg", "0"], capsys)
    assert code == 0 and out.count("\n") == 1
    assert time.perf_counter() - start < 4.0


@pytest.mark.parametrize(
    "w, max_deg, code, out, err",
    [
        # the partitions of size <= 200 number about 4.7 * 10^13: refused before any is enumerated
        ('{"0": 1}', "200", 7, "", "internal consistency failure: partition sum exceeded 1000000 tuples\n"),
        # with no units the sum is the one empty tuple, at any cutoff
        ("{}", "1000000000", 0, "1  *  1\n", ""),
    ],
    ids=["one-unit", "no-units"],
)
def test_affine_expand_finishes_at_once_at_any_cutoff(w, max_deg, code, out, err, capsys):
    start = time.perf_counter()
    assert run_cli(["affine-expand", "--quiver", "A0hat", "--w", w, "--max-deg", max_deg], capsys) == (code, out, err)
    assert time.perf_counter() - start < 1.0


def test_burge_check(capsys):
    code, out, _ = run_cli(["burge-check", "--r", "1", "--i", "0", "--j", "1", "--max-size", "2"], capsys)
    assert code == 0
    assert json.loads(out)["agree"] is True


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_burge_check_streams_the_document_of_its_rows(to_file, tmp_path, capsys):
    path = tmp_path / "burge.json"
    argv = ["burge-check", "--r", "2", "--i", "0", "--j", "2", "--max-size", "3"]
    code, out, err = run_cli(argv + (["--out", str(path)] if to_file else []), capsys)
    rows = list(burge_rows(2, [0], [2], 3))
    assert (code, err) == (0, "") and all(row["ok"] for row in rows)
    # the keys of the one-piece document, with "agree" moved after the rows
    assert (path.read_text() if to_file else out) == json_document({"r": 2, "i": 0, "j": 2, "pairs": rows, "agree": True})


def test_burge_check_streams_a_disagreement(monkeypatch, capsys):
    rows = [{"ok": True}, {"ok": False}, {"ok": True}]
    monkeypatch.setattr(cli, "burge_rows", lambda *args: iter(rows))
    code, out, _ = run_cli(["burge-check", "--r", "1", "--i", "0", "--j", "1"], capsys)
    assert code == 1
    assert out == json_document({"r": 1, "i": 0, "j": 1, "pairs": rows, "agree": False})


@pytest.mark.parametrize(
    "bad", [["--r", "0", "--i", "0", "--j", "1"], ["--i", "1", "--j", "1"], ["--i", "0", "--j", "0"]],
    ids=["r-0", "i-1", "j-0"],
)
def test_burge_check_validation_writes_nothing(bad, tmp_path, capsys):
    path = tmp_path / "burge.json"
    code, out, err = run_cli(["burge-check", *bad, "--out", str(path)], capsys)
    assert (code, out) == (2, "") and err.startswith("validation error:")
    assert not path.exists()


def test_a_closed_pipe_exits_141_silently():
    # about 192 KB of rows: more than a pipe holds, so the writer meets the closed end
    src = Path(__file__).resolve().parents[1] / "src"
    argv = ["burge-check", "--r", "2", "--i", "0", "--j", "2", "--max-size", "8"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "qqkit", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (141, b"")
    assert head.startswith(b'{"r": 2, "i": 0, "j": 2, "pairs": [')


def test_burge_check_max_size_ceiling(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(["burge-check", "--i", "0", "--j", "1", "--max-size", "100"], capsys)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("validation error:") and err.count("\n") == 1


def test_burge_check_r_ceiling(capsys):
    start = time.perf_counter()
    argv = ["burge-check", "--r", str(BURGE_MAX_R + 1), "--i", "0", "--j", "1", "--max-size", "2"]
    code, out, err = run_cli(argv, capsys)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == f"validation error: burge check needs r <= {BURGE_MAX_R}, got {BURGE_MAX_R + 1}\n"


# the counting parameters qfrak(i) are set by the engine alone
@pytest.mark.parametrize(
    "argv",
    [
        ["expand", "--params", '{"0,1": "qfrak(0)", "0,2": "y"}'],
        ["affine-expand", "--params", '{"0,1": "qfrak(0)", "0,2": "y"}'],
        ["higgs", "--higgs", '{"x(0,2)": "x(0,1)*qfrak(0)"}'],
    ],
    ids=lambda a: a[0],
)
def test_counting_parameters_in_job_images_exit_2(argv, capsys):
    code, out, err = run_cli([*argv, "--quiver", "A0hat", "--w", '{"0": 2}', "--max-deg", "2"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("validation error: image ") and "counting parameter qfrak(i)" in err


def test_exit_codes(capsys):
    code, _, err = run_cli(["expand", "--quiver", "Zk", "--w", "{}"], capsys)
    assert code == 2
    # colliding weight parameters -> derivative case is rejected
    code, _, err = run_cli(
        ["expand", "--quiver", "A1", "--w", '{"1": 2}', "--params", '{"1,2": "x(1,1)"}'],
        capsys,
    )
    assert code == 4


@pytest.mark.parametrize(
    "image, code, err",
    [
        ("x(1,1)", 3, "pole error: denominator factor (1 - x(1,1)*x(1,2)^-1) vanished under substitution\n"),
        ("x(1,1)*q1*q2", 3, "pole error: denominator factor (1 - q1*q2*x(1,1)*x(1,2)^-1) vanished under substitution\n"),
        ("x(1,2)*q1", 2, "validation error: substitution image of x(1,2) reuses substituted generators\n"),
    ],
)
def test_higgs_errors_come_from_the_generic_path(image, code, err, capsys):
    # none of these folds into an expansion at the specialized parameters
    args = ["higgs", "--quiver", "A1", "--w", '{"1": 2}', "--higgs", json.dumps({"x(1,2)": image})]
    assert run_cli(args, capsys) == (code, "", err)


def test_malformed_sigma_is_rejected_before_expanding(capsys):
    # the generic A1 w=12 character has 4096 terms; the image check needs none of them
    args = ["higgs", "--quiver", "A1", "--w", '{"1": 12}', "--higgs", '{"x(1,2)": "x(1,2)*q1"}']
    start = time.perf_counter()
    result = run_cli(args, capsys)
    assert time.perf_counter() - start < 1
    assert result == (2, "", "validation error: substitution image of x(1,2) reuses substituted generators\n")


def test_higgs_document_lists_the_specialized_parameters(capsys):
    ladder = json.dumps({"x(1,2)": "x(1,1)*q1", "x(1,3)": "x(1,1)*q1^2"})
    code, out, _ = run_cli(["higgs", "--quiver", "A1", "--w", '{"1": 3}', "--higgs", ladder, "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert [w["param"] for w in data["weights"]] == [{"x(1,1)": 1}, {"q1": 1, "x(1,1)": 1}, {"q1": 2, "x(1,1)": 1}]
    assert len(data["terms"]) == 4


# the documented exit code and stderr label of every error type (README, "Exit codes")
DOCUMENTED_EXITS = {
    "ValidationError": (2, "validation error"),
    "PoleError": (3, "pole error"),
    "CollidingArguments": (4, "colliding arguments"),
    "InvalidPit": (4, "colliding arguments"),
    "YCollision": (5, "specialization collision"),
    "NonIntegerLimit": (6, "non-integer limit"),
    "PathInconsistency": (7, "internal consistency failure"),
    "NonTermination": (7, "internal consistency failure"),
}


@pytest.mark.parametrize("error", errors.QQError.__subclasses__(), ids=lambda cls: cls.__name__)
def test_every_error_type_exits_with_its_documented_code(error, monkeypatch, capsys):
    assert error.__name__ in DOCUMENTED_EXITS, f"{error.__name__} has no documented exit code"
    code, label = DOCUMENTED_EXITS[error.__name__]

    def fail(self):
        raise error("the message")

    monkeypatch.setattr(Job, "run", fail)
    assert run_cli(["expand", "--quiver", "A1", "--w", '{"1": 1}'], capsys) == (code, "", f"{label}: the message\n")


def test_expand_with_tied_generator_names(capsys):
    # x(1,01) and x(1,1) share node and integer label: only their names order them
    args = ["expand", "--quiver", "A1", "--w", '{"1": 2}', "--format", "json"]
    code, out, _ = run_cli(args + ["--params", '{"1,1": "x(1,01)", "1,2": "x(1,1)"}'], capsys)
    assert code == 0
    assert len(json.loads(out)["terms"]) == 4


@pytest.mark.parametrize("command", ["expand", "affine-expand"])
def test_coinciding_parameters_exit_4(command, capsys):
    args = [command, "--quiver", "A0hat", "--w", '{"0": 2}', "--params", '{"0,2": "x(0,1)"}', "--max-deg", "2"]
    code, _, err = run_cli(args, capsys)
    assert code == 4
    assert err == "colliding arguments: Y[0,x(0,1)]^2 requires the derivative prescription\n"


@pytest.mark.parametrize("command", ["expand", "affine-expand"])
@pytest.mark.parametrize("shift", ["q", "q4", "mu^2", "q3^2*q4", "q^2"])
def test_pole_resonant_parameters_exit_4(command, shift, capsys):
    # x(0,2) / x(0,1) puts an S-value on a pole: a reflection's S-factor, or a box of the weight
    params = json.dumps({"0,2": f"x(0,1)*{shift}"})
    args = [command, "--quiver", "A0hat", "--w", '{"0": 2}', "--params", params, "--max-deg", "4"]
    code, out, err = run_cli(args, capsys)
    assert code == 4 and out == ""
    assert err.startswith("colliding arguments: ") and err.count("\n") == 1


D4 = json.dumps({"nodes": [{"id": i} for i in "1234"], "edges": [{"from": "2", "to": i} for i in "134"]})


def test_pole_at_generic_parameters_says_the_rule_does_not_reach(capsys):
    # the trivalent D4 node: one weight parameter, so no two arguments can collide
    code, out, err = run_cli(["expand", "--quiver", D4, "--w", '{"2": 1}'], capsys)
    assert (code, out) == (4, "")
    assert err == (
        "colliding arguments: the reflection rule does not reach node 4: S_1 pole at argument q1*q2"
        " while reflecting Y[4,x(2,1)] (the weight parameters are generic)\n"
    )


@pytest.mark.parametrize("edges", [[(i, "4") for i in "123"], [("4", i) for i in "123"]], ids=["into-4", "out-of-4"])
def test_repeated_argument_at_generic_parameters_says_the_rule_does_not_reach(edges, capsys):
    # D4 with node 4 trivalent: its one weight parameter comes back squared
    quiver = json.dumps({"nodes": [{"id": i} for i in "1234"], "edges": [{"from": a, "to": b} for a, b in edges]})
    code, out, err = run_cli(["expand", "--quiver", quiver, "--w", '{"4": 1}'], capsys)
    assert (code, out) == (4, "")
    assert err == (
        "colliding arguments: the reflection rule does not reach node 4: Y[4,q1*q2*x(4,1)]^2"
        " requires the derivative prescription (the weight parameters are generic)\n"
    )


def test_pole_on_a_ladder_keeps_the_colliding_arguments_message(capsys):
    args = ["expand", "--quiver", "BC2", "--w", '{"1": 2}', "--params", '{"1,2": "x(1,1)*q2"}']
    code, out, err = run_cli(args, capsys)
    assert (code, out) == (4, "")
    assert err == "colliding arguments: S_1 pole at argument q1*q2 while reflecting Y[2,x(1,1)]\n"


def test_inline_quiver_json(capsys):
    spec = json.dumps({"nodes": [{"id": "1", "d": 1}], "edges": []})
    code, out, _ = run_cli(["expand", "--quiver", spec, "--w", '{"1": 1}', "--format", "json"], capsys)
    assert code == 0
    assert len(json.loads(out)["terms"]) == 2


LONG_INT = "9" * 5000  # past Python's limit on converting a decimal string to an integer


@pytest.mark.parametrize(
    "argv",
    [
        ["expand", "--quiver", "A1", "--w", f'{{"1": {LONG_INT}}}'],
        ["expand", "--quiver", "A1", "--w", '{"1": 1}', "--params", f'{{"1,1": {LONG_INT}}}'],
        ["higgs", "--quiver", "A1", "--w", '{"1": 2}', "--higgs", f'{{"x(1,2)": {{"q1": {LONG_INT}}}}}'],
    ],
    ids=["w", "params", "higgs"],
)
def test_an_overlong_integer_in_a_json_flag_exits_2(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("validation error: ") and "digits" in err and err.count("\n") == 1


OVERSIZED = {
    "Arhat-1e12": ("Arhat(1000000000000)", f"a quiver has at most {MAX_NODES} nodes, got 1000000000000"),
    "Arhat-5000-digits": (f"Arhat({'9' * 5000})", f"a quiver has at most {MAX_NODES} nodes, got 'Arhat({'9' * 5000})'"),
    "Arhat-over-nodes": (f"Arhat({MAX_NODES + 1})", f"a quiver has at most {MAX_NODES} nodes, got {MAX_NODES + 1}"),
    "json-over-nodes": (json.dumps({"nodes": [{"id": k} for k in range(MAX_NODES + 1)]}),
                        f"a quiver has at most {MAX_NODES} nodes, got {MAX_NODES + 1}"),
    "json-over-edges": (json.dumps({"nodes": [{"id": 0}, {"id": 1}], "edges": [{"from": 0, "to": 1}] * (MAX_EDGES + 1)}),
                        f"a quiver has at most {MAX_EDGES} edges, got {MAX_EDGES + 1}"),
}


@pytest.mark.parametrize("command", ["expand", "affine-expand"])
@pytest.mark.parametrize("name", OVERSIZED)
def test_an_oversized_quiver_exits_2_at_once(name, command, capsys):
    """A quiver's nodes and edges are counted before anything is built from them or classified."""
    quiver, err = OVERSIZED[name]
    start = time.perf_counter()
    code, out, stderr = run_cli([command, "--quiver", quiver, "--w", '{"0": 1}', "--max-deg", "1"], capsys)
    assert time.perf_counter() - start < 1
    assert (code, out, stderr) == (2, "", f"validation error: {err}\n")


@pytest.mark.parametrize(
    "command, quiver, w",
    [
        ("expand", "A1", {"1": 20000}),
        ("expand", "A2", {"1": MAX_UNITS // 2, "2": MAX_UNITS // 2 + 1}),
        ("affine-expand", "A0hat", {"0": MAX_UNITS + 1}),
    ],
)
def test_a_weight_of_too_many_units_exits_2_at_once(command, quiver, w, capsys):
    """A weight's units are counted before the name of any unit is registered."""
    names = len(monomial._KEYS)
    start = time.perf_counter()
    code, out, err = run_cli([command, "--quiver", quiver, "--w", json.dumps(w), "--max-deg", "0"], capsys)
    assert time.perf_counter() - start < 1 and len(monomial._KEYS) == names
    expected = f"validation error: a weight has at most {MAX_UNITS} units, got {sum(w.values())}\n"
    assert (code, out, err) == (2, "", expected)


def test_mass_on_a_long_acyclic_path_exits_2(tmp_path, capsys):
    # a path deeper than the recursion limit: the cycle check does not recurse
    n = 1200
    edges = [{"from": str(k), "to": str(k + 1)} for k in range(n - 1)]
    edges[0]["mu"] = 1
    path = tmp_path / "path.json"
    path.write_text(json.dumps({"nodes": [{"id": str(k)} for k in range(n)], "edges": edges}))
    code, out, err = run_cli(["expand", "--quiver", f"@{path}", "--w", '{"0": 1}'], capsys)
    assert (code, out) == (2, "")
    assert err == "validation error: mass exponents are only allowed on cyclic quivers\n"


def test_verify_perturbed_corpus_fails_once(tmp_path):
    corpus = tmp_path / "corpus"
    shutil.copytree(FIXTURE_DIR, corpus)
    path = corpus / "a2.json"
    data = json.loads(path.read_text())
    for fx in data:
        if fx["id"] == "a2-w20-generic-count":
            fx["expect_count"] = 10
    path.write_text(json.dumps(data))
    report = run_corpus(corpus)
    assert report.counts["fail"] == 1
    assert not report.ok
    failing = [e for e in report.entries if e.status == "fail"]
    assert failing[0].id == "a2-w20-generic-count"


def _fixture(fid):
    return copy.deepcopy(next(fx for fx in load_corpus() if fx["id"] == fid))


def _set(fx, path, value):
    *head, last = path
    for k in head:
        fx = fx[k]
    fx[last] = value


# where a fixture holds an integer: a Y exponent, a q1 or q2 shift, a coefficient, its "n",
# an S index and an S power (a1-w2-generic), and a limit coefficient (a1-w2-kr-limit-q1)
INTEGER_SLOTS = {
    "Y exponent": ("a1-w2-generic", ("terms", 1, "y", 0, 4)),
    "q1 shift": ("a1-w2-generic", ("terms", 1, "y", 1, 2)),
    "q2 shift": ("a1-w2-generic", ("terms", 1, "y", 1, 3)),
    "coefficient": ("a1-w2-generic", ("terms", 0, "c")),
    'coefficient "n"': ("a1-w2-generic", ("terms", 1, "c", "n")),
    "S index": ("a1-w2-generic", ("terms", 1, "c", "S", 0, 0)),
    "S power": ("a1-w2-generic", ("terms", 1, "c", "S", 0, 2)),
    "limit coefficient": ("a1-w2-kr-limit-q1", ("terms", 1, "c")),
}


@pytest.mark.parametrize("slot", INTEGER_SLOTS)
@pytest.mark.parametrize("bad", [1.5, 0.5, True])
def test_fixture_readers_take_only_integers(slot, bad):
    """A fixture's integers are JSON integers: 1.5 is no Y exponent (int() would read 1), 0.5 no
    S power (int() would read 0 and drop the factor), and true no integer anywhere."""
    fid, path = INTEGER_SLOTS[slot]
    assert run_fixture(_fixture(fid)).status == "pass"
    fx = _fixture(fid)
    _set(fx, path, bad)
    entry = run_fixture(fx)
    assert entry.status == "fail"
    assert entry.detail.startswith("ValidationError: ")
    assert f"must be an integer, got {bad!r}" in entry.detail or f"or an object, got {bad!r}" in entry.detail


# where a sweep fixture holds an integer, or a list of them
SWEEP_SLOTS = {
    'burge "r"': ("burge-r2-desk", ("r",)),
    'burge "max_size"': ("burge-r2-desk", ("max_size",)),
    'burge "i_values" entry': ("burge-r2-desk", ("i_values", 1)),
    'burge "j_values" entry': ("burge-r2-desk", ("j_values", 0)),
    'pit "r"': ("pit-r2-desk", ("r",)),
    'pit "i_max"': ("pit-r2-desk", ("i_max",)),
    'pit "j_max"': ("pit-r2-desk", ("j_max",)),
    'pit "max_size"': ("pit-r2-desk", ("max_size",)),
}


@pytest.mark.parametrize("slot", SWEEP_SLOTS)
@pytest.mark.parametrize("bad", [2.0, True, "0"])
def test_sweep_fixtures_take_only_integers(slot, bad):
    """true is no r = 1, 2.0 no r = 2 and "0" no resonance: each fails with the slot's name."""
    fid, path = SWEEP_SLOTS[slot]
    fx = _fixture(fid)
    _set(fx, path, bad)
    entry = run_fixture(fx)
    assert (entry.status, entry.detail) == ("fail", f"ValidationError: {slot} must be an integer, got {bad!r}")


@pytest.mark.parametrize("key", ["i_values", "j_values"])
def test_burge_fixture_resonances_are_a_list(key):
    fx = _fixture("burge-r1-desk")
    fx[key] = "0"
    entry = run_fixture(fx)
    assert (entry.status, entry.detail) == ("fail", f"ValidationError: burge \"{key}\" must be a list of integers, got '0'")


NO_PIT = "pit check needs a pit (i, j) with i <= i_max, j <= j_max and i + j - 1 divisible by r"


@pytest.mark.parametrize(
    "bounds",
    [
        {"i_max": 2, "j_max": 2, "max_size": 10000},
        {"i_max": 100000000, "j_max": 2, "max_size": 2},
        {"i_max": 2, "j_max": 100000000, "max_size": 2},
        {"i_max": BURGE_MAX_SIZE + 1, "j_max": 1, "max_size": 0},
    ],
)
def test_pit_fixtures_are_bounded_before_any_work(bounds):
    start = time.perf_counter()
    entry = run_fixture({"id": "p", "kind": "pit", "r": 1, **bounds})
    assert time.perf_counter() - start < 1
    assert (entry.status, entry.detail) == (
        "fail", f"ValidationError: pit check needs i_max, j_max and max_size <= {BURGE_MAX_SIZE}"
    )


@pytest.mark.parametrize(
    "fx, text",
    [
        ({"kind": "burge", "r": 1, "i_values": [], "j_values": [1], "max_size": 3}, "burge check needs at least one i and one j"),
        ({"kind": "burge", "r": 1, "i_values": [0], "j_values": [], "max_size": 3}, "burge check needs at least one i and one j"),
        ({"kind": "burge", "r": 0, "i_values": [], "j_values": [], "max_size": 3}, "burge check needs r >= 1 and max_size >= 0"),
        ({"kind": "burge", "r": 2, "i_values": [0], "j_values": [1], "max_size": -1}, "burge check needs r >= 1 and max_size >= 0"),
        ({"kind": "pit", "r": 0, "i_max": 2, "j_max": 2, "max_size": -1}, "pit check needs r >= 1 and max_size >= 0"),
        ({"kind": "pit", "r": 0, "i_max": 2, "j_max": 2, "max_size": 3}, "pit check needs r >= 1 and max_size >= 0"),
        ({"kind": "pit", "r": 1, "i_max": 2, "j_max": 2, "max_size": -1}, "pit check needs r >= 1 and max_size >= 0"),
        *(
            ({"kind": "pit", "r": r, "i_max": i_max, "j_max": j_max, "max_size": 3}, NO_PIT)
            for r, i_max, j_max in [(1, -5, 2), (1, 2, 0), (5, 2, 2), (3, 1, 1)]
        ),
    ],
)
def test_sweep_fixtures_check_at_least_one_configuration(fx, text):
    """No sweep passes with nothing checked, and none fails with a raw error: each bad one fails before any work."""
    start = time.perf_counter()
    entry = run_fixture({"id": "s", **fx})
    assert time.perf_counter() - start < 1
    assert (entry.status, entry.detail) == ("fail", f"ValidationError: {text}")


def test_a_pit_fixture_runs_at_the_ceiling():
    ceiling = dict.fromkeys(("i_max", "j_max", "max_size"), BURGE_MAX_SIZE)
    assert run_fixture({"id": "p", "kind": "pit", "r": 3, **ceiling}).status == "flag"


def _doctor(monkeypatch, owner, name, change):
    """Replace ``owner.name`` by the real one followed by ``change(result, *args)``, which returns the result."""
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: change(real(*args), *args))


def _without_last_term(ch, *args):
    del ch.terms[next(reversed(ch.terms))]
    return ch


def _first_coefficient_plus_one(cc, *args):
    first = next(iter(cc.terms))
    cc.terms[first] += 1
    return cc


def _set_in(path, value):
    return lambda fx, monkeypatch: _set(fx, path, value)


# one doctored copy of a bundled fixture per fail branch: (fixture id, the change, the fail detail);
# where a handler compares two computations, one side is changed instead
FAIL_BRANCHES = {
    "character-terms": ("a1-w1-fundamental", _set_in(("terms", 1, "y", 0, 2), 2),
                        "term sets differ (expected 2, got 2); first missing [Y[1,q1^2*q2*x(1,1)]^-1], "
                        "first extra [Y[1,q1*q2*x(1,1)]^-1]"),
    "character-coefficient": ("a1-w1-fundamental", _set_in(("terms", 1, "c"), 2),
                              "coefficient differs at Y[1,q1*q2*x(1,1)]^-1"),
    "limit": ("a1-w2-kr-limit-q1", _set_in(("terms", 1, "c"), 3),
              "coefficient differs at Y[1,q2*x(1,1)]^-1*Y[1,x(1,1)]"),
    "count": ("a2-w20-generic-count", _set_in(("expect_count",), 10), "expected 10 terms, got 9"),
    "typo-literal": ("a1-w3-seventh-monomial-text", lambda fx, mp: _set(fx, ("literal",), fx["corrected"]),
                     "printed term unexpectedly reproduced"),
    "typo-corrected": ("a1-w3-seventh-monomial-text", _set_in(("corrected", "c"), 1), "corrected term not reproduced"),
    "hasse-nodes": ("hasse-a2-w02", _set_in(("expect_nodes",), 10), "expected 10 nodes, got 9"),
    "hasse-edges": ("hasse-a2-w02", _set_in(("expect_edges",), 13), "expected 13 edges, got 12"),
    "hasse-labels": ("hasse-a2-w02", _set_in(("expect_labels", "2,x1"), 4),
                     "label multiset differs: {'2,x1': 3, '2,x2': 3, '1,x1;1,1': 3, '1,x2;1,1': 3}"),
    "hasse-triples": ("hasse-a2-w20", _set_in(("triples", 0, "label"), "1,x2"), "edge triples differ"),
    "dropped-count": ("a2-w20-dropped-is-antifundamental", _set_in(("expected_dropped",), 4),
                      "expected 4 dropped terms, got 3"),
    "dropped-relabel": ("a2-w20-dropped-is-antifundamental", _set_in(("relabel", "x(1,2)"), "x*q1"),
                        "dropped terms do not relabel onto the reference character"),
    "closed_form": ("a1-closed-form-w6",
                    lambda fx, mp: _doctor(mp, verify, "closed_form_A1", lambda ch, w: _without_last_term(ch) if w == 2 else ch),
                    "w=2 mismatch"),
    "kr_ladder-character": ("a1-kr-ladder-w6",
                            lambda fx, mp: _doctor(mp, verify, "kr_closed_form_A1",
                                                   lambda ch, w: _without_last_term(ch) if w == 2 else ch),
                            "w=2: ladder character mismatch"),
    "kr_ladder-q1-binomial": ("a1-kr-ladder-w6",
                              lambda fx, mp: _doctor(mp, verify, "classical_limit",
                                                     lambda cc, ch, which: _first_coefficient_plus_one(cc)
                                                     if which == "q1" and len(cc.terms) == 3 else cc),
                              "w=2: q1 limit is not binomial"),
    "kr_ladder-q1-factors": ("a1-kr-ladder-w6", lambda fx, mp: mp.setattr(verify, "factorize_check", lambda *args: False),
                             "w=0: q1 limit does not factor into the fundamental"),
    "kr_ladder-q2": ("a1-kr-ladder-w6",
                     lambda fx, mp: _doctor(mp, verify, "classical_limit",
                                            lambda cc, ch, which: _first_coefficient_plus_one(cc)
                                            if which == "q2" and len(cc.terms) == 3 else cc),
                     "w=2: q2 limit coefficients differ from 1"),
    "factorization-base": ("a1-w2-kr-limit-q1-square", lambda fx, mp: fx["base"].pop("limit"),
                           "base pipeline did not end in a classical limit"),
    "factorization-product": ("a1-w2-kr-limit-q1-square", lambda fx, mp: fx["factors"].pop(),
                              "product of factors differs from the base character"),
    "affine_oracle": ("a0hat-w1-oracle-deg3",
                      lambda fx, mp: _doctor(mp, Job, "run",
                                             lambda ch, job: _without_last_term(ch) if job.command == "affine-expand" else ch),
                      "term sets differ (expected 6, got 7); first missing [], first extra "
                      "[Y[0,q1^3*q2^3*mu^-3*x(0,1)]*Y[0,q1^3*q2^3*mu^-2*x(0,1)]^-1*Y[0,mu*x(0,1)]]"),
    "burge": ("burge-r1-desk", lambda fx, mp: _doctor(mp, verify, "burge_filter", lambda admitted, *args: not admitted),
              "mismatch at nodes (0,0), (i,j)=(0,1), () | ()"),
    "pit": ("pit-r1-desk", lambda fx, mp: _doctor(mp, verify, "pit_resonance_vanishes", lambda vanishes, *args: not vanishes),
            "criterion mismatch at (), pit (1,1)"),
    "unknown-kind": ("a1-w1-fundamental", _set_in(("kind",), "nonsense"), "unknown kind 'nonsense'"),
}


@pytest.mark.parametrize("branch", FAIL_BRANCHES)
def test_each_fixture_kind_fails_on_a_doctored_fixture(branch, monkeypatch):
    """Each handler's fail branches: the fixture passes (or is flagged) as bundled, and fails with
    the branch's detail once one expected term, coefficient, count, label or edge, or one side of
    a comparison, is changed."""
    fid, change, detail = FAIL_BRANCHES[branch]
    assert run_fixture(_fixture(fid)).status in ("pass", "flag")
    fx = _fixture(fid)
    change(fx, monkeypatch)
    entry = run_fixture(fx)
    assert (entry.status, entry.detail) == ("fail", detail)


def test_a_pit_fixture_without_deviations_passes():
    """At the one pit (1, 1) the box-membership reading does not deviate, so the sweep passes."""
    fx = _fixture("pit-r1-desk")
    fx["i_max"] = fx["j_max"] = 1
    entry = run_fixture(fx)
    assert (entry.status, entry.detail) == ("pass", "30 configurations: vanishing == pit filter")


def test_a_fixture_file_holds_a_list(tmp_path):
    (tmp_path / "a1.json").write_text('{"id": "a1-w1-fundamental"}')
    with pytest.raises(errors.ValidationError, match="^fixture file a1.json must hold a list$"):
        load_corpus(tmp_path)


def test_verify_corpus_replays_files_beyond_the_bundled_names(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    shutil.copytree(FIXTURE_DIR, corpus)
    extra = {"id": "extra-a1-count", "kind": "count", "quiver": "A1", "w": {"1": 1}, "expect_count": 3}
    (corpus / "extra.json").write_text(json.dumps([extra]))
    code, out, _ = run_cli(["verify", "--corpus", str(corpus)], capsys)
    assert code == 1
    lines = out.splitlines()
    assert lines[-2].split()[:2] == ["FAIL", "extra-a1-count"]  # after the bundled files
    assert [ln.split()[1] for ln in lines[:-2]] == [fx["id"] for fx in load_corpus()]


def test_verify_cli_exit_zero_on_bundled_corpus(capsys):
    code, out, _ = run_cli(["verify"], capsys)
    assert code == 0
    assert "0 fail" in out


def test_python_m_qqkit_runs_verify():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "qqkit", "verify"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    want = run_corpus().text().splitlines()  # the lines carry timings: compare statuses and the summary
    got = proc.stdout.splitlines()
    assert [ln.split()[:2] for ln in got[:-1]] == [ln.split()[:2] for ln in want[:-1]]
    assert got[-1] == want[-1]


# one job per output path; none of their bytes may depend on str hashing
HASH_SEED_JOBS = [
    ["expand", "--quiver", "BC2", "--w", '{"1": 1, "2": 1}', "--format", "json"],
    ["expand", "--quiver", "A2", "--w", '{"1": 2, "2": 1}', "--format", "latex"],
    ["hasse", "--quiver", "A1", "--w", '{"1": 3}'],
    ["limit", "--quiver", "A1", "--w", '{"1": 3}', "--limit", "q1", "--higgs", '{"x(1,2)": "x(1,1)*q1"}'],
    ["affine-expand", "--quiver", "Arhat(2)", "--w", '{"0": 1, "1": 1}', "--max-deg", "2", "--format", "json"],
    ["burge-check", "--r", "2", "--i", "0", "--j", "2", "--max-size", "3"],
]


def test_output_does_not_depend_on_the_hash_seed():
    src = Path(__file__).resolve().parents[1] / "src"
    script = "import json, sys\nfrom qqkit.cli import main\nsys.exit(max(main(a) for a in json.loads(sys.argv[1])))"
    outs = []
    for seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(HASH_SEED_JOBS)],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed},
        )
        assert (proc.returncode, proc.stderr) == (0, b"")
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_verify_missing_corpus_exits_2(tmp_path, capsys):
    code, out, err = run_cli(["verify", "--corpus", str(tmp_path / "absent")], capsys)
    assert code == 2 and out == "" and err.startswith("validation error: ")


def test_verify_empty_corpus_exits_2(tmp_path, capsys):
    code, out, err = run_cli(["verify", "--corpus", str(tmp_path)], capsys)
    assert code == 2 and out == "" and err.startswith("validation error: ")


def test_verify_fixture_without_id_exits_2(tmp_path, capsys):
    (tmp_path / "a1.json").write_text(json.dumps([{"kind": "count", "quiver": "A1", "w": {"1": 1}, "expect_count": 2}]))
    code, out, err = run_cli(["verify", "--corpus", str(tmp_path)], capsys)
    assert code == 2 and out == "" and "string id" in err


# -- README examples -------------------------------------------------------------

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_block(heading: str, lang: str) -> str:
    """The first ``lang`` code block under the README section ``heading``."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


README_CLI = [shlex.split(line) for line in _readme_block("CLI", "sh").splitlines() if line.startswith("qqkit ")]


# verify is left out: tests/test_acceptance.py replays the corpus
@pytest.mark.parametrize("argv", [a for a in README_CLI if a[1] != "verify"], ids=lambda a: a[1])
def test_readme_cli_line(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "job.json").write_text(json.dumps({"quiver": "A1", "w": {"1": 2}, "command": "expand"}))
    code, out, err = run_cli(argv[1:], capsys)
    assert (code, err) == (0, "")
    assert out or len(list(tmp_path.iterdir())) == 2  # printed, or wrote its --out file


def test_readme_library_quick_start():
    exec(_readme_block("Library quick start", "python"), {})


def test_console_script_installed():
    exe = shutil.which("qqkit")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "expand", "--quiver", "A1", "--w", '{"1": 1}', "--format", "text"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
