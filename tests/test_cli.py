import json
import os
import shlex
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from qqkit import errors
from qqkit.cli import main
from qqkit.job import Job
from qqkit.verify import FIXTURE_DIR, load_corpus, run_corpus


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


def test_burge_check(capsys):
    code, out, _ = run_cli(["burge-check", "--r", "1", "--i", "0", "--j", "1", "--max-size", "2"], capsys)
    assert code == 0
    assert json.loads(out)["agree"] is True


def test_burge_check_max_size_ceiling(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(["burge-check", "--i", "0", "--j", "1", "--max-size", "100"], capsys)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("validation error:") and err.count("\n") == 1


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
