"""The corpus run's table of expansions, Higgsings and limits: one ``expand``,
``higgs`` or ``classical_limit`` per distinct result, no table outside a run,
and no stored failure."""

import json

import pytest

import qqkit.job
import qqkit.verify
from qqkit.engine import expand
from qqkit.errors import ValidationError
from qqkit.higgsing import classical_limit, higgs
from qqkit.job import Job
from qqkit.verify import load_corpus, run_corpus, run_fixture

D4 = {"nodes": [{"id": i} for i in "1234"], "edges": [{"from": "2", "to": i} for i in "134"]}
B3 = {"nodes": [{"id": "1"}, {"id": "2"}, {"id": "3", "d": 2}], "edges": [{"from": "1", "to": "2"}, {"from": "2", "to": "3"}]}


@pytest.fixture
def expand_calls(monkeypatch):
    """The key of every ``expand`` call that the job module makes: quiver fields, weights and cutoff."""
    calls = []

    def counted(Q_, wc, max_qdeg=None):
        calls.append((Q_.name, Q_.nodes, tuple(Q_.d[i] for i in Q_.nodes), Q_.edges, wc, max_qdeg))
        return expand(Q_, wc, max_qdeg=max_qdeg)

    monkeypatch.setattr(qqkit.job, "expand", counted)
    return calls


def test_a_corpus_run_expands_each_distinct_character_once(expand_calls):
    for fx in load_corpus():  # alone, each fixture expands every character it asks for
        run_fixture(fx)
    requests = list(expand_calls)
    expand_calls.clear()
    run_corpus()
    assert len(expand_calls) == len(set(expand_calls)), "a character was expanded twice in one run"
    assert set(expand_calls) == set(requests)
    assert len(expand_calls) < len(requests)


def _expands_twice(expand_calls):
    expand_calls.clear()
    job = Job.parse({"quiver": "A1", "w": {"1": 2}})
    job.run()
    job.run()
    return len(expand_calls) == 2


def test_no_table_survives_a_run(expand_calls, tmp_path):
    assert _expands_twice(expand_calls)
    run_corpus()
    assert _expands_twice(expand_calls)
    with pytest.raises(ValidationError, match="no fixtures"):  # an empty corpus, exit 2
        run_corpus(tmp_path)
    assert _expands_twice(expand_calls)


def test_a_failing_expansion_is_not_stored(expand_calls, tmp_path):
    # generic weight at the trivalent node of D4: the reflection meets colliding arguments (exit 4)
    fixtures = [{"id": f"d4-w2-{n}", "kind": "count", "quiver": D4, "w": {"2": 1}, "expect_count": 5} for n in (1, 2)]
    (tmp_path / "d4.json").write_text(json.dumps(fixtures), encoding="utf-8")
    entries = run_corpus(tmp_path).entries
    assert len(expand_calls) == 2
    alone = run_fixture(fixtures[0])
    assert [(e.status, e.detail) for e in entries] == [(alone.status, alone.detail)] * 2
    assert alone.status == "fail" and alone.detail.startswith("CollidingArguments: ")


@pytest.fixture
def pipeline_calls(monkeypatch):
    """Every ``higgs`` and ``classical_limit`` call that the job and verify modules make.

    Each call keeps its character, so no two calls' characters share an ``id``:
    a Higgsing is (character id, sigma pairs), a limit (character id, which).
    """
    calls = {"higgs": [], "limit": [], "held": []}

    def counted_higgs(ch, sigma):
        calls["held"].append(ch)
        calls["higgs"].append((id(ch), tuple(sorted(sigma.items()))))
        return higgs(ch, sigma)

    def counted_limit(ch, which):
        calls["held"].append(ch)
        calls["limit"].append((id(ch), which))
        return classical_limit(ch, which)

    monkeypatch.setattr(qqkit.job, "higgs", counted_higgs)
    for module in (qqkit.job, qqkit.verify):
        monkeypatch.setattr(module, "classical_limit", counted_limit)
    return calls


def test_a_corpus_run_higgses_each_character_and_takes_each_limit_once(pipeline_calls):
    for fx in load_corpus():  # alone, each fixture Higgses and limits every character it asks for
        run_fixture(fx)
    requests = {k: len(pipeline_calls[k]) for k in ("higgs", "limit")}
    for calls in pipeline_calls.values():
        calls.clear()
    run_corpus()
    # within a run every expansion is one object, so a repeated request reads the same character
    for k in ("higgs", "limit"):
        assert len(pipeline_calls[k]) == len(set(pipeline_calls[k])), f"a {k} was made twice in one run"
        assert len(pipeline_calls[k]) < requests[k]


def test_no_higgsing_or_limit_table_survives_a_run(pipeline_calls):
    # q2^2 is no ladder step on A1, so the sigma does not fold: the job Higgses the expansion
    job = Job.parse({"quiver": "A1", "w": {"1": 2}, "higgs": {"x(1,2)": "x(1,1)*q2^2"}, "limit": "q1", "command": "limit"})

    def twice():
        pipeline_calls["higgs"].clear()
        pipeline_calls["limit"].clear()
        job.run()
        job.run()
        return len(pipeline_calls["higgs"]), len(pipeline_calls["limit"])

    assert twice() == (2, 2)
    run_corpus()
    assert twice() == (2, 2)


def test_a_failing_higgsing_is_not_stored(pipeline_calls, expand_calls, tmp_path):
    # a q1 ladder at the middle node of B3: the folded expansion meets Y^2 (exit 4), and the
    # generic path's Higgsing meets a pole (exit 3)
    fixtures = [
        {"id": f"b3-q1-ladder-{n}", "kind": "count", "quiver": B3, "w": {"2": 2},
         "higgs": {"x(2,2)": "x(2,1)*q1"}, "expect_count": 3}
        for n in (1, 2)
    ]
    (tmp_path / "b3.json").write_text(json.dumps(fixtures), encoding="utf-8")
    entries = run_corpus(tmp_path).entries
    assert len(pipeline_calls["higgs"]) == 2
    assert len(expand_calls) == 3  # the fold twice, the generic weights once
    alone = run_fixture(fixtures[0])
    assert [(e.status, e.detail) for e in entries] == [(alone.status, alone.detail)] * 2
    assert alone.status == "fail" and alone.detail.startswith("PoleError: ")
