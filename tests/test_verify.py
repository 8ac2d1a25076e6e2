"""The corpus run's table of expansions: one ``expand`` per distinct character,
no table outside a run, and no stored failure."""

import json

import pytest

import qqkit.job
from qqkit.engine import expand
from qqkit.errors import ValidationError
from qqkit.job import Job
from qqkit.verify import load_corpus, run_corpus, run_fixture

D4 = {"nodes": [{"id": i} for i in "1234"], "edges": [{"from": "2", "to": i} for i in "134"]}


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
