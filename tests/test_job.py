"""The validated job pipeline: malformed input exits 2, fuzzed jobs never crash,
and a folded Higgsing answers as the generic pipeline does."""

import contextlib
import dataclasses
import io
import json
import os
import tempfile
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

import qqkit.job
from qqkit.cli import main
from qqkit.coefficient import Substitution
from qqkit.engine import expand
from qqkit.errors import NonIntegerLimit, QQError, ValidationError
from qqkit.higgsing import ClassicalCharacter, classical_limit, fold_weights, higgs, kr_sigma
from qqkit.job import COMMANDS, FORMATS, Job
from qqkit.monomial import parse_monomial, xparam
from qqkit.quiver import MAX_DECORATION, MAX_EDGES, MAX_NODES, builtin_quiver
from qqkit.verify import load_corpus

JOB = "<job file>"  # replaced by the path of a file holding the case's job
EDGE_WITHOUT_FROM = json.dumps({"nodes": [{"id": "1"}, {"id": "2"}], "edges": [{"to": "2"}]})
NAME_NOT_A_STRING = json.dumps({"nodes": [{"id": "1"}], "edges": [], "name": {"a": 1}})
LOOP_WITHOUT_MASS = json.dumps({"nodes": [{"id": "0"}], "edges": [{"from": "0", "to": "0", "mu": 0}]})
# checked before the Cartan columns, which would hold about 10^9 terms
HUGE_DECORATION = json.dumps(
    {"nodes": [{"id": "1", "d": 10**9}, {"id": "2"}], "edges": [{"from": "1", "to": "2"}]}
)

# affine, but not the oriented cycle that affine-expand sums over
D4HAT = json.dumps({"nodes": [{"id": i} for i in "oabcd"], "edges": [{"from": "o", "to": i} for i in "abcd"]})


def _expand(*flags):
    return ["expand", "--quiver", "A1", *flags]


MALFORMED = {
    "w-string-value": (_expand("--w", '{"1": "a"}'), None),
    "w-list": (_expand("--w", "[1]"), None),
    "w-float": (_expand("--w", '{"1": 1.5}'), None),
    "w-bool": (_expand("--w", '{"1": true}'), None),
    "params-bad-power": (_expand("--w", '{"1": 1}', "--params", '{"1,1": "x(1,1)*q1^a"}'), None),
    "params-key-without-alpha": (_expand("--w", '{"1": 1}', "--params", '{"1": "x(1,1)"}'), None),
    "params-alpha-without-unit": (_expand("--w", '{"1": 1}', "--params", '{"1,2": "x(1,1)*q1"}'), None),
    "params-node-without-unit": (_expand("--w", '{"1": 1}', "--params", '{"2,1": "x(1,1)*q1"}'), None),
    "quiver-bad-rank": (["expand", "--quiver", "Arhat(x)", "--w", "{}"], None),
    "quiver-edge-without-from": (["expand", "--quiver", EDGE_WITHOUT_FROM, "--w", '{"1": 1}'], None),
    "quiver-name-not-a-string": (["expand", "--quiver", NAME_NOT_A_STRING, "--w", '{"1": 1}'], None),
    "quiver-loop-mu-0": (["expand", "--quiver", LOOP_WITHOUT_MASS, "--w", '{"0": 1}', "--max-deg", "2"], None),
    "quiver-decoration-above-ceiling": (["expand", "--quiver", HUGE_DECORATION, "--w", '{"1": 1}'], None),
    "affine-expand-without-max-deg": (["affine-expand", "--quiver", "A0hat", "--w", '{"0": 1}'], None),
    "affine-expand-not-a-cycle": (["affine-expand", "--quiver", D4HAT, "--w", '{"o": 1}', "--max-deg", "2"], None),
    "higgs-list": (["higgs", "--quiver", "A1", "--w", '{"1": 2}', "--higgs", "[1]"], None),
    # a higgs key names one generator that a job may substitute
    "higgs-key-counting": (
        ["higgs", "--quiver", "A0hat", "--w", '{"0": 1}', "--max-deg", "2", "--higgs", '{"qfrak(0)": "q1"}'], None
    ),
    "higgs-key-alias-q": (["higgs", "--quiver", "A1", "--w", '{"1": 2}', "--higgs", '{"q": "q1"}'], None),
    "higgs-key-alias-q3": (["higgs", "--quiver", "A1", "--w", '{"1": 2}', "--higgs", '{"q3": "q1"}'], None),
    "higgs-key-alias-q4": (["higgs", "--quiver", "A1", "--w", '{"1": 2}', "--higgs", '{"q4": "q1"}'], None),
    "higgs-key-product": (["higgs", "--quiver", "A1", "--w", '{"1": 2}', "--higgs", '{"x(1,2)*q1": "q1"}'], None),
    "higgs-key-empty": (["higgs", "--quiver", "A1", "--w", '{"1": 2}', "--higgs", '{"": "q1"}'], None),
    # ... that is q1, q2, mu or a generator of a weight parameter
    "higgs-key-beyond-the-weight": (
        ["higgs", "--quiver", "A1", "--w", '{"1": 2}', "--higgs", '{"x(1,3)": "x(1,1)*q1"}'], None
    ),
    "higgs-key-unknown-generator": (["higgs", "--quiver", "A1", "--w", '{"1": 2}', "--higgs", '{"y": "x(1,1)*q1"}'], None),
    "higgs-key-replaced-by-params": (
        ["higgs", "--quiver", "A1", "--w", '{"1": 2}', "--params", '{"1,1": "y"}', "--higgs", '{"x(1,1)": "y*q1"}'],
        None,
    ),
    "limit-as-dot": (["limit", "--quiver", "A1", "--w", '{"1": 1}', "--limit", "q1", "--format", "dot"], None),
    "affine-expand-as-dot": (
        ["affine-expand", "--quiver", "A0hat", "--w", '{"0": 2}', "--max-deg", "2", "--format", "dot"], None
    ),
    "burge-negative-size": (["burge-check", "--i", "0", "--j", "1", "--max-size", "-1"], None),
    "burge-positive-i": (["burge-check", "--i", "1", "--j", "1"], None),
    "burge-j-0": (["burge-check", "--i", "0", "--j", "0"], None),
    "job-unknown-command": (["run", JOB], {"quiver": "A1", "w": {"1": 1}, "command": "bogus"}),
    "job-list": (["run", JOB], [1]),
    "job-negative-max-deg": (["run", JOB], {"quiver": "A1", "w": {"1": 1}, "max_deg": -1}),
    "job-out-not-a-file-name": (["run", JOB], {"quiver": "A1", "w": {"1": 1}, "out": 3}),
    "job-hasse-after-limit": (["run", JOB], {"quiver": "A1", "w": {"1": 1}, "command": "hasse", "limit": "q1"}),
    "job-hasse-as-text": (["run", JOB], {"quiver": "A1", "w": {"1": 1}, "command": "hasse", "format": "text"}),
    "job-affine-expand-as-dot": (
        ["run", JOB], {"quiver": "A0hat", "w": {"0": 2}, "command": "affine-expand", "max_deg": 2, "format": "dot"}
    ),
}


@pytest.mark.parametrize("argv, job", list(MALFORMED.values()), ids=list(MALFORMED))
def test_malformed_input_exits_2(argv, job, tmp_path, capsys):
    if job is not None:
        path = tmp_path / "job.json"
        path.write_text(json.dumps(job))
        argv = [str(path) if a == JOB else a for a in argv]
    code = main(argv)
    out = capsys.readouterr()
    assert code == 2
    assert out.err.startswith("validation error: ") and out.err.count("\n") == 1
    assert out.out == ""


def test_job_parse_reads_only_pipeline_keys():
    spec = {"id": "a1-ladder", "quiver": "A1", "w": {"1": 2}, "higgs": {"x(1,2)": "x*q1"}}
    job = Job.parse(spec, names={"x": xparam("1", 1)})
    assert (job.command, job.format, job.limit) == ("expand", "text", None)
    assert len(job.run().terms) == 3


# -- fuzzing ------------------------------------------------------------------

_NODES = {"A1": ["1"], "A2": ["1", "2"], "BC2": ["1", "2"], "A0hat": ["0"], "Arhat(2)": ["0", "1"]}
_small = st.integers(-2, 2)
_text = st.text(alphabet="xq12^*-( ),a0", max_size=12)
_junk = st.one_of(st.none(), st.booleans(), st.floats(-3, 3), _small, _text, st.lists(_small, max_size=2),
                  st.dictionaries(_text, _small, max_size=2))
# decorations above the ceiling are rejected before anything is built from them
_decoration = st.one_of(st.integers(1, 2), st.integers(MAX_DECORATION + 1, 10**12), _junk)
_inline = st.fixed_dictionaries(
    {"nodes": st.lists(st.fixed_dictionaries({"id": _text}, optional={"d": _decoration}), max_size=2)},
    optional={"edges": st.lists(st.fixed_dictionaries({}, optional={"from": _text, "to": _text, "mu": _junk}), max_size=2)},
)
# so are node and edge lists over the ceilings
_oversized = st.one_of(
    st.integers(MAX_NODES + 1, 3 * MAX_NODES).map(lambda n: {"nodes": [{"id": k} for k in range(n)]}),
    st.integers(MAX_EDGES + 1, 3 * MAX_EDGES).map(
        lambda n: {"nodes": [{"id": 0}, {"id": 1}], "edges": [{"from": 0, "to": 1}] * n}
    ),
)
_bad_quiver = st.one_of(
    st.sampled_from(["Arhat(x)", "Arhat(0)", "Arhat()", f"Arhat({MAX_NODES + 1})", "Arhat(1000000000000)", "Zk",
                     "@/no/such/file", "{", "{}"]),
    _inline,
    _inline.map(json.dumps),
    _oversized,
    _oversized.map(json.dumps),
    _junk,
)


@st.composite
def _valid_jobs(draw):
    """A well-formed job on a small builtin quiver; it may still fail in the mathematics."""
    quiver = draw(st.sampled_from(sorted(_NODES)))
    w = draw(st.dictionaries(st.sampled_from(_NODES[quiver]), st.integers(0, 1 if quiver == "BC2" else 2), max_size=2))
    units = [f"{i},{a}" for i in w for a in range(1, w[i] + 1)]
    image = st.builds(
        "{}*q1^{}*q2^{}".format, st.sampled_from([f"x({u})" for u in units] or ["mu"]), _small, _small
    )
    params = draw(st.dictionaries(st.sampled_from(units), image, max_size=2)) if units else None
    # a higgs key names a generator of a weight parameter: of a unit's own x(u), or of its params image
    named = sorted(
        {f"x({u})" for u in units if u not in (params or {})} | {img.partition("*")[0] for img in (params or {}).values()}
    )
    return {
        "quiver": quiver,
        "w": w,
        "params": params,
        "higgs": draw(st.dictionaries(st.sampled_from(named), image, max_size=2)) if named else None,
        "limit": draw(st.sampled_from([None, "q1", "q2"])),
        "max_deg": draw(st.integers(0, 2)) if quiver in ("A0hat", "Arhat(2)") else None,
        "command": draw(st.sampled_from(COMMANDS)),
        "format": draw(st.sampled_from(FORMATS)),
    }


def _corrupt(job, field, junk, bad_quiver):
    if field is not None:
        job[field] = bad_quiver if field == "quiver" else junk
    return job


_jobs = st.builds(
    _corrupt, _valid_jobs(), st.sampled_from([None, "w", "params", "higgs", "limit", "max_deg", "command", "format", "quiver"]),
    _junk, _bad_quiver,
)


@settings(max_examples=500, deadline=None)
@given(_jobs)
def test_fuzzed_jobs_exit_with_a_documented_code(job):
    try:
        Job.parse(job)
    except ValidationError:
        pass
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "job.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(job, fh)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["run", path])
    assert code in (0, 2, 3, 4, 5, 6, 7)


# -- folded Higgsing ------------------------------------------------------------


def _generic(job):
    """The pipeline without the fold: check sigma's images, expand at the generic weights, then
    higgs, then the limit."""
    Substitution(job.higgs)
    ch = higgs(expand(job.quiver, job.weights, max_qdeg=job.max_deg), job.higgs)
    return classical_limit(ch, job.limit) if job.limit else ch


def _outcome(compute):
    """What a comparison sees of a result: terms, edge multiset and weights, or the error."""
    try:
        r = compute()
    except QQError as exc:
        return type(exc), str(exc)
    if isinstance(r, ClassicalCharacter):
        return r.which, r.terms
    return r.terms, Counter(r.edges), r.wc


def _corpus_higgs_jobs():
    for fx in load_corpus():
        names = {k: parse_monomial(v) for k, v in fx.get("names", {}).items()}
        nested = [fx.get("reference"), fx.get("base"), *fx.get("factors", ())]  # parsed without names
        for spec, spec_names in [(fx, names)] + [(sub, None) for sub in nested if sub]:
            if spec.get("higgs"):
                yield fx["id"], Job.parse(spec, spec_names)


def test_corpus_higgs_jobs_fold_to_the_generic_character():
    jobs = list(_corpus_higgs_jobs())
    assert len(jobs) >= 40
    for fid, job in jobs:
        before_limit = dataclasses.replace(job, limit=None)
        assert _outcome(before_limit.run) == _outcome(lambda: _generic(before_limit)), fid
        assert _outcome(job.run) == _outcome(lambda: _generic(job)), fid


@st.composite
def _higgs_jobs(draw):
    """A valid job whose pipeline ends in Higgsing: random images, which may fail in many ways."""
    job = draw(_valid_jobs())
    command = draw(st.sampled_from(["higgs", "limit", "hasse"]))
    limit = None if command == "hasse" else job["limit"] or ("q1" if command == "limit" else None)
    return {**job, "command": command, "limit": limit, "format": "dot" if command == "hasse" else "json"}


# every builtin family; affine ones expand under a cutoff
_LADDER_QUIVERS = {"A1": None, "A2": None, "BC2": None, "A0hat": 2, "Arhat(2)": 2, "Arhat(3)": 1}


@st.composite
def _ladder_jobs(draw):
    """A Kirillov-Reshetikhin ladder of length k <= 4 in direction q1 or q2, on top of another weight."""
    quiver = draw(st.sampled_from(sorted(_LADDER_QUIVERS)))
    Q_ = builtin_quiver(quiver)
    node = draw(st.sampled_from(Q_.nodes))
    k = draw(st.integers(0, 4))
    m = draw(st.sampled_from([1, 2] if Q_.d[node] == 1 else [1]))
    other = draw(st.sampled_from([n for n in Q_.nodes if n != node] or [None]))
    w = {node: k} | ({other: draw(st.integers(0, 1))} if other and k < 4 else {})
    sigma = {g: img.to_json() for g, img in kr_sigma(Q_, node, k, m).items()}
    command = draw(st.sampled_from(["higgs", "limit", "hasse"]))
    limit = draw(st.sampled_from(["q1", "q2"])) if command == "limit" else None
    return {"quiver": quiver, "w": w, "higgs": sigma, "limit": limit, "max_deg": _LADDER_QUIVERS[quiver], "command": command}


# d = (1, 1, 2) on 1->2->3 is C3 by its fundamentals: 6, 14 and 14 terms
C3 = json.dumps(
    {"nodes": [{"id": "1"}, {"id": "2"}, {"id": "3", "d": 2}], "edges": [{"from": "1", "to": "2"}, {"from": "2", "to": "3"}]}
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_higgs_jobs(), _ladder_jobs()))
# distinct parameters that resonate across nodes, or at one node but off a ladder: the direct
# expansion finds 22 terms where the Higgsed character has 19, or succeeds where specialize
# meets a 0/0 in several generators (exit 3)
@example({"quiver": "BC2", "w": {"1": 1, "2": 1}, "higgs": {"x(1,1)": "x(2,1)*q1^2*q2^2"}, "command": "hasse"})
@example(
    {
        "quiver": "A1",
        "w": {"1": 3},
        "params": {"1,1": "x(1,2)*q1^-1", "1,2": "x(1,1)*q2"},
        "higgs": {"x(1,2)": "x(1,1)*q2", "x(1,3)": "x(1,1)*q2^2"},
        "command": "higgs",
    }
)
# a q1 ladder at the middle node of C3: the direct expansion meets Y^2 (exit 4), and the
# generic path's pole (exit 3) stands
@example({"quiver": C3, "w": {"2": 2}, "higgs": {"x(2,2)": "x(2,1)*q1^-1"}, "command": "higgs"})
def test_folded_higgsing_answers_as_the_generic_pipeline(spec):
    job = Job.parse(spec)
    before_limit = dataclasses.replace(job, limit=None)
    assert _outcome(before_limit.run) == _outcome(lambda: _generic(before_limit))
    assert _outcome(job.run) == _outcome(lambda: _generic(job))


def test_a_limit_error_after_the_fold_expands_once(monkeypatch):
    # a q2 ladder at the middle node of C3: the folded expansion succeeds, its q1 limit fails
    spec = {"quiver": C3, "w": {"2": 2}, "higgs": {"x(2,2)": "x(2,1)*q2"}, "limit": "q1", "command": "limit"}
    job = Job.parse(spec)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return expand(*args, **kwargs)

    monkeypatch.setattr(qqkit.job, "expand", counted)
    got = _outcome(job.run)
    assert calls == [fold_weights(job.quiver, job.weights, job.higgs)]
    assert got == _outcome(lambda: _generic(job)) == (NonIntegerLimit, "limit slope ratio 3/2 is not an integer")
