"""The validated job pipeline: malformed input exits 2, fuzzed jobs never crash."""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from qqkit.cli import main
from qqkit.errors import ValidationError
from qqkit.job import COMMANDS, FORMATS, Job
from qqkit.monomial import xparam
from qqkit.quiver import MAX_DECORATION

JOB = "<job file>"  # replaced by the path of a file holding the case's job
EDGE_WITHOUT_FROM = json.dumps({"nodes": [{"id": "1"}, {"id": "2"}], "edges": [{"to": "2"}]})
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
    "quiver-loop-mu-0": (["expand", "--quiver", LOOP_WITHOUT_MASS, "--w", '{"0": 1}', "--max-deg", "2"], None),
    "quiver-decoration-above-ceiling": (["expand", "--quiver", HUGE_DECORATION, "--w", '{"1": 1}'], None),
    "affine-expand-without-max-deg": (["affine-expand", "--quiver", "A0hat", "--w", '{"0": 1}'], None),
    "affine-expand-not-a-cycle": (["affine-expand", "--quiver", D4HAT, "--w", '{"o": 1}', "--max-deg", "2"], None),
    "higgs-list": (["higgs", "--quiver", "A1", "--w", '{"1": 2}', "--higgs", "[1]"], None),
    "limit-as-dot": (["limit", "--quiver", "A1", "--w", '{"1": 1}', "--limit", "q1", "--format", "dot"], None),
    "affine-expand-as-dot": (
        ["affine-expand", "--quiver", "A0hat", "--w", '{"0": 2}', "--max-deg", "2", "--format", "dot"], None
    ),
    "burge-negative-size": (["burge-check", "--i", "0", "--j", "1", "--max-size", "-1"], None),
    "job-unknown-command": (["run", JOB], {"quiver": "A1", "w": {"1": 1}, "command": "bogus"}),
    "job-list": (["run", JOB], [1]),
    "job-hasse-after-limit": (["run", JOB], {"quiver": "A1", "w": {"1": 1}, "command": "hasse", "limit": "q1"}),
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
_bad_quiver = st.one_of(
    st.sampled_from(["Arhat(x)", "Arhat(0)", "Arhat()", "Zk", "@/no/such/file", "{", "{}"]),
    _inline,
    _inline.map(json.dumps),
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
    return {
        "quiver": quiver,
        "w": w,
        "params": draw(st.dictionaries(st.sampled_from(units), image, max_size=2)) if units else None,
        "higgs": draw(st.dictionaries(st.sampled_from([f"x({u})" for u in units]), image, max_size=2)) if units else None,
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
