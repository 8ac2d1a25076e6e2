"""The benchmark's workloads: ``corpus``, ``finite`` and ``affine``.

Each workload is built from freshly imported qqkit modules, so the caller can
time set-up.  ``run_pass`` runs every op of the workload once, on the calling
thread, and checks the outputs against values computed apart from the op
(closed forms, counting formulas, round trips), never against saved output.

A pass reports raw wall times with the perf_counter interval of each op, and
takes speed samples at the ops' ends, so that run.py can scale the times to
reference speed (see speed.py).
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from math import comb


@dataclass
class PassResult:
    op_seconds: list[float]  # raw wall seconds
    op_spans: list[tuple[float, float]]  # perf_counter interval of each op
    failed: list[bool]
    wall_s: float  # raw wall seconds of the pass
    wall_span: tuple[float, float] | None  # None: the ops ran back to back
    problems: list[str] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)


def _timed_ops(ops, host, mute) -> PassResult:
    """Run (name, run, check) ops in order; time run, then check unless it failed.

    Checks run inside ``mute()``, which keeps their calls out of a trace.
    """
    seconds, spans, failed, problems = [], [], [], []
    host.sample(3)
    for name, run, check in ops:
        start = time.perf_counter()
        try:
            ok, payload = run()
        except Exception as exc:  # an op that raises counts as failed, the pass goes on
            ok, payload = False, f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        host.sample(3)
        seconds.append(end - start)
        spans.append((start, end))
        failed.append(not ok)
        if ok:
            with mute():
                try:
                    problems.extend(f"{name}: {p}" for p in check(payload))
                except Exception as exc:  # unreadable output is a wrong output
                    problems.append(f"{name}: check raised {type(exc).__name__}: {exc}")
    return PassResult(seconds, spans, failed, sum(seconds), None, problems)


# ---------------------------------------------------------------------------
# corpus: the bundled identity corpus, replayed as `qqkit verify` does
# ---------------------------------------------------------------------------


class Corpus:
    """One op per fixture; an op fails when its fixture reports ``fail``."""

    name = "corpus"

    def __init__(self, seed: int, workdir: str):
        from qqkit import verify

        self.verify = verify
        self.fixture_ids = [fx["id"] for fx in verify.load_corpus()]

    @property
    def n_ops(self) -> int:
        return len(self.fixture_ids)

    def run_pass(self, host, mute=contextlib.nullcontext) -> PassResult:
        # The report gives each fixture's seconds.  Its interval, needed to
        # scale it to reference speed, is taken around the same call, and a
        # speed sample follows each fixture in its pool thread.  The time the
        # samples held the interpreter lock is taken out of the pass's wall.
        inner = self.verify.run_fixture
        spans: dict[str, tuple[float, float]] = {}
        sampling: list[float] = []

        def timed_fixture(fx):
            start = time.perf_counter()
            entry = inner(fx)
            spans[entry.id] = (start, time.perf_counter())
            sampling.append(host.sample())
            return entry

        self.verify.run_fixture = timed_fixture
        host.sample()
        try:
            start = time.perf_counter()
            report = self.verify.run_corpus()  # default pool size, as the CLI uses
            end = time.perf_counter()
        finally:
            self.verify.run_fixture = inner
        problems = []
        ids = [e.id for e in report.entries]
        if ids != self.fixture_ids:
            problems.append(f"report covers {len(ids)} entries, not the {self.n_ops} fixtures in order")
        for e in report.entries:
            if e.status not in ("pass", "flag", "fail"):
                problems.append(f"{e.id}: unknown status {e.status!r}")
        return PassResult(
            [e.seconds for e in report.entries],
            [spans.get(e.id, (start, end)) for e in report.entries],
            [e.status == "fail" for e in report.entries],
            end - start - sum(sampling),
            (start, end),
            problems,
        )


# ---------------------------------------------------------------------------
# finite: CLI jobs on finite quivers
# ---------------------------------------------------------------------------

# dim of the fundamental at each node; a generic character has
# prod_i dim_i^{w_i} terms.
_FUNDAMENTAL_DIM = {"A1": {"1": 2}, "A2": {"1": 3, "2": 3}, "BC2": {"1": 5, "2": 4}}


def _generic_terms(quiver: str, w: dict) -> int:
    out = 1
    for node, k in w.items():
        out *= _FUNDAMENTAL_DIM[quiver][node] ** k
    return out


def _seeded_params(rng: random.Random, w: dict) -> dict:
    """Generic images x(i,a) -> x(i,a) q1^e1 q2^e2, exponents drawn from the seed.

    Every image keeps its own weight generator, so no ratio of two images is a
    pure q-monomial: no S-zero, pole or collision can appear.
    """
    out = {}
    for node, k in w.items():
        for a in range(1, k + 1):
            e1, e2 = rng.randint(1, 3), rng.randint(0, 2)
            out[f"{node},{a}"] = f"x({node},{a})*q1^{e1}" + (f"*q2^{e2}" if e2 else "")
    return out


def _param_map(qq, images: dict | None):
    """``--params`` images as WeightConfig.make takes them: (node, alpha) -> Monomial."""
    if not images:
        return None
    out = {}
    for key, img in images.items():
        node, _, alpha = key.partition(",")
        out[(node, int(alpha))] = qq.parse_monomial(img)
    return out


def _ladder(node: str, k: int) -> dict:
    """Kirillov-Reshetikhin ladder x(node,t) -> x(node,1) q1^(t-1)."""
    return {f"x({node},{t})": f"x({node},1)*q1^{t - 1}" for t in range(2, k + 1)}


def _dot_counts(doc: str) -> tuple[int, int]:
    lines = doc.splitlines()
    nodes = sum(1 for ln in lines if ln.lstrip().startswith("n") and "[label=" in ln and "->" not in ln)
    edges = sum(1 for ln in lines if "->" in ln)
    return nodes, edges


class Finite:
    """One op per CLI job (``qqkit.cli.main`` in-process, output to a file)."""

    name = "finite"
    A1_W = 7  # generic A1 weight of the json and dot jobs
    KR_W = 6  # length of the A1 Kirillov-Reshetikhin ladder

    def __init__(self, seed: int, workdir: str):
        import qqkit
        from qqkit import cli, render

        self.qq, self.cli, self.render = qqkit, cli, render
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        rng = random.Random(seed)
        self._refs: dict = {}
        a1w = {"1": self.A1_W}
        a1_params = _seeded_params(rng, a1w)
        a2_params = _seeded_params(rng, {"1": 2, "2": 2})
        bc2_params = _seeded_params(rng, {"1": 2, "2": 2})
        kr = {"1": self.KR_W}
        a2_kr = {"1": 2}
        self.jobs = [
            self._expand("A1", a1w, "json", a1_params),
            self._expand("A1", a1w, "dot"),
            self._expand("A1", {"1": 6}, "latex"),
            self._expand("A2", {"1": 2, "2": 2}, "json", a2_params),
            self._expand("A2", {"1": 2, "2": 2}, "latex"),
            self._expand("A2", {"1": 2, "2": 1}, "dot"),
            self._expand("BC2", {"1": 2, "2": 2}, "json", bc2_params),
            self._expand("BC2", {"1": 2, "2": 2}, "latex"),
            self._expand("BC2", {"1": 2, "2": 1}, "latex"),
            self._expand("BC2", {"1": 2, "2": 1}, "dot"),
            self._job("kr-higgs-A1", "higgs", "A1", kr, "json", higgs=_ladder("1", self.KR_W), check=self._check_kr_higgs),
            self._job("kr-limit-q1-A1", "limit", "A1", kr, "json", higgs=_ladder("1", self.KR_W), limit="q1", check=self._check_kr_q1),
            self._job("kr-limit-q2-A1", "limit", "A1", kr, "json", higgs=_ladder("1", self.KR_W), limit="q2", check=self._check_kr_q2),
            self._job("kr-hasse-A1", "hasse", "A1", kr, None, higgs=_ladder("1", self.KR_W), check=self._check_kr_hasse),
            self._job("kr-higgs-A2", "higgs", "A2", a2_kr, "json", higgs=_ladder("1", 2), check=self._check_a2_kr),
        ]

    @property
    def n_ops(self) -> int:
        return len(self.jobs)

    # -- job list -------------------------------------------------------------

    def _job(self, name, command, quiver, w, fmt, params=None, higgs=None, limit=None, check=None):
        out = os.path.join(self.workdir, f"{name}.{fmt or 'dot'}")
        argv = [command, "--quiver", quiver, "--w", json.dumps(w), "--out", out]
        if fmt:
            argv += ["--format", fmt]
        if params:
            argv += ["--params", json.dumps(params)]
        if higgs:
            argv += ["--higgs", json.dumps(higgs)]
        if limit:
            argv += ["--limit", limit]
        spec = {"quiver": quiver, "w": w, "params": params, "higgs": higgs, "out": out}
        return name, argv, spec, check

    def _expand(self, quiver, w, fmt, params=None):
        name = f"expand-{quiver}-{''.join(str(v) for v in w.values())}-{fmt}"
        check = {"json": self._check_json, "latex": self._check_latex, "dot": self._check_dot}[fmt]
        return self._job(name, "expand", quiver, w, fmt, params=params, check=check)

    def run_pass(self, host, mute=contextlib.nullcontext) -> PassResult:
        if not self._refs:
            self._prepare()
        ops = []
        for name, argv, spec, check in self.jobs:
            if os.path.exists(spec["out"]):  # a failed job must not leave a stale file to check
                os.remove(spec["out"])
            ops.append((name, self._runner(argv), lambda _, spec=spec, check=check: check(spec)))
        res = _timed_ops(ops, host, mute)
        res.counters["render.bytes"] = sum(
            os.path.getsize(spec["out"]) for _, _, spec, _ in self.jobs if os.path.exists(spec["out"])
        )
        return res

    def _runner(self, argv):
        def run():
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
            return code == 0, code

        return run

    # -- reference characters, computed once, outside the timed ops ------------

    def _prepare(self):
        """Build every reference before the first op, so that every pass runs
        with the same memory in use and peak RSS does not depend on how many
        passes fit in the run."""
        for _, _, spec, check in self.jobs:
            if check == self._check_json and spec["quiver"] == "A1":
                self._a1_closed_form(spec)
            elif check == self._check_kr_higgs:
                self._kr_closed_form()
            elif check in (self._check_kr_hasse, self._check_a2_kr) or (
                check in (self._check_json, self._check_dot) and spec["quiver"] != "A1"
            ):
                self._reference(spec)

    def _a1_closed_form(self, spec):
        key = json.dumps(["closed_form_A1", spec["w"], spec["params"]])
        if key not in self._refs:
            xs = [
                self.qq.parse_monomial((spec["params"] or {}).get(f"1,{a}", f"x(1,{a})"))
                for a in range(1, spec["w"]["1"] + 1)
            ]
            self._refs[key] = self.qq.closed_form_A1(len(xs), xs)
        return self._refs[key]

    def _kr_closed_form(self):
        if "kr_closed_form_A1" not in self._refs:
            self._refs["kr_closed_form_A1"] = self.qq.kr_closed_form_A1(self.KR_W)
        return self._refs["kr_closed_form_A1"]

    def _reference(self, spec):
        key = json.dumps([spec["quiver"], spec["w"], spec["params"], spec["higgs"]])
        if key not in self._refs:
            qq = self.qq
            Q_ = qq.builtin_quiver(spec["quiver"])
            ch = qq.expand(Q_, qq.WeightConfig.make(Q_, spec["w"], _param_map(qq, spec["params"])))
            if spec["higgs"]:
                ch = qq.higgs(ch, {g: qq.parse_monomial(m) for g, m in spec["higgs"].items()})
            self._refs[key] = ch
        return self._refs[key]

    def _read(self, spec) -> str:
        with open(spec["out"], encoding="utf-8") as fh:
            return fh.read()

    # -- checks ---------------------------------------------------------------

    def _check_json(self, spec):
        ch = self.render.character_from_json(json.loads(self._read(spec)))
        want = _generic_terms(spec["quiver"], spec["w"])
        if len(ch.terms) != want:
            return [f"{len(ch.terms)} terms, expected {want}"]
        if spec["quiver"] == "A1":
            ref, what = self._a1_closed_form(spec), "subset-splitting closed form"
        else:
            ref, what = self._reference(spec), "in-memory character"
        return [] if ch.equals(ref) else [f"parsed JSON differs from the {what}"]

    def _check_latex(self, spec):
        doc = self._read(spec).strip()
        want = _generic_terms(spec["quiver"], spec["w"])
        # generic coefficients are products, so " + " only separates terms
        got = doc.count(" + ") + 1
        problems = [] if got == want else [f"{got} LaTeX terms, expected {want}"]
        if doc.count("{") != doc.count("}"):
            problems.append("unbalanced braces")
        return problems

    def _check_dot(self, spec):
        nodes, edges = _dot_counts(self._read(spec))
        want = _generic_terms(spec["quiver"], spec["w"])
        if spec["quiver"] == "A1":  # every reflection of a generic A1 term survives
            k = spec["w"]["1"]
            want_edges = k * 2 ** (k - 1)
        else:
            want_edges = len(self._reference(spec).edges)
        out = []
        if nodes != want:
            out.append(f"{nodes} DOT nodes, expected {want}")
        if edges != want_edges:
            out.append(f"{edges} DOT edges, expected {want_edges}")
        return out

    def _check_kr_higgs(self, spec):
        ch = self.render.character_from_json(json.loads(self._read(spec)))
        if len(ch.terms) != self.KR_W + 1:
            return [f"{len(ch.terms)} ladder terms, expected {self.KR_W + 1}"]
        return [] if ch.equals(self._kr_closed_form()) else ["ladder differs from the KR closed form"]

    def _classical_terms(self, spec) -> dict:
        data = json.loads(self._read(spec))
        return {self.qq.YMonomial.from_json(t["ym"]): t["coeff"] for t in data["terms"]}

    def _check_kr_q1(self, spec):
        """(Y_x + Y_{x q2}^{-1})^w: binomial coefficients C(w, v), fundamental^w."""
        qq, w = self.qq, self.KR_W
        x = qq.xparam("1", 1)
        want = {
            qq.YMonomial((("1", x, w - v), ("1", x * qq.Q2, -v))): comb(w, v) for v in range(w + 1)
        }
        return [] if self._classical_terms(spec) == want else ["q1 limit is not the binomial expansion of the fundamental^w"]

    def _check_kr_q2(self, spec):
        terms = self._classical_terms(spec)
        if len(terms) != self.KR_W + 1 or any(c != 1 for c in terms.values()):
            return [f"q2 limit has coefficients {sorted(terms.values())}, expected {self.KR_W + 1} ones"]
        return []

    def _check_kr_hasse(self, spec):
        nodes, edges = _dot_counts(self._read(spec))
        want_edges = len(self._reference(spec).edges)
        if (nodes, edges) != (self.KR_W + 1, want_edges):
            return [f"ladder DOT has {nodes} nodes / {edges} edges, expected {self.KR_W + 1} / {want_edges}"]
        return []

    def _check_a2_kr(self, spec):
        ch = self.render.character_from_json(json.loads(self._read(spec)))
        want = comb(3 + 2 - 1, 2)  # Sym^2 of the 3-dimensional fundamental
        if len(ch.terms) != want:
            return [f"{len(ch.terms)} terms, expected {want}"]
        return [] if ch.equals(self._reference(spec)) else ["parsed JSON differs from the in-memory character"]


# ---------------------------------------------------------------------------
# affine: reflection engine vs partition sum
# ---------------------------------------------------------------------------


def _partition_counts(n: int) -> list[int]:
    p = [1] + [0] * n
    for part in range(1, n + 1):
        for k in range(part, n + 1):
            p[k] += p[k - part]
    return p


def tuple_counts(w: int, n: int) -> list[int]:
    """Number of w-tuples of partitions of total size k, for k = 0..n."""
    p = _partition_counts(n)
    out = [1] + [0] * n
    for _ in range(w):
        out = [sum(out[j] * p[k - j] for j in range(k + 1)) for k in range(n + 1)]
    return out


class Affine:
    """One op per (quiver, weights, cutoff): expand, affine_character, compare."""

    name = "affine"
    # (quiver, weights, cutoffs).  Cutoffs stop where one op would pass a second.
    GRID = (
        ("A0hat", {"0": 1}, (4, 5, 6, 7, 8)),
        ("A0hat", {"0": 2}, (4, 5, 6, 7)),
        ("A0hat", {"0": 3}, (4, 5)),
        ("Arhat(2)", {"0": 1}, (4, 5, 6, 7, 8)),
        ("Arhat(2)", {"0": 1, "1": 1}, (4, 5, 6, 7)),
    )
    # Fails until partitions.affine_character colors boxes on the diagram
    # itself: the transposed diagram negates the color (s1-s2) mod r, which
    # only r >= 3 can see.  Kept with fixed inputs so every pass fails it once.
    KNOWN_FAULT = ("Arhat(3)", {"0": 1}, 4)

    def __init__(self, seed: int, workdir: str):
        import qqkit

        self.qq = qqkit
        rng = random.Random(seed)
        self.ops = []
        for quiver, w, cutoffs in self.GRID:
            for cutoff in cutoffs:
                self.ops.append(self._op(quiver, w, cutoff, _seeded_params(rng, w)))
        self.ops.append(self._op(*self.KNOWN_FAULT, None))

    @property
    def n_ops(self) -> int:
        return len(self.ops)

    def _op(self, quiver, w, cutoff, params):
        qq = self.qq
        Q_ = qq.builtin_quiver(quiver)
        wc = qq.WeightConfig.make(Q_, w, _param_map(qq, params))
        name = f"{quiver}-{''.join(str(v) for v in w.values())}-deg{cutoff}"

        def run():
            eng = qq.expand(Q_, wc, max_qdeg=cutoff)
            clo = qq.affine_character(Q_, wc, cutoff)
            same = set(eng.terms) == set(clo.terms) and all(eng.terms[y] == c for y, c in clo.terms.items())
            return same, eng

        def check(eng):
            degrees = Counter(sum(e for g, e in c.unit.exps if g.startswith("qfrak")) for c in eng.terms.values())
            got = sorted(degrees.items())
            want = list(enumerate(tuple_counts(sum(w.values()), cutoff)))
            return [] if got == want else [f"(degree, terms) {got}, expected {want}"]

        return name, run, check

    def run_pass(self, host, mute=contextlib.nullcontext) -> PassResult:
        return _timed_ops(self.ops, host, mute)


WORKLOADS = {"corpus": Corpus, "finite": Finite, "affine": Affine}
