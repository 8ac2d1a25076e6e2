"""Fixture corpus: load, replay, and report.

Fixtures are JSON transcriptions of displayed characters and identities.
Each entry gets a status: pass, fail, or flag (a known misprint in the
source text that the engine deliberately corrects).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import product
from pathlib import Path

from .coefficient import Coefficient, product_vanishes, s_r
from .engine import WeightConfig, YMonomial, closed_form_A1, expand
from .errors import ValidationError
from .higgsing import (
    ClassicalCharacter,
    classical_limit,
    factorize_check,
    higgs,
    kr_closed_form_A1,
    kr_sigma,
)
from .job import Job, read_json
from .monomial import Q1, Q2, Monomial, parse_monomial
from .partitions import (
    burge_filter,
    burge_resonance_sigma,
    partitions_up_to,
    pit_filter,
    pit_resonance_sigma,
    pit_resonance_vanishes,
    z_s_values,
)
from .quiver import builtin_quiver
from .render import edge_label

FIXTURE_DIR = Path(__file__).parent / "fixtures"
FIXTURE_FILES = ("a1.json", "a2.json", "bc2.json", "hasse.json", "affine.json")


def load_corpus(directory: str | Path | None = None) -> list[dict]:
    """Every ``*.json`` fixture file of the directory: the bundled names first, in their order, then the rest sorted."""
    d = Path(directory) if directory else FIXTURE_DIR
    out: list[dict] = []
    others = sorted(p.name for p in d.glob("*.json") if p.name not in FIXTURE_FILES)
    for name in [f for f in FIXTURE_FILES if (d / f).exists()] + others:
        data = read_json(d / name)
        if not isinstance(data, list):
            raise ValidationError(f"fixture file {name} must hold a list")
        if not all(isinstance(fx, dict) and isinstance(fx.get("id"), str) for fx in data):
            raise ValidationError(f"fixture file {name}: every fixture needs a string id")
        out.extend(data)
    if not out:
        raise ValidationError(f"no fixtures in {d}")
    return out


# ---------------------------------------------------------------------------
# fixture decoding
# ---------------------------------------------------------------------------


def _names_map(fx: dict) -> dict[str, Monomial]:
    return {k: parse_monomial(v) for k, v in fx.get("names", {}).items()}


def _run(fx: dict):
    names = _names_map(fx)
    return names, Job.parse(fx, names).run()


def _parse_ym(rows, names) -> YMonomial:
    entries = []
    for node, base, j, k, e in rows:
        arg = parse_monomial(base, names) * Q1 ** int(j) * Q2 ** int(k)
        entries.append((str(node), arg, int(e)))
    return YMonomial(tuple(entries))


def _parse_coeff(spec, names) -> Coefficient:
    if isinstance(spec, int):
        return Coefficient.from_monomial(Monomial.unit(), spec)
    c = Coefficient.from_monomial(parse_monomial(spec.get("m", ""), names), int(spec.get("n", 1)))
    for r, mono, p in spec.get("S", ()):
        c = c * s_r(int(r), parse_monomial(mono, names)) ** int(p)
    return c


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------


def _check_character(fx: dict):
    names, ch = _run(fx)
    expect = {}
    for t in fx["terms"]:
        expect[_parse_ym(t["y"], names)] = _parse_coeff(t["c"], names)
    if set(ch.terms) != set(expect):
        missing = [ym for ym in expect if ym not in ch.terms]
        extra = [ym for ym in ch.terms if ym not in expect]
        return "fail", (
            f"term sets differ (expected {len(expect)}, got {len(ch.terms)}); "
            f"first missing {missing[:1]!r}, first extra {extra[:1]!r}"
        )
    for ym, c in expect.items():
        if not (ch.terms[ym] == c):
            return "fail", f"coefficient differs at {ym!r}"
    return "pass", f"{len(expect)} terms exact"


def _check_limit(fx: dict):
    names, cc = _run(fx)
    expect = {_parse_ym(t["y"], names): int(t["c"]) for t in fx["terms"]}
    if cc.terms != expect:
        diffs = {ym for ym in set(cc.terms) | set(expect) if cc.terms.get(ym) != expect.get(ym)}
        return "fail", f"{len(diffs)} differing monomials; first {sorted(diffs, key=lambda y: y.sort_key())[:1]!r}"
    return "pass", f"{len(expect)} integer terms exact"


def _check_count(fx: dict):
    _, ch = _run(fx)
    n = len(ch.terms)
    if n != fx["expect_count"]:
        return "fail", f"expected {fx['expect_count']} terms, got {n}"
    return "pass", f"{n} terms"


def _check_typo(fx: dict):
    names, ch = _run(fx)
    lit = _parse_ym(fx["literal"]["y"], names)
    lit_c = _parse_coeff(fx["literal"]["c"], names)
    cor = _parse_ym(fx["corrected"]["y"], names)
    cor_c = _parse_coeff(fx["corrected"]["c"], names)
    literal_matches = lit in ch.terms and ch.terms[lit] == lit_c
    corrected_matches = cor in ch.terms and ch.terms[cor] == cor_c
    if literal_matches:
        return "fail", "printed term unexpectedly reproduced"
    if not corrected_matches:
        return "fail", "corrected term not reproduced"
    return "flag", "printed text deviates from the engine; corrected reading verified"


def _check_hasse(fx: dict):
    names, ch = _run(fx)
    display = {gen.exps[0][0]: short for short, gen in names.items()}
    if len(ch.terms) != fx["expect_nodes"]:
        return "fail", f"expected {fx['expect_nodes']} nodes, got {len(ch.terms)}"
    if len(ch.edges) != fx["expect_edges"]:
        return "fail", f"expected {fx['expect_edges']} edges, got {len(ch.edges)}"
    labels: dict[str, int] = {}
    for _, _, (i, x) in ch.edges:
        lab = edge_label(i, x, display)
        labels[lab] = labels.get(lab, 0) + 1
    if labels != fx["expect_labels"]:
        return "fail", f"label multiset differs: {labels}"
    if "triples" in fx:
        want = {
            (_parse_ym(t["src"], names), _parse_ym(t["dst"], names), t["label"])
            for t in fx["triples"]
        }
        got = {(s, d, edge_label(i, x, display)) for s, d, (i, x) in ch.edges}
        if want != got:
            return "fail", "edge triples differ"
    return "pass", f"{len(ch.terms)} nodes / {len(ch.edges)} edges with matching labels"


def _check_dropped(fx: dict):
    names = _names_map(fx)
    job = Job.parse(fx, names)  # only the generic path records the dropped terms
    dropped = higgs(expand(job.quiver, job.weights, max_qdeg=job.max_deg), job.higgs).meta["dropped"]
    if len(dropped) != fx["expected_dropped"]:
        return "fail", f"expected {fx['expected_dropped']} dropped terms, got {len(dropped)}"
    relabel = {g: parse_monomial(m, names) for g, m in fx["relabel"].items()}
    relabeled = {ym.substitute(relabel) for ym in dropped}
    ref = Job.parse(fx["reference"]).run()
    if relabeled != set(ref.terms):
        return "fail", "dropped terms do not relabel onto the reference character"
    return "pass", f"{len(dropped)} dropped terms relabel exactly"


def _check_closed_form(fx: dict):
    for w in range(fx["w_max"] + 1):
        ch = Job.parse({"quiver": "A1", "w": {"1": w}}).run()
        cf = closed_form_A1(w)
        if len(ch.terms) != 2**w or not ch.equals(cf):
            return "fail", f"w={w} mismatch"
    return "pass", f"expand == subset closed form, 2^w terms, w <= {fx['w_max']}"


def _check_kr_ladder(fx: dict):
    from math import comb

    Q_ = builtin_quiver("A1")
    for w in range(fx["w_max"] + 1):
        hg = higgs(expand(Q_, WeightConfig.make(Q_, {"1": w})), kr_sigma(Q_, "1", w, 1))
        if len(hg.terms) != w + 1 or not hg.equals(kr_closed_form_A1(w)):
            return "fail", f"w={w}: ladder character mismatch"
        l1 = classical_limit(hg, "q1")
        if sorted(l1.terms.values()) != sorted(comb(w, v) for v in range(w + 1)):
            return "fail", f"w={w}: q1 limit is not binomial"
        fund = classical_limit(kr_closed_form_A1(1), "q1")
        if not factorize_check(l1, [fund] * w):
            return "fail", f"w={w}: q1 limit does not factor into the fundamental"
        l2 = classical_limit(hg, "q2")
        if len(l2.terms) != w + 1 or any(v != 1 for v in l2.terms.values()):
            return "fail", f"w={w}: q2 limit coefficients differ from 1"
    return "pass", f"ladder + both limits for w <= {fx['w_max']}"


def _check_factorization(fx: dict):
    base = Job.parse(fx["base"]).run()
    factors = [Job.parse(f).run() for f in fx["factors"]]
    if not isinstance(base, ClassicalCharacter):
        return "fail", "base pipeline did not end in a classical limit"
    if not factorize_check(base, factors):
        return "fail", "product of factors differs from the base character"
    return "pass", f"product of {len(factors)} factors matches exactly"


def _check_affine_oracle(fx: dict):
    eng = Job.parse(fx).run()
    clo = Job.parse({**fx, "command": "affine-expand"}).run()
    if set(eng.terms) != set(clo.terms):
        return "fail", f"term sets differ ({len(eng.terms)} vs {len(clo.terms)})"
    for ym in eng.terms:
        if not (eng.terms[ym] == clo.terms[ym]):
            return "fail", f"coefficient differs at {ym!r}"
    return "pass", f"{len(eng.terms)} terms agree between engine and partition sum"


BURGE_MAX_SIZE = 12  # the sweep time grows about 1.6-fold with each unit of max_size


def burge_rows(r: int, i_values, j_values, max_size: int):
    """One row per configuration of the Burge resonance check.

    A configuration is a node colouring (na, nb) of the pair, a resonance
    (i, j), and partitions a, b with |a| + |b| <= max_size.  The row says
    whether Z vanishes under the exact substitution x_b -> x_a q1 q3^-i
    q4^(j-1), whether (a, b) passes the transpose-column filter, and ``ok``:
    vanishing happens exactly when the colour residue (i + j - 1 - (na - nb))
    mod r is zero and the filter rejects the pair.  Vanishing is decided from
    the S-values of Z (``product_vanishes``), which are computed once per pair
    and colouring.  max_size is capped at BURGE_MAX_SIZE.
    """
    if r < 1 or max_size < 0:
        raise ValidationError("burge check needs r >= 1 and max_size >= 0")
    if max_size > BURGE_MAX_SIZE:
        raise ValidationError(f"burge check needs max_size <= {BURGE_MAX_SIZE}, got {max_size}")
    xa, xb = Monomial.gen("xa"), Monomial.gen("xb")
    pool = partitions_up_to(max_size)
    pairs = [(la, lb) for la, lb in product(pool, pool) if la.size + lb.size <= max_size]
    resonances = [(i, j, burge_resonance_sigma(i, j, "xa", "xb")) for i, j in product(i_values, j_values)]
    for na, nb in product(range(r), range(r)):
        weights = [z_s_values([la, lb], [xa, xb], r, nodes=[na, nb]) for la, lb in pairs]
        for i, j, sigma in resonances:
            residue_ok = (i + j - 1 - (na - nb)) % r == 0
            for (la, lb), values in zip(pairs, weights):
                vanishes = product_vanishes(values, sigma)
                admitted = burge_filter(la, lb, i, j)
                yield {
                    "nodes": [na, nb], "i": i, "j": j, "a": la.parts, "b": lb.parts,
                    "vanishes": vanishes, "admitted": admitted,
                    "ok": vanishes == (residue_ok and not admitted),
                }


def _check_burge(fx: dict):
    total = 0
    for row in burge_rows(fx["r"], fx["i_values"], fx["j_values"], fx["max_size"]):
        if not row["ok"]:
            (na, nb), a, b = row["nodes"], row["a"], row["b"]
            return "fail", f"mismatch at nodes ({na},{nb}), (i,j)=({row['i']},{row['j']}), {a} | {b}"
        total += 1
    return "pass", f"{total} configurations: vanishing == transpose-column condition"


def _check_pit(fx: dict):
    r = fx["r"]
    unit = [Monomial.unit()]
    weights = [(lam, z_s_values([lam], unit, r)) for lam in partitions_up_to(fx["max_size"])]
    deviations = 0
    total = 0
    for i in range(1, fx["i_max"] + 1):
        for j in range(1, fx["j_max"] + 1):
            if (i + j - 1) % r != 0:
                continue
            sigma = pit_resonance_sigma((i, j))
            for lam, values in weights:
                vanishes = product_vanishes(values, sigma)
                total += 1
                if vanishes != pit_resonance_vanishes(lam, (i, j), r):
                    return "fail", f"criterion mismatch at {lam.parts}, pit ({i},{j})"
                if pit_filter(lam, (i, j), r) != (not vanishes):
                    deviations += 1
    if deviations:
        return "flag", (
            f"{total} configurations: vanishing == arm/leg criterion; box-membership "
            f"reading deviates on {deviations} of them"
        )
    return "pass", f"{total} configurations: vanishing == pit filter"


_HANDLERS = {
    "character": _check_character,
    "limit": _check_limit,
    "count": _check_count,
    "typo": _check_typo,
    "hasse": _check_hasse,
    "dropped": _check_dropped,
    "closed_form": _check_closed_form,
    "kr_ladder": _check_kr_ladder,
    "factorization": _check_factorization,
    "affine_oracle": _check_affine_oracle,
    "burge": _check_burge,
    "pit": _check_pit,
}


@dataclass
class VerifyEntry:
    id: str
    status: str  # pass | fail | flag
    detail: str
    seconds: float


@dataclass
class VerifyReport:
    entries: list[VerifyEntry]

    @property
    def counts(self) -> dict[str, int]:
        out = {"pass": 0, "fail": 0, "flag": 0}
        for e in self.entries:
            out[e.status] = out.get(e.status, 0) + 1
        return out

    @property
    def ok(self) -> bool:
        return self.counts["fail"] == 0

    def text(self) -> str:
        lines = []
        for e in self.entries:
            lines.append(f"{e.status.upper():5s} {e.id:40s} {e.seconds:7.3f}s  {e.detail}")
        c = self.counts
        lines.append(
            f"total {len(self.entries)}: {c['pass']} pass, {c['flag']} flagged, {c['fail']} fail"
        )
        return "\n".join(lines)


def run_fixture(fx: dict) -> VerifyEntry:
    handler = _HANDLERS.get(fx.get("kind"))
    start = time.perf_counter()
    if handler is None:
        return VerifyEntry(fx.get("id", "?"), "fail", f"unknown kind {fx.get('kind')!r}", 0.0)
    try:
        status, detail = handler(fx)
    except Exception as exc:  # deliberate: a fixture crash is a failure, not an abort
        status, detail = "fail", f"{type(exc).__name__}: {exc}"
    return VerifyEntry(fx["id"], status, detail, time.perf_counter() - start)


def run_corpus(directory=None) -> VerifyReport:
    return VerifyReport([run_fixture(fx) for fx in load_corpus(directory)])
