"""Fixture corpus: load, replay, and report.

Fixtures are JSON transcriptions of displayed characters and identities.
Each entry gets a status: pass, fail, or flag (a known misprint in the
source text that the engine deliberately corrects).

``run_corpus`` replays the fixtures inside one ``job.shared_expansions()``
block, so each distinct expansion, Higgsing and classical limit is made once
per run, and a fixture's seconds exclude any such work an earlier fixture of
the run did.  ``run_fixture`` called alone makes each afresh.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import product
from pathlib import Path

from .coefficient import Coefficient, Substitution, Vanishing, s_r
from .engine import WeightConfig, YMonomial, closed_form_A1
from .errors import ValidationError, require_int
from .higgsing import (
    ClassicalCharacter,
    classical_limit,
    factorize_check,
    kr_closed_form_A1,
    kr_sigma,
)
from .job import Job, _key, _shared, higgsed, read_json, shared_expansions
from .monomial import Q1, Q2, Memo, Monomial, parse_monomial
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
        arg = parse_monomial(base, names) * Q1 ** require_int(j, "q1 shift") * Q2 ** require_int(k, "q2 shift")
        entries.append((str(node), arg, require_int(e, "Y exponent")))
    return YMonomial(tuple(entries))


def _parse_coeff(spec, names) -> Coefficient:
    if type(spec) is int:
        return Coefficient.from_monomial(Monomial.unit(), spec)
    if not isinstance(spec, dict):
        raise ValidationError(f"a fixture coefficient is an integer or an object, got {spec!r}")
    n = require_int(spec.get("n", 1), 'coefficient "n"')
    c = Coefficient.from_monomial(parse_monomial(spec.get("m", ""), names), n)
    for r, mono, p in spec.get("S", ()):
        c = c * s_r(require_int(r, "S index"), parse_monomial(mono, names)) ** require_int(p, "S power")
    return c


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------


def _first_difference(got: dict, expect: dict) -> str | None:
    """The first difference between two term maps, Y-monomial -> coefficient, or None where they are equal."""
    missing = [ym for ym in expect if ym not in got]
    extra = [ym for ym in got if ym not in expect]
    if missing or extra:
        return (
            f"term sets differ (expected {len(expect)}, got {len(got)}); "
            f"first missing {missing[:1]!r}, first extra {extra[:1]!r}"
        )
    return next((f"coefficient differs at {ym!r}" for ym, c in expect.items() if got[ym] != c), None)


def _check_character(fx: dict):
    names, ch = _run(fx)
    expect = {_parse_ym(t["y"], names): _parse_coeff(t["c"], names) for t in fx["terms"]}
    if diff := _first_difference(ch.terms, expect):
        return "fail", diff
    return "pass", f"{len(expect)} terms exact"


def _check_limit(fx: dict):
    names, cc = _run(fx)
    expect = {_parse_ym(t["y"], names): require_int(t["c"], "limit coefficient") for t in fx["terms"]}
    if diff := _first_difference(cc.terms, expect):
        return "fail", diff
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
    dropped = higgsed(job.quiver, job.weights, job.max_deg, job.higgs).meta["dropped"]
    if len(dropped) != fx["expected_dropped"]:
        return "fail", f"expected {fx['expected_dropped']} dropped terms, got {len(dropped)}"
    relabel = Substitution({g: parse_monomial(m, names) for g, m in fx["relabel"].items()})
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
    fund = classical_limit(kr_closed_form_A1(1), "q1")
    for w in range(fx["w_max"] + 1):
        wc, sigma = WeightConfig.make(Q_, {"1": w}), kr_sigma(Q_, "1", w, 1)
        hg = higgsed(Q_, wc, None, sigma)
        if len(hg.terms) != w + 1 or not hg.equals(kr_closed_form_A1(w)):
            return "fail", f"w={w}: ladder character mismatch"
        key = _key(Q_, wc, None, sigma)
        l1 = _shared((key, "q1"), lambda: classical_limit(hg, "q1"))
        if sorted(l1.terms.values()) != sorted(comb(w, v) for v in range(w + 1)):
            return "fail", f"w={w}: q1 limit is not binomial"
        if not factorize_check(l1, [fund] * w):
            return "fail", f"w={w}: q1 limit does not factor into the fundamental"
        l2 = _shared((key, "q2"), lambda: classical_limit(hg, "q2"))
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
    if diff := _first_difference(eng.terms, clo.terms):  # the partition sum is the reference
        return "fail", diff
    return "pass", f"{len(eng.terms)} terms agree between engine and partition sum"


BURGE_MAX_SIZE = 12  # sweep time grows ~1.6-fold per unit of max_size; also caps pit i_max, j_max, max_size
# the sweep writes r^2 colourings but weighs only r colour offsets, one Vanishing table
# each: at max_size 12, r = 14 takes 2.6 to 3.0 s through the CLI, mostly writing the
# streamed rows, and peaks at 24 MB (r = 3: 0.35 to 0.55 s, r = 12: 2.0 to 2.1 s), four
# runs each on a shared 2-core host with Python 3.11
BURGE_MAX_R = 14


def burge_rows(r: int, i_values, j_values, max_size: int):
    """One row dict per configuration of the Burge resonance check, for the CLI and the tests.

    A configuration is a node colouring (na, nb) of the pair, a resonance
    (i, j), and partitions a, b with |a| + |b| <= max_size.  The row says
    whether Z vanishes under the exact substitution x_b -> x_a q1 q3^-i
    q4^(j-1), whether (a, b) passes the transpose-column filter, and ``ok``:
    vanishing happens exactly when the colour residue (i + j - 1 - (na - nb))
    mod r is zero and the filter rejects the pair.  Each row is one tuple of
    ``_burge_sweep`` with its fields named; the burge fixture reads the
    tuples themselves.  The arguments are checked by ``_burge_sweep`` at the
    call, before the first row is made.
    """
    return (
        {"nodes": [na, nb], "i": i, "j": j, "a": la.parts, "b": lb.parts,
         "vanishes": vanishes, "admitted": adm, "ok": ok}
        for na, nb, i, j, la, lb, vanishes, adm, ok in _burge_sweep(r, i_values, j_values, max_size)
    )


def _burge_sweep(r: int, i_values, j_values, max_size: int):
    """The configurations of ``burge_rows`` as tuples (na, nb, i, j, a, b, vanishes, admitted, ok).

    They come in (na, nb, resonance, pair) order, a and b as ``Partition``s.
    r is capped at BURGE_MAX_R and max_size at BURGE_MAX_SIZE; the bounds, at
    least one i and one j, and i <= 0 and j >= 1 for every resonance, are
    checked at the call, before the first tuple is made.
    """
    if r < 1 or max_size < 0:
        raise ValidationError("burge check needs r >= 1 and max_size >= 0")
    if r > BURGE_MAX_R:
        raise ValidationError(f"burge check needs r <= {BURGE_MAX_R}, got {r}")
    if max_size > BURGE_MAX_SIZE:
        raise ValidationError(f"burge check needs max_size <= {BURGE_MAX_SIZE}, got {max_size}")
    if not (i_values and j_values):
        raise ValidationError("burge check needs at least one i and one j")
    if any(i > 0 for i in i_values) or any(j < 1 for j in j_values):
        raise ValidationError("burge condition needs i <= 0 and j >= 1")
    return _burge_tuples(r, i_values, j_values, max_size)


def _burge_tuples(r: int, i_values, j_values, max_size: int):
    """The tuples of ``_burge_sweep``, once its arguments are checked.

    Whether a pair is admitted depends on the resonance alone, and the
    weight of a colouring on its offset delta = (na - nb) mod r alone
    (``z_s_values`` reads only n_alpha - n_beta mod r).  So each filter runs
    once per resonance and pair, and the pairs' S-values make one
    ``Vanishing`` table per delta (``vanishing``, a ``Memo`` of delta), read
    once per resonance when the first colouring with that delta comes up.
    A table decides which S-value arguments degenerate by exponent
    arithmetic, once per distinct argument, and substitutes nothing: the
    resonances read the same xb exponent column of the table.
    """
    xa, xb = Monomial.gen("xa"), Monomial.gen("xb")
    pool = partitions_up_to(max_size)
    pairs = [(la, lb) for la, lb in product(pool, pool) if la.size + lb.size <= max_size]
    resonances = [(i, j, Substitution(burge_resonance_sigma(i, j, "xa", "xb"))) for i, j in product(i_values, j_values)]
    admitted = {(i, j): [burge_filter(la, lb, i, j) for la, lb in pairs] for i, j, _ in resonances}

    def weigh(delta: int) -> dict[tuple[int, int], list[bool]]:
        table = Vanishing(z_s_values([la, lb], [xa, xb], r, nodes=[delta, 0]) for la, lb in pairs)
        return {(i, j): table.under(sub) for i, j, sub in resonances}

    vanishing = Memo(weigh)
    for na, nb in product(range(r), range(r)):
        delta = (na - nb) % r
        for i, j, _ in resonances:
            residue_ok = (i + j - 1 - delta) % r == 0
            for (la, lb), vanishes, adm in zip(pairs, vanishing[delta][i, j], admitted[i, j]):
                yield na, nb, i, j, la, lb, vanishes, adm, vanishes == (residue_ok and not adm)


def _int_list(fx: dict, key: str) -> list[int]:
    values = fx[key]
    if not isinstance(values, list):
        raise ValidationError(f'{fx["kind"]} "{key}" must be a list of integers, got {values!r}')
    return [require_int(v, f'{fx["kind"]} "{key}" entry') for v in values]


def _check_burge(fx: dict):
    r, max_size = require_int(fx["r"], 'burge "r"'), require_int(fx["max_size"], 'burge "max_size"')
    total = 0
    sweep = _burge_sweep(r, _int_list(fx, "i_values"), _int_list(fx, "j_values"), max_size)
    for na, nb, i, j, la, lb, _, _, ok in sweep:
        if not ok:
            return "fail", f"mismatch at nodes ({na},{nb}), (i,j)=({i},{j}), {la.parts} | {lb.parts}"
        total += 1
    return "pass", f"{total} configurations: vanishing == transpose-column condition"


def _check_pit(fx: dict):
    r, i_max, j_max, max_size = (require_int(fx[k], f'pit "{k}"') for k in ("r", "i_max", "j_max", "max_size"))
    if r < 1 or max_size < 0:
        raise ValidationError("pit check needs r >= 1 and max_size >= 0")
    if max(i_max, j_max, max_size) > BURGE_MAX_SIZE:
        raise ValidationError(f"pit check needs i_max, j_max and max_size <= {BURGE_MAX_SIZE}")
    pits = [(i, j) for i in range(1, i_max + 1) for j in range(1, j_max + 1) if (i + j - 1) % r == 0]
    if not pits:
        raise ValidationError("pit check needs a pit (i, j) with i <= i_max, j <= j_max and i + j - 1 divisible by r")
    unit = [Monomial.unit()]
    lams = partitions_up_to(max_size)
    table = Vanishing(z_s_values([lam], unit, r) for lam in lams)
    deviations = 0
    total = 0
    for i, j in pits:
        for lam, vanishes in zip(lams, table.under(Substitution(pit_resonance_sigma((i, j))))):
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
    """Replay the corpus in order; its fixtures share one table of expansions, Higgsings and limits for the run."""
    with shared_expansions():
        return VerifyReport([run_fixture(fx) for fx in load_corpus(directory)])
