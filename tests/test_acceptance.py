"""Acceptance gate: replay the identity corpus and the property suites.

Each criterion prints one PASS/FAIL line.  Every comparison is exact
symbolic equality; there are no numeric tolerances anywhere.
"""

import ast
import json
import random
import sys
from pathlib import Path

import pytest

from qqkit.coefficient import Coefficient, s_function, s_product, s_r
from qqkit.engine import WeightConfig, expand
from qqkit.monomial import Monomial, Q, Q1
from qqkit.quiver import builtin_quiver
from qqkit.render import character_from_json, character_to_json
from qqkit.verify import run_corpus


@pytest.fixture(scope="module")
def report():
    return run_corpus()


def _statuses(report, ids):
    got = {e.id: e.status for e in report.entries}
    missing = [i for i in ids if i not in got]
    assert not missing, f"fixtures missing from corpus: {missing}"
    return {i: got[i] for i in ids}


def _require(report, ids, criterion, allow_flag=()):
    st = _statuses(report, ids)
    bad = {i: s for i, s in st.items() if s != "pass" and not (s == "flag" and i in allow_flag)}
    line = f"criterion {criterion}: " + ("PASS" if not bad else f"FAIL {bad}")
    print(line)
    assert not bad, line


def test_criterion_1_a1_expansions(report):
    _require(
        report,
        [
            "a1-w1-fundamental",
            "a1-w2-generic",
            "a1-w3-generic",
            "a1-w3-seventh-monomial-text",
            "a1-closed-form-w6",
        ],
        criterion="1 (A1 expansions, 2^w closed form, flagged misprint)",
        allow_flag=("a1-w3-seventh-monomial-text",),
    )


def test_criterion_2_kr_ladders(report):
    _require(
        report,
        ["a1-kr-ladder-w6", "a1-w2-kr-q1", "a1-w2-kr-q2", "a1-w3-kr-q1"],
        criterion="2 (ladder specialization, w+1 terms, exact coefficients)",
    )


def test_criterion_3_classical_limits(report):
    _require(
        report,
        [
            "a1-w2-kr-limit-q1",
            "a1-w2-kr-limit-q2",
            "a1-w3-kr-limit-q1",
            "a1-w3-kr-limit-q2",
            "a1-w2-kr-limit-q1-square",
        ],
        criterion="3 (binomial q1 limits, power factorization, unit q2 limits)",
    )


def test_criterion_4_a2(report):
    _require(
        report,
        [
            "a2-fundamental-10",
            "a2-fundamental-01",
            "a2-w20-generic-count",
            "a2-w02-generic-count",
            "a2-w11-generic",
            "a2-w20-kr",
            "a2-w02-kr",
            "a2-w11-spec-a",
            "a2-w11-spec-b",
            "a2-w11-spec-c",
            "a2-w20-dropped-is-antifundamental",
            "a2-w20-kr-limit-q1",
            "a2-w20-kr-limit-q2",
            "a2-w20-kr-limit-q1-square",
            "a2-w02-kr-limit-q1",
            "a2-w02-kr-limit-q2",
            "a2-w02-kr-limit-q1-square",
            "a2-w11-a-limit-q1",
            "a2-w11-a-limit-q2",
            "a2-w11-a-limit-q1-product",
            "a2-w11-b-limit-q1-product",
            "a2-w11-b-limit-q2-product",
            "a2-w11-c-limit-q1-product",
            "a2-w11-c-limit-q2",
        ],
        criterion="4 (A2 counts 9/9/9, reductions 6/6/8, drop set, six limits)",
    )


def test_criterion_5_bc2(report):
    _require(
        report,
        [
            "bc2-fundamental-10",
            "bc2-fundamental-01",
            "bc2-w20-generic-count",
            "bc2-w02-generic-count",
            "bc2-w11-generic-count",
            "bc2-w20-kr",
            "bc2-w02-kr",
            "bc2-w11-spec-a",
            "bc2-w11-spec-b",
            "bc2-w20-kr-limit-q1",
            "bc2-w20-kr-limit-q2",
            "bc2-w20-kr-limit-q1-square",
            "bc2-w02-kr-limit-q1",
            "bc2-w02-kr-limit-q2",
            "bc2-w02-kr-limit-q1-square",
            "bc2-w11-a-limit-q1-product",
            "bc2-w11-b-limit-q1-product",
            "bc2-w11-a-limit-q2",
            "bc2-w11-b-limit-q2",
            "bc2-w20-kr-denominator-text-1",
            "bc2-w20-kr-denominator-text-2",
            "bc2-w11-a-limit-denominator-text",
        ],
        criterion="5 (BC2 counts 25/16/20, reductions, limits, flagged misprints)",
        allow_flag=(
            "bc2-w20-kr-denominator-text-1",
            "bc2-w20-kr-denominator-text-2",
            "bc2-w11-a-limit-denominator-text",
        ),
    )


def test_criterion_6_hasse(report):
    _require(
        report,
        [
            "hasse-a2-w20",
            "hasse-a2-w02",
            "hasse-a2-w11",
            "hasse-bc2-w20",
            "hasse-bc2-w02",
            "hasse-bc2-w11",
        ],
        criterion="6 (reflection-flow graphs: node/edge counts and label multisets)",
    )


def test_criterion_7_affine_oracle(report):
    _require(
        report,
        ["a0hat-w1-deg1", "a0hat-w1-oracle-deg3", "a0hat-w2-oracle-deg2", "a1hat-w10-oracle-deg2"],
        criterion="7 (partition sum == reflection engine on affine quivers)",
    )


def test_criterion_8_resonance_truncations(report):
    st = _statuses(report, ["burge-r1-desk", "burge-r2-desk", "pit-r1-desk", "pit-r2-desk"])
    ok = (
        st["burge-r1-desk"] == "pass"
        and st["burge-r2-desk"] == "pass"
        and st["pit-r1-desk"] in ("pass", "flag")
        and st["pit-r2-desk"] in ("pass", "flag")
    )
    line = "criterion 8: " + ("PASS" if ok else f"FAIL {st}")
    print(line)
    assert ok, line


def test_criterion_9a_s_identities():
    rng = random.Random(90817)
    gens = ["q1", "q2", "mu", "x(1,1)", "x(1,2)"]
    checked = 0
    while checked < 1000:
        z = Monomial({g: rng.randint(-4, 4) for g in rng.sample(gens, rng.randint(1, 3))})
        if z.is_unit or z == Q:
            continue
        assert s_function(z) == s_function(Q * z.inverse())
        checked += 1
    for _ in range(100):
        z = Monomial({g: rng.randint(-3, 3) for g in rng.sample(gens, 2)})
        for r in (1, 2, 3):
            factors_defined = all(
                not (z * Q1**-s).is_unit and z * Q1**-s != Q for s in range(r)
            )
            if not factors_defined:
                continue
            assert s_r(r, z) == s_product(r, z)
    print("criterion 9a: PASS (inversion x1000, degree-r product identities)")


def test_criterion_9b_ring_axioms():
    rng = random.Random(424242)
    gens = ["q1", "q2", "x(1,1)"]

    def rand_coeff():
        n = rng.choice([-2, -1, 1, 2, 3])
        unit = Monomial({g: rng.randint(-1, 1) for g in gens})
        fac = []
        for _ in range(rng.randint(0, 2)):
            m = Monomial({g: rng.randint(-2, 2) for g in rng.sample(gens, 2)})
            if not m.is_unit:
                fac.append((m, rng.choice([-1, 1])))
        return Coefficient.factored(n, unit, fac)

    for _ in range(120):
        a, b, c = rand_coeff(), rand_coeff(), rand_coeff()
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
    print("criterion 9b: PASS (ring axioms on random coefficient triples)")


def test_criterion_9c_path_independence_counter():
    total_checks = 0
    for name, w in [
        ("A1", {"1": 6}),
        ("A2", {"1": 2}),
        ("A2", {"1": 1, "2": 1}),
        ("BC2", {"1": 2}),
        ("BC2", {"2": 2}),
        ("BC2", {"1": 1, "2": 1}),
    ]:
        Q_ = builtin_quiver(name)
        ch = expand(Q_, WeightConfig.make(Q_, w))
        total_checks += ch.meta["path_checks"]
    A0 = builtin_quiver("A0hat")
    ch = expand(A0, WeightConfig.make(A0, {"0": 2}), max_qdeg=3)
    total_checks += ch.meta["path_checks"]
    assert total_checks > 100
    print(f"criterion 9c: PASS ({total_checks} multi-parent coefficient checks, zero mismatches)")


def test_criterion_9d_character_json_round_trip():
    for name, w, kw in [
        ("A1", {"1": 3}, {}),
        ("BC2", {"1": 1, "2": 1}, {}),
        ("A0hat", {"0": 1}, {"max_qdeg": 2}),
    ]:
        Q_ = builtin_quiver(name)
        ch = expand(Q_, WeightConfig.make(Q_, w), **kw)
        rt = character_from_json(json.loads(character_to_json(ch)))
        assert set(rt.terms) == set(ch.terms)
        for ym in ch.terms:
            assert rt.terms[ym] == ch.terms[ym]
        # edges come back in canonical order: by the sort_key positions of their ends, then by label
        pos = {ym: k for k, ym in enumerate(sorted(ch.terms, key=lambda y: y.sort_key()))}
        key = lambda e: (pos[e[0]], pos[e[1]], e[2][0], e[2][1].sort_key())
        assert rt.edges == tuple(sorted(ch.edges, key=key))
    print("criterion 9d: PASS (character JSON round trip is the identity)")


def test_corpus_runtime_and_health(report):
    total = sum(e.seconds for e in report.entries)
    assert report.counts["fail"] == 0
    assert total < 60.0, f"corpus took {total:.1f}s"
    print(
        f"corpus: {report.counts['pass']} pass, {report.counts['flag']} flagged misprints, "
        f"{report.counts['fail']} fail in {total:.1f}s"
    )


# status, id and detail of every fixture, one line each; a change that alters a
# detail on purpose rewrites this file and says why
VERIFY_LISTING = Path(__file__).with_name("verify_listing.txt")


def _listing(report) -> str:
    return "".join(f"{e.status} {e.id} {e.detail}\n" for e in report.entries)


def test_corpus_reproduces_the_verify_listing(report):
    assert _listing(report).splitlines() == VERIFY_LISTING.read_text(encoding="utf-8").splitlines()


if __name__ == "__main__":  # PYTHONPATH=src python tests/test_acceptance.py rewrites the listing
    VERIFY_LISTING.write_text(_listing(run_corpus()), encoding="utf-8")


def test_the_package_imports_only_the_standard_library():
    src = Path(__file__).resolve().parents[1] / "src" / "qqkit"
    outside = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside.update(
                (path.name, name) for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names | {"qqkit"}
            )
    assert not outside
