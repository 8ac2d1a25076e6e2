import hashlib
import json
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from qqkit.coefficient import Coefficient, s_function, s_r
from qqkit.engine import Character, WeightConfig, YMonomial, expand, qdeg_of
from qqkit.errors import PoleError, ValidationError
from qqkit.higgsing import ClassicalCharacter, classical_limit, higgs, kr_sigma
from qqkit.monomial import Monomial, Q1, Q2, xparam
from qqkit.partitions import affine_character
from qqkit.quiver import Quiver, builtin_quiver
from qqkit.render import (
    _STREAM_BATCH,
    _Latex,
    character_from_json,
    character_latex,
    character_to_json,
    coeff_latex,
    default_names,
    edge_label,
    hasse_dot,
    json_document,
    json_stream,
    monomial_latex,
    render,
    s_candidates,
    s_decompose,
)

A1 = builtin_quiver("A1")
A2 = builtin_quiver("A2")
BC2 = builtin_quiver("BC2")
A0 = builtin_quiver("A0hat")


def sorted_terms(ch) -> list:
    return sorted(ch.terms, key=lambda y: y.sort_key())


def canonical_edges(ch) -> tuple:
    """The edges by the sort_key positions of source and target, then by node and argument."""
    pos = {ym: k for k, ym in enumerate(sorted_terms(ch))}
    return tuple(sorted(ch.edges, key=lambda e: (pos[e[0]], pos[e[1]], e[2][0], e[2][1].sort_key())))


def test_monomial_latex():
    m = xparam("1", 1) * Q1**-1 * Q2**2
    assert monomial_latex(m, {"x(1,1)": "x"}) == "q_1^{-1} q_2^{2} x"
    assert monomial_latex(m, {"x(1,1)": "x"}, ratio=True) == "\\frac{q_2^{2} x}{q_1}"
    assert monomial_latex(Monomial.unit()) == "1"


def _s_decompose_by_rounds(c: Coefficient):
    """Reference: each round re-derives the candidates from the remaining
    denominators, including the forms a q1^r q2 and their inverses, and
    peels the smallest one that fits."""
    integer, unit = c.integer, c.unit
    remaining = dict(c.factors)
    found: dict = {}
    progress = True
    while progress and remaining:
        progress = False
        candidates = sorted(
            (
                (r, z)
                for a, p in remaining.items()
                if p < 0
                for r in range(1, 4)
                for z in (a, a.inverse(), a * Q1**r * Q2, (a * Q1**r * Q2).inverse())
            ),
            key=lambda t: (sum(abs(e) for _, e in t[1].exps), t[0], t[1].sort_key()),
        )
        for r, z in candidates:
            try:
                s = s_r(r, z)
            except PoleError:
                continue
            if s.is_zero or any(
                abs(remaining.get(a, 0)) < abs(p) or remaining.get(a, 0) * p < 0 for a, p in s.factors
            ):
                continue
            for a, p in s.factors:
                remaining[a] -= p
                if remaining[a] == 0:
                    del remaining[a]
            integer //= s.integer
            unit = unit / s.unit
            found[r, z] = found.get((r, z), 0) + 1
            progress = True
            break
    return integer, unit, [(r, z, p) for (r, z), p in found.items()], tuple(remaining.items())


_small_monomials = st.dictionaries(
    st.sampled_from(["q1", "q2", "x(1,1)"]), st.integers(-3, 3), min_size=1, max_size=3
).map(Monomial).filter(lambda m: not m.is_unit)


@st.composite
def _s_products(draw):
    c = Coefficient.from_monomial(draw(_small_monomials), draw(st.sampled_from((1, -1, 2))))
    for r, z, p in draw(st.lists(st.tuples(st.integers(1, 3), _small_monomials, st.sampled_from((1, -1, 2, -2))), max_size=4)):
        try:
            c = c * s_r(r, z) ** p
        except (PoleError, ZeroDivisionError):  # a pole, or the inverse of an S-zero
            continue
    for a, p in draw(st.lists(st.tuples(_small_monomials, st.sampled_from((1, -1))), max_size=2)):
        c = c * Coefficient.factored(1, Monomial.unit(), [(a, p)])
    return c


@settings(max_examples=300, deadline=None)
@given(_s_products())
def test_s_decompose_round_trips(c):
    if c.is_zero:
        return
    n, unit, sprod, leftover = s_decompose(c)
    rebuilt = Coefficient.factored(n, unit, leftover)
    for r, z, p in sprod:
        rebuilt = rebuilt * s_r(r, z) ** p
    assert rebuilt == c
    assert (n, unit, sprod, leftover) == _s_decompose_by_rounds(c)
    # a table ranked with a coefficient that carries the factors of c's
    # candidates which c lacks, each with only the opposite sign: it drops
    # those candidates, and the result stays the same
    table = s_candidates([c, _opposite_factors(c)])
    assert s_decompose(c, table) == (n, unit, sprod, leftover)


def _opposite_factors(c: Coefficient) -> Coefficient:
    """The factors of c's S-candidates that c does not carry with their own
    sign, each with the opposite sign."""
    signs = {(a, p > 0) for a, p in c.powers.items()}
    flipped = {}
    for d in [a for a, p in c.powers.items() if p < 0]:
        for r in range(1, 4):
            for z in (d, d.inverse()):
                try:
                    s = s_r(r, z)
                except PoleError:
                    continue
                flipped.update((a, -p) for a, p in s.powers.items() if (a, p > 0) not in signs)
    return Coefficient.factored(1, Monomial.unit(), list(flipped.items()))


def test_the_table_drops_a_candidate_whose_factor_has_the_opposite_sign():
    x = xparam("1", 1)
    c = Coefficient.factored(1, Monomial.unit(), [(x, -1)])  # 1 / (1 - x): no S_r(z) fits
    s1 = s_r(1, x)
    opposite = Coefficient.factored(1, Monomial.unit(), [(a, -p) for a, p in s1.powers.items() if a != x])
    table = s_candidates([c, opposite])

    def kept():
        return {tuple(table.ranked[k][:2]) for ranks in table.at.values() for k in ranks}

    assert (1, x) in kept()
    assert s_decompose(c, table) == _s_decompose_by_rounds(c) == (1, Monomial.unit(), [], ((x, -1),))
    assert (1, x) not in kept()  # tried once, then dropped
    assert s_decompose(c, table) == _s_decompose_by_rounds(c)


def test_latex_adds_no_more_s_values_than_trying_every_candidate():
    # 77 entries: what rendering this LaTeX added to the s_r cache when every
    # candidate at a coefficient's denominators was tried through s_r
    ch = expand(BC2, WeightConfig.make(BC2, {"1": 2, "2": 2}))
    s_r.cache_clear()
    render(ch, "latex")
    assert s_r.cache_info().currsize <= 77


@settings(max_examples=200, deadline=None)
@given(_s_products(), st.lists(_s_products(), max_size=3), st.randoms(use_true_random=False))
def test_a_shared_candidate_table_changes_nothing(c, others, rnd):
    if c.is_zero:
        return
    coefficients = [c, *others]
    rnd.shuffle(coefficients)
    assert s_decompose(c, s_candidates(coefficients)) == _s_decompose_by_rounds(c)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_small_monomials | st.just(Monomial.unit()), st.booleans()), max_size=8))
def test_a_written_monomial_reads_as_a_fresh_one(calls):
    names = {"x(1,1)": "x"}
    latex = _Latex(names, [])
    for m, ratio in calls + calls:  # the second round reads what the first wrote
        assert latex.monomials[m, ratio] == monomial_latex(m, names, ratio)


def test_s_decompose_peels_whole_products():
    cases = [
        s_function(Q1**-1),
        s_r(2, Q1**-2),
        s_function(Q1**-1) * s_function(Q1**-2),
        s_function(Q1**-1) ** 2,
        s_r(2, Q1**-2) * s_r(2, Q1**-3 * Q2**-1),
    ]
    for c in cases:
        n, unit, sprod, leftover = s_decompose(c)
        assert not leftover
        rebuilt = Coefficient.factored(n, unit, [])
        for r, z, p in sprod:
            rebuilt = rebuilt * s_r(r, z) ** p
        assert rebuilt == c


def test_coeff_latex():
    assert coeff_latex(Coefficient.one()) == "1"
    assert coeff_latex(Coefficient.zero()) == "0"
    assert coeff_latex(s_function(Q1**-1)) == "\\mathscr{S}\\qty(q_1^{-1})"
    assert coeff_latex(s_r(2, Q1**-1)) == "\\mathscr{S}_{2}\\qty(q_1^{-1})"
    assert coeff_latex(Coefficient.from_monomial(Monomial.unit(), -2)) == "-2"
    x, names = xparam("1", 1), {"x(1,1)": "x"}
    assert coeff_latex(-s_function(Q1**-1)) == "- \\mathscr{S}\\qty(q_1^{-1})"
    # binomials that no S_r(z) peels: a numerator alone, or a fraction
    assert coeff_latex(Coefficient.factored(1, Monomial.unit(), [(x, 1)]), names) == "(1 - x)^{1}"
    assert coeff_latex(Coefficient.factored(3, Q1, [(x, -1)]), names) == "3 q_1 \\frac{1}{(1 - x)^{1}}"
    assert (
        coeff_latex(Coefficient.factored(1, Monomial.unit(), [(x, 2), (x * Q1, -1)]), names)
        == "\\frac{(1 - x)^{2}}{(1 - q_1 x)^{1}}"
    )
    # general values
    assert coeff_latex(Coefficient.general({Q1: 2, Q2: 1}, ())) == "2 q_1 + q_2"
    assert coeff_latex(Coefficient.general({Q1: 1, Q2: 1}, [(x, 1)]), names) == "\\frac{q_1 + q_2}{(1 - x)^{1}}"
    # a signed sum: a unit monomial prints as its integer, and a factor 1 or -1 is dropped
    assert (
        coeff_latex(s_function(Q1**-1) + Coefficient.one())
        == "\\frac{2 + q_1 - q_1 q_2 - 2 q_1^{2} q_2}{(1 - q_1^{2} q_2)^{1}}"
    )
    assert coeff_latex(Coefficient.general({Q1: -1, Monomial.unit(): -3}, ())) == "-3 - q_1"


def test_leftover_factors_come_in_argument_order():
    x, y, names = xparam("1", 1), xparam("1", 2), {"x(1,1)": "x", "x(1,2)": "y"}

    def binomial(a, p):
        return Coefficient.factored(1, Monomial.unit(), [(a, p)])

    built = [
        s_function(y / x) * binomial(x, 2) * binomial(x * Q1, -1) * binomial(y, 1),
        binomial(y, 1) * binomial(x * Q1, -1) * binomial(x, 2) * s_function(y / x),
    ]
    for c in built:
        assert s_decompose(c) == (1, Monomial.unit(), [(1, y / x, 1)], ((x * Q1, -1), (x, 2), (y, 1)))
        assert coeff_latex(c, names) == "\\mathscr{S}\\qty(\\frac{y}{x}) \\frac{(1 - x)^{2} (1 - y)^{1}}{(1 - q_1 x)^{1}}"


def test_character_latex_golden():
    ch = expand(A1, WeightConfig.make(A1, {"1": 2}))
    golden = (
        "\\frac{1}{\\mathsf{Y}_{x_{1};1,1} \\mathsf{Y}_{x_{2};1,1}}"
        " + \\mathscr{S}\\qty(\\frac{x_{2}}{x_{1}}) \\frac{\\mathsf{Y}_{x_{2}}}{\\mathsf{Y}_{x_{1};1,1}}"
        " + \\mathscr{S}\\qty(\\frac{x_{1}}{x_{2}}) \\frac{\\mathsf{Y}_{x_{1}}}{\\mathsf{Y}_{x_{2};1,1}}"
        " + \\mathsf{Y}_{x_{1}} \\mathsf{Y}_{x_{2}}"
    )
    assert character_latex(ch) == golden
    hg = higgs(ch, kr_sigma(A1, "1", 2, 1))
    golden_kr = (
        "\\frac{1}{\\mathsf{Y}_{x;1,1} \\mathsf{Y}_{x;2,1}}"
        " + \\mathsf{Y}_{x;1,0} \\mathsf{Y}_{x}"
        " + \\mathscr{S}\\qty(q_1^{-1}) \\frac{\\mathsf{Y}_{x}}{\\mathsf{Y}_{x;2,1}}"
    )
    assert character_latex(hg) == golden_kr


# sha256 of render(ch, "latex") for the generic characters whose LaTeX the
# finite bench workload renders, as written before the S-candidates were
# ranked once per character
LATEX_DIGESTS = {
    ("A1", (("1", 6),)): "3b244cf96d9e27a9bedba4882c8a727aba1da244c9cb2a9f4c2cc190ef3ba1ec",
    ("A2", (("1", 2), ("2", 2))): "49e649bd9ee3666eb9c9114d130e24a189cd0fb823843d11db1285ae9881438d",
    ("BC2", (("1", 2), ("2", 1))): "249d11a6a5d4e6cbd784278eb65ed46c941ddb1b6cc8107b6510cf4b4b157ae1",
    ("BC2", (("1", 2), ("2", 2))): "ab78dc2622f384100ba269b23cf82db5679af4076c171b440833ba4a1262cb25",
}


@pytest.mark.parametrize("quiver, w", list(LATEX_DIGESTS), ids=lambda v: v if isinstance(v, str) else "".join(str(k) for _, k in v))
def test_latex_bytes_are_pinned(quiver, w):
    Q_ = builtin_quiver(quiver)
    doc = render(expand(Q_, WeightConfig.make(Q_, dict(w))), "latex")
    assert hashlib.sha256(doc.encode()).hexdigest() == LATEX_DIGESTS[quiver, w]


def test_edge_label_shorthand():
    x = xparam("1", 1)
    names = {"x(1,1)": "x1"}
    assert edge_label("1", x, names) == "1,x1"
    assert edge_label("2", x * Q1 * Q2, names) == "2,x1;1,1"
    assert edge_label("1", x * Q1**2, names) == "1,x1;2,0"


def test_hasse_dot_structure():
    ch = expand(A2, WeightConfig.make(A2, {"1": 2}))
    dot = hasse_dot(ch)
    assert dot.startswith("digraph hasse {")
    assert dot.count(" -> ") == 12
    assert dot.count("[label=") == 9 + 12


def test_character_json_round_trip():
    chars = [
        expand(A1, WeightConfig.make(A1, {"1": 2})),
        higgs(expand(A2, WeightConfig.make(A2, {"1": 2})), kr_sigma(A2, "1", 2, 1)),
        expand(BC2, WeightConfig.make(BC2, {"1": 1})),
        affine_character(A0, WeightConfig.make(A0, {"0": 1}), 2),
    ]
    for ch in chars:
        rt = character_from_json(json.loads(character_to_json(ch)))
        assert set(rt.terms) == set(ch.terms)
        for ym in ch.terms:
            assert rt.terms[ym] == ch.terms[ym]
        assert rt.edges == canonical_edges(ch)
        assert rt.quiver.nodes == ch.quiver.nodes
        if ch.wc is not None:
            assert rt.wc == ch.wc


def _set_first_y_exponent(doc, value):
    doc["terms"][0]["ym"][0]["exp"] = value


def _set_first_factor_power(doc, value):
    next(t["coeff"] for t in doc["terms"] if t["coeff"]["factors"])["factors"][0]["pow"] = value


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda doc: _set_first_y_exponent(doc, 2.7), "Y exponent must be an integer, got 2.7"),
        (lambda doc: doc["terms"][0]["coeff"].update(int="3"), "coefficient \"int\" must be an integer, got '3'"),
        (lambda doc: _set_first_factor_power(doc, True), 'factor "pow" must be an integer, got True'),
        (lambda doc: _set_first_factor_power(doc, 0.5), 'factor "pow" must be an integer, got 0.5'),
        (lambda doc: doc["weights"][0].update(alpha=1.9), 'weight "alpha" must be an integer, got 1.9'),
        (lambda doc: doc["terms"][0].update(ym=[{}]), "malformed Y-monomial JSON (KeyError: 'node')"),
        (lambda doc: doc.update(terms=5), "malformed character JSON (TypeError: 'int' object is not iterable)"),
        (lambda doc: doc["terms"][0].update(coeff=5), "malformed coefficient JSON (TypeError: "),
        (lambda doc: doc["terms"][0].update(coeff={"num": [[{}]], "den": []}), "malformed coefficient JSON (ValueError: "),
        (lambda doc: doc["edges"][0].pop("label"), "malformed character JSON (KeyError: 'label')"),
        (lambda doc: doc["quiver"].update(name={"a": 1}), "quiver name must be a string, got {'a': 1}"),
    ],
    ids=["exp-float", "int-str", "pow-bool", "pow-half", "alpha-float", "ym-empty", "terms-int", "coeff-int",
         "num-short", "edge-no-label", "name-dict"],
)
def test_a_malformed_character_document_is_a_validation_error(corrupt, message):
    # int() would read 2.7 as 2, "3" as 3, true as 1 and 0.5 as 0 (dropping the factor), and a
    # missing key or a wrong shape would reach the caller as a KeyError or a TypeError
    doc = json.loads(character_to_json(expand(A1, WeightConfig.make(A1, {"1": 2}))))
    corrupt(doc)
    with pytest.raises(ValidationError) as exc:
        character_from_json(doc)
    assert str(exc.value).startswith(message)


@pytest.mark.parametrize(
    "quiver, w, kw",
    [("BC2", {"1": 2, "2": 2}, {}), ("A0hat", {"0": 2}, {"max_qdeg": 5})],
    ids=["BC2-22", "A0hat-2"],
)
def test_a_parsed_character_renders_as_the_original(quiver, w, kw):
    # parsing builds every coefficient through Coefficient.factored, in the order of its JSON factors
    Q_ = builtin_quiver(quiver)
    ch = expand(Q_, WeightConfig.make(Q_, w), **kw)
    data = json.loads(render(ch, "json"))
    reversed_data = json.loads(render(ch, "json"))
    for t in reversed_data["terms"]:
        t["coeff"]["factors"].reverse()
    for rt in (character_from_json(data), character_from_json(reversed_data)):
        for fmt in ("json", "latex", "text"):
            assert render(rt, fmt) == render(ch, fmt)


def test_character_json_edges_index_the_terms_as_written():
    ch = expand(A1, WeightConfig.make(A1, {"1": 2}))
    data = json.loads(character_to_json(ch))
    n = len(data["terms"])
    data["terms"].reverse()
    for e in data["edges"]:
        e["src"], e["dst"] = n - 1 - e["src"], n - 1 - e["dst"]
    rt = character_from_json(data)
    assert rt.equals(ch)
    assert set(rt.edges) == set(ch.edges)
    for bad in (n, -1, 0.0):
        data["edges"][0]["dst"] = bad
        with pytest.raises(ValidationError):
            character_from_json(data)


@lru_cache(maxsize=None)
def _rendered_characters() -> tuple:
    a2 = expand(A2, WeightConfig.make(A2, {"1": 2}))
    kr = higgs(expand(BC2, WeightConfig.make(BC2, {"1": 2})), kr_sigma(BC2, "1", 2, 1))
    return (
        expand(A1, WeightConfig.make(A1, {"1": 3})),
        expand(A2, WeightConfig.make(A2, {"1": 1, "2": 1})),
        expand(BC2, WeightConfig.make(BC2, {"1": 1, "2": 1})),
        expand(A0, WeightConfig.make(A0, {"0": 1}), max_qdeg=3),
        a2,
        higgs(a2, kr_sigma(A2, "1", 2, 1)),
        kr,
        classical_limit(kr, "q1"),
        affine_character(A0, WeightConfig.make(A0, {"0": 1}), 2),
    )


def _reordered(ch, rnd):
    """The same character with its terms dict and edges tuple in a shuffled order."""
    terms = list(ch.terms.items())
    rnd.shuffle(terms)
    if isinstance(ch, ClassicalCharacter):
        return ClassicalCharacter(dict(terms), ch.which)
    edges = list(ch.edges)
    rnd.shuffle(edges)
    return Character(ch.quiver, ch.wc, dict(terms), tuple(edges), ch.meta)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.randoms(use_true_random=False))
def test_every_format_lists_terms_and_edges_in_canonical_order(data, rnd):
    ch = data.draw(st.sampled_from(_rendered_characters()), label="character")
    order = sorted_terms(ch)
    classical = isinstance(ch, ClassicalCharacter)
    formats = ("json", "latex", "text") if classical else ("json", "latex", "dot", "text")
    docs = {fmt: render(ch, fmt) for fmt in formats}
    # the bytes do not depend on the order the terms and edges were built in
    assert {fmt: render(_reordered(ch, rnd), fmt) for fmt in formats} == docs

    if classical:
        assert docs["text"] == "".join(f"{ch.terms[ym]:>6d}  {ym!r}\n" for ym in order)
        assert [YMonomial.from_json(t["ym"]) for t in json.loads(docs["json"])["terms"]] == order
        return
    assert docs["text"] == "".join(f"{ch.terms[ym]!r}  *  {ym!r}\n" for ym in order)
    names = default_names(ch)
    one_term = [character_latex(Character(ch.quiver, ch.wc, {ym: ch.terms[ym]}), names) for ym in order]
    assert docs["latex"] == " + ".join(one_term) + "\n"
    doc = json.loads(docs["json"])
    if "series" in doc:  # a partition sum: terms by counting degree, each degree in sort_key order
        for block in doc["series"]:
            yms = [YMonomial.from_json(t["ym"]) for t in block["terms"]]
            assert yms == sorted(yms, key=lambda y: y.sort_key())
        return
    assert [YMonomial.from_json(t["ym"]) for t in doc["terms"]] == order
    pos = {ym: k for k, ym in enumerate(order)}
    edges = canonical_edges(ch)
    assert [(e["src"], e["dst"]) for e in doc["edges"]] == [(pos[s], pos[d]) for s, d, _ in edges]
    assert [(e["label"]["node"], e["label"]["arg"]) for e in doc["edges"]] == [(i, x.to_json()) for _, _, (i, x) in edges]
    arrows = [ln.split(" [")[0].strip() for ln in docs["dot"].splitlines() if " -> " in ln]
    assert arrows == [f"n{pos[s]} -> n{pos[d]}" for s, d, _ in edges]


# The documents as plain data, built with the objects' own to_json: the
# reference that render's JSON, assembled from pieces encoded once, must
# equal byte for byte once json.dumps encodes it.


def _character_data(ch) -> dict:
    order = sorted_terms(ch)
    idx = {ym: k for k, ym in enumerate(order)}
    data = {
        "quiver": ch.quiver.to_json() | ({"name": ch.quiver.name} if ch.quiver.name else {}),
        "terms": [{"ym": ym.to_json(), "coeff": ch.terms[ym].to_json()} for ym in order],
        "edges": [
            {"src": idx[s], "dst": idx[d], "label": {"node": i, "arg": x.to_json()}}
            for s, d, (i, x) in canonical_edges(ch)
        ],
    }
    if ch.wc is not None:
        data["weights"] = [{"node": i, "alpha": a, "param": p.to_json()} for i, a, p in ch.wc.entries]
    return data


def _series_data(ch) -> dict:
    series: dict = {}
    for ym in sorted_terms(ch):
        c = ch.terms[ym]
        series.setdefault(qdeg_of(c), []).append({"ym": ym.to_json(), "coeff": c.to_json()})
    return {"series": [{"qdeg": d, "terms": series[d]} for d in sorted(series)]}


def _document_data(ch) -> dict:
    if isinstance(ch, ClassicalCharacter):
        return {"limit": ch.which, "terms": [{"ym": ym.to_json(), "coeff": ch.terms[ym]} for ym in sorted_terms(ch)]}
    if ch.meta.get("closed_form") == "affine":
        return _series_data(ch)
    return _character_data(ch)


ESCAPED_ID = 'é"1'


@lru_cache(maxsize=None)
def _json_oracle_characters() -> tuple:
    escaped = Quiver.from_json({"nodes": [{"id": ESCAPED_ID}], "edges": []})
    # a general value: a signed sum over a binomial, as a JSON document may hold it
    general = character_from_json({
        "quiver": A1.to_json(),
        "terms": [
            {"ym": [{"node": "1", "arg": {"x(1,1)": 1}, "exp": 1}],
             "coeff": {"num": [[{"q1": 1}, 2], [{}, -1]], "den": [{"arg": {"x(1,1)": 1}, "pow": 1}]}},
            {"ym": [], "coeff": {"int": -3, "unit": {"q2": 1}, "factors": [{"arg": {"q1": 1}, "pow": -2}]}},
        ],
        "edges": [{"src": 0, "dst": 1, "label": {"node": "1", "arg": {"x(1,1)": 1}}}],
    })
    kr = higgs(expand(A1, WeightConfig.make(A1, {"1": 3})), kr_sigma(A1, "1", 3, 1))
    return (
        *_rendered_characters(),
        expand(escaped, WeightConfig.make(escaped, {ESCAPED_ID: 1})),
        general,
        classical_limit(kr, "q2"),
        affine_character(builtin_quiver("Arhat(2)"), WeightConfig.make(builtin_quiver("Arhat(2)"), {"0": 1, "1": 1}), 2),
    )


def test_json_documents_equal_the_encoded_reference_data():
    kinds = set()
    for ch in _json_oracle_characters():
        assert render(ch, "json") == json.dumps(_document_data(ch)) + "\n"
        if not isinstance(ch, ClassicalCharacter):
            kinds.update(c.kind for c in ch.terms.values())
    assert kinds == {"factored", "general"}


def _old_document(ch) -> str:
    """A document as qqkit wrote it before: edges in build order, indented by one space."""
    data = _character_data(ch)
    pos = {ym: k for k, ym in enumerate(sorted_terms(ch))}
    data["edges"] = [
        {"src": pos[s], "dst": pos[d], "label": {"node": i, "arg": x.to_json()}} for s, d, (i, x) in ch.edges
    ]
    return json.dumps(data, indent=1) + "\n"


def test_old_indented_documents_parse_like_new_ones():
    for ch in _rendered_characters():
        if isinstance(ch, ClassicalCharacter) or "closed_form" in ch.meta:
            continue
        old, new = _old_document(ch), render(ch, "json")
        rt_old = character_from_json(json.loads(old))
        rt_new = character_from_json(json.loads(new))
        assert rt_old.terms == rt_new.terms == ch.terms
        assert set(rt_old.edges) == set(rt_new.edges) == set(ch.edges)
        assert rt_old.wc == rt_new.wc == ch.wc
        assert render(rt_old, "json") == new


_json_leaf = st.none() | st.booleans() | st.integers(-5, 5) | st.text(max_size=3)
_json_values = st.recursive(
    _json_leaf, lambda v: st.lists(v, max_size=3) | st.dictionaries(st.text(max_size=2), v, max_size=3), max_leaves=6
)


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(st.sampled_from("abc"), _json_values, max_size=3),
    st.lists(_json_values, max_size=6),
    st.dictionaries(st.sampled_from("xyz"), _json_values, max_size=2),
)
def test_a_streamed_document_reads_as_a_whole_one(head, items, tail):
    streamed = "".join(json_stream(head, "pairs", iter(items), lambda: tail))
    assert streamed == json_document(head | {"pairs": items} | tail)


@pytest.mark.parametrize("n", [0, 1, _STREAM_BATCH, _STREAM_BATCH + 1, 2 * _STREAM_BATCH + 3])
def test_a_streamed_list_crosses_its_batches(n):
    written = []

    def items():
        for k in range(n):
            written.append(k)
            yield {"k": k}

    streamed = "".join(json_stream({"r": 1}, "pairs", items(), lambda: {"count": len(written)}))
    assert streamed == json_document({"r": 1, "pairs": [{"k": k} for k in range(n)], "count": n})
