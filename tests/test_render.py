from qqkit.coefficient import Coefficient, s_function, s_r
from qqkit.engine import WeightConfig, expand
from qqkit.higgsing import higgs, kr_sigma
from qqkit.monomial import Monomial, Q1, Q2, xparam
from qqkit.partitions import affine_character
from qqkit.quiver import builtin_quiver
from qqkit.render import (
    character_from_json,
    character_latex,
    character_to_json,
    coeff_latex,
    edge_label,
    hasse_dot,
    monomial_latex,
    s_decompose,
)

A1 = builtin_quiver("A1")
A2 = builtin_quiver("A2")
BC2 = builtin_quiver("BC2")
A0 = builtin_quiver("A0hat")


def test_monomial_latex():
    m = xparam("1", 1) * Q1**-1 * Q2**2
    assert monomial_latex(m, {"x(1,1)": "x"}) == "q_1^{-1} q_2^{2} x"
    assert monomial_latex(m, {"x(1,1)": "x"}, ratio=True) == "\\frac{q_2^{2} x}{q_1}"
    assert monomial_latex(Monomial.unit()) == "1"


def test_s_decompose_round_trips():
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


def test_character_latex_golden():
    ch = expand(A1, WeightConfig.make(A1, {"1": 2}))
    golden = (
        "\\mathsf{Y}_{x_{1}} \\mathsf{Y}_{x_{2}}"
        " + \\mathscr{S}\\qty(\\frac{x_{2}}{x_{1}}) \\frac{\\mathsf{Y}_{x_{2}}}{\\mathsf{Y}_{x_{1};1,1}}"
        " + \\mathscr{S}\\qty(\\frac{x_{1}}{x_{2}}) \\frac{\\mathsf{Y}_{x_{1}}}{\\mathsf{Y}_{x_{2};1,1}}"
        " + \\frac{1}{\\mathsf{Y}_{x_{1};1,1} \\mathsf{Y}_{x_{2};1,1}}"
    )
    assert character_latex(ch) == golden
    hg = higgs(ch, kr_sigma(A1, "1", 2, 1))
    golden_kr = (
        "\\mathsf{Y}_{x;1,0} \\mathsf{Y}_{x}"
        " + \\mathscr{S}\\qty(q_1^{-1}) \\frac{\\mathsf{Y}_{x}}{\\mathsf{Y}_{x;2,1}}"
        " + \\frac{1}{\\mathsf{Y}_{x;1,1} \\mathsf{Y}_{x;2,1}}"
    )
    assert character_latex(hg) == golden_kr


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
        rt = character_from_json(character_to_json(ch))
        assert set(rt.terms) == set(ch.terms)
        for ym in ch.terms:
            assert rt.terms[ym] == ch.terms[ym]
        assert rt.edges == ch.edges
        assert rt.quiver.nodes == ch.quiver.nodes
        if ch.wc is not None:
            assert rt.wc == ch.wc
