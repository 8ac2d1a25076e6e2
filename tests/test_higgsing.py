from math import comb

import pytest

from qqkit.engine import WeightConfig, YMonomial, expand
from qqkit.errors import ValidationError, YCollision
from qqkit.higgsing import (
    ClassicalCharacter,
    KRSpec,
    classical_limit,
    factorize_check,
    fold_weights,
    higgs,
    kr_closed_form_A1,
    kr_params,
    kr_sigma,
)
from qqkit.monomial import Q, Q1, Q2, xparam
from qqkit.quiver import builtin_quiver

A1 = builtin_quiver("A1")
A2 = builtin_quiver("A2")
BC2 = builtin_quiver("BC2")


def test_kr_params():
    x = xparam("1", 1)
    assert kr_params(KRSpec("1", 2, 1, x), A1) == [x, x * Q1]
    assert kr_params(KRSpec("1", 3, 1, x), A1) == [x, x * Q1, x * Q1**2]
    assert kr_params(KRSpec("1", 2, 1, x), BC2) == [x, x * Q1**2]
    with pytest.raises(ValidationError, match="q2 ladder needs d = 1"):
        kr_params(KRSpec("1", 2, 2, x), BC2)  # q2^2 is no zero of S_2
    with pytest.raises(ValidationError):
        kr_sigma(BC2, "1", 2, 2)
    x2 = xparam("2", 1)
    assert kr_params(KRSpec("2", 2, 2, x2), BC2) == [x2, x2 * Q2]
    with pytest.raises(ValidationError):
        KRSpec("1", 0, 1, x)
    with pytest.raises(ValidationError):
        KRSpec("1", 2, 3, x)


def test_kr_sigma_validates_before_returning_an_empty_ladder():
    assert kr_sigma(A1, "1", 0) == kr_sigma(A1, "1", 1, 2) == {}
    for node, k, m in [("nope", 1, 1), ("1", 0, 7), ("1", -1, 1), ("1", 1, 2)]:
        with pytest.raises(ValidationError):
            kr_sigma(BC2 if m == 2 else A1, node, k, m)  # BC2 node 1 has d = 2: no q2 ladder


def test_theorem_ladder_reduction():
    for w in range(7):
        ch = expand(A1, WeightConfig.make(A1, {"1": w}))
        hg = higgs(ch, kr_sigma(A1, "1", w, 1))
        assert len(hg.terms) == w + 1
        assert hg.equals(kr_closed_form_A1(w))
        assert [p for _, _, p in hg.wc.entries] == [xparam("1", 1) * Q1**t for t in range(w)]


def test_fold_weights_takes_only_ladders_of_weight_parameters():
    wc = WeightConfig.make(A1, {"1": 3})
    x1, x2 = xparam("1", 1), xparam("1", 2)
    assert fold_weights(A1, wc, kr_sigma(A1, "1", 3)) == WeightConfig.make(
        A1, {"1": 3}, {("1", 2): x1 * Q1, ("1", 3): x1 * Q1**2}
    )
    assert fold_weights(A1, wc, {"x(1,2)": x1 * Q2**-1, "x(1,3)": x1 * Q2}) is not None  # a q2 ladder, any order
    assert fold_weights(A1, wc, {}) == wc
    assert fold_weights(A1, wc, {"q1": Q2}) is None  # not a weight parameter
    assert fold_weights(A1, wc, {"x(1,2)": x1}) is None  # coinciding parameters
    assert fold_weights(A1, wc, {"x(1,3)": x2, "x(1,2)": x1 * Q1}) is None  # fails specialize's image check
    assert fold_weights(A1, wc, {"x(1,2)": x1 * Q1, "x(1,3)": x1 * Q1**3}) is None  # a gap in the ladder
    assert fold_weights(A1, wc, {"x(1,2)": x1 * Q1, "x(1,3)": x1 * Q2}) is None  # two directions
    assert fold_weights(BC2, WeightConfig.make(BC2, {"1": 2}), {"x(1,2)": x1 * Q1}) is None  # the step is q1^d
    bc2 = WeightConfig.make(BC2, {"1": 1, "2": 1})
    assert fold_weights(BC2, bc2, {"x(2,1)": x1 * Q1**3 * Q2}) is None  # resonant across nodes


def test_theorem_classical_limits():
    fund = classical_limit(kr_closed_form_A1(1), "q1")
    for w in range(7):
        hg = kr_closed_form_A1(w)
        l1 = classical_limit(hg, "q1")
        assert sorted(l1.terms.values()) == sorted(comb(w, v) for v in range(w + 1))
        assert factorize_check(l1, [fund] * w)
        l2 = classical_limit(hg, "q2")
        assert len(l2.terms) == w + 1 and set(l2.terms.values()) <= {1}


def test_q1_q2_symmetry_of_simply_laced_ladders():
    def swap12(m):
        out = {}
        for g, e in m.exps:
            out[{"q1": "q2", "q2": "q1"}.get(g, g)] = e
        from qqkit.monomial import Monomial

        return Monomial(out)

    for Q_, node, wmap in [(A1, "1", {"1": 2}), (A2, "1", {"1": 2}), (A2, "2", {"2": 2})]:
        ch = expand(Q_, WeightConfig.make(Q_, wmap))
        hg1 = higgs(ch, kr_sigma(Q_, node, 2, 1))
        hg2 = higgs(ch, kr_sigma(Q_, node, 2, 2))
        swapped = {}
        for ym, c in hg1.terms.items():
            ym2 = YMonomial(tuple((n, swap12(a), e) for n, a, e in ym.entries))
            from qqkit.coefficient import Coefficient
            from qqkit.monomial import Monomial

            c2 = Coefficient.factored(
                c.integer, swap12(c.unit), [(swap12(a), p) for a, p in c.factors]
            )
            swapped[ym2] = c2
        assert set(swapped) == set(hg2.terms)
        for ym in swapped:
            assert swapped[ym] == hg2.terms[ym]


def test_higgs_dropped_terms_relabel_to_antifundamental():
    ch = expand(A2, WeightConfig.make(A2, {"1": 2}))
    hg = higgs(ch, kr_sigma(A2, "1", 2, 1))
    assert len(hg.terms) == 6
    dropped = hg.meta["dropped"]
    assert len(dropped) == 3
    x1 = xparam("1", 1)
    relabeled = {ym.substitute({"x(1,2)": x1 * Q}) for ym in dropped}
    ref = expand(A2, WeightConfig.make(A2, {"2": 1}, params={("2", 1): x1}))
    assert relabeled == set(ref.terms)


def test_higgs_counts():
    cases = [
        (A2, {"1": 2}, kr_sigma(A2, "1", 2, 1), 6),
        (A2, {"2": 2}, kr_sigma(A2, "2", 2, 1), 6),
        (BC2, {"1": 2}, kr_sigma(BC2, "1", 2, 1), 14),
        (BC2, {"2": 2}, kr_sigma(BC2, "2", 2, 1), 11),
    ]
    for Q_, w, sigma, n in cases:
        assert len(higgs(expand(Q_, WeightConfig.make(Q_, w)), sigma).terms) == n
    ch11 = expand(A2, WeightConfig.make(A2, {"1": 1, "2": 1}))
    xa, xb = xparam("1", 1), xparam("2", 1)
    assert len(higgs(ch11, {"x(2,1)": xa * Q1}).terms) == 8
    assert len(higgs(ch11, {"x(1,1)": xb * Q1}).terms) == 8
    assert len(higgs(ch11, {"x(1,1)": xb * Q1**2 * Q2}).terms) == 8


def test_higgs_collision_detected():
    from qqkit.coefficient import Coefficient
    from qqkit.engine import Character

    x1, x2 = xparam("1", 1), xparam("1", 2)
    ch = Character(
        A1,
        None,
        {
            YMonomial((("1", x1, 1),)): Coefficient.one(),
            YMonomial((("1", x2, 1),)): Coefficient.one(),
        },
    )
    with pytest.raises(YCollision):
        higgs(ch, {"x(1,2)": x1})


def test_classical_limit_merges_and_validates():
    hg = higgs(expand(A1, WeightConfig.make(A1, {"1": 2})), kr_sigma(A1, "1", 2, 1))
    l1 = classical_limit(hg, "q1")
    assert isinstance(l1, ClassicalCharacter)
    assert sorted(l1.terms.values()) == [1, 1, 2]
    with pytest.raises(ValidationError):
        classical_limit(hg, "mu")


def test_classical_character_equality():
    hg = higgs(expand(A1, WeightConfig.make(A1, {"1": 2})), kr_sigma(A1, "1", 2, 1))
    assert classical_limit(hg, "q1") == classical_limit(hg, "q1")
    terms = classical_limit(hg, "q1").terms
    assert ClassicalCharacter(dict(terms), "q1") != ClassicalCharacter(dict(terms), "q2")
    assert ClassicalCharacter(dict(terms), "q1") != ClassicalCharacter({YMonomial(): 1}, "q1")


def test_factorize_check_negative():
    hg = kr_closed_form_A1(2)
    l1 = classical_limit(hg, "q1")
    fund = classical_limit(kr_closed_form_A1(1), "q1")
    wrong = ClassicalCharacter({YMonomial(): 2}, "q1")
    assert factorize_check(l1, [fund, fund])
    assert not factorize_check(l1, [fund])
    assert not factorize_check(l1, [fund, wrong])


def test_kr_closed_form_edge_cases():
    assert len(kr_closed_form_A1(0).terms) == 1
    assert list(kr_closed_form_A1(0).terms)[0].is_unit
