from collections import Counter
from fractions import Fraction
from math import comb, prod

import pytest

from qqkit import coefficient
from qqkit.coefficient import Coefficient, Substitution
from qqkit.engine import Character, WeightConfig, YMonomial, expand
from qqkit.errors import NonIntegerLimit, ValidationError, YCollision
from qqkit.higgsing import (
    ClassicalCharacter,
    classical_limit,
    classical_product,
    factorize_check,
    fold_weights,
    higgs,
    kr_closed_form_A1,
    kr_params,
    kr_sigma,
)
from qqkit.job import Job
from qqkit.monomial import Monomial, Q, Q1, Q2, xparam
from qqkit.quiver import Quiver, builtin_quiver, classical_cartan

A1 = builtin_quiver("A1")
A2 = builtin_quiver("A2")
BC2 = builtin_quiver("BC2")


def test_kr_params():
    x = xparam("1", 1)
    assert kr_params(A1, "1", 2, 1, x) == [x, x * Q1]
    assert kr_params(A1, "1", 3) == [x, x * Q1, x * Q1**2]
    assert kr_params(BC2, "1", 2, 1, x) == [x, x * Q1**2]
    with pytest.raises(ValidationError, match="q2 ladder needs d = 1"):
        kr_params(BC2, "1", 2, 2, x)  # q2^2 is no zero of S_2
    with pytest.raises(ValidationError):
        kr_sigma(BC2, "1", 2, 2)
    x2 = xparam("2", 1)
    assert kr_params(BC2, "2", 2, 2, x2) == [x2, x2 * Q2]
    assert kr_params(A1, "1", 0, 1, x) == []
    with pytest.raises(ValidationError):
        kr_params(A1, "1", -1, 1, x)
    with pytest.raises(ValidationError):
        kr_params(A1, "1", 2, 3, x)
    with pytest.raises(ValidationError):
        kr_params(A1, "2", 2, 1, x)


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
    with pytest.raises(ValidationError, match="reuses substituted generators"):
        fold_weights(A1, wc, {"x(1,3)": x2, "x(1,2)": x1 * Q1})  # fails specialize's image check
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


def _weyl_dimension(Q_, highest: dict[str, int]) -> int:
    """dim V(lambda) by Weyl's formula, from the classical Cartan matrix and the decorations d.

    Row i of ``classical_cartan`` pairs the coroot of node i with the simple roots, so
    s_i(beta) = beta - <beta, alpha_i^vee> alpha_i.  The positive roots are the reflection
    closure of the simple ones.  For beta = sum c_j alpha_j, (lambda + rho, beta^vee) / (rho, beta^vee)
    = sum c_j d_j (lambda_j + 1) / sum c_j d_j.
    """
    cartan, n = classical_cartan(Q_), len(Q_.nodes)
    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    roots, todo = set(simple), list(simple)
    while todo:
        beta = todo.pop()
        for i in range(n):
            pairing = sum(c * cartan[i][j] for j, c in enumerate(beta))
            image = tuple(c - pairing * (j == i) for j, c in enumerate(beta))
            if min(image) >= 0 and image not in roots:
                roots.add(image)
                todo.append(image)
    d = [Q_.d[i] for i in Q_.nodes]
    lam = [highest.get(i, 0) for i in Q_.nodes]
    dim = prod(
        Fraction(sum(c * e * (k + 1) for c, e, k in zip(beta, d, lam)), sum(c * e for c, e in zip(beta, d)))
        for beta in roots
    )
    assert dim.denominator == 1
    return int(dim)


# quiver, node, ladder direction m, k_max, and the step between the highest weights
# k, k - step, ... of the module's decomposition (None: V(k w_node) alone)
LADDERS = [
    ("A1", "1", 1, 4, None), ("A2", "1", 1, 4, None), ("BC2", "1", 1, 3, None),  # q1 ladders
    ("A1", "1", 2, 4, None), ("A2", "2", 2, 4, None), ("BC2", "2", 2, 3, None),  # q2 ladders
    # Kirillov-Reshetikhin: 4, 11, 24 = dim V(k w2) + dim V((k-2) w2) + ...
    ("BC2", "2", 1, 3, 2),
    # the outer nodes of D4 (8, 35, 112) and the long end of B3 (7, 27, 77): V(k w_node) alone
    *(("D4", node, m, 3, None) for node in "134" for m in (1, 2)),
    ("B3", "1", 1, 3, None),
]
# the quivers of LADDERS that are no builtin, as a job file gives them
LADDER_QUIVERS = {
    "D4": {"nodes": [{"id": i} for i in "1234"], "edges": [{"from": "2", "to": i} for i in "134"]},
    "B3": {
        "nodes": [{"id": "1", "d": 2}, {"id": "2", "d": 2}, {"id": "3"}],
        "edges": [{"from": "1", "to": "2"}, {"from": "2", "to": "3"}],
    },
}


@pytest.mark.parametrize(
    "quiver, node, m, k_max, step",
    LADDERS,
    ids=["-".join(map(str, case[:4])) + (f"-step{case[4]}" if case[4] else "") for case in LADDERS],
)
def test_higgsed_ladder_has_the_weyl_dimension(quiver, node, m, k_max, step):
    quiver = LADDER_QUIVERS.get(quiver, quiver)
    Q_ = Job.parse({"quiver": quiver}).quiver
    other = "q2" if m == 1 else "q1"
    for k in range(1, k_max + 1):
        sigma = {g: img.to_json() for g, img in kr_sigma(Q_, node, k, m).items()}
        job = Job.parse({"quiver": quiver, "w": {node: k}, "higgs": sigma, "command": "higgs"})
        limit = Job.parse({"quiver": quiver, "w": {node: k}, "higgs": sigma, "command": "limit", "limit": other})
        dim = sum(_weyl_dimension(Q_, {node: h}) for h in (range(k, -1, -step) if step else [k]))
        assert len(job.run().terms) == dim, (k, dim)
        assert sum(limit.run().terms.values()) == dim, (k, dim)


def test_weyl_dimensions_of_the_fundamental_multiples():
    assert [_weyl_dimension(A1, {"1": k}) for k in range(1, 5)] == [2, 3, 4, 5]
    assert [_weyl_dimension(A2, {"1": k}) for k in range(1, 5)] == [3, 6, 10, 15]
    assert [_weyl_dimension(BC2, {"1": k}) for k in range(1, 4)] == [5, 14, 30]
    assert [_weyl_dimension(BC2, {"2": k}) for k in range(1, 4)] == [4, 10, 20]
    d4, b3 = (Job.parse({"quiver": LADDER_QUIVERS[name]}).quiver for name in ("D4", "B3"))
    for node in "134":
        assert [_weyl_dimension(d4, {node: k}) for k in range(1, 4)] == [8, 35, 112]
    assert [_weyl_dimension(b3, {"1": k}) for k in range(1, 4)] == [7, 27, 77]


def _quiver(name, d, edges):
    return Quiver(tuple(d), d, tuple((a, b, 0) for a, b in edges), name=name)


T_QUIVERS = {
    "A1": A1,
    "A2": A2,
    "A3": _quiver("A3", dict.fromkeys("123", 1), [("1", "2"), ("3", "2")]),
    "A3-path": _quiver("A3-path", dict.fromkeys("123", 1), [("1", "2"), ("2", "3")]),
    "A4": _quiver("A4", dict.fromkeys("1234", 1), [("2", "1"), ("2", "3"), ("4", "3")]),
    "BC2": BC2,
}


# the quivers of every other finite type, named by the dimensions of their fundamentals
FUNDAMENTAL_QUIVERS = {
    **T_QUIVERS,
    "C3": _quiver("C3", {"1": 1, "2": 1, "3": 2}, [("1", "2"), ("2", "3")]),
    "B3": _quiver("B3", {"1": 2, "2": 2, "3": 1}, [("1", "2"), ("2", "3")]),
    "G2": _quiver("G2", {"1": 3, "2": 1}, [("1", "2")]),
    "D4": _quiver("D4", dict.fromkeys("1234", 1), [("2", "1"), ("2", "3"), ("2", "4")]),
}
# quiver, node, terms of the fundamental, and the highest weights of its decomposition
# (Kirillov-Reshetikhin: W^(i)_1 = V(w_i), plus V(0) at B3 node 2 and G2 node 1)
FUNDAMENTALS = [
    *(("A3", i, n, [{i: 1}]) for i, n in zip("123", (4, 6, 4))),
    *(("A4", i, n, [{i: 1}]) for i, n in zip("1234", (5, 10, 10, 5))),
    *(("C3", i, n, [{i: 1}]) for i, n in zip("123", (6, 14, 14))),
    ("B3", "1", 7, [{"1": 1}]),
    ("B3", "2", 22, [{"2": 1}, {}]),
    ("B3", "3", 8, [{"3": 1}]),
    ("G2", "1", 15, [{"1": 1}, {}]),
    ("G2", "2", 7, [{"2": 1}]),
    *(("D4", i, 8, [{i: 1}]) for i in "134"),
]


@pytest.mark.parametrize("quiver, node, terms, highest", FUNDAMENTALS, ids=[f"{q}-{i}" for q, i, _, _ in FUNDAMENTALS])
def test_fundamentals_have_the_weyl_dimension(quiver, node, terms, highest):
    """A generic character's term count is the product of its units' fundamentals' (fusion),
    so the fundamentals' counts are the ones to check."""
    Q_ = FUNDAMENTAL_QUIVERS[quiver]
    assert len(expand(Q_, WeightConfig.make(Q_, {node: 1})).terms) == terms
    assert sum(_weyl_dimension(Q_, h) for h in highest) == terms


def _kr_limit(Q_, node, k, base, m):
    """W^{(node)}_k(base): the classical limit, in the other direction, of the character at the
    q_m ladder of length k from base.  W_0 is 1."""
    ladder = kr_params(Q_, node, k, m, base=base)
    wc = WeightConfig.make(Q_, {node: k}, {(node, t + 1): p for t, p in enumerate(ladder)})
    return classical_limit(expand(Q_, wc), "q2" if m == 1 else "q1")


def _t_system_product(Q_, i, k, x, m):
    """The factors of the T-system's second term at node i."""
    q = Q1 if m == 1 else Q2
    if Q_.name == "BC2" and i == "1":  # d = 2
        return [_kr_limit(Q_, "2", 2 * k, x, m)]
    if Q_.name == "BC2":  # d = 1
        return [_kr_limit(Q_, "1", (k + 1) // 2, x * q, m), _kr_limit(Q_, "1", k // 2, x * q**2, m)]
    # simply laced: each neighbour j at x q^e, with e = 0 where i is the edge's source and 1 where it is the target
    return [_kr_limit(Q_, b if a == i else a, k, x * q ** int(a != i), m) for a, b, _ in Q_.edges if i in (a, b)]


def _integer_sum(a, b):
    out = dict(a)
    for ym, c in b.items():
        out[ym] = out.get(ym, 0) + c
    return {ym: c for ym, c in out.items() if c}


# quiver, node, ladder direction m (2: the q2 ladder with q1 -> 1, the mirror at d = 1 nodes), k_max
T_SYSTEM = [
    *(("A1", "1", m, 4) for m in (1, 2)),
    *(("A2", i, m, 3) for i in "12" for m in (1, 2)),
    *((quiver, i, m, 2) for quiver in ("A3", "A3-path") for i in "123" for m in (1, 2)),
    *(("A4", i, 1, 2) for i in "1234"),
    ("BC2", "1", 1, 2),
    ("BC2", "2", 1, 3),
]


@pytest.mark.parametrize("quiver, node, m, k_max", T_SYSTEM, ids=[f"{q}-{i}-q{m}" for q, i, m, _ in T_SYSTEM])
def test_higgsed_ladders_satisfy_the_t_system(quiver, node, m, k_max):
    """W_k(x) W_k(x s) = W_{k+1}(x) W_{k-1}(x s) + the product of ``_t_system_product``, s = q_m^{d_i}.

    Kirillov-Reshetikhin characters obey the T-system, so their Higgsed
    ladders must, exactly, as integer sums of Y-monomials.
    """
    Q_ = T_QUIVERS[quiver]
    x = Monomial.gen("x")
    s = (Q1 if m == 1 else Q2) ** Q_.d[node]
    for k in range(1, k_max + 1):
        lhs = classical_product([_kr_limit(Q_, node, k, x, m), _kr_limit(Q_, node, k, x * s, m)])
        rhs = _integer_sum(
            classical_product([_kr_limit(Q_, node, k + 1, x, m), _kr_limit(Q_, node, k - 1, x * s, m)]),
            classical_product(_t_system_product(Q_, node, k, x, m)),
        )
        assert lhs == rhs, k


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
    relabeled = {ym.substitute(Substitution({"x(1,2)": x1 * Q})) for ym in dropped}
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


def test_classical_limit_drops_zero_limits_and_cancelled_terms():
    x = xparam("1", 1)
    terms = {
        YMonomial((("1", x, 1),)): Coefficient.one(),
        YMonomial((("1", x * Q1, 1),)): -Coefficient.one(),  # the same Y-monomial at q1 = 1: they cancel
        YMonomial((("1", x * Q2, 1),)): Coefficient.factored(1, Monomial.unit(), [(Q1, 1)]),  # (1 - q1) -> 0
        YMonomial((("1", x * Q, -1),)): Coefficient.from_monomial(Q1, 2),
    }
    assert classical_limit(Character(A1, None, terms), "q1").terms == {YMonomial((("1", x * Q2, -1),)): 2}


def test_classical_limit_error_names_the_first_term_in_sort_key_order():
    Q_ = builtin_quiver("Arhat(2)")
    wc = WeightConfig.make(Q_, {"1": 2})
    sigma = {"x(1,2)": xparam("1", 1) * Q1**2 * Q2}
    generic = higgs(expand(Q_, wc, max_qdeg=3), sigma)
    rev = Character(Q_, generic.wc, dict(reversed(generic.terms.items())), generic.edges)
    direct = expand(Q_, wc.substitute(Substitution(sigma)), max_qdeg=3)
    messages = set()
    for ch in (generic, rev, direct):
        with pytest.raises(NonIntegerLimit) as exc:
            classical_limit(ch, "q1")
        messages.add(str(exc.value))
    assert messages == {"coefficient is not an integer: 2*qfrak(0)*qfrak(1)^2"}


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


def test_one_call_substitutes_each_monomial_once(monkeypatch):
    """And orients each binomial argument's image at most once."""
    ch = expand(A2, WeightConfig.make(A2, {"1": 2, "2": 1}))
    arguments = {a for c in ch.terms.values() for a in (c.powers if c.kind == "factored" else dict(c.den))}
    calls = Counter()
    orients = Counter()
    substitute = Monomial.substitute
    orient = coefficient._orient

    def counted(m, sigma):
        calls[m] += 1
        return substitute(m, sigma)

    def counted_orient(arg):
        orients[arg] += 1
        return orient(arg)

    monkeypatch.setattr(Monomial, "substitute", counted)
    monkeypatch.setattr(coefficient, "_orient", counted_orient)
    for run in (
        lambda: higgs(ch, kr_sigma(A2, "1", 2, 1)),
        lambda: classical_limit(ch, "q1"),
        lambda: classical_limit(ch, "q2"),
    ):
        calls.clear()
        orients.clear()
        run()
        assert calls and max(calls.values()) == 1
        assert orients and sum(orients.values()) <= len(arguments)
