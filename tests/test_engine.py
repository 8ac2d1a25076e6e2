from functools import cache, partial, reduce
from itertools import product
from math import prod
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import qqkit.engine

from qqkit.coefficient import Coefficient, s_function, s_r
from qqkit.engine import (
    Term,
    WeightConfig,
    YMonomial,
    a_inverse,
    closed_form_A1,
    expand,
    highest_weight,
    qdeg_of,
    reflect,
    resonance_classes,
    s_factor_coefficient,
    s_value,
    _bfs,
    _Fundamental,
)
from qqkit.errors import CollidingArguments, NonTermination, PoleError, QQError, ValidationError
from qqkit.higgsing import _ladder_steps, kr_params
from qqkit.job import Job
from qqkit.monomial import MU, Memo, Monomial, Q, Q1, Q2, parse_monomial, xparam
from qqkit.quiver import Quiver, a_inverse_monomial, builtin_quiver

A1 = builtin_quiver("A1")
A2 = builtin_quiver("A2")
BC2 = builtin_quiver("BC2")
A0 = builtin_quiver("A0hat")


def Y(*entries):
    return YMonomial(tuple(entries))


def arg(base, j, k):
    return base * Q1**j * Q2**k


def test_ymonomial_canonical():
    x = xparam("1", 1)
    assert Y(("1", x, 1), ("1", x, -1)).is_unit
    a = Y(("1", x, 1), ("2", x * Q, -2))
    assert a.exponent("2", x * Q) == -2
    assert a.numerator_entries() == (("1", x, 1),)
    assert YMonomial.from_json(a.to_json()) == a


def test_highest_weight():
    wc = WeightConfig.make(A2, {"1": 1, "2": 1})
    hw = highest_weight(A2, wc)
    assert hw.coeff.is_one
    assert hw.ym == Y(("1", xparam("1", 1), 1), ("2", xparam("2", 1), 1))
    assert highest_weight(A1, WeightConfig.make(A1, {"1": 0})).ym.is_unit


def test_weight_config_validation():
    with pytest.raises(ValidationError):
        WeightConfig.make(A1, {"9": 1})
    with pytest.raises(ValidationError):
        WeightConfig.make(A1, {"1": -1})


def test_s_factor_examples():
    x1, x2 = xparam("1", 1), xparam("1", 2)
    t = Term(Y(("1", x1, 1), ("1", x2, 1)), Coefficient.one())
    assert s_factor_coefficient(t, "1", x1, A1) == s_function(x2 / x1)
    assert s_factor_coefficient(t, "1", x2, A1) == s_function(x1 / x2)
    single = Term(Y(("1", x1, 1)), Coefficient.one())
    assert s_factor_coefficient(single, "1", x1, A1).is_one
    b = Term(Y(("1", x1, 1), ("1", x2, 1)), Coefficient.one())
    assert s_factor_coefficient(b, "1", x1, BC2) == s_r(2, x2 / x1)


def _s_factor_outcome(t, i, x, Q_, *table):
    try:
        sf = s_factor_coefficient(t, i, x, Q_, *table)
    except QQError as exc:
        return type(exc), str(exc)
    return sf.kind, sf.to_json()


TABLE_CASES = [
    (A1, {"1": 3}, {}, None),
    (BC2, {"1": 2, "2": 1}, {}, None),
    (A0, {"0": 2}, {}, 3),
    (A0, {"0": 2}, {("0", 2): xparam("0", 1) * Q1}, 3),  # S-zeros drop terms
    (builtin_quiver("Arhat(2)"), {"0": 1, "1": 1}, {}, 3),
]


@pytest.mark.parametrize("Q_, w, params, cutoff", TABLE_CASES)
def test_one_s_value_table_gives_what_fresh_calls_give(Q_, w, params, cutoff):
    """One table read by every reflection of an expansion changes no S-factor."""
    table = Memo(s_value)
    for ym, coeff in expand(Q_, WeightConfig.make(Q_, w, params), max_qdeg=cutoff).terms.items():
        t = Term(ym, coeff)
        for i, x, _ in ym.numerator_entries():
            assert _s_factor_outcome(t, i, x, Q_, table) == _s_factor_outcome(t, i, x, Q_), (ym, i, x)
    assert table


def _reflect_outcome(*args):
    try:
        child = reflect(*args)
    except QQError as exc:
        return type(exc), str(exc)
    return child and (child.ym, child.coeff.kind, child.coeff.to_json())


@pytest.mark.parametrize("Q_, w, params, cutoff", TABLE_CASES)
def test_one_a_inverse_table_gives_what_fresh_calls_give(Q_, w, params, cutoff):
    """The table's A^-1 is the fresh Y-monomial and scalar, and a reflection through it is the fresh one."""
    table = Memo(partial(a_inverse, Q_))
    for ym, coeff in expand(Q_, WeightConfig.make(Q_, w, params), max_qdeg=cutoff).terms.items():
        t = Term(ym, coeff)
        for i, x, _ in ym.numerator_entries():
            entries, scalar = a_inverse_monomial(Q_, i, x)
            assert table[i, x] == (YMonomial(entries), scalar)
            assert _reflect_outcome(Q_, t, i, x, Memo(s_value), table) == _reflect_outcome(Q_, t, i, x), (ym, i, x)
    assert table


@pytest.mark.parametrize(
    "Q_, w, params, cutoff, shifted",
    [
        (A0, {"0": 1}, {}, 8, False),  # one class: the worklist
        (A2, {"1": 2}, {("1", 2): xparam("1", 1) * Q1}, None, False),  # a q1 ladder: the worklist
        (BC2, {"1": 1, "2": 1}, {}, None, False),  # fused, finite
        (builtin_quiver("Arhat(2)"), {"0": 1, "1": 1}, {}, 4, False),  # fused, affine, across nodes
        (BC2, {"1": 2, "2": 1}, {}, None, True),  # fused, finite: the node-1 part shifted once
        (A0, {"0": 3}, {}, 4, True),  # fused, affine: one part, shifted twice
    ],
    ids=["A0hat-1", "A2-ladder", "BC2-11", "Arhat2-11", "BC2-21", "A0hat-3"],
)
def test_one_expansion_builds_each_reflection_a_inverse_once(monkeypatch, Q_, w, params, cutoff, shifted):
    """The parts' worklists build A^-1 once per reflected entry; a shifted part and the tuple walk build none."""
    calls = []

    def counted(Q_, i, x):
        calls.append((i, x))
        return a_inverse_monomial(Q_, i, x)

    monkeypatch.setattr(qqkit.engine, "a_inverse_monomial", counted)
    ch = expand(Q_, WeightConfig.make(Q_, w, params), max_qdeg=cutoff)
    reflected = {entry for _, _, entry in ch.edges}
    assert len(calls) == len(set(calls))
    assert set(calls) < reflected if shifted else set(calls) == reflected


def test_a_table_stores_no_pole_and_keeps_zeros_unpowered():
    x = xparam("1", 1)
    table = Memo(s_value)
    pole = Term(Y(("1", x, 1), ("1", x * Q1 * Q2, 1)), Coefficient.one())
    zero_below = Term(Y(("1", x, 1), ("1", x * Q1, -1)), Coefficient.one())
    for t, text in [
        (pole, r"^S_1 pole at argument q1\*q2 while reflecting Y\[1,x\(1,1\)\]$"),
        (zero_below, r"^S_1 zero in a denominator while reflecting Y\[1,x\(1,1\)\]$"),
    ]:
        for _ in range(2):
            with pytest.raises(CollidingArguments, match=text):
                s_factor_coefficient(t, "1", x, A1, table)
    assert list(table) == [(1, x * Q1, x, -1)] and table[1, x * Q1, x, -1].is_zero
    zero_above = Term(Y(("1", x, 1), ("1", x * Q1, 2)), Coefficient.one())
    assert s_factor_coefficient(zero_above, "1", x, A1, table).is_zero
    assert table[1, x * Q1, x, 2] is Coefficient.zero()


def test_colliding_arguments_rejected():
    x = xparam("1", 1)
    squared = Term(Y(("1", x, 2)), Coefficient.one())
    with pytest.raises(CollidingArguments):
        s_factor_coefficient(squared, "1", x, A1)
    wc = WeightConfig.make(A1, {"1": 2}, params={("1", 1): x, ("1", 2): x})
    with pytest.raises(CollidingArguments):
        expand(A1, wc)


def test_a1_expansions_match_closed_form():
    for w in range(7):
        ch = expand(A1, WeightConfig.make(A1, {"1": w}))
        assert len(ch.terms) == 2**w
        assert ch.equals(closed_form_A1(w))


def test_a1_fundamental():
    ch = expand(A1, WeightConfig.make(A1, {"1": 1}))
    x = xparam("1", 1)
    assert ch.terms == {
        Y(("1", x, 1)): Coefficient.one(),
        Y(("1", x * Q, -1)): Coefficient.one(),
    } or all(
        ch.terms[ym].is_one for ym in ch.terms
    )
    assert set(ch.terms) == {Y(("1", x, 1)), Y(("1", x * Q, -1))}


def test_term_counts():
    for Q_, w, n in [
        (A2, {"1": 2}, 9),
        (A2, {"2": 2}, 9),
        (A2, {"1": 1, "2": 1}, 9),
        (BC2, {"1": 2}, 25),
        (BC2, {"2": 2}, 16),
        (BC2, {"1": 1, "2": 1}, 20),
    ]:
        assert len(expand(Q_, WeightConfig.make(Q_, w)).terms) == n


def test_every_non_lowest_term_has_an_edge():
    for Q_, w in [(A2, {"1": 2}), (BC2, {"1": 1, "2": 1})]:
        ch = expand(Q_, WeightConfig.make(Q_, w))
        sources = {s for s, _, _ in ch.edges}
        lowest = [ym for ym in ch.terms if not ym.numerator_entries()]
        assert len(lowest) == 1
        for ym in ch.terms:
            if ym not in lowest:
                assert ym in sources


def test_path_checks_happen_and_agree():
    ch = expand(A2, WeightConfig.make(A2, {"1": 2}))
    assert ch.meta["path_checks"] > 0


def test_affine_needs_cutoff_and_indefinite_rejected():
    with pytest.raises(ValidationError):
        expand(A0, WeightConfig.make(A0, {"0": 1}))
    wild = Quiver(("1", "2"), {"1": 1, "2": 1},
                  (("1", "2", 0), ("1", "2", 0), ("1", "2", 0)))
    with pytest.raises(ValidationError):
        expand(wild, WeightConfig.make(wild, {"1": 1}))


def test_affine_counts_by_degree():
    ch = expand(A0, WeightConfig.make(A0, {"0": 1}), max_qdeg=3)
    # one term per partition of size <= 3
    assert len(ch.terms) == 1 + 1 + 2 + 3


def test_a_cutoff_cuts_nothing_on_a_finite_quiver():
    # finite-type terms carry no counting parameter qfrak(i): each has degree 0 <= max_qdeg
    wc = WeightConfig.make(A1, {"1": 2})
    full = expand(A1, wc)
    for max_qdeg in (0, 1):
        cut = expand(A1, wc, max_qdeg=max_qdeg)
        assert (cut.terms, cut.edges) == (full.terms, full.edges)
    job = {"quiver": "A1", "w": {"1": 2}, "higgs": {"x(1,2)": "x(1,1)*q1"}, "limit": "q1", "command": "limit"}
    assert Job.parse({**job, "max_deg": 0}).run().terms == Job.parse(job).run().terms


def test_safety_bound(monkeypatch):
    monkeypatch.setattr(qqkit.engine, "SAFETY_BOUND", 3)
    with pytest.raises(NonTermination, match=r"^expansion exceeded 3 terms$"):
        expand(A1, WeightConfig.make(A1, {"1": 4}))


def test_deterministic_repeat():
    a = expand(BC2, WeightConfig.make(BC2, {"1": 1, "2": 1}))
    b = expand(BC2, WeightConfig.make(BC2, {"1": 1, "2": 1}))
    assert list(a.terms) == list(b.terms)
    assert a.edges == b.edges


def test_closed_form_validation():
    with pytest.raises(ValidationError):
        closed_form_A1(-1)
    with pytest.raises(ValidationError):
        closed_form_A1(2, [xparam("1", 1)])


# the argument names of mu and q1, and of x(1,10) and x(1,9), sort against
# their canonical order, so a merge by name would misplace entries
Y_NODES = ["0", "1", "10", "2"]
Y_ARGS = [Monomial.unit(), Q1, MU, MU * Q1, xparam("1", 9), xparam("1", 10), xparam("1", 10) * Q]
y_entry_lists = st.lists(
    st.tuples(st.sampled_from(Y_NODES), st.sampled_from(Y_ARGS), st.integers(min_value=-2, max_value=2)),
    max_size=6,
)


@settings(max_examples=300, deadline=None)
@given(y_entry_lists, y_entry_lists, st.sampled_from(["independent", "cancels", "partly cancels"]))
def test_ymonomial_product_matches_the_constructor(ea, eb, how):
    a = YMonomial(tuple(ea))
    inverse = tuple((n, x, -e) for n, x, e in a.entries)
    if how == "independent":
        b = YMonomial(tuple(eb))
    elif how == "cancels":
        b = YMonomial(inverse)
    else:
        b = YMonomial(inverse + tuple(eb))
    ref = YMonomial(a.entries + b.entries)
    product = a * b
    assert product.entries == ref.entries
    assert product == ref and hash(product) == hash(ref)
    assert product.sort_key() == ref.sort_key()
    keys = [(n, x.sort_key()) for n, x, _ in product.entries]
    assert keys == sorted(set(keys))
    if how == "cancels":
        assert product.is_unit


# -- fusion of resonance classes -------------------------------------------------


def _quiver(name, d, edges):
    return Quiver(tuple(d), d, tuple((a, b, 0) for a, b in edges), name=name)


FUSION_QUIVERS = {
    "A1": A1,
    "A2": A2,
    "A2-reversed": _quiver("A2-reversed", dict.fromkeys("12", 1), [("2", "1")]),
    "A3": _quiver("A3", dict.fromkeys("123", 1), [("1", "2"), ("3", "2")]),
    "A3-path": _quiver("A3-path", dict.fromkeys("123", 1), [("1", "2"), ("2", "3")]),
    "A4": _quiver("A4", dict.fromkeys("1234", 1), [("2", "1"), ("2", "3"), ("4", "3")]),
    "A4-path": _quiver("A4-path", dict.fromkeys("1234", 1), [("1", "2"), ("2", "3"), ("3", "4")]),
    "BC2": BC2,
    "C3": _quiver("C3", {"1": 1, "2": 1, "3": 2}, [("1", "2"), ("2", "3")]),
    "B3": _quiver("B3", {"1": 2, "2": 2, "3": 1}, [("1", "2"), ("2", "3")]),
    "G2": _quiver("G2", {"1": 3, "2": 1}, [("1", "2")]),
    "D4": _quiver("D4", dict.fromkeys("1234", 1), [("2", "1"), ("2", "3"), ("2", "4")]),
}
# the trivalent node of D4 has no fundamental here (the reflection rule stops, exit 4)
FUSION_NODES = {name: [i for i in Q_.nodes if (name, i) != ("D4", "2")] for name, Q_ in FUSION_QUIVERS.items()}
MAX_TERMS = 600  # keeps the breadth-first reference quick


@cache
def _fundamental_size(name, node):
    Q_ = FUSION_QUIVERS[name]
    return len(expand(Q_, WeightConfig.make(Q_, {node: 1})).terms)


@st.composite
def _generic_weights(draw):
    """A quiver of FUSION_QUIVERS, 2 to 4 units and generic params images, as (name, w, params).

    An image keeps its unit's own generator x(i,a), times powers of q1, q2, mu and of a
    generator y; so no ratio of two images is a monomial in q1, q2 and mu alone.
    """
    name = draw(st.sampled_from(sorted(FUSION_QUIVERS)))
    nodes = draw(st.lists(st.sampled_from(FUSION_NODES[name]), min_size=2, max_size=4))
    while len(nodes) > 2 and reduce(lambda n, i: n * _fundamental_size(name, i), nodes, 1) > MAX_TERMS:
        nodes.pop()
    w: dict[str, int] = {}
    for i in nodes:
        w[i] = w.get(i, 0) + 1
    params = {}
    for i, k in w.items():
        for a in range(1, k + 1):
            gens = draw(st.lists(st.sampled_from(["q1", "q2", "mu", "y"]), max_size=3))
            if gens:
                params[f"{i},{a}"] = "*".join([f"x({i},{a})"] + [f"{g}^{draw(st.integers(-2, 2))}" for g in gens])
    return name, w, params


@cache
def _ladders():
    """(name, node, m, k): the q_m ladders of k units at x(node,1) that leave room for one more unit.

    A ladder whose own expansion raises counts as one term; the fusion falls back on its error.
    """
    out = []
    for name, Q_ in FUSION_QUIVERS.items():
        smallest = min(_fundamental_size(name, i) for i in FUSION_NODES[name])
        for i in FUSION_NODES[name]:
            for m in _ladder_steps(Q_.d[i]):
                for k in (2, 3):
                    ladder = tuple(zip([i] * k, range(1, k + 1), kr_params(Q_, i, k, m)))
                    if _class_size(name, ladder) * smallest <= MAX_TERMS:
                        out.append((name, i, m, k))
    return out


@cache
def _class_degrees(name, units, cutoff=None):
    """The counting degrees of one class's own expansion to the cutoff, or (0,) when it raises."""
    Q_ = _quiver_named(name)
    try:
        ch = _bfs(Q_, WeightConfig(units), cutoff, Memo(s_value), Memo(partial(a_inverse, Q_)))
        return tuple(map(qdeg_of, ch.terms.values()))
    except QQError:
        return (0,)


def _class_size(name, units):
    """The number of terms of one class's own expansion, or 1 when it raises."""
    return len(_class_degrees(name, units))


AFFINE_QUIVERS = ["A0hat", "Arhat(2)", "Arhat(3)"]


def _quiver_named(name):
    return FUSION_QUIVERS[name] if name in FUSION_QUIVERS else builtin_quiver(name)


@st.composite
def _affine_weights(draw):
    """An affine quiver, 2 to 4 units and a cutoff 0..5, as (name, w, params, cutoff).

    The first two units are generic.  Each later one is generic too or, at any node, joins the
    first unit's class with an image x(i,1) q1^a q2^b mu^c: an S-zero or a pole inside the class.
    """
    name = draw(st.sampled_from(AFFINE_QUIVERS))
    nodes = _quiver_named(name).nodes
    first = draw(st.sampled_from(nodes))
    units = [(first, None), (draw(st.sampled_from(nodes)), None)]
    for _ in range(draw(st.integers(0, 2))):
        shift = f"x({first},1)*q1^{draw(st.integers(-1, 2))}*q2^{draw(st.integers(0, 2))}*mu^{draw(st.integers(0, 2))}"
        units.append((draw(st.sampled_from(nodes)), draw(st.sampled_from([None, shift]))))
    w: dict[str, int] = {}
    params = {}
    for i, image in units:
        w[i] = w.get(i, 0) + 1
        if image is not None:
            params[f"{i},{w[i]}"] = image
    return name, w, params, draw(st.integers(0, 5))


@st.composite
def _resonant_weights(draw):
    """A quiver of FUSION_QUIVERS, a ladder of 2 or 3 units and 1 to 3 more units, as (name, w, params).

    The ladder is a ``kr_params`` one at x(i,1) of node i, in q1 or, where d = 1, in q2.  The first
    further unit is generic, so that there are two classes or more; each later one is generic too or,
    at any node, joins the ladder's class with an image x(i,1) q1^a q2^b, on the ladder or off it.
    Units are dropped from the end, and the generic one moved to the node of the smallest
    fundamental, until the product of the class sizes is at most MAX_TERMS.
    """
    name, node, m, k = draw(st.sampled_from(_ladders()))
    Q_ = FUSION_QUIVERS[name]
    images = [(node, repr(p)) for p in kr_params(Q_, node, k, m)]
    extra = [(draw(st.sampled_from(FUSION_NODES[name])), None)]
    for _ in range(draw(st.integers(0, 2))):
        shift = f"x({node},1)*q1^{draw(st.integers(-1, 3))}*q2^{draw(st.integers(0, 2))}"
        extra.append((draw(st.sampled_from(FUSION_NODES[name])), draw(st.sampled_from([None, shift]))))

    def case():
        w: dict[str, int] = {}
        params = {}
        for i, image in images + extra:
            w[i] = w.get(i, 0) + 1
            if image is not None:
                params[f"{i},{w[i]}"] = image
        return name, w, params

    def size():
        _, wc = _weights(*case())
        return prod(_class_size(name, tuple(cls)) for cls in resonance_classes(wc))

    while len(extra) > 1 and size() > MAX_TERMS:
        extra.pop()
    if size() > MAX_TERMS:
        extra = [(min(FUSION_NODES[name], key=lambda i: _fundamental_size(name, i)), None)]
    return case()


def _weights(name, w, params):
    Q_ = _quiver_named(name)
    images = {}
    for key, img in params.items():
        node, _, alpha = key.partition(",")
        images[node, int(alpha)] = parse_monomial(img)
    return Q_, WeightConfig.make(Q_, w, images)


@cache
def _order_dependent(name, units, cutoff=None):
    """Whether entry order decides a reflection of one class's own expansion to the cutoff: one that
    an S-zero kills (no edge leaves its term by it) while a pole or a zero in a denominator is among
    its companions too.  False when the expansion raises."""
    Q_ = _quiver_named(name)
    try:
        ch = _bfs(Q_, WeightConfig(units), cutoff, Memo(s_value), Memo(partial(a_inverse, Q_)))
    except QQError:
        return False

    def raises(d, y, x, k):
        try:
            return s_r(d, y / x).is_zero and k < 0
        except PoleError:
            return True

    reflected = {(src, entry) for src, _, entry in ch.edges}
    return any(
        (ym, (i, x)) not in reflected
        and any(raises(Q_.d[i], y, x, k) for n, y, k in ym.entries if n == i and y != x)
        for ym, c in ch.terms.items()
        if cutoff is None or qdeg_of(c) < cutoff
        for i, x, _ in ym.numerator_entries()
    )


def _expanded_classes(name, classes, cutoff=None):
    """The classes whose parts ``expand`` expands, in order: the first of each shape (its nodes, and
    its parameters' ratios to its first), which the later ones of that shape share, and every class
    of a shape whose first part is order-dependent, which none shares."""
    firsts = {}
    out = []
    for cls in classes:
        shape = tuple((i, p / cls[0][2]) for i, _, p in cls)
        if shape not in firsts or _order_dependent(name, firsts[shape], cutoff):
            out.append(cls)
        firsts.setdefault(shape, cls)
    return out


def _result(compute):
    try:
        ch = compute()
    except QQError as exc:
        return type(exc), str(exc)
    return list(ch.terms), list(ch.terms.values()), ch.edges


@settings(max_examples=100, deadline=None)
@given(st.one_of(_generic_weights(), _resonant_weights(), _affine_weights()))
# the finite workload's generic expansions, with and without the params images of its seed 1
@example(("A1", {"1": 7}, {}))
@example(
    (
        "A1",
        {"1": 7},
        {
            "1,1": "x(1,1)*q1^1*q2^2", "1,2": "x(1,2)*q1^1*q2^1", "1,3": "x(1,3)*q1^1*q2^1",
            "1,4": "x(1,4)*q1^2*q2^1", "1,5": "x(1,5)*q1^3*q2^1", "1,6": "x(1,6)*q1^1", "1,7": "x(1,7)*q1^2",
        },
    )
)
@example(("A2", {"1": 2, "2": 2}, {}))
@example(
    (
        "A2",
        {"1": 2, "2": 2},
        {"1,1": "x(1,1)*q1^2*q2^1", "1,2": "x(1,2)*q1^3", "2,1": "x(2,1)*q1^3*q2^1", "2,2": "x(2,2)*q1^2*q2^2"},
    )
)
@example(("BC2", {"1": 2, "2": 2}, {}))
@example(
    (
        "BC2",
        {"1": 2, "2": 2},
        {"1,1": "x(1,1)*q1^1*q2^2", "1,2": "x(1,2)*q1^1*q2^1", "2,1": "x(2,1)*q1^1", "2,2": "x(2,2)*q1^1*q2^2"},
    )
)
@example(("BC2", {"1": 2, "2": 1}, {}))
# a unit at the trivalent node of D4: its fundamental fails, and the error is the breadth-first one
@example(("D4", {"1": 1, "2": 1}, {}))
@example(("D4", {"2": 1, "3": 1, "4": 1}, {"2,1": "x(2,1)*y"}))
# ladders and extra units: q1 ladders, q2 ladders where d = 1, and classes across nodes and off the ladder
@example(("A2", {"1": 2, "2": 1}, {"1,2": "x(1,1)*q1"}))
@example(("A2", {"1": 3, "2": 2}, {"1,2": "x(1,1)*q2", "1,3": "x(1,1)*q2^2"}))
@example(("A2", {"1": 1, "2": 2}, {"2,1": "x(1,1)*q1"}))
@example(("BC2", {"1": 2, "2": 2}, {"2,2": "x(2,1)*q1"}))
@example(("BC2", {"1": 2, "2": 1}, {"1,2": "x(1,1)*q1^2"}))
@example(("BC2", {"1": 1, "2": 3}, {"2,2": "x(2,1)*q2", "2,3": "x(2,1)*q2^2"}))
@example(("C3", {"1": 2, "3": 1}, {"1,2": "x(1,1)*q1"}))
@example(("C3", {"1": 1, "2": 2}, {"2,2": "x(2,1)*q2"}))
@example(("C3", {"1": 1, "3": 2}, {"3,2": "x(3,1)*q1^2"}))
@example(("B3", {"1": 1, "3": 2}, {"3,2": "x(3,1)*q2"}))
@example(("B3", {"1": 2, "3": 1}, {"1,2": "x(1,1)*q1^2"}))
@example(("G2", {"1": 1, "2": 2}, {"2,2": "x(2,1)*q2"}))
@example(("D4", {"1": 2, "3": 1}, {"1,2": "x(1,1)*q1"}))
@example(("D4", {"3": 1, "4": 2}, {"4,2": "x(4,1)*q2"}))
@example(("A1", {"1": 3}, {"1,2": "x(1,1)*q1^3"}))
# a class part that raises: the error is the breadth-first one
@example(("C3", {"2": 3, "3": 1}, {"2,2": "x(2,1)*q1", "2,3": "x(2,1)*q1^2"}))
@example(("A2", {"1": 2, "2": 2}, {"2,1": "x(1,1)*q1*q2", "2,2": "x(1,2)*q1"}))
@example(("A3", {"1": 2, "2": 1, "3": 1}, {"1,2": "x(1,1)*q1", "3,1": "x(1,1)*q1^2*q2"}))
# affine quivers, each case with its cutoff: generic units at cutoffs 0 to 5
@example(("A0hat", {"0": 2}, {}, 0))
@example(("A0hat", {"0": 2}, {}, 5))
@example(("A0hat", {"0": 3}, {}, 4))
@example(("A0hat", {"0": 4}, {}, 3))
@example(("Arhat(2)", {"0": 1, "1": 1}, {}, 5))
@example(("Arhat(2)", {"0": 2, "1": 1}, {}, 4))
@example(("Arhat(3)", {"0": 1, "1": 1, "2": 1}, {}, 1))
@example(("Arhat(3)", {"0": 1, "1": 1, "2": 1}, {}, 4))
# a resonant class next to a generic unit: S-zeros inside the class, and a class across nodes
@example(("A0hat", {"0": 3}, {"0,2": "x(0,1)*q1"}, 4))
@example(("Arhat(2)", {"0": 2, "1": 1}, {"1,1": "x(0,1)*q3^2"}, 3))
# a class part that hits a pole: the error is the breadth-first one
@example(("A0hat", {"0": 3}, {"0,2": "x(0,1)*q3^2"}, 3))
@example(("A0hat", {"0": 4}, {"0,2": "x(0,1)*q3^2", "0,4": "x(0,3)*q3^2"}, 3))
# classes of one shape, each shape expanded once: three units at one node (one ``_bfs``, of the first
# unit), two q1 ladders (one, of the first ladder), and shifts that reorder the arguments' sort keys
# (q1^-1, q1^-3), reach a pure q-monomial parameter, or meet a pole first
@example(("A0hat", {"0": 3}, {}, 5))
@example(("A1", {"1": 4}, {"1,2": "x(1,1)*q1", "1,4": "x(1,3)*q1"}))
@example(("A2", {"1": 2, "2": 1}, {"1,2": "x(1,1)*y*q1^-1"}))
@example(("A2", {"1": 3, "2": 3}, {"1,2": "x(1,1)*q1^-3", "1,3": "1", "2,2": "mu"}))
@example(("BC2", {"1": 2, "2": 1}, {"1,2": "1"}))
@example(("A0hat", {"0": 3}, {"0,2": "x(0,1)*y*q1^-3", "0,3": "mu"}, 5))
@example(("C3", {"2": 4}, {"2,2": "x(2,1)*q2", "2,3": "x(2,3)*q1^-1*q2^-1", "2,4": "x(2,3)*q1^-1"}))
# two q2 ladders of one shape whose part is order-dependent, so each expands its own: 8,836 terms
@example(("C3", {"2": 4}, {"2,2": "x(2,1)*q2", "2,4": "x(2,3)*q2"}))
def test_fused_expansion_is_the_breadth_first_one(case):
    """``expand`` fuses weights of two or more resonance classes from the classes' own expansions,
    to the cutoff on an affine quiver (an affine case carries its cutoff); it must equal ``_bfs``,
    the definition, in the order of its terms, in every coefficient and in its ``edges`` tuple, or
    raise the same error.

    Why it must hold.  A reflection's S-factor is a product over same-node companions, so
    the coefficient along a path splits into a part per class and a part per ordered pair
    of classes.  No S-value between two classes is 0 or a pole: the ratio of their
    arguments carries a generator other than q1, q2 and mu.  So a path projected onto one
    class is a path of that class's own expansion, and every tuple of class terms is
    reached.  Path independence there fixes each class's part as its own coefficient, and
    each pair's part as the pair factor taken along any one path (with either class
    reflected first).  The breadth-first walk over tuples reflects each tuple's entries in
    entry order, as ``_bfs`` reflects a term's, so the terms and edges come out in the same
    order.  Generic weights are the case where every class is one unit.  Classes of one shape
    (the same nodes, and the same ratios to their first parameter) share one expansion, shifted
    by the ratio of their first parameters, unless entry order decides one of its reflections:
    then each class of that shape expands its own.

    On an affine quiver each reflection multiplies in one qfrak(i) and no S-value carries one,
    so a term's degree is its depth and a tuple's is the sum of its parts'.  The tuples that
    ``_bfs`` reaches below the cutoff are then those of parts below it, and the walk stops
    where ``_bfs`` stops: at a tuple of the cutoff's degree.
    """
    Q_, wc = _weights(*case[:3])
    cutoff = case[3] if len(case) > 3 else None
    classes = [tuple(cls) for cls in resonance_classes(wc)]
    assert len(classes) >= 2
    with mock.patch.object(qqkit.engine, "_bfs", wraps=_bfs) as bfs:
        fused = _result(lambda: expand(Q_, wc, cutoff))
    assert fused == _result(lambda: _bfs(Q_, wc, cutoff, Memo(s_value), Memo(partial(a_inverse, Q_))))
    if isinstance(fused[0], list):  # one expansion per shape of class (per class where the shape's
        # part is order-dependent), and of all the units only when the pairs of classes outnumber the terms
        degrees = product(*(_class_degrees(case[0], cls, cutoff) for cls in classes))
        count = sum(cutoff is None or sum(ds) <= cutoff for ds in degrees)
        worklist = [wc.entries] if len(classes) * (len(classes) - 1) // 2 > count else []
        assert [call.args[1].entries for call in bfs.call_args_list] == _expanded_classes(case[0], classes, cutoff) + worklist
        assert len(fused[0]) == count


def test_fused_expansion_refuses_too_many_terms_before_any_product(monkeypatch):
    calls = []

    def counted(Q_, wc, *rest):  # rest: the cutoff and the expansion's S-value and A^-1 tables
        calls.append(len(wc.entries))
        return _bfs(Q_, wc, *rest)

    monkeypatch.setattr(qqkit.engine, "_bfs", counted)
    monkeypatch.setattr(qqkit.engine, "SAFETY_BOUND", 4095)
    ladder = {("1", 2): xparam("1", 1) * Q1, ("1", 3): xparam("1", 1) * Q1**2}
    # twelve generic units, 2^12 terms; a ladder of three (4 terms) and ten more units, 4 * 2^10 terms
    for w, params, parts in [({"1": 12}, {}, [1]), ({"1": 13}, ladder, [3, 1])]:
        calls.clear()
        with pytest.raises(NonTermination, match=r"^expansion exceeded 4095 terms$"):
            expand(A1, WeightConfig.make(A1, w, params))
        assert calls == parts  # one expansion per shape of class (the units share one), and none of all the units


def test_affine_fused_expansion_refuses_too_many_terms_before_any_product(monkeypatch):
    calls, pair_factors = [], []

    def counted(Q_, wc, *rest):  # rest: the cutoff and the expansion's S-value and A^-1 tables
        calls.append(len(wc.entries))
        return _bfs(Q_, wc, *rest)

    real_pair_factors = qqkit.engine._pair_factors
    monkeypatch.setattr(qqkit.engine, "_bfs", counted)
    monkeypatch.setattr(qqkit.engine, "_pair_factors", lambda *args: pair_factors.append(args) or real_pair_factors(*args))
    Q_ = builtin_quiver("Arhat(3)")
    wc = WeightConfig.make(Q_, {"0": 1, "1": 1, "2": 1})
    # each unit's terms to degree 4 number 1, 1, 2, 3 and 5 by degree; the triples of total degree <= 4 number 86
    monkeypatch.setattr(qqkit.engine, "SAFETY_BOUND", 85)
    with pytest.raises(NonTermination, match=r"^expansion exceeded 85 terms$"):
        expand(Q_, wc, max_qdeg=4)
    assert (calls, pair_factors) == ([1, 1, 1], [])  # one expansion per unit, and no pair factor
    calls.clear()
    monkeypatch.setattr(qqkit.engine, "SAFETY_BOUND", 86)
    assert len(expand(Q_, wc, max_qdeg=4).terms) == 86
    assert calls == [1, 1, 1] and len(pair_factors) == 3


@pytest.mark.parametrize(
    "case, err, expanded",
    [
        (("C3", {"2": 3, "3": 1}, {"2,2": "x(2,1)*q1", "2,3": "x(2,1)*q1^2"}),
         "Y[2,q1^3*q2*x(2,1)]^2 requires the derivative prescription", 1),
        (("A2", {"1": 2, "2": 2}, {"2,1": "x(1,1)*q1*q2", "2,2": "x(1,2)*q1"}),
         "S_1 pole at argument q1*q2 while reflecting Y[2,x(1,1)]", 1),
        # a class of A0hat whose part hits a pole at degree 2, below the cutoff 3
        (("A0hat", {"0": 3}, {"0,2": "x(0,1)*q3^2"}, 3), "S_1 pole at argument q1*q2 while reflecting Y[0,mu*x(0,1)]", 1),
        # two classes of that shape: the first raises before the second is shifted from it
        (("A0hat", {"0": 4}, {"0,2": "x(0,1)*q3^2", "0,4": "x(0,3)*q3^2"}, 3),
         "S_1 pole at argument q1*q2 while reflecting Y[0,mu*x(0,1)]", 1),
        # two q2 ladders of one shape: the first expands, but an S-zero killed one of its reflections
        # with a pole among the companions, so the second, at x(2,3) q1^-1 q2^-1, expands its own
        # part, which meets that pole first
        (("C3", {"2": 4}, {"2,2": "x(2,1)*q2", "2,3": "x(2,3)*q1^-1*q2^-1", "2,4": "x(2,3)*q1^-1"}),
         "S_1 pole at argument q1*q2 while reflecting Y[2,x(2,3)]", 2),
    ],
    ids=["C3-q1-ladder", "A2-cross-node", "A0hat-pole", "A0hat-two-poles", "C3-shift-meets-a-pole"],
)
def test_a_class_part_that_raises_gives_the_breadth_first_error(case, err, expanded):
    Q_, wc = _weights(*case[:3])
    with mock.patch.object(qqkit.engine, "_bfs", wraps=_bfs) as bfs, pytest.raises(CollidingArguments) as exc:
        expand(Q_, wc, *case[3:])
    assert str(exc.value) == err
    # the classes expand their parts until one raises, and the fallback expands all the units
    classes = [tuple(cls) for cls in resonance_classes(wc)[:expanded]]
    assert [call.args[1].entries for call in bfs.call_args_list] == classes + [wc.entries]


SHIFT_QUIVERS = ["A1", "A2", "A3", "A4", "BC2", "C3", "G2", "D4"] + AFFINE_QUIVERS


@cache
def _shift_shapes():
    """(name, node, ratios): a unit, or a q_m ladder of two or three units, at one node of a quiver of
    SHIFT_QUIVERS (the outer nodes of D4), as its parameters' ratios to the first; a finite one only
    when its expansion has at most MAX_TERMS terms."""
    out = []
    for name in SHIFT_QUIVERS:
        Q_ = _quiver_named(name)
        for i in FUSION_NODES.get(name, Q_.nodes):
            out.append((name, i, (Monomial.unit(),)))
            for step in _ladder_steps(Q_.d[i]).values():
                for k in (2, 3):
                    ratios = tuple(step**e for e in range(k))
                    units = tuple((i, a + 1, xparam(i, 1) * r) for a, r in enumerate(ratios))
                    if name in AFFINE_QUIVERS or _class_size(name, units) <= MAX_TERMS:
                        out.append((name, i, ratios))
    return out


@st.composite
def _shifted_classes(draw):
    """A class of one shape of ``_shift_shapes`` and a shift t, as (name, units, t, cutoff).

    The first parameter is x(i,1), the pure q-monomial 1, or x(i,1) y; the shifted class's first is
    x(i,2), 1, the same one or y^-1, times powers of q1 (down to q1^-3), q2 and mu, so t can reorder
    the arguments' sort keys.  An affine class carries a cutoff 0..5.
    """
    name, i, ratios = draw(st.sampled_from(_shift_shapes()))
    y = Monomial.gen("y")
    base = draw(st.sampled_from([xparam(i, 1), Monomial.unit(), xparam(i, 1) * y]))
    target = draw(st.sampled_from([xparam(i, 2), Monomial.unit(), base, y**-1]))
    target = target * Q1 ** draw(st.integers(-3, 2)) * Q2 ** draw(st.integers(-1, 2)) * MU ** draw(st.integers(-1, 2))
    cutoff = draw(st.integers(0, 5)) if name in AFFINE_QUIVERS else None
    return name, tuple((i, a + 1, base * r) for a, r in enumerate(ratios)), target / base, cutoff


def _by_term(f):
    """A part as a map: each term's Y-monomial to its coefficient, its degree and its set of edges
    (child Y-monomial, entry, the Y-monomial the reflection multiplies in)."""
    return {
        ym: (c, deg, {(f.yms[b], entry, delta) for _, b, entry, delta in edges})
        for ym, c, deg, edges in zip(f.yms, f.coeffs, f.degree, f.out)
    }


@settings(max_examples=150, deadline=None)
@given(_shifted_classes())
# t carries q1^-3 and reverses a q1 ladder's order; t = 1/x(1,1) takes the class to the pure q-monomial 1
@example(("A1", (("1", 1, xparam("1", 1)), ("1", 2, xparam("1", 1) * Q1)), xparam("1", 2) / xparam("1", 1) * Q1**-3, None))
@example(("BC2", (("1", 1, xparam("1", 1)), ("1", 2, xparam("1", 1) * Q1**2)), xparam("1", 1) ** -1, None))
@example(("C3", (("3", 1, xparam("3", 1)),), MU * Q2**-1, None))
@example(("G2", (("1", 1, xparam("1", 1)),), xparam("1", 2) / xparam("1", 1) * Q1**-3, None))
@example(("D4", (("4", 1, xparam("4", 1)), ("4", 2, xparam("4", 1) * Q2)), MU, None))
@example(("A0hat", (("0", 1, xparam("0", 1)),), xparam("0", 2) / xparam("0", 1) * Q1**-3, 5))
@example(("A0hat", (("0", 1, xparam("0", 1)), ("0", 2, xparam("0", 1) * Q1)), MU**-1 * Q1**-3, 5))
@example(("Arhat(3)", (("2", 1, Monomial.unit()), ("2", 2, Q2)), xparam("2", 2) * MU, 4))
# a q2 ladder at node 2 of C3: an S-zero kills a reflection that also has a pole among its
# companions, so the part is order-dependent and never shifted; the shift by q1^-1 q2^-1 meets the
# pole first, and the shifted class's own part raises
@example(("C3", (("2", 1, xparam("2", 1)), ("2", 2, xparam("2", 1) * Q2)), xparam("2", 2) / xparam("2", 1) / Q, None))
def test_a_shifted_part_is_the_part_of_the_shifted_class(case):
    """A class's part shifted by t is the part of the class whose parameters are its own times t.

    The terms may be numbered in another order (t can reorder the arguments' sort keys, and so the
    order in which ``_bfs`` reflects them), so the parts are compared term by term; the shifted
    part must keep what ``_cross`` and the fused walk read of a numbering: nondecreasing degrees,
    each parent numbered below its term and joined to it by an edge of the term's step, and each
    term's edges in entry order.  Where the class's part raises, so does the shifted class's own.
    A part whose entry order decides a reflection (an S-zero killed it with a pole, or a zero in a
    denominator, among its companions) is ``order_dependent`` and never shifted: the shifted
    class's own part raises, or is order-dependent too.
    """
    name, units, t, cutoff = case
    Q_ = _quiver_named(name)
    image = [(i, a, p * t) for i, a, p in units]
    try:
        part = _Fundamental(Q_, list(units), cutoff, Memo(s_value), Memo(partial(a_inverse, Q_)))
    except QQError as exc:
        with pytest.raises(type(exc)):
            _Fundamental(Q_, image, cutoff, Memo(s_value), Memo(partial(a_inverse, Q_)))
        return
    if part.order_dependent:
        try:
            assert _Fundamental(Q_, image, cutoff, Memo(s_value), Memo(partial(a_inverse, Q_))).order_dependent
        except QQError:
            pass
        return
    shifted = part.shifted(t)
    fresh = _Fundamental(Q_, image, cutoff, Memo(s_value), Memo(partial(a_inverse, Q_)))
    assert len(shifted.yms) == len(fresh.yms) and _by_term(shifted) == _by_term(fresh)
    assert shifted.degree == sorted(shifted.degree)
    for b in range(1, len(shifted.yms)):
        a = shifted.parent[b]
        assert a < b and (b, shifted.step[b]) in {(c, entry) for _, c, entry, _ in shifted.out[a]}
    for edges in shifted.out:
        assert [key for key, *_ in edges] == sorted(key for key, *_ in edges)


@pytest.mark.parametrize("units, cutoff, n_terms", [(3, 0, 1), (4, 1, 5), (600, 0, 1), (20, 1, 21)])
def test_more_pairs_of_classes_than_terms_take_the_worklist(units, cutoff, n_terms):
    wc = WeightConfig.make(A0, {"0": units})
    with mock.patch.object(qqkit.engine, "_pair_factors") as pair_factors:
        ch = expand(A0, wc, max_qdeg=cutoff)
    assert not pair_factors.called and len(ch.terms) == n_terms
    assert _result(lambda: ch) == _result(lambda: _bfs(A0, wc, cutoff, Memo(s_value), Memo(partial(a_inverse, A0))))


def test_fused_expansion_counts_its_pair_checks():
    ch = expand(BC2, WeightConfig.make(BC2, {"1": 2, "2": 1}))
    # one comparison per pair of units and pair of their terms: 5 * 5 + 2 * (5 * 4)
    assert ch.meta == {"path_checks": 65, "max_qdeg": None, "class": "finite"}
    Q_ = builtin_quiver("Arhat(3)")
    ch = expand(Q_, WeightConfig.make(Q_, {"0": 1, "1": 1, "2": 1}), max_qdeg=4)
    # one comparison per pair of units and pair of their terms of total degree <= 4: 3 * 38
    assert ch.meta == {"path_checks": 114, "max_qdeg": 4, "class": "affine"}


@pytest.mark.parametrize("Q_, w", [(A0, {"0": 2}), (A1, {"1": 2})], ids=["A0hat", "A1"])
def test_a_counting_parameter_in_a_weight_is_rejected(Q_, w):
    # an S-value between two classes would carry qfrak(0), and a term's degree would not be its depth
    wc = WeightConfig.make(Q_, w, {(Q_.nodes[0], 2): xparam(Q_.nodes[0], 1) * Monomial.gen("qfrak(0)") ** -1})
    with pytest.raises(ValidationError, match=r"^a weight parameter uses a counting parameter qfrak\(i\)"):
        expand(Q_, wc, max_qdeg=2)
