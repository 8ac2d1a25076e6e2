import pytest
from hypothesis import given, settings, strategies as st

from qqkit.coefficient import Coefficient, s_function, s_r
from qqkit.engine import (
    Term,
    WeightConfig,
    YMonomial,
    closed_form_A1,
    expand,
    highest_weight,
    s_factor_coefficient,
)
from qqkit.errors import CollidingArguments, NonTermination, ValidationError
from qqkit.job import Job
from qqkit.monomial import MU, Monomial, Q, Q1, Q2, xparam
from qqkit.quiver import Quiver, builtin_quiver

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


def test_safety_bound():
    with pytest.raises(NonTermination):
        expand(A1, WeightConfig.make(A1, {"1": 4}), safety_bound=3)


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
