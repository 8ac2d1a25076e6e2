import pytest
from hypothesis import given, settings, strategies as st

from qqkit.errors import ValidationError
from qqkit.monomial import MU, Monomial, Q, Q1, Q2, parse_monomial, qfrak, xparam

GENS = ["q1", "q2", "mu", "qfrak(0)", "x(1,1)", "x(1,2)", "x(2,1)"]

monomials = st.builds(
    Monomial,
    st.dictionaries(st.sampled_from(GENS), st.integers(min_value=-4, max_value=4), max_size=5),
)


def test_unit_and_cancellation():
    assert Monomial.unit().is_unit
    m = Q1 * Q2**-2 * Q1**-1 * Q2**2
    assert m.is_unit
    assert Q1 * Q1 == Monomial.gen("q1", 2)


def test_canonical_no_zero_exponents():
    m = Monomial({"q1": 0, "q2": 3})
    assert m.gens() == ("q2",)


@given(monomials, monomials)
def test_mul_commutes(a, b):
    assert a * b == b * a


@given(monomials, monomials, monomials)
def test_mul_associates(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(monomials)
def test_inverse(m):
    assert (m * m.inverse()).is_unit


@given(monomials)
def test_json_round_trip(m):
    assert Monomial.from_json(m.to_json()) == m


def test_generator_ordering():
    m = xparam("1", 2) * Q2 * MU * Q1 * qfrak("0")
    assert m.gens() == ("q1", "q2", "mu", "qfrak(0)", "x(1,2)")


def test_substitute():
    x1, x2 = xparam("1", 1), xparam("1", 2)
    m = x2**2 * Q1
    assert m.substitute({"x(1,2)": x1 * Q1}) == x1**2 * Q1**3
    assert m.substitute({}) == m


def test_parse():
    assert parse_monomial("q1^-2*q2") == Q1**-2 * Q2
    assert parse_monomial("q") == Q
    assert parse_monomial("q3*q4") == Q
    assert parse_monomial("x*q1", {"x": xparam("1", 1)}) == xparam("1", 1) * Q1
    assert parse_monomial("1").is_unit
    assert parse_monomial("1^-2").is_unit
    assert parse_monomial("1*x(1,1)*q1") == parse_monomial("x(1,1)*1^3*q1") == xparam("1", 1) * Q1  # 1 is the unit


@pytest.mark.parametrize("text", ["x1", "x(1,2)*q1^-2", "qfrak(0)", "xa", " x1 * q2^3 ", ""])
def test_parse_accepts_the_grammar(text):
    assert isinstance(parse_monomial(text), Monomial)


@pytest.mark.parametrize(
    "text",
    ["*", "a**b", "q1^", "q1^-", "q1^a", "^2", "q1 q2", "q1^2^3",
     # a generator name starts with a letter
     "2", "2*x(1,1)", "x(1,1)*0", "-x", "(x)", "1x", "_x", "x*2^2"],
)
def test_parse_rejects_malformed_text(text):
    with pytest.raises(ValidationError):
        parse_monomial(text)


@pytest.mark.parametrize("key", ["1", "2", "-x", "(x)", "", 1])
def test_json_keys_are_generator_names(key):
    with pytest.raises(ValidationError, match="must be generator names"):
        Monomial.from_json({key: 1})


@given(monomials)
def test_parse_inverts_repr(m):
    assert parse_monomial(repr(m)) == m


@given(st.text(max_size=20))
def test_parse_raises_only_validation_errors(text):
    try:
        parse_monomial(text)
    except ValidationError:
        pass


def test_ordering_is_total():
    ms = sorted([Q1, Q2, Q1 * Q2, Monomial.unit()], key=lambda m: m.sort_key())
    assert len(set(ms)) == 4


# generator names, some of whose class, node and label coincide (x(1,01) and
# x(1,1); x(1) and x(1,0)): only the name itself tells those apart
TIE_PRONE = ["x(1,01)", "x(1,1)", "x(1)", "x(1,0)", "x(1,a)", "qfrak", "qfrak()", "q1", "mu", "t"]


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(
        st.sampled_from(TIE_PRONE), st.integers(min_value=-3, max_value=3).filter(bool), min_size=1
    ).flatmap(lambda d: st.permutations(list(d.items())))
)
def test_construction_ignores_pair_order(pairs):
    ref = Monomial(dict(sorted(pairs)))
    m = Monomial(tuple(pairs))
    assert m == ref
    assert hash(m) == hash(ref)
    assert repr(m) == repr(ref)
    assert m.sort_key() == ref.sort_key()


def test_tied_names_are_distinct_generators():
    a, b = Monomial.gen("x(1,01)"), Monomial.gen("x(1,1)")
    assert a * b == b * a
    assert (a * b).gens() == ("x(1,01)", "x(1,1)")
    assert Monomial({"x(1,01)": 1, "x(1,1)": 1}) == Monomial({"x(1,1)": 1, "x(1,01)": 1})


# -- products against the from-scratch constructor -------------------------------
#
# Generators of every kind.  By name, mu < q1, a < q1 and x(1,10) < x(1,9),
# the reverse of the canonical order, and x(1,01) ties x(1,1) up to the name.
# x(1,a) is a weight parameter without an integer label; "qfrak" and "qfrakz"
# are other names, not counting parameters.
PRODUCT_GENS = [
    "q1", "q2", "mu", "qfrak(0)", "qfrak(2)", "x(1,01)", "x(1,1)", "x(1,9)", "x(1,10)", "x(2,1)", "x(1,a)",
    "qfrak", "qfrakz", "a", "t",
]
exponent_maps = st.dictionaries(st.sampled_from(PRODUCT_GENS), st.integers(min_value=-3, max_value=3), max_size=6)


def _same(m, ref):
    assert m.exps == ref.exps
    assert m.sort_key() == ref.sort_key()
    assert hash(m) == hash(ref)
    assert list(m.to_json().items()) == list(ref.to_json().items())
    assert repr(m) == repr(ref)
    assert m.gens() == ref.gens()
    assert m == ref


def _negated(m):
    return tuple((g, -e) for g, e in m.exps)


@settings(max_examples=300, deadline=None)
@given(exponent_maps, exponent_maps, st.sampled_from(["independent", "cancels", "partly cancels"]), st.integers(min_value=-3, max_value=3))
def test_products_match_the_constructor(da, db, how, n):
    a = Monomial(da)
    if how == "independent":
        b = Monomial(db)
    elif how == "cancels":
        b = Monomial(_negated(a))
    else:
        b = Monomial(_negated(a) + tuple(db.items()))
    _same(a * b, Monomial(a.exps + b.exps))
    _same(a / b, Monomial(a.exps + _negated(b)))
    _same(a**n, Monomial(tuple((g, e * n) for g, e in a.exps)))
    _same(a.inverse(), Monomial(_negated(a)))
    if how == "cancels":
        assert (a * b).is_unit


@settings(max_examples=200, deadline=None)
@given(exponent_maps, st.dictionaries(st.sampled_from(PRODUCT_GENS), exponent_maps.map(Monomial), max_size=3))
def test_substitute_matches_the_constructor(d, sigma):
    m = Monomial(d)
    pairs = [(h, f * e) for g, e in m.exps for h, f in (sigma[g].exps if g in sigma else ((g, 1),))]
    _same(m.substitute(sigma), Monomial(tuple(pairs)))
