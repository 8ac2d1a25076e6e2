import json
import random
from itertools import permutations
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from qqkit.coefficient import Coefficient, Substitution, _degenerate_integer, _orient, _pol_mul, _pol_pow_binomial, s_function, s_product, s_r
from qqkit.errors import NonIntegerLimit, PoleError, QQError, ValidationError
from qqkit.monomial import MU, Monomial, Q, Q1, Q2, xparam
from qqkit.render import coeff_latex

GENS = ["q1", "q2", "mu", "x(1,1)", "x(1,2)"]


def random_monomial(rng, span=4):
    exps = {g: rng.randint(-span, span) for g in rng.sample(GENS, rng.randint(1, 3))}
    return Monomial(exps)


def small_coefficients():
    args = st.dictionaries(
        st.sampled_from(GENS), st.integers(min_value=-2, max_value=2), min_size=1, max_size=2
    ).map(Monomial).filter(lambda m: not m.is_unit)
    factor = st.tuples(args, st.integers(min_value=-2, max_value=2).filter(bool))
    return st.builds(
        lambda n, u, fs: Coefficient.factored(n, u, fs),
        st.integers(min_value=-3, max_value=3).filter(bool),
        st.dictionaries(st.sampled_from(GENS), st.integers(min_value=-1, max_value=1), max_size=2).map(Monomial),
        st.lists(factor, max_size=2),
    )


# -- S-function basics -------------------------------------------------------


def test_s_zeros_and_poles():
    assert s_function(Q1).is_zero
    assert s_function(Q2).is_zero
    with pytest.raises(PoleError):
        s_function(Monomial.unit())
    with pytest.raises(PoleError):
        s_function(Q)
    assert s_r(2, Q1**2).is_zero
    assert s_r(2, Q2).is_zero
    with pytest.raises(PoleError):
        s_r(2, Q1**2 * Q2)


def test_s_inversion_thousand_random():
    rng = random.Random(20260808)
    checked = 0
    while checked < 1000:
        z = random_monomial(rng)
        if z.is_unit or z == Q:
            continue
        a, b = s_function(z), s_function(Q * z.inverse())
        assert a.kind == b.kind
        if not a.is_zero:
            assert (a.integer, a.unit, a.factors) == (b.integer, b.unit, b.factors)
        assert a == b
        checked += 1


def test_s_r_reflection_and_product():
    rng = random.Random(7)
    for _ in range(60):
        z = random_monomial(rng)
        for r in (1, 2, 3):
            factors_defined = all(
                not (z * Q1**-s).is_unit and z * Q1**-s != Q for s in range(r)
            )
            if not factors_defined:
                continue
            lhs = s_r(r, z)
            assert lhs == s_product(r, z)
            refl = z.inverse() * Q1**r * Q2
            assert lhs == s_r(r, refl)


def test_s_product_merges_to_higher_degree():
    assert s_function(Q1**-1) * s_function(Q1**-2) == s_r(2, Q1**-1)


# -- ring axioms --------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(small_coefficients(), small_coefficients(), small_coefficients())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert a + Coefficient.zero() == a


def test_add_basics():
    one = Coefficient.one()
    assert (one + one).as_integer() == 2
    s = s_function(Q1**-1)
    assert (s + (-s)).is_zero
    assert (s + Coefficient.zero()) == s
    assert (s / s).is_one


def test_add_refactors_to_factored():
    # (1 - q1^2) = (1 - q1) + q1(1 - q1): the sum cancels its denominator
    a = Coefficient.factored(1, Monomial.unit(), [(Q1, 1), (Q1**2, -1)])
    b = Coefficient.factored(1, Q1, [(Q1, 1), (Q1**2, -1)])
    total = a + b
    assert total.is_one


# -- specialization -----------------------------------------------------------


def test_specialize_examples():
    x1, x2 = xparam("1", 1), xparam("1", 2)
    c = s_function(x2 / x1)
    assert c.specialize({"x(1,2)": x1 * Q1}).is_zero
    assert c.specialize({"x(1,2)": x1 * Q2}).is_zero
    assert s_function(x1 / x2).specialize({"x(1,2)": x1 * Q1}) == s_function(Q1**-1)
    assert c.specialize({}) == c


def test_specialize_pole_and_validation():
    x1, x2 = xparam("1", 1), xparam("1", 2)
    c = s_function(x2 / x1)
    with pytest.raises(PoleError):
        c.specialize({"x(1,2)": x1})
    with pytest.raises(ValidationError):
        c.specialize({"x(1,2)": x2 * Q1})


# -- the degeneration rule ------------------------------------------------------
#
# t = x(1,2)/x(1,1) and sigma = {x(1,2): x(1,1)} send every power of t to 1.
# The value of a product of (1 - t^k)^p there is decided by the net power of
# those factors, and at net power 0 by the slope ratio prod k^p.

T = xparam("1", 2) / xparam("1", 1)
SIGMA_T = {"x(1,2)": xparam("1", 1)}


def _in_t(*factors):
    return Coefficient.factored(1, Monomial.unit(), [(T**k, p) for k, p in factors])


def test_degenerate_ratio_one_half_is_not_an_integer():
    with pytest.raises(NonIntegerLimit):
        _in_t((1, 1), (2, -1)).specialize(SIGMA_T)  # (1-t)/(1-t^2) -> 1/2


def test_degenerate_ratio_two():
    assert _in_t((2, 1), (1, -1)).specialize(SIGMA_T).as_integer() == 2  # (1+t) -> 2


def test_degenerate_net_power_decides():
    assert _in_t((1, 2), (2, -1)).specialize(SIGMA_T).is_zero
    with pytest.raises(PoleError):
        _in_t((1, 1), (2, -2)).specialize(SIGMA_T)


def test_degenerate_ratio_keeps_the_surviving_factors():
    c = Coefficient.factored(3, Q1, [(T, -1), (T**-3, 1), (T * Q2, 1)])
    # (1-t^-3)/(1-t) -> -3; the rest is 3 q1 (1 - q2)
    assert c.specialize(SIGMA_T) == Coefficient.factored(-9, Q1, [(Q2, 1)])


def test_degenerate_zero_over_zero_under_two_generators_is_a_pole():
    s = xparam("1", 3) / xparam("1", 1)
    c = Coefficient.factored(1, Monomial.unit(), [(T, 1), (s, -1)])
    with pytest.raises(PoleError, match="0/0"):
        c.specialize({"x(1,2)": xparam("1", 1), "x(1,3)": xparam("1", 1)})


def _binomial(arg, p):
    return Coefficient.factored(1, Monomial.unit(), [(arg, p)])


def test_degenerate_denominators_are_named_in_argument_order():
    # the error names the first vanishing denominator by argument, however the value was built
    x1 = xparam("1", 1)
    pole = "denominator factor (1 - x(1,1)*x(1,2)^-1) vanished under substitution"
    for c in (
        _binomial(T**2, -1) * _binomial(T, -1) * _binomial(Q1, 1),
        _binomial(Q1, 1) * _binomial(T, -1) * _binomial(T**2, -1),
        Coefficient.factored(1, Monomial.unit(), [(T**2, -1), (Q1, 1), (T, -1)]),
    ):
        with pytest.raises(PoleError) as err:
            c.specialize(SIGMA_T)
        assert str(err.value) == pole
    s = xparam("1", 3) / x1
    zeros = (
        "0/0: factors (1 - x(1,1)*x(1,2)^-1)^1*(1 - x(1,1)*x(1,3)^-1)^-1*(1 - x(1,1)^2*x(1,2)^-2)^1"
        "*(1 - x(1,1)^2*x(1,2)^-1*x(1,3)^-1)^-1 vanished together under substitution"
    )
    for c in (
        _binomial(T, 1) * _binomial(T**2, 1) * _binomial(s, -1) * _binomial(s * T, -1),
        _binomial(s * T, -1) * _binomial(s, -1) * _binomial(T**2, 1) * _binomial(T, 1),
    ):
        with pytest.raises(PoleError) as err:
            c.specialize({"x(1,2)": x1, "x(1,3)": x1})
        assert str(err.value) == zeros


def test_limit_of_a_general_value_substitutes():
    c = Coefficient.factored(1, Q1, [(Q2, -1)]) + Coefficient.one()  # (q1 + 1 - q2)/(1 - q2)
    assert c.kind == "general"
    assert c.limit_at_unity("q1") == Coefficient.factored(1, Monomial.unit(), [(Q2, -1)]) + Coefficient.one()
    with pytest.raises(PoleError):
        c.limit_at_unity("q2")


def test_limit_of_a_general_sum_divides_out_its_zeros():
    x = xparam("1", 1)
    a = Coefficient.factored(2, Monomial.unit(), [(Q1, 1), (Q1**2, -1)])  # 2(1-q1)/(1-q1^2)
    b = Coefficient.factored(2, x, [(Q1, 1), (Q1**2, -1)])
    assert (a + b).kind == "general"  # (1 - q1) divides its numerator, (1 - q1^2) does not
    assert (a + b).limit_at_unity("q1") == Coefficient.one() + Coefficient.from_monomial(x)
    half = Coefficient.factored(1, Monomial.unit(), [(Q1, 1), (Q1**2, -1)])
    with pytest.raises(NonIntegerLimit):
        (half + half * Coefficient.from_monomial(x)).limit_at_unity("q1")  # (1 + x)/2
    with pytest.raises(PoleError):
        (a + b * Coefficient.factored(1, Monomial.unit(), [(Q1, -1)])).limit_at_unity("q1")


# -- structural equality --------------------------------------------------------
#
# Values that are not General are equal exactly when their factored forms are;
# the reference is the subtraction path.  Arguments are powers m, m^2, m^3 of
# a few base monomials, so colinear binomials meet.

EQ_BASES = [Q1, Q1 * Q2**-1, T, T * Q2]
EQ_UNITS = [Monomial.unit(), Q1, Q2**-1, T]

factor_specs = st.lists(
    st.tuples(
        st.sampled_from(EQ_BASES),
        st.sampled_from([1, 2, 3, -1, -2, -3]),
        st.integers(min_value=-2, max_value=2).filter(bool),
    ),
    max_size=4,
)
value_specs = st.tuples(st.sampled_from([1, -1, 2]), st.sampled_from(EQ_UNITS), factor_specs)


def _value(spec):
    n, u, fs = spec
    return Coefficient.factored(n, u, [(m**k, p) for m, k, p in fs])


def _value_other_way(spec):
    """The same value from single factors, each written as
    (1 - m)^p = (-m)^p (1 - 1/m)^p, multiplied in reverse order."""
    n, u, fs = spec
    out = Coefficient.from_monomial(u, n)
    for m, k, p in reversed(fs):
        out = out * Coefficient.factored((-1) ** p, m ** (k * p), [(m ** -k, p)])
    return out


@settings(max_examples=300, deadline=None)
@given(value_specs, value_specs, st.sampled_from(["same", "other way", "through c", "random"]), value_specs)
def test_structural_equality_matches_subtraction(sa, sb, how, sc):
    a = _value(sa)
    if how == "same":
        b = _value(sa)
    elif how == "other way":
        b = _value_other_way(sa)
    elif how == "through c":
        c = Coefficient.factored(1, sc[1], [(m**k, p) for m, k, p in sc[2]])
        b = (a * c) * c.inverse()
    else:
        b = _value(sb)
    assert (a == b) is (a - b).is_zero
    if how != "random":
        assert a == b


# -- limits -------------------------------------------------------------------


@pytest.mark.parametrize(
    "value,at_q1,at_q2",
    [
        (lambda: s_function(Q1**-1), 2, 1),
        (lambda: s_function(Q2**-1), 1, 2),
        (lambda: s_r(2, Q1**-1), 3, 1),
        (lambda: s_r(2, Q1), -1, 1),
        (lambda: s_r(2, Q1**-2), 2, 1),
    ],
)
def test_limit_table(value, at_q1, at_q2):
    assert value().limit_at_unity("q1").as_integer() == at_q1
    assert value().limit_at_unity("q2").as_integer() == at_q2


def test_limit_binomials():
    for w in range(7):
        for v in range(w + 1):
            c = Coefficient.one()
            for i in range(1, w - v + 1):
                for j in range(1, v + 1):
                    c = c * s_function(Q1 ** (1 - i - j))
            assert c.limit_at_unity("q1").as_integer() == comb(w, v)
            assert c.limit_at_unity("q2").as_integer() == 1


def test_limit_pole_and_non_integer():
    c = Coefficient.factored(1, Monomial.unit(), [(Q1, -1), (Q1 * Q2, 1)])
    with pytest.raises(PoleError):
        c.limit_at_unity("q1")
    with pytest.raises(NonIntegerLimit):
        s_function(Q1**-2).limit_at_unity("q1")  # slope ratio 3/2


def test_limit_zero_multiplicity():
    c = Coefficient.factored(1, Monomial.unit(), [(Q1, 1), (Q1 * Q2, -1)])
    assert c.limit_at_unity("q1").is_zero


def test_specialize_then_limit_commutes_when_defined():
    x1, x2 = xparam("1", 1), xparam("1", 2)
    cases = [
        (s_function(x2 / x1), {"x(1,2)": x1 * Q1**-2 * Q2**-1}),
        (s_function(x2 / x1), {"x(1,2)": x1 * Q1**-1 * Q2**-2}),
        (s_r(2, x2 / x1), {"x(1,2)": x1 * Q1**-3 * Q2**-2}),
    ]
    for c, sigma in cases:
        for which in ("q1", "q2"):
            path_a = c.specialize(sigma).limit_at_unity(which)
            sig2 = {g: m.substitute({which: Monomial.unit()}) for g, m in sigma.items()}
            path_b = c.limit_at_unity(which).specialize(sig2)
            assert path_a == path_b


# -- serialization ------------------------------------------------------------


def test_json_round_trip():
    vals = [
        Coefficient.zero(),
        Coefficient.from_monomial(Monomial.unit(), -7),
        s_function(Q1**-1),
        s_r(2, Q1**-2) * s_function(Q2**-1),
        s_function(Q1**-1) + Coefficient.one(),
    ]
    for c in vals:
        assert Coefficient.from_json(c.to_json()) == c


def test_zero_is_the_factored_value_with_integer_0():
    zero, s = Coefficient.zero(), s_function(Q1**-1)
    assert (zero.kind, zero.integer, zero.unit, zero.factors) == ("factored", 0, Monomial.unit(), ())
    assert repr(zero) == "0" and zero.as_integer() == 0
    assert zero.to_json() == {"int": 0, "unit": {}, "factors": []}
    routes = [
        -zero, zero**3, zero * s, s * zero, zero * (s + Coefficient.one()), s + (-s), zero + zero,
        zero.specialize({"q1": Q2}), Coefficient.from_monomial(Q1, 0), Coefficient.factored(0, Q1, [(Q2, 1)]),
        Coefficient.from_json({"int": 0}),
    ]
    for c in routes:
        assert c.is_zero and c == zero and repr(c) == "0" and c.to_json() == zero.to_json()
        assert (c.kind, c.integer, c.unit, c.factors) == ("factored", 0, Monomial.unit(), ())


@pytest.mark.parametrize(
    "build",
    [
        lambda: Coefficient.factored(1, Q1, [(Monomial.unit(), 1)]),
        lambda: Coefficient.general({Q1: 1, Q2: 1}, [(Monomial.unit(), 1)]),
        lambda: Coefficient.from_json({"int": 1, "factors": [{"arg": {}, "pow": -1}]}),
        lambda: Coefficient.from_json({"num": [[{}, 1]], "den": [{"arg": {}, "pow": 1}]}),
    ],
)
def test_a_unit_binomial_argument_is_a_validation_error(build):
    with pytest.raises(ValidationError, match="^binomial factor with unit argument$"):
        build()


def test_inverse_requires_unit_integer():
    with pytest.raises(ValidationError):
        Coefficient.from_monomial(Monomial.unit(), 2).inverse()
    with pytest.raises(ZeroDivisionError):
        Coefficient.zero().inverse()


# -- canonical orientation and the S-value memo --------------------------------


nonunit_monomials = st.dictionaries(
    st.sampled_from(GENS + ["qfrak(0)", "x(1,01)", "t"]),
    st.integers(min_value=-4, max_value=4),
    min_size=1,
    max_size=4,
).map(Monomial).filter(lambda m: not m.is_unit)


@settings(max_examples=200, deadline=None)
@given(nonunit_monomials)
def test_orient_keeps_the_larger_sort_key(m):
    arg, flipped = _orient(m)
    keep = m.sort_key() >= m.inverse().sort_key()
    assert flipped is not keep
    assert arg == (m if keep else m.inverse())


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=3), nonunit_monomials)
def test_s_r_memo_matches_a_fresh_build(r, z):
    try:
        fresh = s_r.__wrapped__(r, z)
    except PoleError:
        for _ in range(2):
            with pytest.raises(PoleError):
                s_r(r, z)
        return
    for _ in range(2):
        assert s_r(r, z).to_json() == fresh.to_json()


def test_s_r_pole_raises_on_every_call():
    for _ in range(3):
        with pytest.raises(PoleError):
            s_r(2, Q1**2 * Q2)
        with pytest.raises(PoleError):
            s_function(Monomial.unit())


# -- CAS oracle -----------------------------------------------------------------
#
# Coefficient +, *, /, specialize and limit_at_unity against sympy's field of
# rational functions over ZZ, whose elements are kept cancelled: two values
# agree when their difference cancels to zero, and a specialization or limit
# is a pole exactly when the cancelled denominator vanishes there.  sympy is
# used here only, and the test is skipped without it.  The products use
# x-exponents in {-1, 0, 1}, so specializing x(1,2) degenerates at most one
# canonical binomial and its value (zero, pole or rational function) is well
# defined.

ORACLE_GENS = ["q1", "q2", "x(1,1)", "x(1,2)"]


def _to_field(K, c: Coefficient):
    def mono(m):
        out = K.one
        for g, e in m.exps:
            out *= K.gens[ORACLE_GENS.index(g)] ** e
        return out

    if c.is_zero:
        return K.zero
    if c.kind == "factored":
        out = c.integer * mono(c.unit)
        for a, p in c.factors:
            out *= (1 - mono(a)) ** p
        return out
    out = K.zero
    for m, k in c.num.items():
        out += k * mono(m)
    for a, p in c.den:
        out /= (1 - mono(a)) ** p
    return out


def _at(f, images):
    """Numerator and denominator of f with each generator replaced by a
    Laurent monomial (an exponent vector), times one common monomial."""
    maps = []
    for poly in (f.numer, f.denom):
        terms: dict = {}
        for monom, c in poly.terms():
            key = tuple(sum(e * img[v] for e, img in zip(monom, images)) for v in range(len(images)))
            terms[key] = terms.get(key, 0) + c
        maps.append(terms)
    low = [min(m[v] for terms in maps for m in terms) for v in range(len(images))]
    ring = f.numer.ring
    return [ring.from_dict({tuple(a - b for a, b in zip(m, low)): c for m, c in terms.items()}) for terms in maps]


def _product(K, rng, xs=(-1, 0, 1)):
    """A random product of S-values and binomials (1 - z)^(+-1), with its value
    built by sympy from the formula of S_r."""
    out, ref = Coefficient.one(), K.one
    q1, q2, x1, x2 = K.gens
    for _ in range(rng.randint(1, 3)):
        e = [rng.randint(-2, 2), rng.randint(-2, 2), rng.choice(xs), rng.choice(xs)]
        z, r, p = Monomial(dict(zip(ORACLE_GENS, e))), rng.randint(1, 2), rng.choice((1, -1))
        zz = q1 ** e[0] * q2 ** e[1] * x1 ** e[2] * x2 ** e[3]
        if rng.random() < 0.3:
            if not z.is_unit:
                out, ref = out * Coefficient.factored(1, Monomial.unit(), [(z, p)]), ref * (1 - zz) ** p
            continue
        try:
            out = out * s_r(r, z) ** p
        except (PoleError, ZeroDivisionError):  # a pole, or the inverse of an S-zero
            continue
        ref *= ((1 - zz / q1**r) * (1 - zz / q2) / ((1 - zz) * (1 - zz / (q1**r * q2)))) ** p
    return out, ref


def _check_at(K, compute, f, images):
    """compute() evaluates the cancelled rational function f at images."""
    num, den = _at(f, images)
    try:
        got = compute()
    except PoleError:
        assert den == 0
        return
    except NonIntegerLimit:  # the limit exists but is not integral: only finiteness is checked
        assert den != 0 and num != 0
        return
    assert den != 0
    g = _to_field(K, got)
    assert g.numer * den == num * g.denom


def test_arithmetic_matches_sympy():
    sp = pytest.importorskip("sympy")
    K = sp.field([sp.Symbol(g) for g in ORACLE_GENS], sp.ZZ)[0]
    unit = [tuple(int(v == k) for v in range(4)) for k in range(4)]
    rng = random.Random(20261018)
    for _ in range(10):
        (a, fa), (b, fb) = _product(K, rng), _product(K, rng)
        assert _to_field(K, a) - fa == 0
        total = a + b
        assert _to_field(K, a * b) - fa * fb == 0
        assert _to_field(K, total) - (fa + fb) == 0
        if not b.is_zero:
            assert _to_field(K, a / b) - fa / fb == 0

        i, j = rng.randint(-2, 2), rng.randint(-2, 2)
        ratios = [m for m, _ in a.factors if m.exponent("x(1,2)") == -m.exponent("x(1,1)") != 0]
        if ratios and rng.random() < 0.7:  # degenerate one binomial: a zero or a pole
            m = rng.choice(ratios)
            e = m.exponent("x(1,2)")
            i, j = -e * m.exponent("q1"), -e * m.exponent("q2")
        sigma = {"x(1,2)": xparam("1", 1) * Q1**i * Q2**j}
        images = unit[:3] + [(i, j, 1, 0)]
        for d, fd in ((a, fa), (total, fa + fb)):
            _check_at(K, lambda: d.specialize(sigma), fd, images)
        c, fc = _product(K, rng, xs=(0,))  # pure q-monomials: limits that vanish or diverge
        for k, which in enumerate(("q1", "q2")):
            images = [(0, 0, 0, 0) if v == k else unit[v] for v in range(4)]
            for d, fd in ((a, fa), (c * a, fc * fa)):
                _check_at(K, lambda: d.limit_at_unity(which), fd, images)


def test_degeneration_rule_matches_sympy():
    """Products of (1 - m^k)^p over one base m, k in +-{1, 2, 3}, times
    (1 - q1 t), and their sums with such products times (1 - q2 t): under
    the substitution that sends m to 1, and under the limit of a pure q1 or
    q2 base, the value must be sympy's."""
    sp = pytest.importorskip("sympy")
    K = sp.field([sp.Symbol(g) for g in ORACLE_GENS], sp.ZZ)[0]
    q1, q2, x1, x2 = K.gens
    unit = [tuple(int(v == k) for v in range(4)) for k in range(4)]
    rng, rng_sums = random.Random(20261019), random.Random(20261020)
    for _ in range(40):
        i, j = rng.randint(-2, 2), rng.randint(-2, 2)
        cases = [  # (base, its field value, compute, images)
            (T * Q1**i * Q2**j, x2 / x1 * q1**i * q2**j,
             lambda c: c.specialize({"x(1,2)": xparam("1", 1) * Q1**-i * Q2**-j}), unit[:3] + [(-i, -j, 1, 0)]),
            (Q1, q1, lambda c: c.limit_at_unity("q1"), [(0, 0, 0, 0)] + unit[1:]),
            (Q2, q2, lambda c: c.limit_at_unity("q2"), [unit[0], (0, 0, 0, 0)] + unit[2:]),
        ]
        for m, fm, compute, images in cases:
            c, fc = _over_base(rng, m, fm, (Q1 * T, 1 - q1 * x2 / x1))
            _check_at(K, lambda: compute(c), fc, images)
            # a sum is General, and its zeros sit in the numerator polynomial
            d, fd = _over_base(rng_sums, m, fm, (Q2 * T, 1 - q2 * x2 / x1))
            _check_at(K, lambda: compute(c + d), fc + fd, images)


def _over_base(rng, m, fm, other):
    """n (1 - other) prod (1 - m^k)^p, k in +-{1, 2, 3}, with its field value."""
    factors, ref = [(other[0], 1)], other[1]
    for _ in range(rng.randint(1, 4)):
        k, p = rng.choice((1, 2, 3, -1, -2, -3)), rng.choice((1, -1, 2, -2))
        factors.append((m**k, p))
        ref *= (1 - fm**k) ** p
    n = rng.choice((1, -1, 2))
    return Coefficient.factored(n, Monomial.unit(), factors), n * ref


# -- products against the from-scratch constructor -------------------------------
#
# Argument bases whose generator names sort against the canonical order
# (mu < q1, x(1,10) < x(1,9)), so a merge by name would misplace factors.

PRODUCT_BASES = [Q1, Q1 * Q2**-1, MU, MU * Q1**-1, xparam("1", 9), xparam("1", 10) * Q2, T]
product_factor_specs = st.lists(
    st.tuples(
        st.sampled_from(PRODUCT_BASES),
        st.sampled_from([1, 2, -1]),
        st.integers(min_value=-2, max_value=2).filter(bool),
    ),
    max_size=5,
)
product_specs = st.tuples(st.sampled_from([1, -1, 2, -3]), st.sampled_from(EQ_UNITS + [MU]), product_factor_specs)


def _structure(c):
    return c.kind, c.integer, c.unit.exps, tuple((a.exps, p) for a, p in c.factors)


@settings(max_examples=300, deadline=None)
@given(product_specs, product_specs, product_specs, st.sampled_from(["independent", "cancels", "partly cancels"]))
def test_factored_product_matches_the_constructor(sa, sb, sc, how):
    a = _value(sa)
    inverse = [(arg, -p) for arg, p in a.factors]
    if how == "independent":
        b = _value(sb)
    elif how == "cancels":
        b = Coefficient.factored(sb[0], a.unit.inverse(), inverse)
    else:
        b = Coefficient.factored(sb[0], sb[1], inverse + [(m**k, p) for m, k, p in sb[2]])
    ref = Coefficient.factored(a.integer * b.integer, a.unit * b.unit, a.factors + b.factors)
    assert _structure(a * b) == _structure(ref)
    keys = [arg.sort_key() for arg, _ in (a * b).factors]
    assert keys == sorted(set(keys))
    assert all(p for _, p in (a * b).factors)
    assert a * b == b * a and _structure(a * b) == _structure(b * a)
    c = _value(sc)
    assert _structure((a * b) * c) == _structure(a * (b * c))
    if how == "cancels":
        assert not (a * b).factors and (a * b).unit.is_unit
    assert a**1 is a


# -- one Substitution per sigma ---------------------------------------------------


def test_substitution_checks_sigma_once_and_keeps_each_image():
    x1, x2 = xparam("1", 1), xparam("1", 2)
    sigma = {"x(1,2)": x1 * Q1}
    sub = Substitution(sigma)
    m = x2**2 * Q2 / x1
    image = sub[m]
    assert image == m.substitute(sigma) == x1 * Q1**2 * Q2
    assert sub[m] is image
    with pytest.raises(ValidationError, match=r"^substitution image of x\(1,2\) reuses substituted generators$"):
        Substitution({"x(1,2)": x2 * Q1})


# one-generator, two-generator and limit substitutions, and one that fails the image check
SHARED_SIGMAS = [
    SIGMA_T,
    {"x(1,2)": xparam("1", 1) * Q1},
    {"x(1,2)": xparam("1", 1), "q2": Q1},
    {"q1": Monomial.unit()},
    {"q2": Monomial.unit()},
    {"x(1,2)": xparam("1", 2) * Q2},
]


def _outcome(compute):
    try:
        return _structure(compute())
    except QQError as exc:
        return type(exc), str(exc)


def _reference_substitute(v, sub):
    """A reference factored walk: split the factors, decide the degenerate ones,
    then normalize the surviving images through ``Coefficient.factored``."""
    if v.kind != "factored":
        return v.substitute(sub)
    degenerate, survivors = [], []
    for a, p in v.powers.items():
        a2 = sub[a]
        if a2.is_unit:
            degenerate.append((a, p))
        else:
            survivors.append((a2, p))
    n = v.integer
    if degenerate:
        n = _degenerate_integer(sub.sigma, degenerate, n)
        if n is None:
            return Coefficient.zero()
    return Coefficient.factored(n, sub[v.unit], survivors)


@settings(max_examples=200, deadline=None)
@given(st.lists(value_specs, max_size=6), st.sampled_from(SHARED_SIGMAS))
def test_a_shared_substitution_answers_as_a_fresh_one_per_value(specs, sigma):
    values = [_value(spec) for spec in specs]
    fresh = [_outcome(lambda: v.specialize(sigma)) for v in values]
    reference = [_outcome(lambda: _reference_substitute(v, Substitution(sigma))) for v in values]
    try:
        sub = Substitution(sigma)
    except ValidationError as exc:
        shared = [(type(exc), str(exc))] * len(values)
    else:
        shared = [_outcome(lambda: v.substitute(sub)) for v in values]
    assert shared == fresh == reference


# -- integer limits through a shared substitution -----------------------------------
#
# A pair (1 - b t^i)^p (1 - (b t^j)^s)^-p of factors meets one image under t -> 1,
# in one orientation or in both; a balanced unit cancels the b^p a flipped one
# leaves, so many drawn values have an integer limit.  Powers of t degenerate, and
# a lone factor or an added term usually leaves a value that is not an integer.
_LIMIT_BASES = [Q1, Q2, Q1 * Q2, xparam("1", 1), xparam("1", 1) ** -1 * Q2, xparam("1", 2) * Q1**-1]
_small = st.integers(min_value=-2, max_value=2)


@st.composite
def limit_values(draw, which):
    t = Monomial.gen(which)
    unit = t ** draw(_small)
    balanced = draw(st.integers(min_value=0, max_value=3)) > 0
    factors = []
    pairs = st.tuples(st.sampled_from(_LIMIT_BASES), _small, _small, st.sampled_from([1, -1]), _small.filter(bool))
    for b, i, j, s, p in draw(st.lists(pairs, max_size=3)):
        factors += [(b * t**i, p), ((b * t**j) ** s, -p)]
        if s < 0 and balanced:
            unit = unit * b**-p
    factors += [(t**k, p) for k, p in draw(st.lists(st.tuples(_small.filter(bool), _small.filter(bool)), max_size=1))]
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        factors.append((draw(st.sampled_from(_LIMIT_BASES)), 1))
    c = Coefficient.factored(draw(st.sampled_from([1, -1, 2, 3])), unit, [(a, p) for a, p in factors if not a.is_unit])
    if draw(st.integers(min_value=0, max_value=5)) == 0:
        c = c + Coefficient.from_monomial(t ** draw(_small))
    return c


def _integer_outcome(compute):
    try:
        return compute()
    except QQError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["q1", "q2"]).flatmap(lambda which: st.tuples(st.just(which), st.lists(limit_values(which), max_size=6))))
@example(("q1", [s_function(Q1**-1), s_function(Q1**-1) * s_function(Q1**-2) * s_function(Q1**-2), s_function(Q1**-2), Coefficient.zero()]))
@example(("q1", [Coefficient.factored(1, xparam("1", 1) ** -1, [(xparam("1", 1) * Q1, 1), (xparam("1", 1) ** -1, -1)])]))
# the slope ratio is 1/2, and the flip of (1 - 1/x) must not negate it before it prints
@example(("q2", [Coefficient.factored(1, Monomial.unit(), [(Q2, 1), (Q2 * xparam("1", 1) ** -1, 1), (Q2**2, -1)])]))
def test_a_shared_limit_answers_as_the_reference_walk(case):
    """One Substitution, shared by several values, gives each value's limit,
    error class and error text as the reference walk does with a fresh one."""
    which, values = case
    sub = Substitution({which: Monomial.unit()})
    expected = [_integer_outcome(lambda: _reference_substitute(v, Substitution(sub.sigma)).as_integer()) for v in values]
    shared = [_integer_outcome(lambda: v.substitute(sub).as_integer()) for v in values]
    assert shared == expected


# colinear arguments a, a^2, a^3 (in both orientations), and two off the line
_A = xparam("1", 1)
_B = xparam("1", 2)
COLINEAR = [_A, _A**2, _A**3, _A**-1, _A**-2, _A * _B, _B]
_colinear_binomials = st.tuples(st.sampled_from(COLINEAR), st.integers(min_value=1, max_value=2))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_colinear_binomials, max_size=3),
    st.dictionaries(st.sampled_from([Monomial.unit(), _A, _A**2, _B]), st.integers(-2, 2).filter(bool), min_size=1, max_size=2),
    st.lists(_colinear_binomials, min_size=1, max_size=4),
)
# (1 - a^2) / ((1 - a)(1 - a^2)): dividing by (1 - a) first used to leave (1 + a)/(1 - a^2)
@example([(_A**2, 1)], {Monomial.unit(): 1}, [(_A, 1), (_A**2, 1)])
def test_a_general_value_does_not_depend_on_the_order_of_its_denominators(zeros, cofactor, dens):
    """The numerator is a cofactor times binomials, so that denominators often divide it."""
    num = dict(cofactor)
    for arg, p in zeros:
        num = _pol_mul(num, _pol_pow_binomial(arg, p))
    forms = set()
    for order in permutations(dens):
        c = Coefficient.general(dict(num), list(order))
        forms.add((c.kind, json.dumps(c.to_json()), coeff_latex(c)))
        assert c == Coefficient.general(dict(num), dens)
    assert len(forms) == 1, forms
