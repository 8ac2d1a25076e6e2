import copy
import itertools
import json
import os
import pickle
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from qqkit.errors import ValidationError
from qqkit.monomial import MU, ExponentTable, Monomial, Q, Q1, Q2, gen_key, parse_monomial, qfrak, xparam

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


# -- the packed form ---------------------------------------------------------------
#
# A monomial is the integer sum of e_g * 2^(64 k_g), k_g the registry index of g,
# with balanced digits: a negative digit borrows from the digits above it.

BOUND = 2**63  # every exponent e has |e| < BOUND
_fresh = itertools.count()


def _fresh_names(n):
    """n generator names that no test has registered yet, of every kind."""
    c = next(_fresh)
    kinds = [f"x(fresh{c},{{}})", f"qfrak(fresh{c}_{{}})", f"fresh{c}_{{}}"]
    return [kinds[i % 3].format(i) for i in range(n)]


def test_a_negative_lower_digit_does_not_borrow_from_the_next():
    m = Q1 * Q2**-1 * xparam("1", 1)
    assert (m.exponent("q1"), m.exponent("q2"), m.exponent("x(1,1)"), m.exponent("mu")) == (1, -1, 1, 0)
    assert m.exps == (("q1", 1), ("q2", -1), ("x(1,1)", 1))
    lo, mid, hi = _fresh_names(3)  # registered in this order: lo has the lowest digit
    for g in (lo, mid, hi):
        Monomial.gen(g)
    for e_lo, e_hi in [(-1, 1), (-1, -1), (1, -1), (-(BOUND - 1), BOUND - 1), (-(BOUND - 1), -(BOUND - 1))]:
        m = Monomial({lo: e_lo, hi: e_hi})
        assert (m.exponent(lo), m.exponent(mid), m.exponent(hi)) == (e_lo, 0, e_hi)
        assert m.to_json() == Monomial({hi: e_hi, lo: e_lo}).to_json() == {lo: e_lo, hi: e_hi}
        assert m.sort_key() == tuple(sorted([(gen_key(lo), e_lo), (gen_key(hi), e_hi)]))
        assert Monomial.gen(lo, e_lo) * Monomial.gen(hi, e_hi) == m


def test_exponents_at_the_bound():
    top = BOUND - 1
    for e in (top, -top):
        m = Monomial({"q1": e, "q2": 1})
        assert (m.exponent("q1"), m.exponent("q2")) == (e, 1)
        assert Q1**e == Monomial.gen("q1", e) == parse_monomial(f"q1^{e}") == Monomial.from_json({"q1": e})
        assert (Q1**e).inverse() == Q1 ** -e
    assert Monomial.gen("q1", top) * Monomial.gen("q1", -top) == Monomial.unit()
    # a bound that reaches 2^63 is checked exactly: these sums stay inside it
    assert Monomial.gen("q1", top) * Monomial.gen("q2", top) == Monomial({"q1": top, "q2": top})
    assert (Monomial.gen("q1", top) * Q2**top) * Q1**-1 == Monomial({"q1": top - 1, "q2": top})
    assert (Monomial.gen("q1", top) * Q1**-1) * Q1 == Monomial.gen("q1", top)
    assert (Q1 * Q2**-1) ** top == Monomial({"q1": top, "q2": -top})
    x, y = xparam("1", 1), xparam("1", 2)
    assert (x**top * Q1).substitute({"x(1,1)": y}) == y**top * Q1


@pytest.mark.parametrize(
    "build",
    [
        lambda: Monomial({"q1": BOUND}),
        lambda: Monomial({"q1": -BOUND}),
        lambda: Monomial((("q1", BOUND - 1), ("q1", 1))),
        lambda: Monomial.gen("q2", BOUND),
        lambda: Monomial.from_json({"q1": BOUND}),
        lambda: parse_monomial(f"q1^{BOUND}"),
        lambda: parse_monomial(f"q1^-{BOUND}"),
        lambda: parse_monomial("q1^" + "9" * 5000),  # longer than int() converts
        lambda: parse_monomial(f"q^{BOUND // 2}*q1^{BOUND // 2}"),
        lambda: Q1**BOUND,
        lambda: (Q1 * Q2) ** -BOUND,
        lambda: Q1 ** (BOUND // 2) * Q1 ** (BOUND // 2),
        lambda: Monomial.gen("q1", BOUND - 1) * Q1,
        lambda: Monomial.gen("q1", -(BOUND - 1)) / Q1,
        lambda: (Q1 ** (BOUND // 2)) ** 2,
        lambda: (xparam("1", 1) ** (BOUND // 2) * Q1).substitute({"x(1,1)": Q1**2}),
    ],
)
def test_one_past_the_bound_is_a_validation_error(build):
    """A digit past the bound would carry into its neighbour; every way in raises instead."""
    with pytest.raises(ValidationError, match=r"outside the bound \|e\| < 2\^63"):
        build()


def test_an_exponent_past_the_bound_exits_2(capsys):
    from qqkit.cli import main

    params = json.dumps({"1,1": f"x(1,1)*q1^{BOUND}"})
    assert main(["expand", "--quiver", "A1", "--w", '{"1": 1}', "--params", params]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "validation error: exponent of q1 is outside the bound |e| < 2^63\n"


def _reference(d):
    """The canonical key, repr and JSON of an exponent map, computed from the map alone."""
    key = tuple(sorted([(gen_key(g), e) for g, e in d.items() if e]))
    text = "*".join(k[-1] if e == 1 else f"{k[-1]}^{e}" for k, e in key) or "1"
    return key, text, [(k[-1], e) for k, e in key]


def _added(*maps):
    out = {}
    for d, n in maps:
        for g, e in d.items():
            out[g] = out.get(g, 0) + n * e
    return out


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_packed_arithmetic_does_not_depend_on_registration_order(data):
    names = _fresh_names(6)
    for g in data.draw(st.permutations(names)):
        Monomial.gen(g)  # the first sight of g gives it the next digit
    gens = names + ["q1", "mu"]
    maps = st.dictionaries(st.sampled_from(gens), st.integers(min_value=-3, max_value=3), max_size=5)
    da, db, n = data.draw(maps), data.draw(maps), data.draw(st.integers(min_value=-3, max_value=3))
    images = data.draw(st.dictionaries(st.sampled_from(gens), maps, max_size=3))
    a, b = Monomial(da), Monomial(db)
    substituted = _added(*[(images[g], e) if g in images else ({g: e}, 1) for g, e in da.items()])
    for m, d in [
        (a * b, _added((da, 1), (db, 1))),
        (a / b, _added((da, 1), (db, -1))),
        (a**n, _added((da, n))),
        (a.inverse(), _added((da, -1))),
        (a.substitute({g: Monomial(img) for g, img in images.items()}), substituted),
    ]:
        key, text, pairs = _reference(d)
        assert m == Monomial(d) and hash(m) == hash(Monomial(d))
        assert m.sort_key() == key
        assert repr(m) == text
        assert list(m.to_json().items()) == pairs
        assert all(m.exponent(g) == d.get(g, 0) for g in gens)


def _outcome(compute):
    try:
        return compute()
    except ValidationError as exc:
        return str(exc)


# past the bound: an image exponent of 2^63, and q2 t^4 -> q2 q1^(-2^64), which packs to 0
@example(keys=["q1"], scale=BOUND // 2, images=[{"q2": 1}], entries=[({"q1": 2}, {})])
@example(keys=["t"], scale=BOUND // 2, images=[{"q1": -1}], entries=[({"t": 4, "q2": 1}, {})])
@settings(max_examples=200, deadline=None)
@given(
    keys=st.lists(st.sampled_from(PRODUCT_GENS), unique=True, max_size=3),
    scale=st.sampled_from([1, 2, BOUND // 4, BOUND // 2]),  # images far out reach the bound
    images=st.lists(st.dictionaries(st.sampled_from(PRODUCT_GENS), st.integers(-1, 1), max_size=3), min_size=3, max_size=3),
    entries=st.lists(st.tuples(exponent_maps, exponent_maps), max_size=8),
)
def test_an_exponent_table_finds_the_monomials_that_substitute_makes_1(keys, scale, images, entries):
    """``ExponentTable.units`` is the positions whose image is 1, and past the bound
    it raises what the first such position's ``substitute`` raises."""
    sigma = {g: Monomial({h: e * scale for h, e in image.items() if h not in keys}) for g, image in zip(keys, images)}
    ms = []
    for own, moved in entries:
        # a monomial of its own, and one made to go to 1: sigma's generators over their images
        moved = {g: e for g, e in moved.items() if g in sigma}
        unit = _outcome(lambda: Monomial(moved) / Monomial.product([(sigma[g], e) for g, e in moved.items()]))
        ms += [Monomial(own)] + ([unit] if isinstance(unit, Monomial) else [])
    expected = _outcome(lambda: [k for k, m in enumerate(ms) if m.substitute(sigma).is_unit])
    got = _outcome(lambda: sorted(ExponentTable(ms).units(sigma, lambda m: m.substitute(sigma).is_unit)))
    assert got == expected


# -- one object per value -----------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(exponent_maps, exponent_maps, st.integers(min_value=-3, max_value=3), st.sampled_from(PRODUCT_GENS))
def test_every_construction_path_returns_the_one_object_of_its_value(da, db, k, g):
    m, b = Monomial(da), Monomial(db)
    assert Monomial(tuple(da.items())) is m
    assert Monomial(dict(reversed(list(da.items())))) is m
    assert parse_monomial(repr(m)) is m
    assert Monomial.from_json(m.to_json()) is m
    assert m * b / b is m
    assert (m**k) ** -1 is m.inverse() ** k
    assert m.inverse().inverse() is m
    assert Monomial.gen(g, k) is Monomial({g: k})
    assert m.substitute({g: b}) is Monomial(tuple((h, f * e) for x, e in m.exps for h, f in (b.exps if x == g else ((x, 1),))))
    # a bound that reaches 2^63 takes the slow constructor; its exponents stay in range
    top = Monomial.gen("q1", BOUND // 2) * Monomial.gen("q2", BOUND // 2)
    assert (top * m) * top.inverse() is m
    # equality is identity, and no other type compares equal
    assert (m == b) is (m is b) and (m != b) is (m is not b)
    assert m != m.exps and Monomial.unit() != 0
    made = [
        Monomial(tuple(da.items())), Monomial(dict(reversed(list(da.items())))), parse_monomial(repr(m)),
        Monomial.from_json(m.to_json()), m * b / b, m.inverse().inverse(),
        (top * m) * top.inverse(), copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m)),
    ]
    assert len({m, *made}) == 1


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(exponent_maps.map(Monomial), st.integers(min_value=-3, max_value=3)), max_size=4))
@example([])  # the empty product is the unit
def test_product_is_the_fold_of_products_and_powers(pairs):
    folded = Monomial.unit()
    for m, e in pairs:
        folded = folded * m**e
    product = Monomial.product(pairs)
    _same(product, folded)
    assert product is folded


def test_a_product_past_the_bound_takes_the_constructor():
    half = Monomial.gen("q1", BOUND // 2)
    # the summed bound reaches 2^63, yet the exponent stays inside it
    assert Monomial.product([(half, 1), (Q1, -1), (half, 1), (Q2, 2)]) is Monomial({"q1": BOUND - 1, "q2": 2})
    with pytest.raises(ValidationError, match=r"^exponent of q1 is outside the bound \|e\| < 2\^63$"):
        Monomial.product([(half, 1), (Q2, 1), (half, 1)])


def test_copies_are_the_object_itself():
    m = xparam("1", 1) * Q1
    assert copy.copy(m) is m and copy.deepcopy(m) is m
    assert copy.deepcopy({m: [m]})[m][0] is m
    assert Monomial.unit().is_unit and repr(Monomial.unit()) == "1"
    assert pickle.loads(pickle.dumps(m)) is m
    assert pickle.loads(pickle.dumps(Monomial.unit())) is Monomial.unit()


def test_threads_racing_on_new_values_intern_one_object():
    """Eight threads build the same 500 new values, each in its own order; all hold the stored objects."""
    for g in _fresh_names(500):  # late names make long packed integers, whose table lookups take long enough to switch in
        Monomial.gen(g)
    names = _fresh_names(20)
    values = [(a, b, e) for a, b in itertools.combinations(names, 2) for e in (1, -1, 2)][:500]
    runs = [values[k : k + 5] for k in range(0, len(values), 5)]
    # each thread shuffles every run of 5 values, and all threads start each run together
    orders = [[random.Random(seed * 1000 + k).sample(run, len(run)) for k, run in enumerate(runs)] for seed in range(8)]
    start = threading.Barrier(len(orders))
    held: list[dict] = [{} for _ in orders]

    def build(order, out):
        for run in order:
            start.wait()
            for a, b, e in run:
                out[a, b, e] = Monomial.gen(a) * Monomial.gen(b, e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so that they race inside the table lookups
    try:
        threads = [threading.Thread(target=build, args=args) for args in zip(orders, held)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    for a, b, e in values:
        one = Monomial({a: 1, b: e})
        assert all(out[a, b, e] is one for out in held)


UNPICKLE = """
import pickle, sys
from qqkit.monomial import Monomial
data, a, b = sys.argv[1:]
Monomial.gen("zz")
m = pickle.loads(bytes.fromhex(data))
print(repr(m), m.exponent(b), m is Monomial({a: -2, b: 1}))
"""


def test_a_pickle_loads_by_generator_name_in_another_process():
    """The loading process registers its generators in another order, so their digits differ."""
    names = _fresh_names(2)
    a, b = (Monomial.gen(g) for g in names)
    data = pickle.dumps(b * a**-2).hex()
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.run([sys.executable, "-c", UNPICKLE, data, *names], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == f"{b * a**-2!r} 1 True\n"


# Generator names that one corpus run registers, replayed in reverse order by a fresh
# interpreter that first allocates and keeps 200,000 objects, so that its monomials sit
# at other addresses; every job must print the bytes of its line in cli_digests.txt.
REPLAY = """
import json, sys
from qqkit import monomial
from qqkit.verify import run_corpus
names, jobs = json.loads(sys.argv[1])
if names is None:
    run_corpus()
    print(json.dumps([k[-1] for k in monomial._KEYS.values()]))
else:
    ballast = [object() for _ in range(200_000)]
    for g in reversed(names):
        monomial.Monomial.gen(g)
    from test_cli_digests import _digest
    print("\\n".join(_digest(argv) for argv in jobs))
"""


def test_digests_do_not_depend_on_registration_order():
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)])}
    pinned = (tests / "cli_digests.txt").read_text(encoding="utf-8").splitlines()
    jobs = [json.loads(ln.split(" ", 3)[3]) for ln in pinned]

    def replay(names):
        proc = subprocess.run(
            [sys.executable, "-c", REPLAY, json.dumps([names, jobs])], capture_output=True, text=True, env=env
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        return proc.stdout.splitlines()

    names = json.loads(replay(None)[0])
    assert len(names) > 15 and {"x(1,1)", "x(2,1)", "x(0,1)", "qfrak(0)"} <= set(names)
    assert {"hasse", "burge-check"} <= {argv[0] for argv in jobs}
    assert replay(names) == pinned
