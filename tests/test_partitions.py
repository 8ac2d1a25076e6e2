import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import qqkit.engine
import qqkit.partitions
import qqkit.verify
from qqkit.coefficient import Coefficient, Substitution, Vanishing, s_function
from qqkit.engine import WeightConfig, YMonomial, derivative_case, expand, highest_weight
from qqkit.errors import CollidingArguments, InvalidPit, NonTermination, PoleError, QQError, ValidationError
from qqkit.monomial import MU, Monomial, Q, Q1, Q2, Q3, Q4, parse_monomial, qfrak, xparam
from qqkit.partitions import (
    Partition,
    _cycle_nodes,
    _tuples_of_total,
    affine_character,
    box_weight,
    burge_filter,
    burge_resonance_sigma,
    partitions_of,
    partitions_up_to,
    pit_filter,
    pit_resonance_sigma,
    pit_resonance_vanishes,
    z_Ar_tuple,
    z_s_values,
)
from qqkit.quiver import Quiver, builtin_quiver
from qqkit.verify import _check_pit, burge_rows


def test_partition_basics():
    lam = Partition((3, 1))
    assert lam.size == 4
    assert lam.transpose() == Partition((2, 1, 1))
    assert lam.transpose().transpose() == lam
    # computed once: the same object on every call, and its transpose is lam
    assert lam.transpose() is lam.transpose()
    assert lam.transpose().transpose() is lam
    assert Partition(()).transpose() == Partition(())
    with pytest.raises(ValidationError):
        Partition((1, 2))


def test_corners_against_brute_force():
    def weakly_decreasing(rows):
        return all(rows[k] >= rows[k + 1] for k in range(len(rows) - 1))

    for lam in partitions_up_to(6):
        addable = set()
        for s2 in range(1, len(lam.parts) + 2):
            rows = list(lam.parts) + [0]
            rows[s2 - 1] += 1
            if weakly_decreasing(rows):
                addable.add((rows[s2 - 1], s2))
        removable = set()
        for s2 in range(1, len(lam.parts) + 1):
            rows = list(lam.parts)
            rows[s2 - 1] -= 1
            if weakly_decreasing(rows):
                removable.add((lam.parts[s2 - 1], s2))
        assert set(lam.addable()) == addable, lam
        assert set(lam.removable()) == removable, lam
    assert set(Partition((3, 1)).addable()) == {(4, 1), (2, 2), (1, 3)}
    assert set(Partition((3, 1)).removable()) == {(3, 1), (1, 2)}


def test_partition_enumeration():
    assert [len(partitions_of(n)) for n in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]


def test_z_examples():
    assert z_Ar_tuple([Partition(())], [Monomial.unit()], 1).is_one
    assert z_Ar_tuple([Partition((1,))], [Monomial.unit()], 1) == s_function(Q3)
    assert z_Ar_tuple([Partition((1,))], [Monomial.unit()], 2).is_one
    assert z_Ar_tuple([Partition((2,))], [Monomial.unit()], 2) == s_function(Q3 * Q4**-1)


def test_tuple_weight_symmetry():
    xa, xb = Monomial.gen("xa"), Monomial.gen("xb")
    rng = random.Random(11)
    pool = partitions_up_to(4)
    for _ in range(25):
        la, lb = rng.choice(pool), rng.choice(pool)
        if la.size + lb.size > 4:
            continue
        assert z_Ar_tuple([la, lb], [xa, xb], 1) == z_Ar_tuple([lb, la], [xb, xa], 1)


def test_tuple_weight_single_component():
    xa = Monomial.gen("xa")
    for lam in partitions_up_to(4):
        assert z_Ar_tuple([lam], [xa], 1) == z_Ar_tuple([lam], [Monomial.unit()], 1)


def test_affine_oracle_small():
    A0 = builtin_quiver("A0hat")
    wc = WeightConfig.make(A0, {"0": 1})
    eng = expand(A0, wc, max_qdeg=2)
    clo = affine_character(A0, wc, 2)
    assert set(eng.terms) == set(clo.terms)
    for ym in eng.terms:
        assert eng.terms[ym] == clo.terms[ym]


def _unit_quiver(nodes, edges, d=None):
    return Quiver(tuple(nodes), d or {i: 1 for i in nodes}, tuple(edges))


# r >= 3 is where coloring the transposed diagram instead of the diagram
# itself shows: transposing negates the color (s1 - s2) mod r.  The relisted
# 3-cycle a -> c -> b -> a is colored along the cycle, not in listing order.
@pytest.mark.parametrize(
    "quiver, w, cutoff",
    [
        ("Arhat(3)", {"0": 1}, 4),
        ("Arhat(3)", {"0": 1, "1": 1}, 3),
        ("Arhat(3)", {"0": 1, "2": 1}, 3),
        ("Arhat(4)", {"0": 1, "2": 1}, 3),
        ("Arhat(4)", {"1": 2}, 3),
        ("Arhat(5)", {"0": 1, "3": 1}, 3),
        pytest.param(
            _unit_quiver("abc", [("a", "c", 1), ("c", "b", 1), ("b", "a", 1)]), {"a": 1, "b": 1}, 3,
            id="relisted-3-cycle",
        ),
    ],
)
def test_affine_oracle_cyclic(quiver, w, cutoff, params=None):
    Q_ = builtin_quiver(quiver) if isinstance(quiver, str) else quiver
    wc = WeightConfig.make(Q_, w, {unit: Monomial.gen(g) for unit, g in (params or {}).items()})
    eng = expand(Q_, wc, max_qdeg=cutoff)
    clo = affine_character(Q_, wc, cutoff)
    assert set(eng.terms) == set(clo.terms)
    for ym, c in clo.terms.items():
        assert eng.terms[ym] == c, ym


# only qfrak(i) is a counting parameter: weight parameters named "qfrakz" or
# "qfrak" add nothing to the counting degree on either side
@pytest.mark.parametrize("name", ["qfrakz", "qfrak"])
def test_affine_oracle_cyclic_params(name):
    test_affine_oracle_cyclic("A0hat", {"0": 2}, 2, {("0", 1): name, ("0", 2): "y"})


@st.composite
def _cyclic_jobs(draw):
    r = draw(st.integers(1, 5))
    nodes = draw(st.lists(st.integers(0, r - 1), max_size=2))
    w: dict[str, int] = {}
    for n in nodes:
        w[str(n)] = w.get(str(n), 0) + 1
    return f"Arhat({r})", w, draw(st.integers(0, 3))


@settings(max_examples=30, deadline=None)
@given(_cyclic_jobs())
def test_affine_oracle_random_cyclic(job):
    test_affine_oracle_cyclic(*job)


# Resonant weights: the second parameter is the first times a q-monomial, so S-zeros drop
# terms on both sides (or, at q1^2 and the Arhat(2) shifts, resonate without dropping any)
@pytest.mark.parametrize(
    "quiver, w, unit, shift, n_terms",
    [
        ("A0hat", {"0": 2}, ("0", 2), "q1", 20),
        ("A0hat", {"0": 2}, ("0", 2), "q2", 20),
        ("A0hat", {"0": 2}, ("0", 2), "q1^2", 38),
        ("A0hat", {"0": 2}, ("0", 2), "q1^-1", 20),
        ("Arhat(2)", {"0": 2}, ("0", 2), "q3", 38),
        ("Arhat(2)", {"0": 2}, ("0", 2), "mu", 38),
        ("Arhat(2)", {"0": 1, "1": 1}, ("1", 1), "q3^2", 38),
        ("Arhat(2)", {"0": 1, "1": 1}, ("1", 1), "q3*q4^-1", 38),
    ],
)
def test_affine_oracle_resonant(quiver, w, unit, shift, n_terms):
    Q_ = builtin_quiver(quiver)
    wc = WeightConfig.make(Q_, w, {unit: xparam("0", 1) * parse_monomial(shift)})
    eng = expand(Q_, wc, max_qdeg=4)
    clo = affine_character(Q_, wc, 4)
    assert len(clo.terms) == n_terms
    assert set(eng.terms) == set(clo.terms)
    for ym, c in clo.terms.items():
        assert eng.terms[ym] == c, ym


def _boundary_ym(lam, base, node, r, node_names):
    """A component's boundary Y-monomial, box by box: the reference."""
    entries = []
    for s in lam.addable():
        color = (s[0] - s[1]) % r
        entries.append((node_names[(color + node) % r], box_weight(base, s), +1))
    for s in lam.removable():
        color = (s[0] - s[1]) % r
        entries.append((node_names[(color + node) % r], box_weight(base, s) * Q, -1))
    return YMonomial(tuple(entries))


def _colored_counting(lam, node, r, node_names):
    """A component's colored counting factor, one qfrak per box: the reference."""
    out = Monomial.unit()
    for s in lam.boxes():
        out = out * qfrak(node_names[((s[0] - s[1]) % r + node) % r])
    return out


def _affine_by_tuples(Q_, wc, max_qdeg):
    """The partition sum with every tuple's weight, boundary and counting factor built afresh: the reference."""
    node_names = _cycle_nodes(Q_)
    for i, x, e in highest_weight(Q_, wc).ym.entries:
        if e >= 2:
            raise derivative_case(i, x, e)
    r = len(node_names)
    comps = [(node_names.index(i), p) for i, _, p in wc.entries]
    terms = {}
    for total in range(max_qdeg + 1):
        for lams in _tuples_of_total(len(comps), total):
            trans = [lam.transpose() for lam in lams]
            try:
                coeff = z_Ar_tuple(trans, [p for _, p in comps], r, nodes=[n for n, _ in comps])
            except PoleError as exc:
                raise CollidingArguments(f"{exc} in the weight of {tuple(lams)!r}") from exc
            if coeff.is_zero:
                continue
            counting = Monomial.unit()
            ym = YMonomial.unit()
            for (node, base), lam in zip(comps, lams):
                counting = counting * _colored_counting(lam, node, r, node_names)
                ym = ym * _boundary_ym(lam, base, node, r, node_names)
            terms[ym] = coeff * Coefficient.from_monomial(counting)
    return terms


@st.composite
def _affine_sums(draw):
    """Arhat(r) with 2 or 3 units; each parameter after the first is its own generator or a
    q-shift of an earlier one, so S-zeros, poles and repeated arguments all come up."""
    r = draw(st.integers(1, 3))
    nodes = draw(st.lists(st.integers(0, r - 1), min_size=2, max_size=3))
    w: dict[str, int] = {}
    for n in nodes:
        w[str(n)] = w.get(str(n), 0) + 1
    Q_ = builtin_quiver(f"Arhat({r})")
    units = WeightConfig.make(Q_, w).entries
    params = [p for _, _, p in units]
    for k in range(1, len(params)):
        if draw(st.integers(0, 3)):  # mostly a shift of an earlier parameter
            e1, e2, e3 = draw(st.tuples(*[st.integers(-2, 2)] * 3))
            params[k] = params[draw(st.integers(0, k - 1))] * Q1**e1 * Q2**e2 * MU**e3
    images = {(i, alpha): p for (i, alpha, _), p in zip(units, params)}
    return Q_, WeightConfig.make(Q_, w, images), draw(st.integers(1, 5 - len(units)))


def _affine_outcome(compute):
    try:
        terms = compute()
    except QQError as exc:
        return type(exc), str(exc)
    return [(ym, c.kind, c.to_json()) for ym, c in terms.items()]


def _a0hat(*shifts):
    A0 = builtin_quiver("A0hat")
    x = xparam("0", 1)
    return A0, WeightConfig.make(A0, {"0": 1 + len(shifts)}, {("0", k): x * m for k, m in enumerate(shifts, 2)})


# a pole in the third pair of the weight of (Partition(2,), Partition(1,)) and in the
# second pair of (Partition(1,), Partition(1,)); then a zero pair before a pole pair in
# the weight of (Partition(), Partition(1,), Partition(1,)), which the sum must not skip
@example(case=(*_a0hat(Q3**2), 4))
@example(case=(*_a0hat(Q4), 4))
@example(case=(*_a0hat(Q1**-1 * MU**-1, Q1**-1), 2))
@settings(max_examples=80, deadline=None)
@given(case=_affine_sums())
def test_affine_character_is_the_sum_over_tuples(case):
    """The per-call tables of ``affine_character`` change nothing: the same terms in the same
    order, the same coefficient forms, and at a pole the same tuple named in the same text."""
    Q_, wc, cutoff = case
    got = _affine_outcome(lambda: affine_character(Q_, wc, cutoff).terms)
    assert got == _affine_outcome(lambda: _affine_by_tuples(Q_, wc, cutoff))


def test_affine_character_validation():
    A1 = builtin_quiver("A1")
    with pytest.raises(ValidationError):
        affine_character(A1, WeightConfig.make(A1, {"1": 1}), 2)
    # affine, but not one oriented cycle with d = 1 and mass exponent 1
    unsupported = [
        (_unit_quiver("oabcd", [("o", i, 0) for i in "abcd"]), {"o": 1}),  # D4hat
        (_unit_quiver("0", [("0", "0", 2)]), {"0": 1}),  # loop with mu^2
        (_unit_quiver("0", [("0", "0", 1)], {"0": 2}), {"0": 1}),  # loop with d = 2
        (_unit_quiver("ab", [("a", "b", 2), ("b", "a", -1)]), {"a": 1}),  # masses (2, -1)
        (_unit_quiver("ab", [("a", "b", 0), ("a", "b", 0)]), {"a": 1}),  # Kronecker, no cycle
    ]
    for Q_, w in unsupported:
        with pytest.raises(ValidationError, match="one oriented cycle"):
            affine_character(Q_, WeightConfig.make(Q_, w), 2)


def test_pit_filter_examples():
    assert pit_filter(Partition(()), (1, 1))
    for lam in partitions_up_to(4):
        assert pit_filter(lam, (1, 1)) == (lam.size == 0)
        assert pit_filter(lam, (2, 1)) == (len(lam.parts) <= 1)
    with pytest.raises(InvalidPit):
        pit_filter(Partition(()), (0, 1))
    with pytest.raises(InvalidPit):
        pit_filter(Partition(()), (1, 1), r=2)
    pit_filter(Partition(()), (2, 1), r=2)


def test_pit_resonance_matches_arm_leg_criterion():
    for i in range(1, 5):
        for j in range(1, 4):
            sigma = pit_resonance_sigma((i, j))
            for lam in partitions_up_to(5):
                assert z_Ar_tuple([lam], [Monomial.unit()], 1).specialize(sigma).is_zero == pit_resonance_vanishes(lam, (i, j))


def test_pit_box_reading_deviates_on_staircase():
    # the box (2,2) is outside (2,1) yet the weight vanishes under that pit
    lam = Partition((2, 1))
    assert pit_filter(lam, (2, 2))
    assert pit_resonance_vanishes(lam, (2, 2))
    sigma = pit_resonance_sigma((2, 2))
    assert z_Ar_tuple([lam], [Monomial.unit()], 1).specialize(sigma).is_zero


def test_pit_sigma_imposes_only_the_resonance():
    for i, j in itertools.product(range(1, 5), range(1, 4)):
        h = i + j - 1
        sigma = pit_resonance_sigma((i, j))
        for e1, e2, e3 in itertools.product(range(-6, 7), repeat=3):
            m = Q1**e1 * Q2**e2 * MU**e3
            multiple = e3 % h == 0 and (e1, e2) == (-j * e3 // h, -(j - 1) * e3 // h)
            assert m.substitute(sigma).is_unit == multiple, (i, j, m)
    # the factor (1 - q1^2 q2^3 mu^-6) of this weight is no power of the
    # resonance, so it must not degenerate
    lam = Partition((3, 1, 1, 1))
    assert not pit_resonance_vanishes(lam, (2, 2), 3)
    assert not z_Ar_tuple([lam], [Monomial.unit()], 3).specialize(pit_resonance_sigma((2, 2))).is_zero


def test_burge_filter_examples():
    empty = Partition(())
    assert burge_filter(empty, empty, 0, 1)
    assert burge_filter(Partition((1,)), Partition((1,)), 0, 1)
    assert not burge_filter(Partition((1,)), empty, 0, 1)
    # i = 0, j = 1 is diagram containment
    for la in partitions_up_to(4):
        for lb in partitions_up_to(4):
            contained = all(la.part(k) <= lb.part(k) for k in range(1, 6))
            assert burge_filter(la, lb, 0, 1) == contained
    with pytest.raises(ValidationError):
        burge_filter(empty, empty, 1, 1)


def test_burge_resonance_equivalence_small():
    xa, xb = Monomial.gen("xa"), Monomial.gen("xb")
    pool = partitions_up_to(3)
    for i in (0, -1):
        for j in (1, 2):
            sigma = burge_resonance_sigma(i, j, "xa", "xb")
            for la in pool:
                for lb in pool:
                    z = z_Ar_tuple([la, lb], [xa, xb], 1)
                    assert z.specialize(sigma).is_zero == (not burge_filter(la, lb, i, j))


def test_burge_rows_r3():
    rows = list(burge_rows(3, [0, -1, -2], [1, 2, 3], 4))
    assert len(rows) == 3078
    assert all(row["ok"] for row in rows)


def test_the_burge_sweep_weighs_each_colour_offset_once(monkeypatch):
    offsets = []

    def counted(lams, params, r, nodes):
        offsets.append(nodes[0])
        return z_s_values(lams, params, r, nodes=nodes)

    monkeypatch.setattr(qqkit.verify, "z_s_values", counted)
    rows = burge_rows(3, [0, -1], [1, 2], 4)
    next(rows)  # the rows stream: the first colouring (0, 0) weighs offset 0 alone
    assert offsets == [0] * 38  # 38 pairs with |a| + |b| <= 4
    assert sum(1 for _ in rows) == 9 * 4 * 38 - 1
    # one call per offset and pair, in the order the colourings (0, 0), (0, 1), (0, 2) first meet them
    assert offsets == [0] * 38 + [2] * 38 + [1] * 38


def test_the_burge_sweep_substitutes_each_s_value_argument_once_per_resonance(monkeypatch):
    calls, tables, unders, substitute = [], [], [], Monomial.substitute

    def counted(m, sigma):
        calls.append((m, tuple(sigma.items())))
        return substitute(m, sigma)

    class CountedVanishing(Vanishing):
        __slots__ = ()

        def __init__(self, products):
            products = [list(values) for values in products]
            tables.append({a for values in products for v in values for a in v.powers})
            super().__init__(products)

        def under(self, sub):
            unders.append(sub)
            return super().under(sub)

    monkeypatch.setattr(Monomial, "substitute", counted)
    monkeypatch.setattr(qqkit.verify, "Vanishing", CountedVanishing)
    rows = list(burge_rows(3, [0, -1], [1, 2], 4))
    assert len(rows) == 9 * 4 * 38
    assert len(tables) == 3 and len(unders) == 3 * 4  # one table per colour offset, read once per resonance
    # each resonance's Substitution images every argument of the three offsets' S-values once
    arguments = set().union(*tables)
    assert len(calls) == len(set(calls)) == 4 * len(arguments)
    assert {m for m, _ in calls} == arguments


def _burge_rows_per_colouring(r, i_values, j_values, max_size):
    """The Burge sweep with every filter and weight computed anew for each colouring."""
    xa, xb = Monomial.gen("xa"), Monomial.gen("xb")
    pool = partitions_up_to(max_size)
    pairs = [(la, lb) for la, lb in itertools.product(pool, pool) if la.size + lb.size <= max_size]
    for na, nb in itertools.product(range(r), range(r)):
        for i, j in itertools.product(i_values, j_values):
            sub = Substitution(burge_resonance_sigma(i, j, "xa", "xb"))
            residue_ok = (i + j - 1 - (na - nb)) % r == 0
            for la, lb in pairs:
                vanishes = Vanishing([z_s_values([la, lb], [xa, xb], r, nodes=[na, nb])]).under(sub)[0]
                admitted = burge_filter(la, lb, i, j)
                yield {
                    "nodes": [na, nb], "i": i, "j": j, "a": la.parts, "b": lb.parts,
                    "vanishes": vanishes, "admitted": admitted, "ok": vanishes == (residue_ok and not admitted),
                }


@pytest.mark.parametrize(
    "r, i_values, j_values, max_size",
    [(1, [0, -1], [1, 2], 5), (2, [0, -1], [1, 2], 4), (3, [0], [1, 3], 5), (4, [-1, 0], [2], 4)],
)
def test_burge_rows_match_a_sweep_per_colouring(r, i_values, j_values, max_size):
    assert list(burge_rows(r, i_values, j_values, max_size)) == list(
        _burge_rows_per_colouring(r, i_values, j_values, max_size)
    )


def _tuples_by_recursion(count, total):
    if count == 0:
        if total == 0:
            yield ()
        return
    for k in range(total + 1):
        for lam in partitions_of(k):
            for rest in _tuples_by_recursion(count - 1, total - k):
                yield (lam,) + rest


def test_tuples_of_total_match_the_recursive_order():
    for count in range(4):
        for total in range(5):
            assert list(_tuples_of_total(count, total)) == list(_tuples_by_recursion(count, total)), (count, total)


@pytest.mark.parametrize("count, top", [(1, 0), (1, 6), (2, 5), (3, 4), (4, 3)])
def test_the_partition_sum_refuses_more_tuples_than_the_bound_before_any(monkeypatch, count, top):
    quiver = builtin_quiver("A0hat")
    wc = WeightConfig.make(quiver, {"0": count})
    exact = sum(len(list(_tuples_of_total(count, total))) for total in range(top + 1))
    monkeypatch.setattr(qqkit.engine, "SAFETY_BOUND", exact - 1)
    monkeypatch.setattr(qqkit.partitions, "_tuples_of_total", None)  # no tuple is enumerated
    with pytest.raises(NonTermination, match=rf"^partition sum exceeded {exact - 1} tuples$"):
        affine_character(quiver, wc, top)
    monkeypatch.undo()
    monkeypatch.setattr(qqkit.engine, "SAFETY_BOUND", exact)
    assert affine_character(quiver, wc, top).terms


def test_the_partition_sum_of_no_units_visits_only_total_0():
    quiver = builtin_quiver("A0hat")
    ch = affine_character(quiver, WeightConfig.make(quiver, {}), 10**9)
    assert list(ch.terms) == [YMonomial.unit()] and ch.terms[YMonomial.unit()].is_one


def test_tuples_of_total_reach_past_the_recursion_limit():
    tuples = list(_tuples_of_total(1200, 1))
    assert len(tuples) == 1200
    assert tuples[0] == (Partition(),) * 1199 + (Partition((1,)),)
    assert tuples[-1] == (Partition((1,)),) + (Partition(),) * 1199


def test_pit_r3():
    # small hooks at r = 3: a substitution that imposed more than the resonance
    # would also degenerate other factors, e.g. at (3, 1, 1, 1), pit (2, 2)
    fx = {"r": 3, "max_size": 6, "i_max": 6, "j_max": 3}
    assert _check_pit(fx) == (
        "flag",
        "180 configurations: vanishing == arm/leg criterion; box-membership reading deviates on 17 of them",
    )


def test_colored_tuple_hook_filter():
    xa, xb = Monomial.gen("xa"), Monomial.gen("xb")
    la, lb = Partition((2,)), Partition((1,))
    # r = 1 has strictly more factors than r = 2 for the same pair
    z1 = z_Ar_tuple([la, lb], [xa, xb], 1)
    z2 = z_Ar_tuple([la, lb], [xa, xb], 2, nodes=[0, 1])
    assert len(z1.factors) >= len(z2.factors)


def _s_values_by_all_pairs(lams, xs, r, nodes):
    """The S-values box by box over every ordered pair, empty partitions included: the reference."""
    transposes = [lam.transpose() for lam in lams]
    out = []
    for lam_a, x_a, n_a in zip(lams, xs, nodes):
        for t_b, x_b, n_b in zip(transposes, xs, nodes):
            ratio = x_b / x_a
            for s1, s2 in lam_a.boxes():
                arm = lam_a.part(s2) - s1
                leg = t_b.part(s1) - s2
                if (arm + leg + 1 - (n_a - n_b)) % r == 0:
                    out.append(s_function(ratio * Q3 ** (leg + 1) * Q4 ** (-arm)))
    return out


def _z_by_boxes(lams, xs, r, nodes):
    """The weight multiplied out box by box, without ``z_s_values``: the reference."""
    out = Coefficient.one()
    for value in _s_values_by_all_pairs(lams, xs, r, nodes):
        out = out * value
    return out


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from(partitions_up_to(3)) | st.just(Partition()), min_size=1, max_size=5),
    st.integers(1, 3),
    st.data(),
)
def test_z_s_values_match_the_walk_over_all_pairs(lams, r, data):
    xs = [Monomial.gen(f"x{k}") for k in range(len(lams))]
    nodes = data.draw(st.lists(st.integers(0, r - 1), min_size=len(lams), max_size=len(lams)))
    got = z_s_values(lams, xs, r, nodes)
    want = _s_values_by_all_pairs(lams, xs, r, nodes)
    assert len(got) == len(want) and all(g == w for g, w in zip(got, want))


def test_z_tuple_is_the_product_of_its_s_values():
    xs = [Monomial.gen("xa"), Monomial.gen("xb")]
    pool = partitions_up_to(6)
    pairs = [(la, lb) for la, lb in itertools.product(pool, pool) if la.size + lb.size <= 6]
    for r in (1, 2, 3):
        for nodes in itertools.product(range(r), repeat=2):
            for la, lb in pairs:
                got = z_Ar_tuple([la, lb], xs, r, nodes=nodes).to_json()
                assert got == _z_by_boxes([la, lb], xs, r, nodes).to_json(), (r, nodes, la, lb)


_XA, _XB, _XC = Monomial.gen("xa"), Monomial.gen("xb"), Monomial.gen("xc")


@st.composite
def _resonant_weights(draw):
    """A pair or triple weight with a Burge or a pit substitution.

    The last evaluation parameter may be a q-shifted twin of another one,
    which the substitution sends onto it times the shift: then factors of
    different ordered pairs degenerate together, and cancel, pile up or
    mix slopes 1 and 2.
    """
    k = draw(st.sampled_from([2, 3]))
    lams = draw(st.lists(st.sampled_from(partitions_up_to(3)), min_size=k, max_size=k))
    r = draw(st.integers(1, 3))
    nodes = draw(st.lists(st.integers(0, r - 1), min_size=k, max_size=k))
    if draw(st.booleans()):
        sigma = burge_resonance_sigma(draw(st.sampled_from([0, -1, -2, -3])), draw(st.integers(1, 4)), "xa", "xb")
        twin = _XB**2 / sigma["xb"]  # becomes xb
    else:
        i, j = draw(st.integers(1, 6)), draw(st.integers(1, 4))
        sigma = pit_resonance_sigma((i, j))
        twin = _XA * MU ** (i + j - 1) * Q1**-j * Q2 ** (1 - j)  # becomes xa
    e1, e2, e3 = draw(st.tuples(*[st.integers(-2, 2)] * 3))
    last = draw(st.sampled_from([_XC if k == 3 else _XB, twin * Q1**e1 * Q2**e2 * MU**e3]))
    return lams, [_XA, _XB][: k - 1] + [last], r, nodes, sigma


def _outcome(f):
    try:
        return f()
    except QQError as exc:
        return type(exc), str(exc)


# cases the random draws reach rarely: factors of opposite power that cancel in
# the product but degenerate under a pit substitution, and a slope ratio -1/2
@example(case=(
    [Partition(()), Partition((1, 1, 1))],
    [_XA, _XA * MU**3 * Q1**-1],
    1, [0, 0], pit_resonance_sigma((3, 1)),
))
@example(case=(
    [Partition(()), Partition(()), Partition((1, 1, 1))],
    [_XA, _XB, _XB**2 / burge_resonance_sigma(0, 1, "xa", "xb")["xb"] * Q1**-1 * MU**-2],
    1, [0, 0, 0], burge_resonance_sigma(0, 1, "xa", "xb"),
))
@settings(max_examples=300, deadline=None)
@given(case=_resonant_weights())
def test_product_vanishes_matches_specialize(case):
    lams, xs, r, nodes, sigma = case
    expected = _outcome(lambda: z_Ar_tuple(lams, xs, r, nodes).specialize(sigma).is_zero)
    assert _outcome(lambda: Vanishing([z_s_values(lams, xs, r, nodes)]).under(Substitution(sigma))[0]) == expected


_PIT_CANCELLING = (
    [Partition(()), Partition((1, 1, 1))],
    [_XA, _XA * MU**3 * Q1**-1],
    1, [0, 0], pit_resonance_sigma((3, 1)),
)
_BURGE_SLOPES = (
    [Partition(()), Partition(()), Partition((1, 1, 1))],
    [_XA, _XB, _XB**2 / burge_resonance_sigma(0, 1, "xa", "xb")["xb"] * Q1**-1 * MU**-2],
    1, [0, 0, 0], burge_resonance_sigma(0, 1, "xa", "xb"),
)


@st.composite
def _weight_tables(draw):
    """Resonant weights, each taken as it is, copied or with a zero value put in.

    The weights' S-values are memoized, so weights drawn twice, or over the
    same evaluation parameters, share value objects; a copy holds values
    equal to those but distinct from them.  A weight with an S-value on a
    pole has no product to decide, and is not drawn.
    """
    builds = lambda case: type(_outcome(lambda: z_s_values(*case[:4]))) is list
    cases = draw(st.lists(_resonant_weights().filter(builds), min_size=1, max_size=3))
    return draw(st.lists(st.tuples(st.sampled_from(cases), st.sampled_from(["as is", "copy", "zero"])), min_size=1, max_size=5))


def _table_products(entries):
    out = []
    for (lams, xs, r, nodes, _), how in entries:
        values = z_s_values(lams, xs, r, nodes)
        if how == "copy":
            values = [Coefficient.from_json(v.to_json()) for v in values]
        elif how == "zero":
            values.insert(len(values) // 2, Coefficient.zero())
        out.append(values)
    return out


def _first_error_or_all(outcomes):
    return next((o for o in outcomes if type(o) is tuple), outcomes)


@example(entries=[(_PIT_CANCELLING, "as is"), (_BURGE_SLOPES, "copy"), (_PIT_CANCELLING, "copy")])
@example(entries=[(_BURGE_SLOPES, "as is"), (_PIT_CANCELLING, "zero"), (_BURGE_SLOPES, "as is")])
@settings(max_examples=150, deadline=None)
@given(entries=_weight_tables())
def test_the_vanishing_table_matches_specialize_product_by_product(entries):
    """``Vanishing(products).under(sub)`` is each product's ``specialize(...).is_zero``, and raises
    the first product's error, in product order, for every substitution of the entries."""
    table = Vanishing(_table_products(entries))
    for *_, sigma in (case for case, _ in entries):
        expected = []
        for (lams, xs, r, nodes, _), how in entries:
            z = z_Ar_tuple(lams, xs, r, nodes) * (Coefficient.zero() if how == "zero" else Coefficient.one())
            expected.append(_outcome(lambda: z.specialize(sigma).is_zero))
        assert _outcome(lambda: table.under(Substitution(sigma))) == _first_error_or_all(expected)


def test_the_vanishing_table_stops_a_product_at_its_first_zero_or_non_factored_value():
    general = Coefficient.one() + Coefficient.from_monomial(Q1)
    pole = s_function(Q1 * Q2 * Monomial.gen("t"))  # (1 - t)^-1 among its factors
    sub = Substitution({"t": Monomial.unit()})
    assert Vanishing([[pole, Coefficient.zero(), general], [s_function(Monomial.gen("u"))]]).under(sub) == [True, False]
    for products in ([[pole, general]], [[general, Coefficient.zero()]], [[], [Coefficient.from_monomial(Q1), general]]):
        with pytest.raises(ValidationError, match="^Vanishing takes factored values$"):
            Vanishing(products).under(sub)
    with pytest.raises(PoleError):  # the pole of the first product comes before the second one's ValidationError
        Vanishing([[pole], [general]]).under(sub)
