import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from qqkit.cli import main
from qqkit.coefficient import Coefficient, s_function
from qqkit.errors import ValidationError
from qqkit.monomial import MU, Monomial, Q, Q1, Q2, qfrak, xparam
from qqkit.quiver import (
    MAX_EDGES,
    MAX_NODES,
    Quiver,
    QuiverClass,
    a_inverse_monomial,
    builtin_quiver,
    classical_cartan,
    classify,
)


def test_builtins_and_json_round_trip():
    for name in ("A1", "A2", "BC2", "A0hat", "Arhat(3)"):
        Q_ = builtin_quiver(name)
        assert Quiver.from_json(Q_.to_json()).nodes == Q_.nodes
    with pytest.raises(ValidationError):
        builtin_quiver("E8")


def test_validation():
    with pytest.raises(ValidationError):
        Quiver(("1",), {"1": 0}, ())
    with pytest.raises(ValidationError):
        Quiver(("1", "2"), {"1": 1, "2": 1}, (("1", "3", 0),))
    with pytest.raises(ValidationError):
        # mass labels need a directed cycle
        Quiver(("1", "2"), {"1": 1, "2": 1}, (("1", "2", 1),))
    Quiver(("1",), {"1": 1}, (("1", "1", 2),))  # loop is a cycle


@pytest.mark.parametrize("bad", [None, True, {"a": 1}])
@pytest.mark.parametrize("where", ["node", "edge"])
def test_a_node_id_is_a_string_or_an_integer(bad, where, capsys):
    """A node id or edge endpoint that is neither a string nor an integer exits 2, before any expansion."""
    if where == "node":
        quiver = {"nodes": [{"id": bad}], "edges": []}
    else:
        quiver = {"nodes": [{"id": "1"}, {"id": 2}], "edges": [{"from": "1", "to": bad}]}
    with pytest.raises(ValidationError, match="a node id is a string or an integer"):
        Quiver.from_json(quiver)
    code = main(["expand", "--quiver", json.dumps(quiver), "--w", json.dumps({str(bad): 1})])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("validation error: a node id is a string or an integer")


def test_integer_node_ids_read_as_strings():
    Q_ = Quiver.from_json({"nodes": [{"id": 1}, {"id": "2"}], "edges": [{"from": 1, "to": "2"}]})
    assert Q_.nodes == ("1", "2") and Q_.edges == (("1", "2", 0),)


@st.composite
def _digraphs(draw):
    """(n, edges, k): a digraph on nodes 0..n-1 with 1 <= n <= 6 and at least one edge, loops and parallel
    edges allowed, and the index k of the edge that carries the mass."""
    n = draw(st.integers(1, 6))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), min_size=1, max_size=12))
    return n, edges, draw(st.integers(0, len(edges) - 1))


@settings(max_examples=300, deadline=None)
@given(_digraphs())
def test_a_mass_edge_is_accepted_exactly_on_a_cyclic_quiver(case):
    n, edges, mass = case
    reach = [[False] * n for _ in range(n)]  # the reference: the transitive closure (Warshall)
    for a, b in edges:
        reach[a][b] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    reach[i][j] = reach[i][j] or reach[k][j]
    cyclic = any(reach[i][i] for i in range(n))
    # one mass edge, and every loop needs a nonzero mu of its own
    spec = [(str(a), str(b), int(a == b or k == mass)) for k, (a, b) in enumerate(edges)]
    nodes = tuple(str(k) for k in range(n))
    if cyclic:
        assert Quiver(nodes, dict.fromkeys(nodes, 1), tuple(spec))._has_cycle()
    else:
        with pytest.raises(ValidationError, match="^mass exponents are only allowed on cyclic quivers$"):
            Quiver(nodes, dict.fromkeys(nodes, 1), tuple(spec))


def _deformed_cartan(Q_):
    """Entry [j][i] sums the terms (j, m, sign) of column i as a general-form coefficient."""
    idx = {v: k for k, v in enumerate(Q_.nodes)}
    polys = [[{} for _ in Q_.nodes] for _ in Q_.nodes]
    for i, column in Q_.cartan_columns.items():
        for j, mono, sign in column:
            p = polys[idx[j]][idx[i]]
            p[mono] = p.get(mono, 0) + sign
    return [[Coefficient.general({m: c for m, c in p.items() if c}, ()) for p in row] for row in polys]


def test_cartan_a1():
    assert builtin_quiver("A1").cartan_columns == {"1": (("1", Monomial.unit(), 1), ("1", Q1 * Q2, 1))}


def test_cartan_a0hat_factors():
    Q_ = builtin_quiver("A0hat")
    assert Q_.cartan_columns == {
        "0": (("0", Monomial.unit(), 1), ("0", Q, 1), ("0", MU, -1), ("0", MU.inverse() * Q, -1))
    }
    # equals (1 - q3)(1 - q4)
    q3, q4 = MU, MU.inverse() * Q
    prod = Coefficient.factored(1, Monomial.unit(), [(q3, 1), (q4, 1)])
    assert _deformed_cartan(Q_)[0][0] == prod


def test_cartan_arhat3_determinant():
    mat = _deformed_cartan(builtin_quiver("Arhat(3)"))
    det = Coefficient.zero()
    # Leibniz expansion over S_3
    for perm in itertools.permutations(range(3)):
        sign = 1
        seen = list(perm)
        for i in range(3):
            for j in range(i + 1, 3):
                if seen[i] > seen[j]:
                    sign = -sign
        term = Coefficient.from_monomial(Monomial.unit(), sign)
        for i in range(3):
            term = term * mat[i][perm[i]]
        det = det + term
    expect = Coefficient.general(
        {Monomial.unit(): 1, MU**3: -1, MU**-3 * Q**3: -1, Q**3: 1}, ()
    )
    assert det == expect


def test_classical_cartan_and_classification():
    assert classical_cartan(builtin_quiver("A1")) == [[2]]
    assert classical_cartan(builtin_quiver("A2")) == [[2, -1], [-1, 2]]
    assert classical_cartan(builtin_quiver("BC2")) == [[2, -1], [-2, 2]]
    assert classify(builtin_quiver("A1")) == (QuiverClass.FINITE, 2)
    assert classify(builtin_quiver("A2")) == (QuiverClass.FINITE, 3)
    assert classify(builtin_quiver("BC2")) == (QuiverClass.FINITE, 2)
    assert classify(builtin_quiver("A0hat"))[0] is QuiverClass.AFFINE
    assert classify(builtin_quiver("Arhat(4)"))[0] is QuiverClass.AFFINE
    wild = Quiver(("1", "2"), {"1": 1, "2": 1},
                  (("1", "2", 0), ("1", "2", 0), ("1", "2", 0)))
    assert classify(wild)[0] is QuiverClass.INDEFINITE


def test_the_largest_allowed_quivers_classify():
    assert classify(builtin_quiver(f"Arhat({MAX_NODES})"))[0] is QuiverClass.AFFINE
    nodes = tuple(str(k) for k in range(MAX_NODES))
    twice_round = tuple((nodes[k % MAX_NODES], nodes[(k + 1) % MAX_NODES], 0) for k in range(MAX_EDGES))
    assert classify(Quiver(nodes, dict.fromkeys(nodes, 1), twice_round))[0] is QuiverClass.INDEFINITE


def _simple(nodes, edges, d=None):
    """A quiver with massless edges (a, b) and decorations ``d`` (1 by default)."""
    return Quiver(tuple(nodes), {i: (d or {}).get(i, 1) for i in nodes}, tuple((a, b, 0) for a, b in edges))


def _k4(prefix):
    nodes = [f"{prefix}{k}" for k in range(4)]
    return nodes, [(a, b) for k, a in enumerate(nodes) for b in nodes[k + 1:]]


(_A, _AE), (_B, _BE) = _k4("a"), _k4("b")
# a positive or zero determinant, but a component (or the whole) of indefinite type
INDEFINITE_BY_COMPONENT = {
    "two-k4": (_simple(_A + _B, _AE + _BE), 729),
    "joined-k4": (_simple(_A + _B, _AE + _BE + [("a3", "b0")]), 729),
    "joined-stars": (
        _simple(
            ["c", "m", "e"] + [f"c{k}" for k in range(5)] + [f"e{k}" for k in range(5)],
            [("c", "m"), ("m", "e")] + [("c", f"c{k}") for k in range(5)] + [("e", f"e{k}") for k in range(5)],
        ),
        1536,
    ),
    "d32-beside-kronecker": (_simple("0123", [("0", "1"), ("2", "3"), ("2", "3")], {"0": 3, "1": 2}), 0),
}


@pytest.mark.parametrize("Q_, det", list(INDEFINITE_BY_COMPONENT.values()), ids=list(INDEFINITE_BY_COMPONENT))
def test_a_component_of_indefinite_type_makes_the_quiver_indefinite(Q_, det, capsys):
    assert classify(Q_) == (QuiverClass.INDEFINITE, det)
    assert main(["expand", "--quiver", json.dumps(Q_.to_json()), "--w", json.dumps({Q_.nodes[0]: 1})]) == 2
    assert capsys.readouterr().err == "validation error: indefinite quivers are not supported\n"


def _det(m):
    """Laplace expansion along the first row."""
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]]) for j in range(len(m)))


def _class_by_all_principal_minors(Q_):
    """Kac's definition on each connected component of the underlying graph."""
    m = classical_cartan(Q_)
    idx = {v: k for k, v in enumerate(Q_.nodes)}
    root = list(range(len(m)))

    def find(k):
        while root[k] != k:
            k = root[k]
        return k

    for a, b, _ in Q_.edges:
        root[find(idx[a])] = find(idx[b])
    classes = set()
    for comp in {tuple(k for k in range(len(m)) if find(k) == r) for r in map(find, range(len(m)))}:
        subsets = [s for size in range(1, len(comp) + 1) for s in itertools.combinations(comp, size)]
        minors = {s: _det([[m[i][j] for j in s] for i in s]) for s in subsets}
        if all(v > 0 for v in minors.values()):
            classes.add(QuiverClass.FINITE)
        elif minors[comp] == 0 and all(v > 0 for s, v in minors.items() if s != comp):
            classes.add(QuiverClass.AFFINE)
        else:
            classes.add(QuiverClass.INDEFINITE)
    for c in (QuiverClass.INDEFINITE, QuiverClass.AFFINE, QuiverClass.FINITE):
        if c in classes:
            return c, _det(m)


@st.composite
def small_quivers(draw):
    n = draw(st.integers(1, 5))
    nodes = [str(k) for k in range(n)]
    d = {i: draw(st.sampled_from([1, 2, 3])) for i in nodes}
    pairs = draw(st.lists(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)), max_size=7))
    # a loop is a cycle, so it may (and must) carry a mass
    return Quiver(tuple(nodes), d, tuple((a, b, int(a == b)) for a, b in pairs))


@settings(max_examples=400, deadline=None)
@given(small_quivers())
def test_classification_matches_kac_on_all_principal_minors(Q_):
    assert classify(Q_) == _class_by_all_principal_minors(Q_)


MU2_LOOP = Quiver(("0",), {"0": 1}, (("0", "0", 2),), name="mu^2 loop")
G2_LIKE = Quiver(("1", "2"), {"1": 3, "2": 1}, (("1", "2", 0),), name="d=(3,1)")


def test_a_inverse_a1():
    x = xparam("1", 1)
    entries, scalar = a_inverse_monomial(builtin_quiver("A1"), "1", x)
    assert entries == [("1", x, -1), ("1", x * Q, -1)]
    assert scalar.is_one


def test_a_inverse_bc2_node1():
    x = xparam("1", 1)
    entries, scalar = a_inverse_monomial(builtin_quiver("BC2"), "1", x)
    assert scalar.is_one
    assert sorted((n, a, e) for n, a, e in entries) == sorted(
        [("1", x, -1), ("1", x * Q1**2 * Q2, -1), ("2", x, 1), ("2", x * Q1, 1)]
    )


def test_a_inverse_a0hat_scalar():
    x = xparam("0", 1)
    entries, scalar = a_inverse_monomial(builtin_quiver("A0hat"), "0", x)
    assert sorted((n, a, e) for n, a, e in entries) == sorted(
        [("0", x, -1), ("0", x * Q, -1), ("0", x * MU, 1), ("0", x * MU.inverse() * Q, 1)]
    )
    assert scalar == Coefficient.from_monomial(qfrak("0")) * s_function(MU)


def test_node_scalars():
    for Q_ in (builtin_quiver("A1"), builtin_quiver("A2"), builtin_quiver("BC2"), G2_LIKE):
        assert all(s.is_one for s in Q_.node_scalars.values()), Q_.name
    for name in ("Arhat(2)", "Arhat(3)"):
        Q_ = builtin_quiver(name)
        assert Q_.node_scalars == {i: Coefficient.from_monomial(qfrak(i)) for i in Q_.nodes}
    q0 = Coefficient.from_monomial(qfrak("0"))
    assert builtin_quiver("A0hat").node_scalars == {"0": q0 * s_function(MU)}
    assert MU2_LOOP.node_scalars == {"0": q0 * s_function(MU**2)}


def test_a_inverse_degree_vector_matches_cartan_column():
    quivers = [builtin_quiver(name) for name in ("A1", "A2", "BC2", "A0hat", "Arhat(2)", "Arhat(3)")]
    for Q_ in quivers + [MU2_LOOP, G2_LIKE]:
        classical = classical_cartan(Q_)
        for col, i in enumerate(Q_.nodes):
            x = xparam(i, 1)
            entries, _ = a_inverse_monomial(Q_, i, x)
            deg = {j: 0 for j in Q_.nodes}
            for n, _, e in entries:
                deg[n] += e
            for row, j in enumerate(Q_.nodes):
                assert deg[j] == -classical[row][col], (Q_.name, i, j)
