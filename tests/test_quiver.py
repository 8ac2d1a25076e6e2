import pytest

from qqkit.coefficient import Coefficient, s_function
from qqkit.errors import ValidationError
from qqkit.monomial import MU, Monomial, Q, Q1, Q2, qfrak, xparam
from qqkit.quiver import (
    Quiver,
    QuiverClass,
    a_inverse_monomial,
    builtin_quiver,
    cartan_matrix,
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


def test_cartan_a1():
    c = cartan_matrix(builtin_quiver("A1"))
    assert c[0][0] == Coefficient.general({Monomial.unit(): 1, Q1 * Q2: 1}, ())


def test_cartan_a0hat_factors():
    c00 = cartan_matrix(builtin_quiver("A0hat"))[0][0]
    expect = Coefficient.general(
        {Monomial.unit(): 1, Q: 1, MU: -1, MU.inverse() * Q: -1}, ()
    )
    assert c00 == expect
    # equals (1 - q3)(1 - q4)
    q3, q4 = MU, MU.inverse() * Q
    prod = Coefficient.factored(1, Monomial.unit(), [(q3, 1), (q4, 1)])
    assert c00 == prod


def test_cartan_arhat3_determinant():
    mat = cartan_matrix(builtin_quiver("Arhat(3)"))
    det = Coefficient.zero()
    # Leibniz expansion over S_3
    import itertools

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


def test_a_inverse_a1():
    x = xparam("1", 1)
    entries, scalar = a_inverse_monomial(builtin_quiver("A1"), "1", x)
    assert entries == [("1", x * Q, -1)]
    assert scalar.is_one


def test_a_inverse_bc2_node1():
    x = xparam("1", 1)
    entries, scalar = a_inverse_monomial(builtin_quiver("BC2"), "1", x)
    assert scalar.is_one
    assert sorted((n, a, e) for n, a, e in entries) == sorted(
        [("1", x * Q1**2 * Q2, -1), ("2", x, 1), ("2", x * Q1, 1)]
    )


def test_a_inverse_a0hat_scalar():
    x = xparam("0", 1)
    entries, scalar = a_inverse_monomial(builtin_quiver("A0hat"), "0", x)
    assert sorted((n, a, e) for n, a, e in entries) == sorted(
        [("0", x * Q, -1), ("0", x * MU, 1), ("0", x * MU.inverse() * Q, 1)]
    )
    assert scalar == Coefficient.from_monomial(qfrak("0")) * s_function(MU)


def test_a_inverse_degree_vector_matches_cartan_column():
    for name in ("A1", "A2", "BC2"):
        Q_ = builtin_quiver(name)
        classical = classical_cartan(Q_)
        for col, i in enumerate(Q_.nodes):
            x = xparam(i, 1)
            entries, _ = a_inverse_monomial(Q_, i, x)
            deg = {j: 0 for j in Q_.nodes}
            deg[i] -= 1  # the reflected symbol itself is consumed
            for n, _, e in entries:
                deg[n] += e
            for row, j in enumerate(Q_.nodes):
                assert deg[j] == -classical[row][col], (name, i, j)
