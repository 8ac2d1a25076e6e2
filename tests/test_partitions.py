import random

import pytest
from hypothesis import given, settings, strategies as st

from qqkit.coefficient import s_function
from qqkit.engine import WeightConfig, expand
from qqkit.errors import InvalidPit, ValidationError
from qqkit.monomial import Monomial, Q3, Q4
from qqkit.partitions import (
    Partition,
    affine_character,
    burge_filter,
    burge_resonance_sigma,
    partitions_of,
    partitions_up_to,
    pit_filter,
    pit_resonance_sigma,
    pit_resonance_vanishes,
    z_Ar,
    z_Ar_tuple,
)
from qqkit.quiver import builtin_quiver
from qqkit.verify import _check_pit, burge_rows


def test_partition_basics():
    lam = Partition((3, 1))
    assert lam.size == 4
    assert lam.transpose() == Partition((2, 1, 1))
    assert lam.transpose().transpose() == lam
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
    assert z_Ar(Partition(()), 1).is_one
    assert z_Ar(Partition((1,)), 1) == s_function(Q3)
    assert z_Ar(Partition((1,)), 2).is_one
    assert z_Ar(Partition((2,)), 2) == s_function(Q3 * Q4**-1)


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
        assert z_Ar_tuple([lam], [xa], 1) == z_Ar(lam, 1)


def test_affine_oracle_small():
    A0 = builtin_quiver("A0hat")
    wc = WeightConfig.make(A0, {"0": 1})
    eng = expand(A0, wc, max_qdeg=2)
    clo = affine_character(A0, wc, 2)
    assert set(eng.terms) == set(clo.terms)
    for ym in eng.terms:
        assert eng.terms[ym] == clo.terms[ym]


# r >= 3 is where coloring the transposed diagram instead of the diagram
# itself shows: transposing negates the color (s1 - s2) mod r.
@pytest.mark.parametrize(
    "quiver, w, cutoff",
    [
        ("Arhat(3)", {"0": 1}, 4),
        ("Arhat(3)", {"0": 1, "1": 1}, 3),
        ("Arhat(3)", {"0": 1, "2": 1}, 3),
        ("Arhat(4)", {"0": 1, "2": 1}, 3),
        ("Arhat(4)", {"1": 2}, 3),
        ("Arhat(5)", {"0": 1, "3": 1}, 3),
    ],
)
def test_affine_oracle_cyclic(quiver, w, cutoff):
    Q_ = builtin_quiver(quiver)
    wc = WeightConfig.make(Q_, w)
    eng = expand(Q_, wc, max_qdeg=cutoff)
    clo = affine_character(Q_, wc, cutoff)
    assert set(eng.terms) == set(clo.terms)
    for ym, c in clo.terms.items():
        assert eng.terms[ym] == c, ym


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


def test_affine_character_validation():
    A1 = builtin_quiver("A1")
    with pytest.raises(ValidationError):
        affine_character(A1, WeightConfig.make(A1, {"1": 1}), 2)


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
    seeds = [(37, 101), (59, 73)]
    for i in range(1, 5):
        for j in range(1, 4):
            sigmas = [pit_resonance_sigma((i, j), s) for s in seeds]
            for lam in partitions_up_to(5):
                vals = {z_Ar(lam, 1).specialize(s).is_zero for s in sigmas}
                assert len(vals) == 1
                assert vals.pop() == pit_resonance_vanishes(lam, (i, j))


def test_pit_box_reading_deviates_on_staircase():
    # the box (2,2) is outside (2,1) yet the weight vanishes under that pit
    lam = Partition((2, 1))
    assert pit_filter(lam, (2, 2))
    assert pit_resonance_vanishes(lam, (2, 2))
    sigma = pit_resonance_sigma((2, 2), (37, 101))
    assert z_Ar(lam, 1).specialize(sigma).is_zero


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


def test_pit_r3():
    fx = {"r": 3, "max_size": 6, "i_max": 6, "j_max": 3, "seeds": [[37, 101], [59, 73]]}
    # large seeds: small ones such as (1, 2) and (2, 5) make vanishing seed-dependent
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
