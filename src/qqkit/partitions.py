"""Partition combinatorics and closed-form affine characters.

Boxes are addressed as s = (s1, s2) with s1 the column index (stepping by
q3 = mu) and s2 the row index (stepping by q4 = mu^{-1} q); the box lies
in the diagram when s1 <= lambda_{s2}.  Arm and leg are
a(s) = lambda_{s2} - s1 and l(s) = lambda^T_{s1} - s2, possibly negative
outside the diagram.

The fixed-point weight of a configuration is one product of S-values
over the ordered pairs of its partitions, the pair of a partition with
itself included: the ordered-pair Nekrasov factors of the colored
Young-diagram sums (arXiv:1512.05388).  The closed sum is cross-checked
against the reflection engine, which forces the weight of a diagram to be
evaluated on its transpose (the boundary map and the box weights use
opposite reading conventions); the colored counting factor, like the
boundary map, is read off the diagram itself, with color (s1 - s2) mod r.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .coefficient import Coefficient, s_function
from .engine import Character, WeightConfig, YMonomial, derivative_case, highest_weight
from .errors import CollidingArguments, InvalidPit, PoleError, ValidationError
from .monomial import Monomial, Q, Q1, Q3, Q4, qfrak
from .quiver import Quiver, QuiverClass, classify


class Partition:
    """Weakly decreasing tuple of positive parts; its transpose is computed once."""

    __slots__ = ("parts", "_transpose")

    def __init__(self, parts: Iterable[int] = ()):
        ps = tuple(int(p) for p in parts if p)
        if any(p < 0 for p in ps) or any(ps[k] < ps[k + 1] for k in range(len(ps) - 1)):
            raise ValidationError(f"not a partition: {ps}")
        self.parts = ps
        self._transpose = None

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition{self.parts}"

    @property
    def size(self) -> int:
        return sum(self.parts)

    def part(self, k: int) -> int:
        """The k-th part (1-indexed), zero beyond the diagram."""
        return self.parts[k - 1] if 1 <= k <= len(self.parts) else 0

    def transpose(self) -> "Partition":
        if self._transpose is None:
            cols = [0] * max(self.parts, default=0)
            for p in self.parts:
                for j in range(p):
                    cols[j] += 1
            t = Partition(cols)
            t._transpose = self
            self._transpose = t
        return self._transpose

    def contains(self, row: int, col: int) -> bool:
        """Box membership in the (row, column) reading."""
        return self.part(row) >= col

    def boxes(self) -> Iterator[tuple[int, int]]:
        """All boxes as (s1, s2) = (column, row)."""
        for s2, p in enumerate(self.parts, start=1):
            for s1 in range(1, p + 1):
                yield (s1, s2)

    def addable(self) -> list[tuple[int, int]]:
        """Outer corners (column, row) where a box can be added."""
        out = []
        prev = None
        for k, p in enumerate(self.parts, start=1):
            if prev is None or p < prev:
                out.append((p + 1, k))
            prev = p
        out.append((1, len(self.parts) + 1))
        return out

    def removable(self) -> list[tuple[int, int]]:
        """Inner corners (column, row) where a box can be removed."""
        out = []
        for k, p in enumerate(self.parts, start=1):
            if p > self.part(k + 1):
                out.append((p, k))
        return out


def box_weight(base: Monomial, s: tuple[int, int]) -> Monomial:
    s1, s2 = s
    return base * Q3 ** (s1 - 1) * Q4 ** (s2 - 1)


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    if n == 0:
        return (Partition(),)
    out = []

    def rec(rest: int, maxpart: int, acc: tuple[int, ...]):
        if rest == 0:
            out.append(Partition(acc))
            return
        for p in range(min(rest, maxpart), 0, -1):
            rec(rest - p, p, acc + (p,))

    rec(n, n, ())
    return tuple(out)


def partitions_up_to(n: int) -> list[Partition]:
    out: list[Partition] = []
    for k in range(n + 1):
        out.extend(partitions_of(k))
    return out


# ---------------------------------------------------------------------------
# fixed-point weights
# ---------------------------------------------------------------------------


def z_Ar(lam: Partition, r: int) -> Coefficient:
    """Weight of one partition: the single-component case of ``z_Ar_tuple``."""
    return z_Ar_tuple([lam], [Monomial.unit()], r)


def z_Ar_tuple(
    lams: Sequence[Partition],
    xs: Sequence[Monomial],
    r: int,
    nodes: Sequence[int] | None = None,
) -> Coefficient:
    """Fixed-point weight of a tuple: the product of its ``z_s_values``."""
    out = Coefficient.one()
    for value in z_s_values(lams, xs, r, nodes):
        out = out * value
    return out


def z_s_values(
    lams: Sequence[Partition],
    xs: Sequence[Monomial],
    r: int,
    nodes: Sequence[int] | None = None,
) -> list[Coefficient]:
    """The S-values whose product is the weight of a tuple, over all ordered pairs (alpha, beta).

    The pair contributes S((x_beta / x_alpha) q3^{l+1} q4^{-a}) for each box
    of lam_alpha with arm a on lam_alpha, leg l on lam_beta^T and
    (a + l + 1 - (n_alpha - n_beta)) divisible by r; n are the node offsets
    (default 0).  alpha = beta is the hook-length filtered diagonal factor;
    r = 1 keeps every box.
    """
    if r < 1:
        raise ValidationError("r must be a positive integer")
    if len(lams) != len(xs):
        raise ValidationError("one evaluation parameter per partition")
    ns = list(nodes) if nodes is not None else [0] * len(lams)
    transposes = [lam.transpose() for lam in lams]
    out = []
    for lam_a, x_a, n_a in zip(lams, xs, ns):
        for t_b, x_b, n_b in zip(transposes, xs, ns):
            ratio = x_b / x_a
            for s1, s2 in lam_a.boxes():
                arm = lam_a.part(s2) - s1
                leg = t_b.part(s1) - s2
                if (arm + leg + 1 - (n_a - n_b)) % r == 0:
                    out.append(_box_s_value(ratio, leg, arm))
    return out


@lru_cache(maxsize=4096)
def _box_s_value(ratio: Monomial, leg: int, arm: int) -> Coefficient:
    """S(ratio q3^{leg+1} q4^{-arm}), memoized like ``s_r``."""
    return s_function(ratio * Q3 ** (leg + 1) * Q4 ** (-arm))


# ---------------------------------------------------------------------------
# closed-form affine characters
# ---------------------------------------------------------------------------


def _boundary_ym(
    lam: Partition, base: Monomial, node: int, r: int, node_names: Sequence[str]
) -> YMonomial:
    entries = []
    for s in lam.addable():
        color = (s[0] - s[1]) % r
        entries.append((node_names[(color + node) % r], box_weight(base, s), +1))
    for s in lam.removable():
        color = (s[0] - s[1]) % r
        entries.append((node_names[(color + node) % r], box_weight(base, s) * Q, -1))
    return YMonomial(tuple(entries))


def _colored_counting(lam: Partition, node: int, r: int, node_names: Sequence[str]) -> Monomial:
    out = Monomial.unit()
    for s in lam.boxes():
        out = out * qfrak(node_names[((s[0] - s[1]) % r + node) % r])
    return out


def _tuples_of_total(count: int, total: int) -> Iterator[tuple[Partition, ...]]:
    if count == 0:
        if total == 0:
            yield ()
        return
    for k in range(total + 1):
        for lam in partitions_of(k):
            for rest in _tuples_of_total(count - 1, total - k):
                yield (lam,) + rest


def _cycle_nodes(Q_: Quiver) -> list[str]:
    """The nodes in order along the one oriented unit cycle that the sum needs, from the first."""
    succ = {a: b for a, b, c in Q_.edges if c == 1}
    order = [Q_.nodes[0]]
    while succ.get(order[-1]) not in (None, *order):
        order.append(succ[order[-1]])
    cycle = len(succ) == len(Q_.edges) == len(order) == len(Q_.nodes) and succ.get(order[-1]) == order[0]
    if not cycle or any(Q_.d[i] != 1 for i in Q_.nodes):
        raise ValidationError(
            "closed-form characters need one oriented cycle through all nodes"
            " with every decoration d = 1 and every mass exponent 1"
        )
    return order


def affine_character(Q_: Quiver, wc: WeightConfig, max_qdeg: int) -> Character:
    """Sum over partition tuples up to the counting-degree cutoff.

    Matches the reflection engine term by term: the Y-monomial of a
    diagram comes from its addable/removable boxes and its colored
    counting factor from its own boxes, while its weight is evaluated on
    the transposed diagram.  Coinciding weight parameters, and parameters
    whose ratio puts an S-value of the weight on a pole, raise
    CollidingArguments, as they do in the engine.
    """
    if max_qdeg < 0:
        raise ValidationError("cutoff must be nonnegative")
    if classify(Q_)[0] is not QuiverClass.AFFINE:
        raise ValidationError("closed-form characters exist for affine quivers only")
    node_names = _cycle_nodes(Q_)
    for i, x, e in highest_weight(Q_, wc).ym.entries:
        if e >= 2:
            raise derivative_case(i, x, e)
    r = len(node_names)
    comps = [(node_names.index(i), p) for i, _, p in wc.entries]
    terms: dict[YMonomial, Coefficient] = {}
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
            coeff = coeff * Coefficient.from_monomial(counting)
            if ym in terms:
                raise ValidationError(f"colliding configurations at {ym!r}")
            terms[ym] = coeff
    return Character(Q_, wc, terms, (), meta={"closed_form": "affine", "max_qdeg": max_qdeg})


# ---------------------------------------------------------------------------
# resonance truncations
# ---------------------------------------------------------------------------


def pit_filter(lam: Partition, pit: tuple[int, int], r: int = 1) -> bool:
    """True iff the pit box (row i, column j) is outside the partition."""
    i, j = pit
    if i < 1 or j < 1:
        raise InvalidPit("pit coordinates must be positive")
    if (i + j - 1) % r != 0:
        raise InvalidPit(f"pit {pit} violates the mod-{r} residue condition")
    return not lam.contains(i, j)


def pit_resonance_vanishes(lam: Partition, pit: tuple[int, int], r: int = 1) -> bool:
    """Exact vanishing criterion of the diagonal weight under pit resonance.

    The substituted mass makes the factor of a box with arm j-1 and leg
    i-1 hit an S-zero (its hook i+j-1 is in rZ by the residue condition);
    no other factor can vanish for generic exponents.  Note this is finer
    than box membership.
    """
    i, j = pit
    if (i + j - 1) % r != 0:
        raise InvalidPit(f"pit {pit} violates the mod-{r} residue condition")
    t = lam.transpose()
    for s1, s2 in lam.boxes():
        if lam.part(s2) - s1 == j - 1 and t.part(s1) - s2 == i - 1:
            return True
    return False


def pit_resonance_sigma(pit: tuple[int, int]) -> dict[str, Monomial]:
    """Exact resonance substitution q3^i q4^{1-j} = q1 of the pit (i, j).

    With h = i + j - 1 the relation is mu^h = q1^j q2^{j-1}.  The substitution
    maps q1 -> a^h, q2 -> b^h and mu -> a^j b^{j-1} with fresh generators a, b.
    The exponent vectors of q1, q2, mu that it sends to 1 are the multiples of
    (j, j-1, -h), so it imposes that relation and no other.
    """
    i, j = pit
    h = i + j - 1
    a, b = Monomial.gen("a"), Monomial.gen("b")
    return {"q1": a**h, "q2": b**h, "mu": a**j * b ** (j - 1)}


def burge_filter(lam_a: Partition, lam_b: Partition, i: int, j: int) -> bool:
    """Transpose-column condition lam_b^T_k - lam_a^T_{k+j-1} >= i for all k."""
    if i > 0 or j < 1:
        raise ValidationError("burge condition needs i <= 0 and j >= 1")
    ta, tb = lam_a.transpose(), lam_b.transpose()
    top = max(len(tb.parts), len(ta.parts) + 2)
    return all(tb.part(k) - ta.part(k + j - 1) >= i for k in range(1, top + 1))


def burge_resonance_sigma(i: int, j: int, xa: str, xb: str) -> dict[str, Monomial]:
    """Exact ratio substitution x_b -> x_a q1 q3^{-i} q4^{j-1}."""
    return {xb: Monomial.gen(xa) * Q1 * Q3**-i * Q4 ** (j - 1)}
