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

from functools import lru_cache, partial
from itertools import zip_longest
from typing import Iterable, Iterator, Sequence

from . import engine
from .coefficient import Coefficient, s_function
from .engine import Character, WeightConfig, YMonomial, derivative_case, highest_weight
from .errors import CollidingArguments, InvalidPit, NonTermination, PoleError, ValidationError
from .monomial import Memo, Monomial, Q, Q1, Q3, Q4, qfrak
from .quiver import Quiver, QuiverClass, classify


class Partition:
    """Weakly decreasing tuple of positive parts; its transpose and hash are computed once."""

    __slots__ = ("parts", "_transpose", "_hash")

    def __init__(self, parts: Iterable[int] = ()):
        ps = tuple(int(p) for p in parts if p)
        if any(p < 0 for p in ps) or any(ps[k] < ps[k + 1] for k in range(len(ps) - 1)):
            raise ValidationError(f"not a partition: {ps}")
        self.parts = ps
        self._transpose = None
        self._hash = hash(ps)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return self._hash

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

    The pairs come alpha by alpha, each alpha's with beta in order, and each
    pair's S-values are ``_pair_s_values``; alpha = beta is the hook-length
    filtered diagonal factor.  ``affine_character`` keeps each pair's product
    in a table for the call and multiplies the pairs in this order, so the
    first pole it meets is the first one in this list, as for ``z_Ar_tuple``.
    """
    if r < 1:
        raise ValidationError("r must be a positive integer")
    if len(lams) != len(xs):
        raise ValidationError("one evaluation parameter per partition")
    ns = list(nodes) if nodes is not None else [0] * len(lams)
    transposes = [lam.transpose() for lam in lams]
    out = []
    for lam_a, x_a, n_a in zip(lams, xs, ns):
        if not lam_a.parts:  # no boxes, so no S-value with any beta
            continue
        for t_b, x_b, n_b in zip(transposes, xs, ns):
            out.extend(_pair_s_values(lam_a, t_b, x_b / x_a, n_a - n_b, r))
    return out


def _pair_s_values(lam_a: Partition, t_b: Partition, ratio: Monomial, offset: int, r: int) -> list[Coefficient]:
    """The S-values of one ordered pair (alpha, beta), in the box order of lam_a.

    S(ratio q3^{l+1} q4^{-a}) for each box of lam_a with arm a on lam_a, leg l
    on t_b = lam_beta^T and (a + l + 1 - offset) divisible by r; ratio is
    x_beta / x_alpha and offset n_alpha - n_beta, the difference of the node
    offsets.  r = 1 keeps every box.
    """
    out = []
    cols = t_b.parts
    for s2, row in enumerate(lam_a.parts, start=1):
        for s1 in range(1, row + 1):
            arm = row - s1
            leg = (cols[s1 - 1] if s1 <= len(cols) else 0) - s2
            if (arm + leg + 1 - offset) % r == 0:
                out.append(_box_s_value(ratio, leg, arm))
    return out


@lru_cache(maxsize=4096)
def _box_s_value(ratio: Monomial, leg: int, arm: int) -> Coefficient:
    """S(ratio q3^{leg+1} q4^{-arm}), memoized like ``s_r``."""
    return s_function(ratio * Q3 ** (leg + 1) * Q4 ** (-arm))


# ---------------------------------------------------------------------------
# closed-form affine characters
# ---------------------------------------------------------------------------


def _tuples_of_total(count: int, total: int) -> Iterator[tuple[Partition, ...]]:
    """Every count-tuple of partitions whose sizes add up to total.

    They come in the order of (k_1, lambda_1, k_2, lambda_2, ...): sizes
    rising, each size's partitions in ``partitions_of`` order, and the last
    partition of the size that is left.  A stack of choices, one per
    position, stands in for recursion, so count is not bounded by its limit.
    """
    if count == 0:
        if total == 0:
            yield ()
        return

    def choices(left: int, last: bool):
        """(partition, size left after it) for one position."""
        return ((lam, left - k) for k in ([left] if last else range(left + 1)) for lam in partitions_of(k))

    head: list[Partition] = []
    stack = [choices(total, count == 1)]
    while stack:
        choice = next(stack[-1], None)
        if choice is None:
            stack.pop()
            if head:
                head.pop()
        elif len(head) == count - 1 or not choice[1]:  # with nothing left, the rest are empty
            yield (*head, choice[0], *partitions_of(0) * (count - 1 - len(head)))
        else:
            head.append(choice[0])
            stack.append(choices(choice[1], len(head) == count - 1))


def _refuse_too_many_tuples(count: int, top: int) -> None:
    """Raise NonTermination when more than ``engine.SAFETY_BOUND`` count-tuples of partitions have total at most top.

    The tuples of total k number c_k, the coefficient of q^k in P(q)^count
    with P the partition generating function.  Since log P(q) is the sum of
    sigma(j) q^j / j over j >= 1, sigma the divisor sum, k c_k is count times
    the sum of sigma(j) c_{k-j} over 1 <= j <= k.  The count stops once it
    passes the bound, which at 10^6 and one unit happens at k = 49 (sooner
    with more units), so a large top costs a few dozen steps.
    """
    c, sigma, seen = [1], [0], 1
    for k in range(1, top + 1):
        if seen > engine.SAFETY_BOUND:
            break
        sigma.append(sum(d for d in range(1, k + 1) if k % d == 0))
        c.append(count * sum(sigma[j] * c[k - j] for j in range(1, k + 1)) // k)
        seen += c[k]
    if seen > engine.SAFETY_BOUND:
        raise NonTermination(f"partition sum exceeded {engine.SAFETY_BOUND} tuples")


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

    Components and pairs recur across tuples, so the call keeps its pieces
    in ``Memo`` tables, each built on first lookup:
    - each box's shift q3^(s1-1) q4^(s2-1) by s = (s1, s2);
    - each component's boundary Y-monomial by (alpha, lambda), its
      arguments the unit's parameter times those shifts;
    - each colored counting factor by (node, lambda), shared by the units
      at one node: every node's qfrak raised to the number of boxes of its
      color;
    - each ordered pair's product of ``_pair_s_values`` by (alpha, beta,
      lambda_alpha, lambda_beta).
    A tuple's weight is the product of its pairs in ``z_s_values`` order,
    and every pair is evaluated before a zero weight is skipped, so a pole
    is met at the same S-value of the same tuple as in ``z_Ar_tuple`` and
    names that tuple.

    More than ``engine.SAFETY_BOUND`` tuples up to the cutoff raise
    NonTermination before any tuple is enumerated.
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
    qfraks = [qfrak(i) for i in node_names]
    shifts = Memo(partial(box_weight, Monomial.unit()))  # q3^(s1-1) q4^(s2-1) by box s

    def boundary(key: tuple[int, Partition]) -> YMonomial:
        """Component alpha's boundary Y-monomial at lam: each addable box in the numerator, each removable
        one, shifted by q, in the denominator, at the node of its color (s1 - s2) mod r past the unit's."""
        alpha, lam = key
        node, base = comps[alpha]
        return YMonomial(
            [(node_names[(s1 - s2 + node) % r], base * shifts[s1, s2], 1) for s1, s2 in lam.addable()]
            + [(node_names[(s1 - s2 + node) % r], base * shifts[s1, s2] * Q, -1) for s1, s2 in lam.removable()]
        )

    def counting(key: tuple[int, Partition]) -> Monomial:
        """The colored counting factor at lam of a unit at ``node``: one qfrak per box, of the box's color."""
        node, lam = key
        boxes = [0] * r  # boxes[c]: the boxes at node c
        for s2, row in enumerate(lam.parts, start=1):
            for s1 in range(1, row + 1):
                boxes[(s1 - s2 + node) % r] += 1
        out = Monomial.unit()
        for q, k in zip(qfraks, boxes):
            out = out * q**k
        return out

    def pair(key: tuple[int, int, Partition, Partition]) -> Coefficient:
        """The product of the pair's S-values, on the transposed diagram of alpha."""
        alpha, beta, lam_a, lam_b = key
        (n_a, x_a), (n_b, x_b) = comps[alpha], comps[beta]
        out = Coefficient.one()
        for value in _pair_s_values(lam_a.transpose(), lam_b, x_b / x_a, n_a - n_b, r):
            out = out * value
        return out

    top = max_qdeg if comps else 0  # with no units, only the empty tuple, of total 0
    _refuse_too_many_tuples(len(comps), top)
    boundaries, countings, pairs = Memo(boundary), Memo(counting), Memo(pair)
    terms: dict[YMonomial, Coefficient] = {}
    for total in range(top + 1):
        for lams in _tuples_of_total(len(comps), total):
            coeff = Coefficient.one()
            try:
                for alpha, lam_a in enumerate(lams):
                    if lam_a.parts:
                        for beta, lam_b in enumerate(lams):
                            coeff = coeff * pairs[alpha, beta, lam_a, lam_b]
            except PoleError as exc:
                raise CollidingArguments(f"{exc} in the weight of {tuple(lams)!r}") from exc
            if coeff.is_zero:
                continue
            counting_factor = Monomial.unit()
            ym = YMonomial.unit()
            for alpha, ((node, _), lam) in enumerate(zip(comps, lams)):
                counting_factor = counting_factor * countings[node, lam]
                ym = ym * boundaries[alpha, lam]
            if ym in terms:
                raise ValidationError(f"colliding configurations at {ym!r}")
            terms[ym] = coeff * Coefficient.from_monomial(counting_factor)
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
    # past both column lists each difference is 0 - 0 >= i, which holds since i <= 0
    columns = zip_longest(lam_b.transpose().parts, lam_a.transpose().parts[j - 1 :], fillvalue=0)
    return all(b - a >= i for b, a in columns)


def burge_resonance_sigma(i: int, j: int, xa: str, xb: str) -> dict[str, Monomial]:
    """Exact ratio substitution x_b -> x_a q1 q3^{-i} q4^{j-1}."""
    return {xb: Monomial.gen(xa) * Q1 * Q3**-i * Q4 ** (j - 1)}
