"""Reflection expansion of qq-characters.

The definition is a breadth-first worklist (``_bfs``).  Starting from the
highest-weight monomial, each numerator Y-symbol is reflected, picking up
the S-factor correction from its same-node companions.  Children whose
S-factor vanishes are dropped (no edge); a child reached along several
paths must receive exactly the same coefficient, which is asserted on
every merge.

``expand`` takes one other route, fusion, for weights that split into two
or more resonance classes (``resonance_classes``), on finite and affine
quivers alike; weights of one class go through ``_bfs``.  No S-value
between two classes is 0 or a pole, so a character is the product of its
classes' own characters, its parts (a generic unit's part is its
fundamental), and a cutoff does not change that (Kimura-Pestun,
arXiv:1512.08533).  Classes of one shape, the same nodes with the same
ratios of their parameters to the first, share one part: the first is
expanded, and each later one is that part shifted by the ratio t of the
two classes' first parameters (``_Fundamental.shifted``), so the units at
one node share one fundamental.  A shift multiplies every argument by t
and keeps the coefficients, degrees and term numbering, since an S-value
reads only a ratio within the class and a reflection's scalar only its
node.  Each term is a tuple (m_1, ..., m_n) of part terms, with
coefficient prod_k c_k(m_k) * prod_{j<k} P_jk(m_j, m_k).  The pair
factor P_jk holds the S-factors between parts j and k along a path to the
tuple, and is computed once with part j reflected first and once with
part k first; the two must agree.  ``meta["path_checks"]`` counts these
comparisons only, not the merges inside a part's own ``_bfs``.  Terms and
edges are emitted by a breadth-first walk over the tuples, each tuple's
reflections in entry order (by the shifted arguments' keys in a shifted
part), so the output is identical to ``_bfs``'s: the same terms in the
same insertion order, the same coefficients and the same ``edges`` tuple.

On an affine quiver every reflection multiplies in exactly one qfrak(i)
(``Quiver.node_scalars``), and no weight parameter carries one, so a
term's counting degree is its depth: part terms come in nondecreasing
degree, and a tuple's degree is the sum of its parts'.  Each part is its
own ``_bfs`` to the cutoff D, or a shift of one, a pair factor is
computed only for pairs of total degree at most D, and the walk does not
reflect a tuple of degree D or more, as ``_bfs`` does not reflect such a
term; no tuple past the cutoff is formed.  On a finite quiver every
degree is 0 and nothing is cut.

Errors are ``_bfs``'s: more than ``SAFETY_BOUND`` terms (the tuples within
the cutoff, counted from the parts' degrees) raise its ``NonTermination``
before any product is built, and two rules give every other error.
``expand`` alone picks the route: ``_fuse`` returns None where a part or a
pair table raises, or where the pairs of parts outnumber the tuples (their
tables would cost more than the character, as for many units at a low
cutoff), and ``expand`` then expands the weights by ``_bfs``.  And a part
is shared only when entry order decides none of its reflections; order
decides one that an S-zero kills while a pole or a zero in a denominator
is among its companions too (``order_dependent``).  Each later class of
such a part's shape expands its own part, so a shift never raises.

Both routes read their S-values through one table per ``expand`` call
(a ``Memo`` of ``s_value``): S_d(a/x)^k by (d, a, x, k), computed on
first lookup, with an S-zero kept unpowered.  The same companions meet the
same reflected argument along many paths, so most lookups find their value
there; the parts, the pair tables and a fallback ``_bfs`` share it.  A pole is
never stored, so it raises the same text on every lookup, and each
reflection still checks its companions in entry order: the first zero or
pole decides, as without the table.  A second table per call (a ``Memo`` of
``a_inverse``) holds A_{i,x}^{-1} by the reflected entry (i, x): its
Y-monomial, built and sorted once, and the node scalar.  A reflection in
``_bfs`` and the edge list of a part read it, so an entry reflected along
many paths, or in a fallback ``_bfs`` after the parts, is built once; a
shifted part builds none.  The tables live for the one call, and no
reference cycle keeps them, or any other table of the call, alive after it.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from math import inf
from operator import itemgetter
from typing import Iterable, Mapping

from .coefficient import Coefficient, Substitution, s_r
from .errors import (
    CollidingArguments,
    NonTermination,
    PathInconsistency,
    PoleError,
    QQError,
    ValidationError,
    require_int,
)
from .monomial import COUNTING, Memo, Monomial, Q, merge_runs, xparam
from .quiver import Quiver, QuiverClass, a_inverse_monomial, classify

SAFETY_BOUND = 10**6
_first = itemgetter(0)


def _entry_key(entry: tuple) -> tuple:
    """The order of Y-monomial entries: by node, then by argument."""
    return entry[0], entry[1].sort_key()


class YMonomial:
    """Product of Y-symbols: map (node, argument monomial) -> exponent."""

    __slots__ = ("_entries", "_hash")

    def __init__(self, entries: Iterable[tuple[str, Monomial, int]] = ()):
        merged: dict[tuple[str, Monomial], int] = {}
        for node, arg, e in entries:
            if not e:
                continue
            k = (node, arg)
            merged[k] = merged.get(k, 0) + e
            if merged[k] == 0:
                del merged[k]
        self._entries = tuple(sorted(((n, a, e) for (n, a), e in merged.items()), key=_entry_key))
        self._hash = hash(self._entries)

    @staticmethod
    def _canonical(entries: tuple) -> "YMonomial":
        """A Y-monomial from entries already in canonical order, without sorting."""
        y = object.__new__(YMonomial)
        y._entries = entries
        y._hash = hash(entries)
        return y

    @staticmethod
    def unit() -> "YMonomial":
        return _Y_UNIT

    @property
    def entries(self) -> tuple[tuple[str, Monomial, int], ...]:
        return self._entries

    @property
    def is_unit(self) -> bool:
        return not self._entries

    def numerator_entries(self) -> tuple[tuple[str, Monomial, int], ...]:
        return tuple(t for t in self._entries if t[2] > 0)

    def exponent(self, node: str, arg: Monomial) -> int:
        for n, a, e in self._entries:
            if n == node and a == arg:
                return e
        return 0

    def __mul__(self, other: "YMonomial") -> "YMonomial":
        if not isinstance(other, YMonomial):
            return NotImplemented
        return YMonomial._canonical(merge_runs(self._entries, other._entries, _entry_key))

    def substitute(self, sub: Substitution) -> "YMonomial":
        return YMonomial(tuple((n, sub[a], e) for n, a, e in self._entries))

    def sort_key(self):
        return tuple((n, a.sort_key(), e) for n, a, e in self._entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, YMonomial) and self._entries == other._entries

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if not self._entries:
            return "1"
        parts = []
        for n, a, e in self._entries:
            s = f"Y[{n},{a!r}]"
            parts.append(s if e == 1 else f"{s}^{e}")
        return "*".join(parts)

    def to_json(self) -> list:
        return [{"node": n, "arg": a.to_json(), "exp": e} for n, a, e in self._entries]

    @staticmethod
    def from_json(data) -> "YMonomial":
        try:
            return YMonomial(
                tuple((str(t["node"]), Monomial.from_json(t["arg"]), require_int(t["exp"], "Y exponent")) for t in data)
            )
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed Y-monomial JSON ({type(exc).__name__}: {exc})") from None


_Y_UNIT = YMonomial()


@dataclass(frozen=True)
class Term:
    ym: YMonomial
    coeff: Coefficient


def qdeg_of(coeff: Coefficient) -> int:
    """Total degree of the counting parameters qfrak(i) carried by a coefficient."""
    return sum(e for k, e in coeff.unit.sort_key() if k[0] == COUNTING)


@dataclass(frozen=True)
class WeightConfig:
    """Weight dimension vector with one spectral parameter per unit."""

    entries: tuple[tuple[str, int, Monomial], ...]  # (node, alpha, parameter)

    @staticmethod
    def make(
        Q_: Quiver,
        w: Mapping[str, int],
        params: Mapping[tuple[str, int], Monomial] | None = None,
    ) -> "WeightConfig":
        out = []
        for i, k in w.items():
            if i not in Q_.nodes:
                raise ValidationError(f"weight at unknown node {i!r}")
            if require_int(k, f"weight at node {i!r}") < 0:
                raise ValidationError("weights must be nonnegative")
        for i in Q_.nodes:
            for alpha in range(1, w.get(i, 0) + 1):
                p = params.get((i, alpha)) if params else None
                out.append((i, alpha, p if p is not None else xparam(i, alpha)))
        unused = set(params or ()) - {(i, alpha) for i, alpha, _ in out}
        if unused:
            raise ValidationError(f"params {sorted(unused)} name no weight unit")
        return WeightConfig(tuple(out))

    def substitute(self, sub: Substitution) -> "WeightConfig":
        """The same units, each parameter replaced by its image in ``sub``."""
        return WeightConfig(tuple((i, a, sub[p]) for i, a, p in self.entries))


@dataclass
class Character:
    """Finite map YMonomial -> Coefficient plus the reflection graph."""

    quiver: Quiver
    wc: WeightConfig | None
    terms: dict[YMonomial, Coefficient]
    edges: tuple[tuple[YMonomial, YMonomial, tuple[str, Monomial]], ...] = ()
    meta: dict = field(default_factory=dict)

    def equals(self, other: "Character") -> bool:
        return self.terms == other.terms


def highest_weight(Q_: Quiver, wc: WeightConfig) -> Term:
    ym = YMonomial(tuple((i, p, 1) for i, _, p in wc.entries))
    return Term(ym, Coefficient.one())


def derivative_case(i: str, x: Monomial, e: int) -> CollidingArguments:
    """The error for reflecting Y[i, x]^e with e >= 2 (coinciding arguments)."""
    return CollidingArguments(f"Y[{i},{x!r}]^{e} requires the derivative prescription")


def s_value(key: tuple[int, Monomial, Monomial, int]) -> Coefficient:
    """S_d(a / x)^k at ``key`` = (d, a, x, k), the value of an S-value table at that key.

    ``expand`` keeps one table, a ``Memo(s_value)``, per call, so each value
    is computed once for the reflections that share it.  An S-zero is kept
    unpowered, so the caller decides what a zero does; a pole raises
    ``s_r``'s PoleError on every lookup, since a lookup that raises stores
    nothing.
    """
    d, a, x, k = key
    s = s_r(d, a / x)
    return s if s.is_zero else s**k


def s_factor_coefficient(
    t: Term, i: str, x: Monomial, Q_: Quiver, s_values: Memo | None = None
) -> Coefficient:
    """S-factor correction for reflecting the numerator entry (i, x) of t.

    Product over same-node numerator companions of S_{d_i}(x_a / x),
    divided by the same for denominator entries, read through ``s_values``
    (a fresh table when none is given).  A companion at the same argument
    (or an argument on a pole of S_{d_i}) is the rejected derivative case.
    """
    e = t.ym.exponent(i, x)
    if e <= 0:
        raise ValidationError(f"({i}, {x!r}) is not a numerator entry")
    if e >= 2:
        raise derivative_case(i, x, e)
    if s_values is None:
        s_values = Memo(s_value)
    d = Q_.d[i]
    out = Coefficient.one()
    for n, a, k in t.ym.entries:
        if n != i or a == x:
            continue
        try:
            s = s_values[d, a, x, k]
        except PoleError as exc:
            raise CollidingArguments(
                f"S_{d} pole at argument {(a / x)!r} while reflecting Y[{i},{x!r}]"
            ) from exc
        if s.is_zero:
            if k < 0:
                raise CollidingArguments(f"S_{d} zero in a denominator while reflecting Y[{i},{x!r}]")
            return Coefficient.zero()
        out = out * s
    return out


def a_inverse(Q_: Quiver, entry: tuple[str, Monomial]) -> tuple[YMonomial, Coefficient]:
    """A_{i,x}^{-1} at the reflected ``entry`` = (i, x) as a Y-monomial, with the node scalar.

    ``expand`` keeps one table of these, a ``Memo(partial(a_inverse, Q_))``,
    per call, so each distinct entry's Y-monomial is built and sorted once
    for every reflection of it and every edge that records it.
    """
    entries, scalar = a_inverse_monomial(Q_, *entry)
    return YMonomial(entries), scalar


def reflect(
    Q_: Quiver, t: Term, i: str, x: Monomial, s_values: Memo | None = None, a_inverses: Memo | None = None
) -> Term | None:
    """One reflection step; None when the S-factor kills the child.

    The S-values are read through ``s_values`` and A_{i,x}^{-1} through
    ``a_inverses`` (a table of ``a_inverse``), each built afresh when none
    is given.
    """
    sf = s_factor_coefficient(t, i, x, Q_, s_values)
    if sf.is_zero:
        return None
    delta, scalar = a_inverse(Q_, (i, x)) if a_inverses is None else a_inverses[i, x]
    return Term(t.ym * delta, t.coeff * (sf * scalar))  # the long coefficient is copied once


def resonance_classes(wc: WeightConfig) -> list[list[tuple[str, int, Monomial]]]:
    """The weight units grouped by resonance, each class in entry order.

    Two parameters resonate when their ratio is a monomial in q1, q2 and mu
    alone, that is, when they agree in every other generator.
    """
    classes: dict[tuple, list[tuple[str, int, Monomial]]] = {}
    for unit in wc.entries:
        classes.setdefault(tuple(ke for ke in unit[2].sort_key() if ke[0][0] >= COUNTING), []).append(unit)
    return list(classes.values())


def expand(
    Q_: Quiver,
    wc: WeightConfig,
    max_qdeg: int | None = None,
) -> Character:
    """Full expansion; exact and deterministic.

    Finite-type quivers terminate on their own, and their terms carry no
    counting parameter, so ``max_qdeg`` cuts nothing there; affine ones
    require a counting-degree cutoff.  Indefinite quivers are rejected, and
    so is a weight parameter that carries a counting parameter qfrak(i).
    Weights of two or more resonance classes are fused from their classes'
    characters (see the module docstring); the result is the one ``_bfs``
    gives.
    """
    qclass, _ = classify(Q_)
    if qclass is QuiverClass.INDEFINITE:
        raise ValidationError("indefinite quivers are not supported")
    if qclass is QuiverClass.AFFINE and max_qdeg is None:
        raise ValidationError("affine expansion requires a counting-degree cutoff")
    if any(k[0] == COUNTING for _, _, p in wc.entries for k, _ in p.sort_key()):
        raise ValidationError("a weight parameter uses a counting parameter qfrak(i), which only the engine sets")
    if qclass is QuiverClass.FINITE:
        max_qdeg = None
    s_values, a_inverses = Memo(s_value), Memo(partial(a_inverse, Q_))
    if len(wc.entries) > 1 and len(classes := resonance_classes(wc)) > 1:
        fused = _fuse(Q_, wc, classes, s_values, max_qdeg, a_inverses)
        if fused is not None:
            return fused
    return _bfs(Q_, wc, max_qdeg, s_values, a_inverses)


def _too_many_terms() -> NonTermination:
    return NonTermination(f"expansion exceeded {SAFETY_BOUND} terms")


def _bfs(Q_: Quiver, wc: WeightConfig, max_qdeg: int | None, s_values: Memo, a_inverses: Memo) -> Character:
    """The worklist expansion, which defines the character; ``expand`` checks its arguments.

    ``s_values`` and ``a_inverses`` are the call's tables of ``s_value`` and ``a_inverse``.
    """
    hw = highest_weight(Q_, wc)
    terms: dict[YMonomial, Coefficient] = {hw.ym: hw.coeff}
    edges: list[tuple[YMonomial, YMonomial, tuple[str, Monomial]]] = []
    path_checks = 0
    work: deque[Term] = deque([hw])
    while work:
        t = work.popleft()
        if max_qdeg is not None and qdeg_of(t.coeff) >= max_qdeg:
            continue
        for i, x, e in t.ym.numerator_entries():
            try:
                child = reflect(Q_, t, i, x, s_values, a_inverses)
            except CollidingArguments as exc:
                # a pole or a repeated argument: at generic weights (one unit per class) no two arguments collide
                if (e >= 2 or isinstance(exc.__cause__, PoleError)) and len(resonance_classes(wc)) == len(wc.entries):
                    raise CollidingArguments(
                        f"the reflection rule does not reach node {i}: {exc} (the weight parameters are generic)"
                    ) from exc
                raise
            if child is None:
                continue
            edges.append((t.ym, child.ym, (i, x)))
            known = terms.get(child.ym)
            if known is not None:
                path_checks += 1
                if known != child.coeff:
                    raise PathInconsistency(
                        f"coefficient mismatch at {child.ym!r}: {known!r} vs {child.coeff!r}"
                    )
                continue
            terms[child.ym] = child.coeff
            if len(terms) > SAFETY_BOUND:
                raise _too_many_terms()
            work.append(child)
    meta = {"path_checks": path_checks, "max_qdeg": max_qdeg, "class": classify(Q_)[0].value}
    return Character(Q_, wc, terms, tuple(edges), meta=meta)


class _Fundamental:
    """One resonance class's own expansion to the cutoff, a part for fusion (a single unit's is its fundamental).

    Terms are numbered in ``_bfs`` order (a shifted part keeps the numbering
    of the part it is shifted from), so the highest weight is 0 and a
    term's parent, the source of the first edge into it, has a lower
    number; ``step[b]`` is the entry reflected on that edge, and the
    parents' steps give term b's path.  ``degree[a]`` is term a's counting
    degree, nondecreasing in a (0 on a finite quiver, the term's depth on
    an affine one).  ``out[a]`` lists term a's edges in entry order as
    (entry key, child, entry, the Y-monomial the reflection multiplies in).
    ``order_dependent`` says whether an S-zero killed a reflection while a
    pole or a zero in a denominator was among its companions too: which of
    them the reflection meets first follows the entry order, so a shift,
    which can reorder the entries, could decide it otherwise.
    """

    __slots__ = ("yms", "coeffs", "degree", "parent", "step", "out", "order_dependent")

    def __init__(
        self,
        Q_: Quiver,
        cls: list[tuple[str, int, Monomial]],
        max_qdeg: int | None,
        s_values: Memo,
        a_inverses: Memo,
    ):
        ch = _bfs(Q_, WeightConfig(tuple(cls)), max_qdeg, s_values, a_inverses)
        self.yms = list(ch.terms)
        self.coeffs = list(ch.terms.values())
        self.degree = [qdeg_of(c) for c in self.coeffs]
        number = {ym: a for a, ym in enumerate(self.yms)}
        self.parent = [0] * len(self.yms)
        self.step: list = [None] * len(self.yms)
        self.out: list[list] = [[] for _ in self.yms]
        for src, dst, entry in ch.edges:
            a, b = number[src], number[dst]
            if self.step[b] is None:
                self.parent[b], self.step[b] = a, entry
            self.out[a].append((_entry_key(entry), b, entry, a_inverses[entry][0]))
        self.order_dependent = any(
            all(entry != (i, x) for _, _, entry, _ in edges)
            and any(_raises(s_values, Q_.d[i], y, x, k) for n, y, k in ym.entries if n == i and y != x)
            for a, (ym, edges) in enumerate(zip(self.yms, self.out))
            if max_qdeg is None or self.degree[a] < max_qdeg
            for i, x, _ in ym.numerator_entries()
        )

    def shifted(self, t: Monomial) -> "_Fundamental":
        """The part of the class whose parameters are this class's times ``t``, with no expansion.

        Every argument is multiplied by t, each distinct one once, and each
        Y-monomial and edge re-sorted by its new keys.  The S-values read
        only ratios within the class and a reflection's scalar only its
        node, so the coefficients, degrees and parents are this part's.
        Only a part that is not ``order_dependent`` is shifted: the new
        entry order then decides no reflection.
        """
        arg = Memo(t.__mul__)
        ym = Memo(lambda y: YMonomial._canonical(tuple(sorted([(n, arg[x], e) for n, x, e in y.entries], key=_entry_key))))
        g = object.__new__(_Fundamental)
        g.yms = [ym[y] for y in self.yms]
        g.coeffs, g.degree, g.parent, g.order_dependent = self.coeffs, self.degree, self.parent, self.order_dependent
        g.step = [None] + [(i, arg[x]) for i, x in self.step[1:]]
        g.out = [
            sorted([(_entry_key(e := (i, arg[x])), b, e, ym[delta]) for _, b, (i, x), delta in edges], key=_first)
            for edges in self.out
        ]
        return g


def _raises(s_values: Memo, d: int, y: Monomial, x: Monomial, k: int) -> bool:
    """Whether the companion (y, k) makes reflecting x raise: a pole, or an S-zero in a denominator."""
    try:
        return s_values[d, y, x, k].is_zero and k < 0
    except PoleError:
        return True


def _cross(Q_: Quiver, f: _Fundamental, g: _Fundamental, top: float, s_values: Memo) -> list[list[Coefficient]]:
    """W[a][b]: the S-factors that f's term a contributes to the reflections along g's path to b.

    Each reflection of (i, x) takes S_{d_i}(y / x)^e from every entry
    (i, y, e) of term a, read through ``s_values`` as ``s_factor_coefficient``
    reads it; a row is built along the paths, one reflection per term of g,
    and only as far as the terms b of degree at most ``top`` - degree(a).
    """
    out = []
    for m, deg in zip(f.yms, f.degree):
        by_node: dict[str, list] = {}
        for n, y, e in m.entries:
            by_node.setdefault(n, []).append((y, e))
        row = [Coefficient.one()]
        for b in range(1, bisect_right(g.degree, top - deg)):
            i, x = g.step[b]
            w = row[g.parent[b]]
            for y, e in by_node.get(i, ()):
                w = w * s_values[Q_.d[i], y, x, e]
            row.append(w)
        out.append(row)
    return out


def _pair_factors(
    Q_: Quiver, fj: _Fundamental, fk: _Fundamental, top: float, s_values: Memo
) -> list[list[Coefficient]]:
    """P[a][b], the S-factors between parts j and k at their terms a and b of total degree at most ``top``.

    With j reflected first, its path meets Y_k (term 0 of k), and then k's
    path meets term a of j; with k first, the roles swap.  Both orders
    reach the same term, so their products must agree.
    """
    wjk, wkj = _cross(Q_, fj, fk, top, s_values), _cross(Q_, fk, fj, top, s_values)
    y_k, y_j = wkj[0], wjk[0]
    out = []
    for a, row in enumerate(wjk):
        j_first = [y_k[a] * w for w in row]
        for b, p in enumerate(j_first):
            k_first = y_j[b] * wkj[b][a]
            if p != k_first:
                raise PathInconsistency(f"pair factor mismatch at {fj.yms[a]!r} and {fk.yms[b]!r}: {p!r} vs {k_first!r}")
        out.append(j_first)
    return out


def _tuple_count(parts: list[_Fundamental], top: float) -> int:
    """The number of tuples of part terms whose degrees add up to at most ``top``: the convolution
    of the parts' degree histograms, cut at ``top`` (the product of their sizes when ``top`` is inf)."""
    counts = [1]  # counts[d]: the tuples of the parts so far of degree d
    for f in parts:
        hist = [0] * (f.degree[-1] + 1)
        for e in f.degree:
            hist[e] += 1
        sums = [0] * (len(counts) + len(hist) - 1)
        for d, c in enumerate(counts):
            for e, m in enumerate(hist):
                sums[d + e] += c * m
        counts = [c for d, c in enumerate(sums) if d <= top]
    return sum(counts)


def _fuse(
    Q_: Quiver, wc: WeightConfig, classes: list[list], s_values: Memo, max_qdeg: int | None, a_inverses: Memo
) -> Character | None:
    """The character of weights of two or more resonance ``classes``, from their parts, to the cutoff
    ``max_qdeg``; None where ``_bfs`` is to expand the weights instead."""
    shapes: dict[tuple, tuple[Monomial, _Fundamental]] = {}  # a class's shape: its units' nodes and ratios to its first
    parts = []
    for cls in classes:
        p = cls[0][2]
        shape = tuple((i, x / p) for i, _, x in cls)
        if shape in shapes:
            p_first, first = shapes[shape]
            parts.append(first.shifted(p / p_first))
            continue
        try:
            parts.append(_Fundamental(Q_, cls, max_qdeg, s_values, a_inverses))
        except QQError:
            return None
        if not parts[-1].order_dependent:
            shapes[shape] = p, parts[-1]
    top = inf if max_qdeg is None else max(max_qdeg, 0)  # the highest weight is kept at any cutoff
    count = _tuple_count(parts, top)
    if count > SAFETY_BOUND:
        raise _too_many_terms()
    n = len(parts)
    if n * (n - 1) // 2 > count:  # more pair tables than terms: the worklist costs less
        return None
    try:
        pairs = {(j, k): _pair_factors(Q_, parts[j], parts[k], top, s_values) for k in range(n) for j in range(k)}
    except QQError:
        return None
    path_checks = sum(len(row) for p in pairs.values() for row in p)  # one per pair of terms

    def part(t: tuple[int, ...]) -> Coefficient:
        """Part k = len(t) - 1 at t[k], with its pair factors to parts 0..k-1."""
        k = len(t) - 1
        c = parts[k].coeffs[t[k]]
        for j in range(k):
            c = c * pairs[j, k][t[j]][t[k]]
        return c

    # prefix[t[:k]]: the coefficient of parts 0..k - 1 at t[:k], kept for every prefix met; a
    # tuple's extends its longest known prefix by the short factors of each later part, in a
    # loop, so the depth of the call stack does not grow with the number of parts
    prefix = {(): Coefficient.one()}

    def coefficient(t: tuple[int, ...]) -> Coefficient:
        k = n - 1
        while t[:k] not in prefix:
            k -= 1
        c = prefix[t[:k]]
        for j in range(k + 1, n + 1):
            c = prefix[t[:j]] = c * part(t[:j])
        return c

    start = (0,) * n
    hw = highest_weight(Q_, wc).ym
    ym_of = {start: hw}
    terms: dict[YMonomial, Coefficient] = {hw: coefficient(start)}
    edges: list[tuple[YMonomial, YMonomial, tuple[str, Monomial]]] = []
    work = deque([(start, 0)])  # each tuple with its degree
    while work:
        t, deg = work.popleft()
        if deg >= top:
            continue  # as ``_bfs`` skips a term at the cutoff
        ym = ym_of[t]
        out = sorted(
            ((key, k, b, entry, delta) for k in range(n) for key, b, entry, delta in parts[k].out[t[k]]),
            key=_first,
        )
        for _, k, b, entry, delta in out:
            child = t[:k] + (b,) + t[k + 1 :]
            child_ym = ym_of.get(child)
            if child_ym is None:
                child_ym = ym_of[child] = ym * delta
                terms[child_ym] = coefficient(child)
                work.append((child, deg + parts[k].degree[b] - parts[k].degree[t[k]]))
            edges.append((ym, child_ym, entry))
    meta = {"path_checks": path_checks, "max_qdeg": max_qdeg, "class": classify(Q_)[0].value}
    return Character(Q_, wc, terms, tuple(edges), meta=meta)


def closed_form_A1(w: int, params: list[Monomial] | None = None) -> Character:
    """Weight-w single-node character built directly from subset splittings."""
    from .quiver import builtin_quiver

    if w < 0:
        raise ValidationError("weight must be nonnegative")
    Q_ = builtin_quiver("A1")
    xs = params if params is not None else [xparam("1", a) for a in range(1, w + 1)]
    if len(xs) != w:
        raise ValidationError("need one parameter per weight unit")
    terms: dict[YMonomial, Coefficient] = {}
    for mask in range(2**w):
        J = [k for k in range(w) if mask >> k & 1]
        I = [k for k in range(w) if not mask >> k & 1]
        coeff = Coefficient.one()
        for i in I:
            for j in J:
                coeff = coeff * s_r(1, xs[i] / xs[j])
        ym = YMonomial(
            tuple(("1", xs[i], 1) for i in I) + tuple(("1", xs[j] * Q, -1) for j in J)
        )
        terms[ym] = coeff
    wc = WeightConfig(tuple(("1", a + 1, xs[a]) for a in range(w)))
    return Character(Q_, wc, terms, (), meta={"closed_form": "A1"})
