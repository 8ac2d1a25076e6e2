"""Breadth-first reflection expansion of qq-characters.

Starting from the highest-weight monomial, each numerator Y-symbol is
reflected, picking up the S-factor correction from its same-node
companions.  Children whose S-factor vanishes are dropped (no edge); a
child reached along several paths must receive exactly the same
coefficient, which is asserted on every merge.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .coefficient import Coefficient, s_r
from .errors import (
    CollidingArguments,
    NonTermination,
    PathInconsistency,
    PoleError,
    ValidationError,
    require_int,
)
from .monomial import Monomial, Q, merge_runs, xparam
from .quiver import Quiver, QuiverClass, a_inverse_monomial, classify

SAFETY_BOUND = 10**6


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

    def substitute(self, sigma: Mapping[str, Monomial]) -> "YMonomial":
        return YMonomial(tuple((n, a.substitute(sigma), e) for n, a, e in self._entries))

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
        return YMonomial(
            tuple((str(t["node"]), Monomial.from_json(t["arg"]), int(t["exp"])) for t in data)
        )


_Y_UNIT = YMonomial()


@dataclass(frozen=True)
class Term:
    ym: YMonomial
    coeff: Coefficient

    @property
    def qdeg(self) -> int:
        return qdeg_of(self.coeff)


def qdeg_of(coeff: Coefficient) -> int:
    """Total counting-parameter degree carried by a coefficient."""
    if coeff.is_zero:
        return 0
    return sum(e for g, e in coeff.unit.exps if g.startswith("qfrak"))


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

    def substitute(self, sigma: Mapping[str, Monomial]) -> "WeightConfig":
        """The same units with sigma applied to each parameter."""
        return WeightConfig(tuple((i, a, p.substitute(sigma)) for i, a, p in self.entries))


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


def s_factor_coefficient(t: Term, i: str, x: Monomial, Q_: Quiver) -> Coefficient:
    """S-factor correction for reflecting the numerator entry (i, x) of t.

    Product over same-node numerator companions of S_{d_i}(x_a / x),
    divided by the same for denominator entries.  A companion at the same
    argument (or an argument on a pole of S_{d_i}) is the rejected
    derivative case.
    """
    e = t.ym.exponent(i, x)
    if e <= 0:
        raise ValidationError(f"({i}, {x!r}) is not a numerator entry")
    if e >= 2:
        raise derivative_case(i, x, e)
    d = Q_.d[i]
    out = Coefficient.one()
    for n, a, k in t.ym.entries:
        if n != i or a == x:
            continue
        try:
            s = s_r(d, a / x)
        except PoleError as exc:
            raise CollidingArguments(
                f"S_{d} pole at argument {(a / x)!r} while reflecting Y[{i},{x!r}]"
            ) from exc
        if s.is_zero:
            if k < 0:
                raise CollidingArguments(f"S_{d} zero in a denominator while reflecting Y[{i},{x!r}]")
            return Coefficient.zero()
        out = out * s**k
    return out


def reflect(Q_: Quiver, t: Term, i: str, x: Monomial) -> Term | None:
    """One reflection step; None when the S-factor kills the child."""
    sf = s_factor_coefficient(t, i, x, Q_)
    if sf.is_zero:
        return None
    entries, scalar = a_inverse_monomial(Q_, i, x)
    child_ym = t.ym * YMonomial(entries)
    return Term(child_ym, t.coeff * sf * scalar)


def resonance_classes(wc: WeightConfig) -> list[list[tuple[str, Monomial]]]:
    """The (node, parameter) pairs of the weight units, grouped by resonance.

    Two parameters resonate when their ratio is a monomial in q1, q2 and mu
    alone, that is, when they agree in every other generator.
    """
    classes: dict[tuple, list[tuple[str, Monomial]]] = {}
    for i, _, p in wc.entries:
        classes.setdefault(tuple(ge for ge in p.exps if ge[0] not in ("q1", "q2", "mu")), []).append((i, p))
    return list(classes.values())


def _generic(wc: WeightConfig) -> bool:
    """True when no two weight parameters resonate."""
    return all(len(cls) == 1 for cls in resonance_classes(wc))


def expand(
    Q_: Quiver,
    wc: WeightConfig,
    max_qdeg: int | None = None,
    safety_bound: int = SAFETY_BOUND,
) -> Character:
    """Full worklist expansion; exact and deterministic.

    Finite-type quivers terminate on their own; affine ones require a
    counting-degree cutoff.  Indefinite quivers are rejected.
    """
    qclass, _ = classify(Q_)
    if qclass is QuiverClass.INDEFINITE:
        raise ValidationError("indefinite quivers are not supported")
    if qclass is QuiverClass.AFFINE and max_qdeg is None:
        raise ValidationError("affine expansion requires a counting-degree cutoff")

    hw = highest_weight(Q_, wc)
    terms: dict[YMonomial, Coefficient] = {hw.ym: hw.coeff}
    edges: list[tuple[YMonomial, YMonomial, tuple[str, Monomial]]] = []
    path_checks = 0
    work: deque[Term] = deque([hw])
    while work:
        t = work.popleft()
        if max_qdeg is not None and t.qdeg >= max_qdeg:
            continue
        for i, x, _ in t.ym.numerator_entries():
            try:
                child = reflect(Q_, t, i, x)
            except CollidingArguments as exc:
                if isinstance(exc.__cause__, PoleError) and _generic(wc):  # no arguments can collide
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
            if len(terms) > safety_bound:
                raise NonTermination(f"expansion exceeded {safety_bound} terms")
            work.append(child)
    return Character(
        Q_,
        wc,
        terms,
        tuple(edges),
        meta={"path_checks": path_checks, "max_qdeg": max_qdeg, "class": qclass.value},
    )


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
