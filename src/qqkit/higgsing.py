"""Weight-parameter specialization, classical limits, and factorization checks.

Higgsing substitutes geometric sequences into the weight parameters; terms
whose coefficients hit an S-zero drop out, leaving the irreducible
character.  Classical limits send q1 or q2 to 1, merge colliding
monomials, and must produce integer coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .coefficient import Coefficient, Substitution, s_function
from .engine import Character, WeightConfig, YMonomial, resonance_classes
from .errors import ValidationError, YCollision
from .monomial import WEIGHT, Monomial, Q1, Q2, gen_key, xparam
from .quiver import Quiver, builtin_quiver


def _ladder_steps(d: int) -> dict[int, Monomial]:
    """The step of a q_m ladder at a node with decoration d, by m.

    The zeros of S_d are q1^d and q2: the q1 ladder steps by q1^d at any
    node, and the q2 ladder steps by q2 only at d = 1 (q2^d is no zero of S_d
    when d >= 2).
    """
    return {1: Q1**d, 2: Q2} if d == 1 else {1: Q1**d}


def kr_params(Q_: Quiver, node: str, k: int, m: int = 1, base: Monomial | None = None) -> list[Monomial]:
    """The Kirillov-Reshetikhin ladder (x, x s, ..., x s^(k-1)); x defaults to x(node,1)."""
    if node not in Q_.nodes:
        raise ValidationError(f"unknown node {node!r}")
    if k < 0:
        raise ValidationError("ladder length must be nonnegative")
    if m not in (1, 2):
        raise ValidationError("shift direction must be 1 or 2")
    steps = _ladder_steps(Q_.d[node])
    if m not in steps:
        raise ValidationError(f"a q2 ladder needs d = 1, but node {node!r} has d = {Q_.d[node]}")
    x = base if base is not None else xparam(node, 1)
    return [x * steps[m] ** t for t in range(k)]


def kr_sigma(Q_: Quiver, node: str, k: int, m: int = 1) -> dict[str, Monomial]:
    """Substitution sending x(node,t) -> x(node,1) q_m^{d (t-1)}; empty for k < 2."""
    ladder = kr_params(Q_, node, k, m)
    return {f"x({node},{t})": ladder[t - 1] for t in range(2, k + 1)}


def fold_weights(Q_: Quiver, wc: WeightConfig, sigma: Mapping[str, Monomial]) -> WeightConfig | None:
    """The weights at sigma, when expanding there gives ``higgs(expand(wc), sigma)``; else None.

    sigma must pass the image check of ``Substitution`` (its ValidationError
    propagates, so a malformed sigma is rejected before any expansion), map
    only weight parameters x(i,a), and leave ladders only
    (``_ladders_only``): the expansion drops every child whose S-factor
    vanishes, which is what Higgsing a Kirillov-Reshetikhin ladder does.
    Other resonant points differ: on BC2 with w = (1, 1),
    sigma = {x(1,1): x(2,1) q1^2 q2^2} keeps the parameters distinct, yet
    Y-entries cancel there, and the direct expansion has 22 terms where the
    Higgsed character has 19.
    """
    sub = Substitution(sigma)
    if not all(gen_key(g)[0] == WEIGHT for g in sigma):
        return None
    folded = wc.substitute(sub)
    return folded if _ladders_only(Q_, folded) else None


def _ladders_only(Q_: Quiver, wc: WeightConfig) -> bool:
    """Whether every class of resonant parameters is a ``kr_params`` ladder at one node, in any order."""
    for cls in resonance_classes(wc):
        node = cls[0][0]
        if any(i != node for i, _, _ in cls):
            return False
        params = {p for _, _, p in cls}
        ladders = (kr_params(Q_, node, len(cls), m, b) for m in _ladder_steps(Q_.d[node]) for _, _, b in cls)
        if not any(params == set(ladder) for ladder in ladders):
            return False
    return True


def higgs(ch: Character, sigma: Mapping[str, Monomial]) -> Character:
    """Specialize weight parameters; S-zero terms drop, collisions are errors.

    The result carries the specialized weights.  One ``Substitution`` checks
    sigma once and gives every image; an edge survives when both ends survive.
    """
    sub = Substitution(sigma)
    terms: dict[YMonomial, Coefficient] = {}
    image: dict[YMonomial, YMonomial] = {}  # surviving term -> its specialized Y-monomial
    dropped: list[YMonomial] = []
    for ym, coeff in ch.terms.items():
        c2 = coeff.substitute(sub)
        if c2.is_zero:
            dropped.append(ym)
            continue
        ym2 = image[ym] = ym.substitute(sub)
        if ym2 in terms:
            raise YCollision(f"terms collide at {ym2!r} under {sigma!r}")
        terms[ym2] = c2
    edges = tuple(
        (image[src], image[dst], (i, sub[x]))
        for src, dst, (i, x) in ch.edges
        if src in image and dst in image
    )
    meta = dict(ch.meta)
    meta["higgs"] = {g: repr(m) for g, m in sigma.items()}
    meta["dropped"] = tuple(dropped)
    wc = ch.wc.substitute(sub) if ch.wc is not None else None
    return Character(ch.quiver, wc, terms, edges, meta)


@dataclass
class ClassicalCharacter:
    """Y-monomial map with integer coefficients after q1 -> 1 or q2 -> 1."""

    terms: dict[YMonomial, int]
    which: str


def classical_limit(ch: Character, which: str) -> ClassicalCharacter:
    """Send q1 or q2 to 1 in arguments and coefficients, merging collisions.

    Terms are taken in ``sort_key`` order, so the first term whose limit
    fails names the error whatever order the character was built in.  Each
    coefficient is taken through ``Coefficient.substitute``, as ``higgs``
    takes it; the terms share one ``Substitution``, so each distinct
    argument's image is read and oriented once per call.
    """
    if which not in ("q1", "q2"):
        raise ValidationError("limit generator must be q1 or q2")
    sub = Substitution({which: Monomial.unit()})
    merged: dict[YMonomial, int] = {}
    for ym in sorted(ch.terms, key=YMonomial.sort_key):
        n = ch.terms[ym].substitute(sub).as_integer()
        if n == 0:
            continue
        ym2 = ym.substitute(sub)
        s = merged.get(ym2, 0) + n
        if s:
            merged[ym2] = s
        else:
            del merged[ym2]
    return ClassicalCharacter(merged, which)


def classical_product(factors: Iterable[ClassicalCharacter]) -> dict[YMonomial, int]:
    out: dict[YMonomial, int] = {YMonomial.unit(): 1}
    for f in factors:
        nxt: dict[YMonomial, int] = {}
        for ym1, c1 in out.items():
            for ym2, c2 in f.terms.items():
                ym = ym1 * ym2
                s = nxt.get(ym, 0) + c1 * c2
                if s:
                    nxt[ym] = s
                else:
                    nxt.pop(ym, None)
        out = nxt
    return out


def factorize_check(cc: ClassicalCharacter, factors: list[ClassicalCharacter]) -> bool:
    """True iff the formal product of the factors equals cc exactly."""
    return classical_product(factors) == cc.terms


def kr_closed_form_A1(w: int) -> Character:
    """The w+1 term ladder character at x = x(1,1), with coefficients prod S(q1^{1-i-j})."""
    if w < 0:
        raise ValidationError("weight must be nonnegative")
    x = xparam("1", 1)
    Q_ = builtin_quiver("A1")
    terms: dict[YMonomial, Coefficient] = {}
    for v in range(w + 1):
        coeff = Coefficient.one()
        for i in range(1, w - v + 1):
            for j in range(1, v + 1):
                coeff = coeff * s_function(Q1 ** (1 - i - j))
        entries = [("1", x * Q1 ** (i - 1), 1) for i in range(1, w - v + 1)]
        entries += [("1", x * Q1**j * Q2, -1) for j in range(w - v + 1, w + 1)]
        terms[YMonomial(tuple(entries))] = coeff
    wc = WeightConfig((("1", 1, x),)) if w else WeightConfig(())
    return Character(Q_, wc, terms, (), meta={"closed_form": "A1-ladder", "w": w})
