"""Laurent monomials over named generators.

A monomial is a finite map generator-name -> nonzero integer exponent.  It
is stored as its canonical key alone: one (generator key, exponent) pair per
generator, in canonical order.  A generator key is (kind, node, label, name),
and its kind is the one rule for what a generator is.  In canonical order,
the kinds are q1 < q2 < mu (the deformation parameters and the mass) <
COUNTING (the counting parameters "qfrak(i)") < WEIGHT (the weight parameters
"x(i,a)") < OTHER (any other name, such as "a" and "b" of the pit resonance
substitution, or a bare "qfrak").  Within a kind, qfrak and x parameters sort
by node and then by integer label, and the name itself breaks every remaining
tie, so the order is total.  It fixes hashing, printing and the orientation
of binomial factors.

``Monomial(...)`` is the only normalizer of arbitrary input.  Products,
powers and quotients of monomials merge or scale their operands' canonical
keys instead, and never sort.
"""

from __future__ import annotations

import re
from operator import itemgetter
from typing import Iterable, Mapping

from .errors import ValidationError, require_int

COUNTING, WEIGHT, OTHER = 3, 4, 5  # the kinds after q1, q2 and mu (kinds 0, 1, 2)


class Memo(dict):
    """A table whose value at a key is ``make(key)``, computed on the first lookup.

    A lookup that raises stores nothing, so it raises again on the next one.
    qqkit's per-call tables (sigma images, S-values, partition-sum pieces,
    prefix products, rendered text) are Memos; since no ``make`` refers back
    to its own table, each is freed when its call returns.
    """

    __slots__ = ("make",)

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _gen_key(name: str) -> tuple:
    """The canonical key of a generator name; it ends in the name."""
    if name in ("q1", "q2", "mu"):
        rank = (("q1", "q2", "mu").index(name), "", 0)
    elif name.startswith("qfrak(") and name.endswith(")"):
        rank = (COUNTING, name[6:-1], 0)
    elif name.startswith("x(") and name.endswith(")"):
        node, _, alpha = name[2:-1].partition(",")
        try:
            a = int(alpha)
        except ValueError:
            a = 0
        rank = (WEIGHT, node, a)
    else:
        rank = (OTHER, name, 0)
    return rank + (name,)


_GEN_KEYS = Memo(_gen_key)  # parsed once per name, for the process
gen_key = _GEN_KEYS.__getitem__
_first = itemgetter(0)


def merge_runs(a: tuple, b: tuple, key) -> tuple:
    """The product of two runs of items sorted by ``key``, merged without sorting.

    Each item ends in a nonzero exponent; items with equal keys add their
    exponents, and a sum of 0 drops out.  Only the side that advanced
    computes its next key.  Monomials and Y-monomials multiply with this
    merge.
    """
    if not a:
        return b
    if not b:
        return a
    na, nb = len(a), len(b)
    i = j = 0
    out = []
    ka, kb = key(a[0]), key(b[0])
    while True:
        if ka < kb:
            out.append(a[i])
            i += 1
            if i == na:
                break
            ka = key(a[i])
        elif kb < ka:
            out.append(b[j])
            j += 1
            if j == nb:
                break
            kb = key(b[j])
        else:
            e = a[i][-1] + b[j][-1]
            if e:
                out.append(a[i][:-1] + (e,))
            i += 1
            j += 1
            if i == na or j == nb:
                break
            ka, kb = key(a[i]), key(b[j])
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


class Monomial:
    """Immutable Laurent monomial; exponent-zero generators are never stored."""

    __slots__ = ("_key", "_hash")

    def __init__(self, exps: Mapping[str, int] | Iterable[tuple[str, int]] = ()):
        if type(exps) is not tuple:
            exps = tuple(exps.items() if isinstance(exps, Mapping) else exps)
        merged: dict[str, int] = {}
        for g, e in exps:
            if e:
                merged[g] = merged.get(g, 0) + e
        self._key = tuple(sorted([(_GEN_KEYS[g], e) for g, e in merged.items() if e], key=_first))
        self._hash = hash(self._key)

    @staticmethod
    def _canonical(key: tuple) -> "Monomial":
        """A monomial from its key, without sorting.

        ``key`` pairs each generator's key with a nonzero exponent, in
        canonical order, as ``sort_key`` returns it.
        """
        m = object.__new__(Monomial)
        m._key = key
        m._hash = hash(key)
        return m

    @staticmethod
    def unit() -> "Monomial":
        return _UNIT

    @staticmethod
    def gen(name: str, exp: int = 1) -> "Monomial":
        return Monomial(((name, exp),))

    @property
    def exps(self) -> tuple[tuple[str, int], ...]:
        return tuple([(k[-1], e) for k, e in self._key])

    def exponent(self, name: str) -> int:
        for k, e in self._key:
            if k[-1] == name:
                return e
        return 0

    def gens(self) -> tuple[str, ...]:
        return tuple([k[-1] for k, _ in self._key])

    @property
    def is_unit(self) -> bool:
        return not self._key

    def __mul__(self, other: "Monomial") -> "Monomial":
        if not isinstance(other, Monomial):
            return NotImplemented
        if not self._key:
            return other
        if not other._key:
            return self
        return Monomial._canonical(merge_runs(self._key, other._key, _first))

    def __pow__(self, n: int) -> "Monomial":
        if n == 1:
            return self
        if n == 0:
            return _UNIT
        # scaling every exponent keeps the generator order
        return Monomial._canonical(tuple([(k, e * n) for k, e in self._key]))

    def inverse(self) -> "Monomial":
        return self ** -1

    def __truediv__(self, other: "Monomial") -> "Monomial":
        return self * other.inverse()

    def substitute(self, sigma: Mapping[str, "Monomial"]) -> "Monomial":
        """Replace each generator in sigma by its image monomial."""
        if not any(k[-1] in sigma for k, _ in self._key):
            return self
        out: list[tuple[str, int]] = []
        for (_, _, _, g), e in self._key:
            if g in sigma:
                out.extend((h[-1], f * e) for h, f in sigma[g]._key)
            else:
                out.append((g, e))
        return Monomial(tuple(out))

    def sort_key(self):
        return self._key

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Monomial") -> bool:
        return self._key < other._key

    def __repr__(self) -> str:
        if not self._key:
            return "1"
        return "*".join(k[-1] if e == 1 else f"{k[-1]}^{e}" for k, e in self._key)

    def to_json(self) -> dict:
        return {k[-1]: e for k, e in self._key}

    @staticmethod
    def from_json(data: Mapping[str, int]) -> "Monomial":
        if not isinstance(data, Mapping):
            raise ValidationError(f"monomial JSON must be an object, got {data!r}")
        if not all(isinstance(g, str) and _NAME.match(g) for g in data):
            raise ValidationError(f"monomial keys must be generator names, which start with a letter, got {list(data)!r}")
        return Monomial({g: require_int(e, f"exponent of {g!r}") for g, e in data.items()})


_UNIT = Monomial()

Q1 = Monomial.gen("q1")
Q2 = Monomial.gen("q2")
MU = Monomial.gen("mu")
Q = Q1 * Q2
Q3 = MU
Q4 = MU.inverse() * Q


def xparam(node: str, alpha: int) -> Monomial:
    return Monomial.gen(f"x({node},{alpha})")


def qfrak(node: str) -> Monomial:
    return Monomial.gen(f"qfrak({node})")


_NAME = re.compile(r"[A-Za-z]")  # the first character of a generator name
_TOKEN = re.compile(r"(1|[A-Za-z][^\s*^]*)(?:\^(-?[0-9]+))?")


def parse_monomial(text: str, names: Mapping[str, Monomial] | None = None) -> Monomial:
    """Parse compact strings like ``"x1*q1^-2*q2"``.

    Tokens ``name`` or ``name^n`` (integer n) joined by ``*``, where a name
    starts with a letter; a factor ``1`` or ``1^n``, and ``""``, is the unit.
    Anything else is a ValidationError.
    ``q`` expands to q1*q2; ``q3``/``q4`` to the mass aliases; other names
    resolve through ``names`` before falling back to raw generators.
    """
    builtin = {"q": Q, "q1": Q1, "q2": Q2, "q3": Q3, "q4": Q4, "mu": MU}
    out = Monomial.unit()
    text = text.strip()
    if not text:
        return out
    for token in text.split("*"):
        match = _TOKEN.fullmatch(token.strip())
        if match is None:
            raise ValidationError(f"malformed monomial {text!r} at token {token!r}: a factor is 1 or a name that starts with a letter")
        name, power = match.groups()
        if name == "1":
            continue
        e = int(power) if power else 1
        if names and name in names:
            base = names[name]
        elif name in builtin:
            base = builtin[name]
        else:
            base = Monomial.gen(name)
        out = out * base**e
    return out
