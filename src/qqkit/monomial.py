"""Laurent monomials over named generators.

A monomial is a finite map generator-name -> nonzero integer exponent,
stored packed as the integer sum of e_g * 2^(64 k_g): the first sight of a
name gives it the next index k_g, and each exponent is one balanced 64-bit
digit.  So a product is an integer sum, a quotient a difference and a power
a multiple.  An exponent must lie in -2^63 < e < 2^63, or its digit would
carry into the next: the constructor (and so ``parse_monomial`` and
``from_json``) checks each one, and each monomial keeps a bound on its |e|
that products add up and powers multiply; a result whose bound reaches 2^63
is built by the constructor, which raises a ValidationError when an
exponent really crosses.  The integer is as long as the highest index among
its generators, so its size grows with the number of distinct names the
process has seen.

There is one object per value.  A table that lives as long as the process,
like the generator registry, maps each packed integer to its monomial, and
every way of making one (the constructor, ``gen``, ``parse_monomial``,
``from_json``, products, powers, inverses and substitutions) returns the
stored object.  So equality and hash are the object's, computed in C: no
path makes a second object of a stored value, since threads racing on one
new value all take the first one stored, a copy is the object itself, and a
pickle holds the generator names (another process numbers them its own
way) and loads through the constructor.  Set order then follows addresses,
so no output, error text or order of work may depend on the iteration order
of a set of monomials, or of values that hold them: sort first.

The canonical key, one (generator key, exponent) pair per generator in
canonical order, is decoded on first read, once per value.  A generator key
is (kind, node, label, name), and its kind is the one rule for what a
generator is.  In canonical order, the kinds are q1 < q2 < mu (the
deformation parameters and the mass) < COUNTING (the counting parameters
"qfrak(i)") < WEIGHT (the weight parameters "x(i,a)") < OTHER (any other
name, such as "a" and "b" of the pit resonance substitution, or a bare
"qfrak").  Within a kind, qfrak and x parameters sort by node and then by
integer label, and the name itself breaks every remaining tie, so the order
is total.  It fixes printing and the orientation of binomial factors.
"""

from __future__ import annotations

import re
from itertools import count
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
    computes its next key.  Y-monomials multiply with this merge.
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


# -- the packed form -------------------------------------------------------------

_KEYS: dict[int, tuple] = {}  # the registry: the generator of digit k has the key _KEYS[k]
_INDEXES = count()


def _register(name: str) -> int:
    """64 k, the bit offset of a new generator's digit k."""
    k = next(_INDEXES)
    _KEYS[k] = _GEN_KEYS[name]
    return _SHIFT.setdefault(name, k << 6)  # atomic: threads registering one name all take the first index


_SHIFT = Memo(_register)
_HALF, _MASK = 1 << 63, (1 << 64) - 1  # a digit is the balanced residue of its 64 bits
_new = object.__new__


def _decode(n: int) -> tuple:
    """The canonical key of the packed integer ``n``.

    The lowest set bit of ``n`` lies in its lowest nonzero digit, so the loop
    visits the nonzero digits alone, however many generators are registered.
    """
    pairs = []
    k = 0
    while n:
        skip = ((n & -n).bit_length() - 1) >> 6
        n >>= skip << 6
        k += skip
        e = ((n + _HALF) & _MASK) - _HALF
        pairs.append(_PAIRS[k, e])
        n = (n - e) >> 64
        k += 1
    pairs.sort(key=_first)
    return tuple(pairs)


# Each (generator key, exponent) pair is made once per process and shared by
# the canonical keys that hold it.
_PAIRS = Memo(lambda ke: (_KEYS[ke[0]], ke[1]))
_INTERNED: dict[int, "Monomial"] = {}  # the packed integer -> its one monomial


def _packed(n: int, b: int) -> "Monomial":
    """The monomial of the packed integer ``n``, made on first sight; ``b`` bounds its |exponents|."""
    m = _INTERNED.get(n)
    if m is None:
        m = _new(Monomial)
        m._n = n
        m._b = b
        m = _INTERNED.setdefault(n, m)  # atomic: racing threads all take the first object, so equality is identity
    return m


class Monomial:
    """Immutable Laurent monomial; exponent-zero generators are never stored."""

    # _n: the packed integer; _b: a bound on its |exponents| that products add up;
    # _key: the canonical key, set on first read
    __slots__ = ("_n", "_b", "_key")

    def __new__(cls, exps: Mapping[str, int] | Iterable[tuple[str, int]] = ()):
        if type(exps) is not tuple:
            exps = tuple(exps.items() if isinstance(exps, Mapping) else exps)
        merged: dict[str, int] = {}
        for g, e in exps:
            if e:
                merged[g] = merged.get(g, 0) + e
        n = b = 0
        for g, e in merged.items():
            if e:
                if not -_HALF < e < _HALF:
                    raise ValidationError(f"exponent of {g} is outside the bound |e| < 2^63")
                n += e << _SHIFT[g]
                b = max(b, abs(e))
        return _packed(n, b)

    def __reduce__(self):
        return Monomial, (self.exps,)

    def __copy__(self) -> "Monomial":
        return self

    def __deepcopy__(self, memo) -> "Monomial":
        return self

    @staticmethod
    def unit() -> "Monomial":
        return _UNIT

    @staticmethod
    def gen(name: str, exp: int = 1) -> "Monomial":
        return Monomial(((name, exp),))

    @property
    def exps(self) -> tuple[tuple[str, int], ...]:
        return tuple([(k[-1], e) for k, e in self.sort_key()])

    def exponent(self, name: str) -> int:
        shift = _SHIFT.get(name)
        if shift is None:
            return 0
        n = self._n
        if shift:  # round, so that a negative digit below does not borrow from this one
            n = ((n >> (shift - 1)) + 1) >> 1
        return ((n + _HALF) & _MASK) - _HALF

    def gens(self) -> tuple[str, ...]:
        return tuple([k[-1] for k, _ in self.sort_key()])

    @property
    def is_unit(self) -> bool:
        return not self._n

    def __mul__(self, other: "Monomial") -> "Monomial":
        if not isinstance(other, Monomial):
            return NotImplemented
        if not other._n:
            return self
        if not self._n:
            return other
        b = self._b + other._b
        if b < _HALF:
            return _packed(self._n + other._n, b)
        return Monomial(self.exps + other.exps)

    def __pow__(self, n: int) -> "Monomial":
        if n == 1:
            return self
        b = self._b * abs(n)
        if b < _HALF:
            return _packed(self._n * n, b)
        return Monomial(tuple([(g, e * n) for g, e in self.exps]))

    @staticmethod
    def product(pairs: list[tuple["Monomial", int]]) -> "Monomial":
        """The product of m**e over the (m, e) pairs, made in one step.

        The packed integers and bounds are summed and the table is asked
        once, so no partial product is interned; past the bound, the
        constructor checks each exponent, as ``__mul__`` does.
        """
        n = b = 0
        for m, e in pairs:
            n += m._n * e
            b += m._b * abs(e)
        if b < _HALF:
            return _packed(n, b)
        return Monomial(tuple([(g, f * e) for m, e in pairs for g, f in m.exps]))

    def inverse(self) -> "Monomial":
        return _packed(-self._n, self._b)

    def __truediv__(self, other: "Monomial") -> "Monomial":
        return self * other.inverse()

    def substitute(self, sigma: Mapping[str, "Monomial"]) -> "Monomial":
        """Replace each generator in sigma by its image monomial."""
        n, b = self._n, self._b
        for g, img in sigma.items():
            e = self.exponent(g)
            if e:
                n += e * (img._n - (1 << _SHIFT[g]))
                b += abs(e) * img._b
        if n == self._n:
            return self
        if b < _HALF:
            return _packed(n, b)
        images = {g: img.exps for g, img in sigma.items()}
        return Monomial(tuple([(h, f * e) for g, e in self.exps for h, f in images.get(g, ((g, 1),))]))

    def sort_key(self) -> tuple:
        """The canonical key, decoded on first read."""
        try:
            return self._key
        except AttributeError:
            self._key = key = _decode(self._n)
            return key

    def __lt__(self, other: "Monomial") -> bool:
        return self.sort_key() < other.sort_key()

    def __repr__(self) -> str:
        if not self._n:
            return "1"
        return "*".join(k[-1] if e == 1 else f"{k[-1]}^{e}" for k, e in self.sort_key())

    def to_json(self) -> dict:
        return {k[-1]: e for k, e in self.sort_key()}

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
        try:
            e = int(power) if power else 1
        except ValueError:  # more digits than int() converts: far outside the bound
            raise ValidationError(f"exponent of {name} is outside the bound |e| < 2^63") from None
        if names and name in names:
            base = names[name]
        elif name in builtin:
            base = builtin[name]
        else:
            base = Monomial.gen(name)
        out = out * base**e
    return out
