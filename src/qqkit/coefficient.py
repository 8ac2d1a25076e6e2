"""Exact rational-function coefficients.

A Coefficient is one of

* Factored: integer * monomial * prod (1 - m_k)^{p_k} with canonically
  oriented binomial arguments, kept as a dict ``powers`` from each argument
  to its nonzero power; zero is the factored value with integer 0 (and no
  monomial or factors), or
* General: sparse integer Laurent polynomial over a denominator that is a
  product of binomials with positive powers; it is never zero.

Products of Factored values stay Factored: a product copies the longer
operand's powers and adds the shorter one's, so it costs the length of the
shorter operand and never sorts; a dict is never changed once it is built.
``factors``, the pairs sorted by argument, is built on first read, for
output and for the values that live long.  General only arises through
addition, and a sum that reduces to a single numerator term is Factored
again.  Binomial arguments are oriented with the identity
(1 - m) = (-m)(1 - 1/m) so that equal rational functions always share one
factored form: the Laurent ring has unique factorization, and Moebius
inversion over the cyclotomic factors of 1 - m^k separates colinear
arguments m, m^2, ....  So two values that are not General are equal
exactly when their (integer, unit, powers) agree; this is what
makes coefficients cancel exactly along distinct reflection paths.

Specialization and the classical limits q1 -> 1, q2 -> 1 are one
substitution, ``Coefficient.substitute``, with one rule for the binomials
that degenerate to (1 - 1): their net power decides.  ``Vanishing``
applies the same rule to products of factored values without building them:
a table over the products of a sweep, indexed by the values they share,
reads each value's factors once per substitution.  A single product is a
table of one, ``Vanishing([values]).under(sub)[0]``, which replaces the
former ``product_vanishes``.  Both read sigma through a ``Substitution``: it
runs sigma's image check once and keeps the image of each monomial looked
up in it.  Y-arguments, weights and edge labels read it too, so a call that
applies one sigma to a character substitutes each monomial once, with no
global cache.  A Substitution also keeps each binomial argument's image
canonically oriented, so ``substitute``, the one walk that takes a value
under sigma for ``higgs``, ``classical_limit``, ``specialize`` and
``limit_at_unity``, orients each distinct argument once per sigma.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import methodcaller
from typing import Iterable, Mapping

from .errors import NonIntegerLimit, PoleError, ValidationError, require_int
from .monomial import Memo, Monomial, Q1, Q2

# ---------------------------------------------------------------------------
# sparse Laurent polynomials: dict Monomial -> int
# ---------------------------------------------------------------------------


def _pol_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def _pol_mul(a: dict, b: dict) -> dict:
    if len(a) > len(b):
        a, b = b, a
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = ma * mb
            s = out.get(m, 0) + ca * cb
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def _pol_scale(p: dict, mono: Monomial, c: int) -> dict:
    return {m * mono: k * c for m, k in p.items()}


def _pol_pow_binomial(arg: Monomial, n: int) -> dict:
    binomial = {Monomial.unit(): 1, arg: -1}
    out = {Monomial.unit(): 1}
    for _ in range(n):
        out = _pol_mul(out, binomial)
    return out


def _pol_divide_binomial(p: dict, arg: Monomial) -> dict | None:
    """Exact quotient p / (1 - arg), or None when not divisible.

    Terms are grouped into classes modulo the lattice Z*exp(arg); each class
    is a one-variable Laurent polynomial in y = arg and is divided by
    (1 - y) via cumulative sums.
    """
    pivot = arg.gens()[0]
    step = arg.exponent(pivot)
    inv = arg.inverse()
    classes: dict[Monomial, dict[int, int]] = {}
    for m, c in p.items():
        k = m.exponent(pivot) // step
        rep = m * inv**k
        classes.setdefault(rep, {})[k] = c
    out: dict = {}
    for rep, coeffs in classes.items():
        if sum(coeffs.values()) != 0:
            return None
        ks = sorted(coeffs)
        acc = 0
        for k in range(ks[0], ks[-1]):
            acc += coeffs.get(k, 0)
            if acc:
                out[rep * arg**k] = acc
    return out


# ---------------------------------------------------------------------------
# canonical binomial orientation
# ---------------------------------------------------------------------------


def _orient(arg: Monomial) -> tuple[Monomial, bool]:
    """Return (canonical argument, flipped?) using (1-m) = (-m)(1-1/m).

    m and 1/m list the same generators in the same order, so of the two
    the larger sort key is the one whose leading exponent is positive.
    A unit argument, whose binomial (1 - 1) is zero, is a ValidationError.
    """
    if arg.is_unit:
        raise ValidationError("binomial factor with unit argument")
    if arg.sort_key()[0][1] > 0:
        return arg, False
    return arg.inverse(), True


def _arg_key(factor: tuple) -> tuple:
    """The order of factors: by the sort key of their argument."""
    return factor[0].sort_key()


def factor_tuple(powers: Mapping[Monomial, int]) -> tuple:
    """The (argument, power) pairs with nonzero power, in argument order."""
    return tuple(sorted([(a, p) for a, p in powers.items() if p], key=_arg_key))


def _net_power_ratio(sigma: Mapping[str, Monomial], degenerate) -> Fraction | None:
    """The rule for the binomials (1 - a)^p whose argument becomes 1 under sigma.

    Their net power decides: > 0 gives None, for a zero value, and < 0 a
    PoleError.  At net power 0 under a one-generator substitution g -> m,
    each argument is (g/m)^k and (1 - t^k) vanishes like k (1 - t), so the
    surviving part is scaled by the slope ratio prod k^p, which is returned;
    under a larger substitution the 0/0 raises a PoleError.
    """
    net = sum(p for _, p in degenerate)
    if net > 0:
        return None
    if net < 0:  # an error names the factors in argument order
        a = next(a for a, p in sorted(degenerate, key=_arg_key) if p < 0)
        raise PoleError(f"denominator factor (1 - {a!r}) vanished under substitution")
    ratio = Fraction(1)
    if degenerate:
        if len(sigma) != 1:
            zeros = "*".join(f"(1 - {a!r})^{p}" for a, p in sorted(degenerate, key=_arg_key))
            raise PoleError(f"0/0: factors {zeros} vanished together under substitution")
        (g,) = sigma
        for a, p in degenerate:
            ratio *= Fraction(a.exponent(g)) ** p
    return ratio


def _degenerate_integer(sigma: Mapping[str, Monomial], degenerate, n: int) -> int | None:
    """The integer n of a factored value times the ratio of ``_net_power_ratio``.

    None when the value vanishes; a product that is not an integer raises
    NonIntegerLimit.
    """
    ratio = _net_power_ratio(sigma, degenerate)
    if ratio is None:
        return None
    ratio *= n
    if ratio.denominator != 1:
        raise NonIntegerLimit(f"limit slope ratio {ratio} is not an integer")
    return ratio.numerator


class Substitution(Memo):
    """sigma after its image check; ``self[m]`` is ``m.substitute(self.sigma)``.

    As a ``Memo``, it fills itself on first lookup, so the values that share
    one Substitution have each monomial substituted once.  ``oriented`` maps
    each binomial argument that ``Coefficient.substitute`` has met to None,
    when its image is 1, or to ``(c, flipped, image)`` with
    ``(c, flipped) = _orient(image)``; ``substitute`` fills it.
    """

    __slots__ = ("sigma", "oriented")

    def __init__(self, sigma: Mapping[str, Monomial]):
        for g, img in sigma.items():
            if any(h in sigma for h in img.gens()):
                raise ValidationError(f"substitution image of {g} reuses substituted generators")
        super().__init__(methodcaller("substitute", sigma))
        self.sigma = sigma
        self.oriented: dict[Monomial, tuple | None] = {}


class Vanishing:
    """Whether each of several products of factored values is zero under a substitution.

    ``under(sub)[k]`` is ``prod(products[k]).specialize(sub.sigma).is_zero``,
    and the first product that raises raises what that call raises: the
    factor arguments that become 1 are merged as the product merges them and
    decided by the rule of ``Coefficient.substitute``.  A product stops at its
    first zero value, or at its first non-factored one, a ValidationError.
    The products are indexed by the values they hold (by id: the table keeps
    the values), so a substitution reads each distinct value's factors once
    and decides only the products that hold a factor becoming 1.
    """

    __slots__ = ("_held", "_integers", "_stops")

    def __init__(self, products: Iterable[Iterable[Coefficient]]):
        held: dict[int, tuple[Coefficient, list[int]]] = {}  # id -> (value, a product per occurrence)
        self._integers: list[int] = []  # per product, the product of its values' integers
        self._stops: dict[int, bool] = {}  # product -> True at a zero value, False at a non-factored one
        for k, values in enumerate(products):
            n = 1
            for v in values:
                if v.kind != "factored" or not v.integer:
                    self._stops[k] = v.kind == "factored"
                    break
                n *= v.integer
                entry = held.get(id(v))
                if entry is None:
                    entry = held[id(v)] = (v, [])
                entry[1].append(k)
            self._integers.append(n)
        self._held = list(held.values())

    def under(self, sub: Substitution) -> list[bool]:
        out = [False] * len(self._integers)
        merged: dict[int, dict[Monomial, int]] = {}
        for v, holders in self._held:
            hot = [(a, p) for a, p in v.powers.items() if sub[a].is_unit]
            if hot:
                for k in holders:
                    powers = merged.setdefault(k, {})
                    for a, p in hot:
                        powers[a] = powers.get(a, 0) + p
        for k in sorted(merged.keys() | self._stops.keys()):
            if k in self._stops:
                if not self._stops[k]:
                    raise ValidationError("Vanishing takes factored values")
                out[k] = True
            elif degenerate := factor_tuple(merged[k]):
                out[k] = _degenerate_integer(sub.sigma, degenerate, self._integers[k]) is None
        return out


_UNIT = Monomial.unit()
_UNSEEN = object()  # an argument not yet in ``Substitution.oriented``
_NO_POWERS: dict[Monomial, int] = {}  # shared by every value without binomials; never changed


class Coefficient:
    """Exact rational coefficient; immutable."""

    __slots__ = ("kind", "integer", "unit", "powers", "num", "den")

    def __init__(self, kind, integer=0, unit=None, powers=_NO_POWERS, num=None, den=()):
        self.kind = kind  # "factored" | "general"
        self.integer = integer
        self.unit = unit if unit is not None else Monomial.unit()
        self.powers = powers  # dict canonical arg -> nonzero power; never changed
        self.num = num  # dict Monomial -> int (general only)
        self.den = den  # tuple[(Monomial, int)], positive powers

    @property
    def factors(self) -> tuple:
        """The (argument, power) pairs of ``powers``, sorted by argument, on each read."""
        return factor_tuple(self.powers)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> "Coefficient":
        return _ZERO

    @staticmethod
    def one() -> "Coefficient":
        return _ONE

    @staticmethod
    def from_monomial(m: Monomial, n: int = 1) -> "Coefficient":
        if n == 0:
            return _ZERO
        return Coefficient("factored", n, m)

    @staticmethod
    def factored(integer: int, unit: Monomial, factors) -> "Coefficient":
        """Normalize a factored product; a unit argument is a ValidationError."""
        if integer == 0:
            return _ZERO
        n = integer
        units = [(unit, 1)]  # the unit, and the arguments that orienting flips
        merged: dict[Monomial, int] = {}
        for arg, p in factors:
            if p == 0:
                continue
            c, flipped = _orient(arg)
            if flipped:
                # (1 - arg)^p = (-arg)^p (1 - 1/arg)^p
                if p % 2:
                    n = -n
                units.append((arg, p))
            merged[c] = merged.get(c, 0) + p
        return Coefficient("factored", n, Monomial.product(units), {a: p for a, p in merged.items() if p})

    @staticmethod
    def general(num: dict, den) -> "Coefficient":
        if not num:
            return _ZERO
        dd: dict[Monomial, int] = {}
        for arg, p in den:
            if p <= 0:
                raise ValidationError("general denominators need positive powers")
            c, flipped = _orient(arg)
            if flipped:
                num = _pol_scale(num, arg.inverse() ** p, (-1) ** p)
            dd[c] = dd.get(c, 0) + p
        return Coefficient._reduce_general(num, dd)

    @staticmethod
    def _reduce_general(num: dict, den: dict) -> "Coefficient":
        """num / den with every denominator binomial divided out of num while it divides.

        Colinear arguments m, m^2, ... share cyclotomic factors, so the order of
        division picks the form: dividing (1 - m^2) out of 1 - m^2 leaves a
        factored value, dividing (1 - m) first leaves (1 + m) / (1 - m^2).  So
        each colinear family is divided from its highest power down: once
        (1 - m^k) stops dividing, a quotient by a lower power cannot make it
        divide again.  Binomials of different families share no factor, so
        the order of the families does not matter, and the form depends on
        the value's num and den alone, not on the order of den.
        """
        families: dict[Monomial, list[tuple[int, Monomial]]] = {}
        for arg in den:
            k = gcd(*(e for _, e in arg.exps))
            root = Monomial(tuple([(g, e // k) for g, e in arg.exps]))
            families.setdefault(root, []).append((k, arg))
        for family in families.values():
            for _, arg in sorted(family, reverse=True):
                while den[arg] > 0 and (q := _pol_divide_binomial(num, arg)) is not None:
                    num = q
                    den[arg] -= 1
        den = {a: p for a, p in den.items() if p}
        if not num:
            return _ZERO
        if len(num) == 1:
            (mono, c), = num.items()
            return Coefficient.factored(c, mono, tuple((a, -p) for a, p in den.items()))
        return Coefficient("general", num=num, den=factor_tuple(den))

    # -- predicates ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.kind == "factored" and self.integer == 0

    @property
    def is_one(self) -> bool:
        return (
            self.kind == "factored"
            and self.integer == 1
            and self.unit.is_unit
            and not self.powers
        )

    def as_integer(self) -> int:
        """The value as a plain integer, or raise NonIntegerLimit."""
        if self.kind == "factored" and self.unit.is_unit and not self.powers:
            return self.integer
        raise NonIntegerLimit(f"coefficient is not an integer: {self!r}")

    # -- ring operations -----------------------------------------------------

    def __mul__(self, other: "Coefficient") -> "Coefficient":
        if not isinstance(other, Coefficient):
            return NotImplemented
        if self.kind == "factored" and other.kind == "factored":
            n = self.integer * other.integer
            if n == 0:
                return _ZERO
            powers, short = self.powers, other.powers
            if len(powers) < len(short):
                powers, short = short, powers
            if short:
                powers = powers.copy()
                for a, p in short.items():
                    p += powers.get(a, 0)
                    if p:
                        powers[a] = p
                    else:
                        del powers[a]
            return Coefficient("factored", n, self.unit * other.unit, powers)
        if self.is_zero or other.is_zero:
            return _ZERO
        na, da = self._general_parts()
        nb, db = other._general_parts()
        den: dict[Monomial, int] = dict(da)
        for a, p in db.items():
            den[a] = den.get(a, 0) + p
        return Coefficient._reduce_general(_pol_mul(na, nb), den)

    def inverse(self) -> "Coefficient":
        return self**-1

    def __truediv__(self, other: "Coefficient") -> "Coefficient":
        return self * other.inverse()

    def __pow__(self, n: int) -> "Coefficient":
        if n == 1:
            return self
        if n == 0:
            return _ONE
        if self.kind != "factored":
            raise ValidationError("powers implemented for factored coefficients")
        if n < 0 and self.integer not in (1, -1):
            if self.is_zero:
                raise ZeroDivisionError("negative power of zero coefficient")
            raise ValidationError("negative power of a non-unit coefficient")
        k = self.integer**n if n > 0 else (self.integer if n % 2 else 1)
        return Coefficient("factored", k, self.unit**n, {a: p * n for a, p in self.powers.items()})

    def __neg__(self) -> "Coefficient":
        if self.kind == "factored":
            return Coefficient("factored", -self.integer, self.unit, self.powers)
        neg = _pol_scale(self.num, Monomial.unit(), -1)
        return Coefficient("general", num=neg, den=self.den)

    def _general_parts(self) -> tuple[dict, dict]:
        """Numerator polynomial and denominator dict of this nonzero value."""
        if self.kind == "general":
            return dict(self.num), dict(self.den)
        num = {self.unit: self.integer}
        den: dict[Monomial, int] = {}
        for a, p in self.powers.items():
            if p > 0:
                num = _pol_mul(num, _pol_pow_binomial(a, p))
            else:
                den[a] = den.get(a, 0) - p
        return num, den

    def __add__(self, other: "Coefficient") -> "Coefficient":
        if not isinstance(other, Coefficient):
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        na, da = self._general_parts()
        nb, db = other._general_parts()
        den: dict[Monomial, int] = dict(da)
        for a, p in db.items():
            den[a] = max(den.get(a, 0), p)
        for a, p in den.items():
            ka = p - da.get(a, 0)
            if ka:
                na = _pol_mul(na, _pol_pow_binomial(a, ka))
            kb = p - db.get(a, 0)
            if kb:
                nb = _pol_mul(nb, _pol_pow_binomial(a, kb))
        return Coefficient._reduce_general(_pol_add(na, nb), den)

    def __sub__(self, other: "Coefficient") -> "Coefficient":
        return self + (-other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Coefficient):
            return NotImplemented
        if self.kind != "general" and other.kind != "general":
            # the factored form is canonical (see the module docstring)
            return (self.integer, self.unit, self.powers) == (other.integer, other.unit, other.powers)
        return (self - other).is_zero

    def __hash__(self):
        raise TypeError("coefficients are not hashable")

    def __repr__(self) -> str:
        if self.kind == "factored":
            parts = []
            if self.integer != 1 or (self.unit.is_unit and not self.powers):
                parts.append(str(self.integer))
            if not self.unit.is_unit:
                parts.append(repr(self.unit))
            for a, p in self.factors:
                s = f"(1-{a!r})"
                parts.append(s if p == 1 else f"{s}^{p}")
            return "*".join(parts) if parts else "1"
        num = " + ".join(f"{c}*{m!r}" for m, c in sorted(self.num.items(), key=lambda t: t[0].sort_key()))
        den = "*".join(f"(1-{a!r})^{p}" for a, p in self.den)
        return f"({num})/({den})" if den else f"({num})"

    # -- substitution and limits ---------------------------------------------

    def specialize(self, sigma: Mapping[str, Monomial]) -> "Coefficient":
        """Exact substitution of generators by monomials.

        Binomials that degenerate to (1 - 1) are decided by their net power:
        see ``substitute``.
        """
        return self.substitute(Substitution(sigma))

    def limit_at_unity(self, which: str) -> "Coefficient":
        """Limit as q1 -> 1 or q2 -> 1: the substitution ``which`` -> 1."""
        if which not in ("q1", "q2"):
            raise ValidationError("limit generator must be q1 or q2")
        return self.substitute(Substitution({which: Monomial.unit()}))

    def substitute(self, sub: Substitution) -> "Coefficient":
        """The value under ``sub.sigma``, with one rule for degenerate binomials.

        The binomials whose argument becomes 1 are decided by
        ``_net_power_ratio``.  A General value has its zeros in the
        numerator: under a one-generator substitution g -> m, the numerator
        is divided by (1 - g/m) as often as it divides exactly, and each
        quotient counts as a degenerate numerator factor.  A slope ratio that
        leaves a non-integer coefficient raises NonIntegerLimit.  A Factored
        value orients its surviving images through ``sub.oriented`` and
        builds the unit they leave with one ``Monomial.product``.
        """
        if self.kind == "general":
            num, den, degenerate = self.num, [], []
            for a, p in self.den:
                a2 = sub[a]
                if a2.is_unit:
                    degenerate.append((a, -p))
                else:
                    den.append((a2, p))
            if degenerate and len(sub.sigma) == 1:
                ((g, m),) = sub.sigma.items()
                t = Monomial.gen(g) / m
                while (q := _pol_divide_binomial(num, t)) is not None:
                    num = q
                    degenerate.append((t, 1))
            ratio = _net_power_ratio(sub.sigma, degenerate)
            if ratio is None:
                return _ZERO
            out: dict = {}
            for m, c in num.items():
                m2 = sub[m]
                s = out.get(m2, 0) + c * ratio
                if s:
                    out[m2] = s
                else:
                    out.pop(m2, None)
            if any(c.denominator != 1 for c in out.values()):
                raise NonIntegerLimit(f"limit slope ratio {ratio} leaves a non-integer numerator")
            return Coefficient.general({m: int(c) for m, c in out.items()}, den)
        n = self.integer
        if not n:
            return _ZERO
        # the zero is decided before any image is oriented, since most terms of a Higgsed
        # ladder drop; a unit image is the one unit object, as monomials are interned
        degenerate = [(a, p) for a, p in self.powers.items() if sub[a] is _UNIT]
        if degenerate:
            n = _degenerate_integer(sub.sigma, degenerate, n)
            if n is None:
                return _ZERO
        oriented = sub.oriented
        units = [(sub[self.unit], 1)]  # the unit, and the images that orienting flips
        merged: dict[Monomial, int] = {}
        for a, p in self.powers.items():
            image = oriented.get(a, _UNSEEN)
            if image is _UNSEEN:
                a2 = sub[a]
                image = oriented[a] = None if a2 is _UNIT else _orient(a2) + (a2,)
            if image is None:
                continue
            c, flipped, a2 = image
            if flipped:  # (1 - a2)^p = (-a2)^p (1 - 1/a2)^p
                if p % 2:
                    n = -n
                units.append((a2, p))
            p += merged.get(c, 0)
            if p:
                merged[c] = p
            else:
                del merged[c]
        return Coefficient("factored", n, Monomial.product(units), merged)

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        if self.kind == "factored":
            return {
                "int": self.integer,
                "unit": self.unit.to_json(),
                "factors": [{"arg": a.to_json(), "pow": p} for a, p in self.factors],
            }
        return {
            "num": [[m.to_json(), c] for m, c in sorted(self.num.items(), key=lambda t: t[0].sort_key())],
            "den": [{"arg": a.to_json(), "pow": p} for a, p in self.den],
        }

    @staticmethod
    def from_json(data: Mapping) -> "Coefficient":
        try:
            if "num" in data:
                num = {Monomial.from_json(m): require_int(c, "numerator coefficient") for m, c in data["num"]}
                den = tuple((Monomial.from_json(f["arg"]), require_int(f["pow"], 'factor "pow"')) for f in data["den"])
                return Coefficient.general(num, den)
            n = require_int(data.get("int", 0), 'coefficient "int"')
            if n == 0:
                return _ZERO
            unit = Monomial.from_json(data.get("unit", {}))
            fac = tuple(
                (Monomial.from_json(f["arg"]), require_int(f["pow"], 'factor "pow"')) for f in data.get("factors", ())
            )
            return Coefficient.factored(n, unit, fac)
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise ValidationError(f"malformed coefficient JSON ({type(exc).__name__}: {exc})") from None


_ZERO = Coefficient("factored", 0)
_ONE = Coefficient("factored", 1)


# ---------------------------------------------------------------------------
# the S-function
# ---------------------------------------------------------------------------


def s_function(z: Monomial) -> Coefficient:
    """(1 - z/q1)(1 - z/q2) / ((1 - z)(1 - z/q)); Zero at z = q1, q2."""
    return s_r(1, z)


@lru_cache(maxsize=4096)
def s_r(r: int, z: Monomial) -> Coefficient:
    """Higher-degree variant with zeros at q1^r, q2 and poles at 1, q1^r q2.

    Memoized: arguments repeat heavily across reflections and partition
    sums, and the immutable results are shared.  A pole raises on every call.
    """
    if r < 1:
        raise ValidationError("degree must be a positive integer")
    q1r = Q1**r
    if z.is_unit or z == q1r * Q2:
        raise PoleError(f"S_{r} has a pole at z = {z!r}")
    if z == q1r or z == Q2:
        return Coefficient.zero()
    return Coefficient.factored(
        1,
        Monomial.unit(),
        ((z / q1r, 1), (z / Q2, 1), (z, -1), (z / (q1r * Q2), -1)),
    )


def s_product(r: int, z: Monomial) -> Coefficient:
    """The same value assembled as prod_{s<r} S(z q1^{-s})."""
    out = Coefficient.one()
    for s in range(r):
        out = out * s_function(z * Q1**-s)
    return out
