"""LaTeX, Graphviz DOT, JSON and text renderings of characters.

``render`` is the one place that decides an output format.  Every format
lists terms in ``sort_key`` order and edges in the order of
``_ordered_edges``, so the bytes do not depend on how a character was built.
Within one render call, each distinct piece of a document (a monomial, a
binomial factor, a Y-symbol, an edge label) is written once and reused.

One table per document (``_Arguments``) numbers the distinct binomial
arguments of its coefficients once, in ``sort_key`` order.  A coefficient's
factors then come in argument order by a sort of (number, power) pairs of
ints: the order in which JSON and text write them, and LaTeX its leftover
factors.

LaTeX uses the shorthand Y_{i,x;j,k} whenever a Y-argument is a weight
parameter times q1^j q2^k, and re-assembles each coefficient into S-function
products by greedy peeling, falling back to raw binomials (``s_decompose``).
The class of an argument is what is left of it without q1 and q2, up to the
sign of its exponents.  The four arguments of an S_r(z) differ from z by
powers of q1 and q2 alone, so at z = d or 1/d all of them lie in d's class,
and a peel reads and lowers the factors of one class only.  So the factors
of each class peel on their own, in the one rank order, to the same
result, and a document peels each distinct class group once: the 400
coefficients of BC2 (2,2) hold 43.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable, Iterator
from itertools import groupby, islice
from operator import itemgetter

from .coefficient import Coefficient, s_r
from .engine import Character, WeightConfig, YMonomial, qdeg_of
from .errors import PoleError, ValidationError, require_int
from .higgsing import ClassicalCharacter
from .monomial import COUNTING, WEIGHT, Memo, Monomial, gen_key
from .quiver import Quiver

# ---------------------------------------------------------------------------
# naming
# ---------------------------------------------------------------------------


def _ordered(terms) -> list[YMonomial]:
    """The Y-monomials of a term map in ``sort_key`` order."""
    return sorted(terms, key=lambda y: y.sort_key())


def _ordered_edges(edges, index: dict[YMonomial, int]) -> list:
    """Edges by the positions (``index``) of source and target, then by label."""
    return sorted(edges, key=lambda e: (index[e[0]], index[e[1]], e[2][0], e[2][1].sort_key()))


def default_names(ch: Character) -> dict[str, str]:
    """LaTeX names for the free weight parameters of a character."""
    args = {a for ym in ch.terms for _, a, _ in ym.entries}
    keys = {k for a in args for k, _ in a.sort_key() if k[0] == WEIGHT}
    xgens = [k[-1] for k in sorted(keys)]
    if len(xgens) == 1:
        return {xgens[0]: "x"}
    return {g: f"x_{{{k}}}" for k, g in enumerate(xgens, start=1)}


_GEN_LATEX = {"q1": "q_1", "q2": "q_2", "mu": "\\mu"}


def _gen_latex(g: str, names: dict[str, str] | None) -> str:
    if names and g in names:
        return names[g]
    if g in _GEN_LATEX:
        return _GEN_LATEX[g]
    kind = gen_key(g)[0]
    if kind == COUNTING:
        return f"\\mathfrak{{q}}_{{{g[6:-1]}}}"
    if kind == WEIGHT:
        return f"x_{{{g[2:-1]}}}"
    return g


def monomial_latex(
    m: Monomial, names: dict[str, str] | None = None, ratio: bool = False
) -> str:
    if m.is_unit:
        return "1"
    exps = m.exps
    if ratio and any(e < 0 for _, e in exps) and any(e > 0 for _, e in exps):
        num = [(g, e) for g, e in exps if e > 0]
        den = [(g, -e) for g, e in exps if e < 0]
        fmt = lambda gs: " ".join(
            _gen_latex(g, names) + (f"^{{{e}}}" if e != 1 else "") for g, e in gs
        )
        return f"\\frac{{{fmt(num) or '1'}}}{{{fmt(den)}}}"
    parts = []
    for g, e in exps:
        s = _gen_latex(g, names)
        parts.append(s if e == 1 else f"{s}^{{{e}}}")
    return " ".join(parts)


def _arg_label(arg: Monomial, names: dict[str, str]) -> str:
    """arg as ``b`` or ``b;j,k`` when it is base * q1^j * q2^k for a named base b, else in full."""
    rest = {}
    base = None
    for (_, _, _, g), e in arg.sort_key():
        if g in ("q1", "q2"):
            rest[g] = e
        elif g in names and e == 1 and base is None:
            base = g
        else:
            return monomial_latex(arg, names)
    if base is None:
        return monomial_latex(arg, names)
    j, k = rest.get("q1", 0), rest.get("q2", 0)
    return names[base] if j == k == 0 else f"{names[base]};{j},{k}"


def y_symbol_latex(
    node: str, arg: Monomial, names: dict[str, str], single_node: bool
) -> str:
    prefix = "" if single_node else f"{node},"
    return f"\\mathsf{{Y}}_{{{prefix}{_arg_label(arg, names)}}}"


# ---------------------------------------------------------------------------
# the argument table
# ---------------------------------------------------------------------------


class _Arguments:
    """The binomial arguments of a document's coefficients, numbered once.

    ``args`` lists them in ``sort_key`` order and ``number`` maps each to its
    position there, so a coefficient's factors come in argument order by a
    sort of (number, power) pairs of ints, with no key call per entry.  Every
    format of one render call reads one table.
    """

    def __init__(self, coefficients: Iterable[Coefficient]):
        found: set[Monomial] = set()
        for c in coefficients:
            found.update(c.powers if c.kind == "factored" else dict(c.den))
        self.args = sorted(found, key=Monomial.sort_key)
        self.number = dict(zip(self.args, range(len(self.args))))

    def factors(self, c: Coefficient) -> list[tuple[int, int]]:
        """The (number, power) pairs of c's binomials (of its denominator,
        if it is general), in argument order."""
        if c.kind != "factored":
            return [(self.number[a], p) for a, p in c.den]
        powers = c.powers
        return sorted(zip(map(self.number.__getitem__, powers), powers.values()))


# ---------------------------------------------------------------------------
# S-product reconstruction
# ---------------------------------------------------------------------------


def _mono_size(m: Monomial) -> int:
    return sum(abs(e) for _, e in m.sort_key())


_NO_Q = {"q1": Monomial.unit(), "q2": Monomial.unit()}
_first, _second = itemgetter(0), itemgetter(1)


def _argument_class(a: Monomial) -> Monomial:
    """a without q1 and q2, up to the sign of its exponents: the part that
    every argument of an S_r(z) at z = a or 1/a shares with a."""
    rest = a.substitute(_NO_Q)
    return rest if rest.is_unit or rest.sort_key()[0][1] > 0 else rest.inverse()


class _Candidates:
    """The S-candidates of some coefficients, ranked once (``s_candidates``).

    Arguments are numbered by an ``_Arguments`` table (``number``, and
    ``args`` back), so that peeling works on dicts of small ints.
    ``ranked[rank]`` is the candidate [r, z, number of d, S-value], the
    S-value None until its first try; ``at[d]`` lists the ranks of the
    candidates at the argument numbered d.  ``classes`` holds the class of
    each argument by number, and ``peeled`` the peel of each class group met
    so far (``s_decompose``).
    """

    def __init__(self, arguments: _Arguments):
        self.number = arguments.number
        args = self.args = arguments.args
        found = sorted(
            (_mono_size(z), r, z.sort_key(), z, d)
            for d, a in enumerate(args)
            for r in range(1, 4)
            for z in (a, a.inverse())
        )
        self.ranked = [[r, z, d, None] for _, r, _, z, d in found]
        self.at: dict[int, list[int]] = {}
        for rank, (_, _, d, _) in enumerate(self.ranked):
            self.at.setdefault(d, []).append(rank)
        ids: dict[Monomial, int] = {}  # each class by a number of its own
        self.classes = [ids.setdefault(_argument_class(a), len(ids)) for a in args]
        self.peeled: dict[tuple, tuple] = {}  # filled by s_decompose, so that no cycle holds the table

    def value(self, rank: int):
        """The S-value of candidate ``rank`` as ((number, power) pairs,
        integer, unit), taken once and kept; None at a pole or a zero, which
        drops the candidate from the table."""
        cand = self.ranked[rank]
        r, z, d, _ = cand
        try:
            s = s_r(r, z)
        except PoleError:
            s = None
        if s is not None and not s.is_zero:
            cand[3] = ([(self.number.get(a), p) for a, p in s.powers.items()], s.integer, s.unit)
            return cand[3]
        self.at[d].remove(rank)
        return None

    def groups(self, c: Coefficient) -> Iterable[tuple]:
        """c's factors split by argument class: per class, a tuple of
        (class, number, power) in argument order."""
        powers = c.powers
        numbers = list(map(self.number.__getitem__, powers))
        factors = sorted(zip(map(self.classes.__getitem__, numbers), numbers, powers.values()))
        return map(tuple, map(_second, groupby(factors, _first)))

    def peel(self, group: tuple):
        """The greedy peel of one class group: (the integer and the unit
        pairs the S-factors take, [(rank, r, z, power), ...] in rank order,
        the leftover (number, power) pairs).

        Each candidate at one of the group's denominators is tried in rank
        order and peeled while all its factors remain with at least its
        powers and the same signs, a test that stops at the first factor
        that does not fit.
        """
        remaining = {a: p for _, a, p in group}
        integer, units, found = 1, [], []
        for rank in sorted(k for _, d, p in group if p < 0 for k in self.at[d]):
            r, z, d, s = self.ranked[rank]
            if d not in remaining:  # its (1 - z) is peeled away, so it cannot fit
                continue
            if s is None and (s := self.value(rank)) is None:
                continue
            powers, s_integer, s_unit = s
            power = 0
            for a, p in powers:  # how often every factor fits: a negative quotient means opposite signs
                k = remaining.get(a, 0) // p
                if k <= 0:
                    break
                if not power or k < power:
                    power = k
            else:
                for a, p in powers:
                    remaining[a] -= p * power
                    if remaining[a] == 0:
                        del remaining[a]
                integer *= s_integer**power
                units.append((s_unit, -power))
                found.append((rank, r, z, power))
        return integer, units, found, list(remaining.items())


def s_candidates(coefficients) -> _Candidates:
    """The S_r(z) that may peel from any of ``coefficients``, ranked once.

    For each argument d, the candidates are the S_r(z) with r <= 3 and z in
    {d, 1/d}; a coefficient tries those at its denominators.  All of them
    are ranked together, smallest first: by total degree of z, then r, then
    z's sort key.  A candidate's S-value is taken on its first try and
    kept, and a candidate at a pole or a zero leaves the table then; so the
    table adds no ``s_r`` cache entry that trying every candidate would not
    add.
    """
    return _Candidates(_Arguments(coefficients))


def s_decompose(c: Coefficient, table: _Candidates | None = None):
    """Write a factored coefficient as integer * monomial * prod S_r(z)^p.

    Returns (integer, unit, [(r, z, power), ...], leftover factors).  The
    candidates are those of ``table`` (``s_candidates`` of coefficients
    that include c, by default of c alone) at c's denominators, tried in
    rank order; each is peeled while all its factors remain with at least
    its powers and the same signs.  One pass suffices: peeling only lowers
    powers, so a candidate that does not fit never fits later, and an
    S_r(z) can only fit while its own (1 - z) is a denominator.  (S_2(q1)
    cancels its (1 - q1), but S_1(1/q1) and S_2(1/q1), the only candidates
    that can peel (1 - q1) before it, have its denominator (1 - 1/(q1 q2))
    in their numerators.)

    The four arguments of an S_r(z) differ from z by powers of q1 and q2
    alone, so they lie in one class (``_argument_class``), z's; a peel
    reads and lowers the factors of that class only.  So each class group
    of c peels on its own, in the same rank order, to the same result, and
    ``table`` peels each distinct group once and keeps it (``peeled``): c's
    S-factors merge by rank and its leftover factors by argument number.
    """
    if c.kind != "factored":
        raise ValidationError("S-decomposition needs a factored coefficient")
    if table is None:
        table = s_candidates([c])
    integer, units, found, leftover = c.integer, [(c.unit, 1)], [], []
    peeled = table.peeled
    for group in table.groups(c):
        done = peeled.get(group)
        if done is None:
            done = peeled[group] = table.peel(group)
        n, u, f, left = done
        integer //= n
        units += u
        found += f
        leftover += left
    found.sort()
    leftover.sort()
    args = table.args
    return (
        integer,
        Monomial.product(units),
        [(r, z, p) for _, r, z, p in found],
        tuple([(args[k], p) for k, p in leftover]),
    )


class _Latex:
    """What the LaTeX of one character shares: its names, its ranked
    S-candidates over its argument table with the peel of each class group,
    and the string of each monomial (by (monomial, ratio)),
    Y-symbol and DOT-escaped edge label (by (node, argument)), written
    once into a ``Memo``.  It lives for one render call."""

    def __init__(self, names: dict[str, str], coefficients=(), single_node: bool = False):
        self.table = s_candidates(coefficients)
        self.monomials = Memo(lambda k: monomial_latex(k[0], names, k[1]))
        self.y_symbols = Memo(lambda k: y_symbol_latex(k[0], k[1], names, single_node))
        self.edge_labels = Memo(lambda k: _dot_escaped(edge_label(k[0], k[1], names)))

    def ym(self, ym: YMonomial) -> str:
        if ym.is_unit:
            return "1"
        num, den = [], []
        for n, a, e in ym.entries:
            s = self.y_symbols[n, a]
            if abs(e) != 1:
                s = f"{s}^{{{abs(e)}}}"
            (num if e > 0 else den).append(s)
        if den:
            return f"\\frac{{{' '.join(num) or '1'}}}{{{' '.join(den)}}}"
        return " ".join(num)

    def coeff(self, c: Coefficient) -> str:
        if c.is_zero:
            return "0"
        if c.is_one:
            return "1"
        if c.kind == "general":  # a signed sum: a unit monomial is its integer; a coefficient 1 or -1 is dropped
            num = ""
            for m, k in sorted(c.num.items(), key=lambda t: t[0].sort_key()):
                term = str(abs(k)) if m.is_unit else (f"{abs(k)} " if abs(k) != 1 else "") + self.monomials[m, False]
                num = f"{num} {'-' if k < 0 else '+'} {term}" if num else ("-" if k < 0 else "") + term
            den = " ".join(f"(1 - {self.monomials[a, False]})^{{{p}}}" for a, p in c.den)
            return f"\\frac{{{num}}}{{{den}}}" if den else num
        integer, unit, sprod, leftover = s_decompose(c, self.table)
        parts = []
        if integer == -1:
            parts.append("-")
        elif integer != 1:
            parts.append(str(integer))
        if not unit.is_unit:
            parts.append(self.monomials[unit, False])
        for r, z, p in sprod:
            head = "\\mathscr{S}" if r == 1 else f"\\mathscr{{S}}_{{{r}}}"
            s = f"{head}\\qty({self.monomials[z, True]})"
            parts.append(s if p == 1 else f"{s}^{{{p}}}")
        num, den = [], []
        for a, p in leftover:
            (num if p > 0 else den).append(f"(1 - {self.monomials[a, False]})^{{{abs(p)}}}")
        if den:
            parts.append(f"\\frac{{{' '.join(num) or '1'}}}{{{' '.join(den)}}}")
        else:
            parts.extend(num)
        out = " ".join(p for p in parts if p)
        return out or "1"


def coeff_latex(c: Coefficient, names: dict[str, str] | None = None) -> str:
    return _Latex(names or {}, [c]).coeff(c)


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------


def character_latex(ch: Character, names: dict[str, str] | None = None) -> str:
    names = names if names is not None else default_names(ch)
    latex = _Latex(names, ch.terms.values(), len(ch.quiver.nodes) == 1)
    pieces = []
    for ym in _ordered(ch.terms):
        cl = latex.coeff(ch.terms[ym])
        yl = latex.ym(ym)
        if yl == "1":
            pieces.append(cl)
        elif cl == "1":
            pieces.append(yl)
        else:
            pieces.append(f"{cl} {yl}")
    return " + ".join(pieces)


def edge_label(node: str, arg: Monomial, names: dict[str, str]) -> str:
    return f"{node},{_arg_label(arg, names)}"


def _dot_escaped(label: str) -> str:
    return label.replace("\\", "\\\\").replace('"', '\\"')


def hasse_dot(ch: Character, names: dict[str, str] | None = None) -> str:
    """Graphviz digraph of the reflection flow with LaTeX labels."""
    names = names if names is not None else default_names(ch)
    latex = _Latex(names, (), len(ch.quiver.nodes) == 1)
    order = _ordered(ch.terms)
    idx = {ym: k for k, ym in enumerate(order)}
    lines = ["digraph hasse {", "  rankdir=TB;", '  node [shape=box, fontname="serif"];']
    for k, ym in enumerate(order):
        lines.append(f'  n{k} [label="{_dot_escaped(latex.ym(ym))}"];')
    for src, dst, label in _ordered_edges(ch.edges, idx):
        lines.append(f'  n{idx[src]} -> n{idx[dst]} [label="{latex.edge_labels[label]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


class _Json:
    """The pieces of one JSON document, joined once by ``text``.

    The text of each distinct monomial, binomial factor (argument number,
    power), Y-factor (node, argument, exponent) and edge label (node,
    argument) is encoded once by ``json.dumps``, kept in a ``Memo``, and
    appended as often as it occurs, with ``json.dumps``'s separators, so
    that the document reads byte for byte as ``json_document`` of the same
    data.  The factors are numbered, and come in argument order, by the
    document's ``_Arguments`` table.  No text of a term or coefficient is
    built on the way.  It lives for one render call.
    """

    def __init__(self, arguments: _Arguments | None = None):
        self.pieces: list[str] = []
        self.arguments = arguments or _Arguments(())
        # the writers read the local memo, not self, so that no reference
        # cycle keeps a document's pieces alive after the call
        monomials = self.monomials = Memo(lambda m: json.dumps(m.to_json()))
        args = self.arguments.args
        self.factors = Memo(lambda f: f'{{"arg": {monomials[args[f[0]]]}, "pow": {f[1]}}}')
        self.y_factors = Memo(
            lambda t: f'{{"node": {json.dumps(t[0])}, "arg": {monomials[t[1]]}, "exp": {t[2]}}}'
        )
        self.labels = Memo(lambda t: f'{{"node": {json.dumps(t[0])}, "arg": {monomials[t[1]]}}}')

    def write(self, *texts: str) -> None:
        self.pieces.extend(texts)

    def items(self, texts: Iterable[str]) -> None:
        """Write ``texts`` as the items of a list, between its brackets."""
        self.pieces.append(", ".join(texts))

    def coeff(self, c: Coefficient) -> None:
        """Write ``c.to_json()``."""
        if c.kind == "factored":
            self.write('{"int": ', str(c.integer), ', "unit": ', self.monomials[c.unit], ', "factors": [')
        else:
            self.write('{"num": [')
            self.items(
                f"[{self.monomials[m]}, {k}]" for m, k in sorted(c.num.items(), key=lambda t: t[0].sort_key())
            )
            self.write('], "den": [')
        self.items(map(self.factors.__getitem__, self.arguments.factors(c)))
        self.write("]}")

    def terms(self, terms: Iterable[tuple[YMonomial, Coefficient | int]]) -> None:
        """Write ``{"ym": ym.to_json(), "coeff": ...}`` for each term, as
        the items of a list; an integer coefficient (of a classical
        limit) is written as it is."""
        sep = ""
        for ym, c in terms:
            self.write(sep, '{"ym": [')
            self.items(map(self.y_factors.__getitem__, ym.entries))
            self.write('], "coeff": ')
            if isinstance(c, int):
                self.write(str(c))
            else:
                self.coeff(c)
            self.write("}")
            sep = ", "

    def text(self) -> str:
        return "".join(self.pieces)


def character_to_json(ch: Character) -> str:
    """The JSON document of a character, as text ending in a newline: its
    quiver, its terms in ``sort_key`` order, its edges as indexes into the
    terms, and its weights."""
    out = _Json(_Arguments(ch.terms.values()))
    order = _ordered(ch.terms)
    idx = {ym: k for k, ym in enumerate(order)}
    quiver = ch.quiver.to_json() | ({"name": ch.quiver.name} if ch.quiver.name else {})
    out.write('{"quiver": ', json.dumps(quiver), ', "terms": [')
    out.terms((ym, ch.terms[ym]) for ym in order)
    out.write('], "edges": [')
    out.items(
        f'{{"src": {idx[s]}, "dst": {idx[d]}, "label": {out.labels[label]}}}'
        for s, d, label in _ordered_edges(ch.edges, idx)
    )
    out.write("]")
    if ch.wc is not None:
        out.write(', "weights": [')
        out.items(
            f'{{"node": {json.dumps(i)}, "alpha": {a}, "param": {out.monomials[p]}}}' for i, a, p in ch.wc.entries
        )
        out.write("]")
    out.write("}\n")
    return out.text()


def affine_series_to_json(ch: Character) -> str:
    """The JSON document of a partition-sum character, as text ending in a
    newline: its terms grouped by counting degree, each degree in
    ``sort_key`` order."""
    series: dict[int, list] = {}
    for ym in _ordered(ch.terms):
        series.setdefault(qdeg_of(ch.terms[ym]), []).append((ym, ch.terms[ym]))
    out = _Json(_Arguments(ch.terms.values()))
    out.write('{"series": [')
    for k, d in enumerate(sorted(series)):
        out.write(", " if k else "", f'{{"qdeg": {d}, "terms": [')
        out.terms(series[d])
        out.write("]}")
    out.write("]}\n")
    return out.text()


def character_from_json(data: dict) -> Character:
    """The character of a JSON document as ``character_to_json`` writes it; a malformed one is a ValidationError."""

    def term(k) -> YMonomial:  # edges index the terms list as written
        if not 0 <= require_int(k, "edge endpoint") < len(order):
            raise ValidationError(f"edge endpoint {k} is not an index of the {len(order)} terms")
        return order[k]

    try:
        quiver = Quiver.from_json(data["quiver"])
        order = [YMonomial.from_json(t["ym"]) for t in data["terms"]]
        terms = {ym: Coefficient.from_json(t["coeff"]) for ym, t in zip(order, data["terms"])}
        edges = tuple(
            (term(e["src"]), term(e["dst"]), (str(e["label"]["node"]), Monomial.from_json(e["label"]["arg"])))
            for e in data.get("edges", ())
        )
        wc = None
        if "weights" in data:
            wc = WeightConfig(
                tuple(
                    (str(t["node"]), require_int(t["alpha"], 'weight "alpha"'), Monomial.from_json(t["param"]))
                    for t in data["weights"]
                )
            )
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValidationError(f"malformed character JSON ({type(exc).__name__}: {exc})") from None
    return Character(quiver, wc, terms, edges)


# ---------------------------------------------------------------------------
# text
# ---------------------------------------------------------------------------


class _Text:
    """The text of one document's terms and coefficients, as ``repr`` writes them.

    The text of each distinct monomial, binomial factor (argument number,
    power) and Y-factor (node, argument, exponent) is written once into a
    ``Memo`` and joined as often as it occurs; the factors come in argument
    order by the document's ``_Arguments`` table.  It lives for one render
    call.
    """

    def __init__(self, arguments: _Arguments):
        self.arguments = arguments
        monomials = self.monomials = Memo(repr)
        args = arguments.args
        self.factors = Memo(lambda f: f"(1-{monomials[args[f[0]]]})" + (f"^{f[1]}" if f[1] != 1 else ""))
        self.y_factors = Memo(lambda t: f"Y[{t[0]},{monomials[t[1]]}]" + (f"^{t[2]}" if t[2] != 1 else ""))

    def ym(self, ym: YMonomial) -> str:
        return "*".join(map(self.y_factors.__getitem__, ym.entries)) or "1"

    def coeff(self, c: Coefficient) -> str:
        if c.kind != "factored":
            return repr(c)
        unit = c.unit
        parts = [str(c.integer)] if c.integer != 1 or (unit.is_unit and not c.powers) else []
        if not unit.is_unit:
            parts.append(self.monomials[unit])
        parts += map(self.factors.__getitem__, self.arguments.factors(c))
        return "*".join(parts)


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------


def render(ch: Character | ClassicalCharacter, fmt: str) -> str:
    """The document of ``ch`` in one of the formats json, latex, dot and text."""
    if isinstance(ch, ClassicalCharacter):
        terms = [(ym, ch.terms[ym]) for ym in _ordered(ch.terms)]
        if fmt == "json":
            out = _Json()
            out.write('{"limit": ', json.dumps(ch.which), ', "terms": [')
            out.terms(terms)
            out.write("]}\n")
            return out.text()
        if fmt == "latex":
            latex = _Latex({})
            return " + ".join((f"{c} " if c != 1 else "") + latex.ym(ym) for ym, c in terms) + "\n"
        text = _Text(_Arguments(()))
        return "\n".join(f"{c:>6d}  {text.ym(ym)}" for ym, c in terms) + "\n"
    if fmt == "json":
        affine = ch.meta.get("closed_form") == "affine"  # a partition sum prints as a series
        return affine_series_to_json(ch) if affine else character_to_json(ch)
    if fmt == "latex":
        return character_latex(ch) + "\n"
    if fmt == "dot":
        return hasse_dot(ch)
    text = _Text(_Arguments(ch.terms.values()))
    return "\n".join(f"{text.coeff(ch.terms[ym])}  *  {text.ym(ym)}" for ym in _ordered(ch.terms)) + "\n"


def json_document(data) -> str:
    """The JSON text of ``data`` as qqkit writes every document: one line in
    ``json.dumps``'s default form, with ", " and ": " separators and ASCII
    escapes.  Character documents are assembled piece by piece (``_Json``)
    in exactly this form."""
    return json.dumps(data) + "\n"


_STREAM_BATCH = 4096  # list items encoded per json.dumps call


def json_stream(head: dict, key: str, items: Iterable, tail: Callable[[], dict]) -> Iterator[str]:
    """``json_document(head | {key: list(items)} | tail())`` in pieces.

    The items are encoded a batch at a time as they come, so the list is
    never held whole; ``tail`` is called after the last item is written, so
    its keys may report on the items.
    """
    opening = json.dumps(head)[:-1]
    yield opening + (", " if head else "") + json.dumps(key) + ": ["
    items = iter(items)
    sep = ""
    while batch := list(islice(items, _STREAM_BATCH)):
        yield sep + json.dumps(batch)[1:-1]
        sep = ", "
    closing = json.dumps(tail())
    yield "]" + (", " + closing[1:] if closing != "{}" else "}") + "\n"
