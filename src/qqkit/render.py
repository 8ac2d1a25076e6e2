"""LaTeX, Graphviz DOT, JSON and text renderings of characters.

``render`` is the one place that decides an output format.  Y-symbols use
the shorthand Y_{i,x;j,k} whenever the argument is a weight parameter
times q1^j q2^k; coefficients are re-assembled into S-function products
by greedy pattern peeling, falling back to raw binomials.  Every format
lists terms in ``sort_key`` order and edges in the order of
``_ordered_edges``, so the bytes do not depend on how a character was built.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable, Iterator
from itertools import islice

from .coefficient import Coefficient, factor_tuple, s_r
from .engine import Character, WeightConfig, YMonomial, qdeg_of
from .errors import PoleError, ValidationError, require_int
from .higgsing import ClassicalCharacter
from .monomial import COUNTING, WEIGHT, Monomial, gen_key
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
    keys = {k for ym in ch.terms for _, a, _ in ym.entries for k, _ in a.sort_key() if k[0] == WEIGHT}
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
# S-product reconstruction
# ---------------------------------------------------------------------------


def _mono_size(m: Monomial) -> int:
    return sum(abs(e) for _, e in m.sort_key())


def s_candidates(coefficients) -> dict[Monomial, list]:
    """The S_r(z) that may peel from any of ``coefficients``, ranked once.

    For each denominator argument d, the candidates are the S_r(z) with
    r <= 3 and z in {d, 1/d}.  All of them are ranked together, smallest
    first: by total degree of z, then r, then z's sort key.  The table maps
    d to its candidates as (rank, r, z, d).  S-values are taken only when a
    candidate is tried, so the table adds nothing to the ``s_r`` cache.
    """
    dens = dict.fromkeys(d for c in coefficients for d, p in c.powers.items() if p < 0)
    found = sorted(
        ((_mono_size(z), r, z.sort_key(), z, d) for d in dens for r in range(1, 4) for z in (d, d.inverse())),
        key=lambda t: t[:3],
    )
    table: dict[Monomial, list] = {}
    for rank, (_, r, _, z, d) in enumerate(found):
        table.setdefault(d, []).append((rank, r, z, d))
    return table


def s_decompose(c: Coefficient, table: dict[Monomial, list] | None = None):
    """Write a factored coefficient as integer * monomial * prod S_r(z)^p.

    Returns (integer, unit, [(r, z, power), ...], leftover factors).  The
    candidates are those of ``table`` (``s_candidates``, by default of c
    alone) at c's denominators, tried in rank order; each is peeled while
    all its factors remain with at least its powers and the same signs.
    One pass suffices: peeling only lowers powers, so a candidate that does
    not fit never fits later, and an S_r(z) can only fit while its own
    (1 - z) is a denominator.  (S_2(q1) cancels its (1 - q1), but S_1(1/q1)
    and S_2(1/q1), the only candidates that can peel (1 - q1) before it,
    have its denominator (1 - 1/(q1 q2)) in their numerators.)
    """
    if c.kind != "factored":
        raise ValidationError("S-decomposition needs a factored coefficient")
    if table is None:
        table = s_candidates([c])
    integer, unit = c.integer, c.unit
    remaining = dict(c.powers)
    found = []
    for _, r, z, d in sorted(t for d, p in remaining.items() if p < 0 for t in table[d]):
        if d not in remaining:  # its (1 - z) is peeled away, so it cannot fit
            continue
        try:
            s = s_r(r, z)
        except PoleError:
            continue
        if s.is_zero:
            continue
        # how often every factor fits: a negative quotient means opposite signs
        power = min(remaining.get(a, 0) // p for a, p in s.powers.items())
        if power <= 0:
            continue
        for a, p in s.powers.items():
            remaining[a] -= p * power
            if remaining[a] == 0:
                del remaining[a]
        integer //= s.integer**power
        unit = unit / s.unit**power
        found.append((r, z, power))
    return integer, unit, found, factor_tuple(remaining)  # the leftovers, sorted by argument


class _Latex:
    """What the LaTeX of one character's terms shares: its names, its ranked
    S-candidates and the string of each monomial, written once.  It lives
    for one render call."""

    def __init__(self, names: dict[str, str], coefficients):
        self.names = names
        self.table = s_candidates(coefficients)
        self.written: dict[tuple[Monomial, bool], str] = {}

    def monomial(self, m: Monomial, ratio: bool = False) -> str:
        s = self.written.get((m, ratio))
        if s is None:
            s = self.written[m, ratio] = monomial_latex(m, self.names, ratio)
        return s

    def coeff(self, c: Coefficient) -> str:
        if c.is_zero:
            return "0"
        if c.is_one:
            return "1"
        if c.kind == "general":  # a signed sum: a unit monomial is its integer; a coefficient 1 or -1 is dropped
            num = ""
            for m, k in sorted(c.num.items(), key=lambda t: t[0].sort_key()):
                term = str(abs(k)) if m.is_unit else (f"{abs(k)} " if abs(k) != 1 else "") + self.monomial(m)
                num = f"{num} {'-' if k < 0 else '+'} {term}" if num else ("-" if k < 0 else "") + term
            den = " ".join(f"(1 - {self.monomial(a)})^{{{p}}}" for a, p in c.den)
            return f"\\frac{{{num}}}{{{den}}}" if den else num
        integer, unit, sprod, leftover = s_decompose(c, self.table)
        parts = []
        if integer == -1:
            parts.append("-")
        elif integer != 1:
            parts.append(str(integer))
        if not unit.is_unit:
            parts.append(self.monomial(unit))
        for r, z, p in sprod:
            head = "\\mathscr{S}" if r == 1 else f"\\mathscr{{S}}_{{{r}}}"
            s = f"{head}\\qty({self.monomial(z, ratio=True)})"
            parts.append(s if p == 1 else f"{s}^{{{p}}}")
        num, den = [], []
        for a, p in leftover:
            (num if p > 0 else den).append(f"(1 - {self.monomial(a)})^{{{abs(p)}}}")
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


def ym_latex(ym: YMonomial, names: dict[str, str], single_node: bool) -> str:
    if ym.is_unit:
        return "1"
    num, den = [], []
    for n, a, e in ym.entries:
        s = y_symbol_latex(n, a, names, single_node)
        if abs(e) != 1:
            s = f"{s}^{{{abs(e)}}}"
        (num if e > 0 else den).append(s)
    if den:
        return f"\\frac{{{' '.join(num) or '1'}}}{{{' '.join(den)}}}"
    return " ".join(num)


def character_latex(ch: Character, names: dict[str, str] | None = None) -> str:
    names = names if names is not None else default_names(ch)
    single = len(ch.quiver.nodes) == 1
    latex = _Latex(names, ch.terms.values())
    pieces = []
    for ym in _ordered(ch.terms):
        cl = latex.coeff(ch.terms[ym])
        yl = ym_latex(ym, names, single)
        if yl == "1":
            pieces.append(cl)
        elif cl == "1":
            pieces.append(yl)
        else:
            pieces.append(f"{cl} {yl}")
    return " + ".join(pieces)


def edge_label(node: str, arg: Monomial, names: dict[str, str]) -> str:
    return f"{node},{_arg_label(arg, names)}"


def hasse_dot(ch: Character, names: dict[str, str] | None = None) -> str:
    """Graphviz digraph of the reflection flow with LaTeX labels."""
    names = names if names is not None else default_names(ch)
    single = len(ch.quiver.nodes) == 1
    order = _ordered(ch.terms)
    idx = {ym: k for k, ym in enumerate(order)}
    lines = ["digraph hasse {", "  rankdir=TB;", '  node [shape=box, fontname="serif"];']
    for k, ym in enumerate(order):
        label = ym_latex(ym, names, single).replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  n{k} [label="{label}"];')
    for src, dst, (i, x) in _ordered_edges(ch.edges, idx):
        lab = edge_label(i, x, names).replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  n{idx[src]} -> n{idx[dst]} [label="{lab}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


def character_to_json(ch: Character) -> dict:
    order = _ordered(ch.terms)
    idx = {ym: k for k, ym in enumerate(order)}
    data = {
        "quiver": ch.quiver.to_json() | ({"name": ch.quiver.name} if ch.quiver.name else {}),
        "terms": [{"ym": ym.to_json(), "coeff": ch.terms[ym].to_json()} for ym in order],
        "edges": [
            {"src": idx[s], "dst": idx[d], "label": {"node": i, "arg": x.to_json()}}
            for s, d, (i, x) in _ordered_edges(ch.edges, idx)
        ],
    }
    if ch.wc is not None:
        data["weights"] = [
            {"node": i, "alpha": a, "param": p.to_json()} for i, a, p in ch.wc.entries
        ]
    return data


def affine_series_to_json(ch: Character) -> dict:
    """The terms of a partition-sum character grouped by counting degree."""
    series: dict[int, list] = {}
    for ym in _ordered(ch.terms):
        c = ch.terms[ym]
        series.setdefault(qdeg_of(c), []).append({"ym": ym.to_json(), "coeff": c.to_json()})
    return {"series": [{"qdeg": d, "terms": series[d]} for d in sorted(series)]}


def character_from_json(data: dict) -> Character:
    quiver = Quiver.from_json(data["quiver"])
    order = [YMonomial.from_json(t["ym"]) for t in data["terms"]]
    terms = {ym: Coefficient.from_json(t["coeff"]) for ym, t in zip(order, data["terms"])}

    def term(k) -> YMonomial:  # edges index the terms list as written
        if not 0 <= require_int(k, "edge endpoint") < len(order):
            raise ValidationError(f"edge endpoint {k} is not an index of the {len(order)} terms")
        return order[k]

    edges = tuple(
        (term(e["src"]), term(e["dst"]), (str(e["label"]["node"]), Monomial.from_json(e["label"]["arg"])))
        for e in data.get("edges", ())
    )
    wc = None
    if "weights" in data:
        wc = WeightConfig(
            tuple(
                (str(t["node"]), int(t["alpha"]), Monomial.from_json(t["param"]))
                for t in data["weights"]
            )
        )
    return Character(quiver, wc, terms, edges)


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------


def render(ch: Character | ClassicalCharacter, fmt: str) -> str:
    """The document of ``ch`` in one of the formats json, latex, dot and text."""
    if isinstance(ch, ClassicalCharacter):
        terms = [(ym, ch.terms[ym]) for ym in _ordered(ch.terms)]
        if fmt == "json":
            data = [{"ym": ym.to_json(), "coeff": c} for ym, c in terms]
            return json_document({"limit": ch.which, "terms": data})
        if fmt == "latex":
            return " + ".join((f"{c} " if c != 1 else "") + ym_latex(ym, {}, False) for ym, c in terms) + "\n"
        return "\n".join(f"{c:>6d}  {ym!r}" for ym, c in terms) + "\n"
    if fmt == "json":
        affine = ch.meta.get("closed_form") == "affine"  # a partition sum prints as a series
        return json_document(affine_series_to_json(ch) if affine else character_to_json(ch))
    if fmt == "latex":
        return character_latex(ch) + "\n"
    if fmt == "dot":
        return hasse_dot(ch)
    return "\n".join(f"{ch.terms[ym]!r}  *  {ym!r}" for ym in _ordered(ch.terms)) + "\n"


def json_document(data) -> str:
    """The JSON text of every document qqkit writes: compact, from the C encoder."""
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
