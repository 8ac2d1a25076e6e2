"""Decorated quivers, the deformed Cartan matrix, and the reflection map.

Nodes carry a positive decoration d_i (relative root length); edges carry
an integer exponent c so the edge mass is mu^c.  Mass exponents must be
zero unless the quiver contains a directed cycle, and nonzero on a loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from graphlib import CycleError, TopologicalSorter
from math import gcd, prod
from typing import Mapping

from .coefficient import Coefficient, s_function
from .errors import ValidationError, require_int
from .monomial import MU, Monomial, Q1, Q2, qfrak


MAX_DECORATION = 1000  # cartan_columns builds about d_i / d_ij terms per edge
# classify eliminates over an n x n matrix, cubic in n: Arhat(100) classifies in about 0.04 s, and
# 100 nodes with 200 edges between decorations 1000 and 1 in about 0.3 s (2-core host, Python 3.11)
MAX_NODES = 100
MAX_EDGES = 200


def _node_id(value) -> str:
    """A node id or edge endpoint of quiver JSON, a string or an integer, as a string."""
    if type(value) not in (str, int):
        raise ValidationError(f"a node id is a string or an integer, got {value!r}")
    return str(value)


class QuiverClass(Enum):
    FINITE = "finite"
    AFFINE = "affine"
    INDEFINITE = "indefinite"


@dataclass(frozen=True)
class Quiver:
    nodes: tuple[str, ...]
    d: Mapping[str, int]
    edges: tuple[tuple[str, str, int], ...]
    name: str = ""

    def __post_init__(self):
        # every check here is linear in the lists; the counts are bounded before anything is built from them
        if not self.nodes:
            raise ValidationError("a quiver needs at least one node")
        ids = set(self.nodes)
        if len(ids) != len(self.nodes):
            raise ValidationError("duplicate node ids")
        for i in self.nodes:
            if self.d.get(i, 0) < 1:
                raise ValidationError(f"decoration d[{i}] must be a positive integer")
            if self.d[i] > MAX_DECORATION:
                raise ValidationError(f"decoration d[{i}] must be at most {MAX_DECORATION}, got {self.d[i]}")
        for a, b, c in self.edges:
            if a not in ids or b not in ids:
                raise ValidationError(f"edge ({a},{b}) uses unknown nodes")
            if a == b and c == 0:
                raise ValidationError(f"loop ({a},{b}) needs a nonzero mu: its correction S(mu^0) has a pole")
        if any(c != 0 for _, _, c in self.edges) and not self._has_cycle():
            raise ValidationError("mass exponents are only allowed on cyclic quivers")
        _check_size(len(self.nodes), len(self.edges))

    @cached_property
    def cartan_columns(self) -> dict[str, tuple[tuple[str, Monomial, int], ...]]:
        """The columns of the deformed Cartan matrix by node, as raw (node j, monomial, sign) terms.

        Each column opens with the unit diagonal term (i, 1, +1), then
        (i, q1^{d_i} q2, +1), then for every edge in order the terms
        (j, mu_e q1^{r d_ij}, -1) of e: i->j and (j, mu_e^{-1} q1^{(r+1) d_ij} q2, -1)
        of e: j->i, for r < d_i/d_ij.
        """
        cols = {i: [(i, Monomial.unit(), 1), (i, Q1 ** self.d[i] * Q2, 1)] for i in self.nodes}
        for a, b, c in self.edges:
            for i, j, shift, k in ((a, b, MU**c, 0), (b, a, MU**-c * Q2, 1)):
                dij = self.dij(i, j)
                cols[i].extend((j, shift * Q1 ** ((r + k) * dij), -1) for r in range(self.d[i] // dij))
        return {i: tuple(col) for i, col in cols.items()}

    @cached_property
    def classification(self) -> tuple[QuiverClass, int]:
        """Class and determinant of the classical Cartan matrix (see ``classify``)."""
        cartan = classical_cartan(self)
        classes, dets = zip(*(_component_class(cartan, component) for component in _components(cartan)))
        qclass = next(c for c in (QuiverClass.INDEFINITE, QuiverClass.AFFINE, QuiverClass.FINITE) if c in classes)
        return qclass, prod(dets)

    @cached_property
    def node_scalars(self) -> dict[str, Coefficient]:
        """The scalar a reflection at each node picks up.

        It is the product of the loop corrections S(mu^c) over the loops at
        the node, times the counting parameter qfrak(i) on affine quivers.
        """
        scalars = {i: Coefficient.one() for i in self.nodes}
        for a, b, c in self.edges:
            if a == b:
                scalars[a] = scalars[a] * s_function(MU**c)
        if self.classification[0] is QuiverClass.AFFINE:
            scalars = {i: s * Coefficient.from_monomial(qfrak(i)) for i, s in scalars.items()}
        return scalars

    def _has_cycle(self) -> bool:
        """Whether the quiver has a directed cycle (a loop is one); ``graphlib`` finds it without recursion."""
        order = TopologicalSorter()
        for a, b, _ in self.edges:
            order.add(b, a)
        try:
            order.prepare()
        except CycleError:
            return True
        return False

    def dij(self, i: str, j: str) -> int:
        return gcd(self.d[i], self.d[j])

    def to_json(self) -> dict:
        return {
            "nodes": [{"id": i, "d": self.d[i]} for i in self.nodes],
            "edges": [{"from": a, "to": b, "mu": c} for a, b, c in self.edges],
        }

    @staticmethod
    def from_json(data: Mapping) -> "Quiver":
        try:
            nodes = tuple(_node_id(n["id"]) for n in data["nodes"])
            d = {_node_id(n["id"]): require_int(n.get("d", 1), "decoration d") for n in data["nodes"]}
            edges = tuple(
                (_node_id(e["from"]), _node_id(e["to"]), require_int(e.get("mu", 0), "edge mu"))
                for e in data.get("edges", ())
            )
            name = data.get("name", "")
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValidationError(f"malformed quiver JSON ({type(exc).__name__}: {exc})") from None
        if not isinstance(name, str):
            raise ValidationError(f"quiver name must be a string, got {name!r}")
        return Quiver(nodes, d, edges, name=name)


def _check_size(nodes: int, edges: int) -> None:
    """Refuse a quiver of more than ``MAX_NODES`` nodes or ``MAX_EDGES`` edges."""
    if nodes > MAX_NODES:
        raise ValidationError(f"a quiver has at most {MAX_NODES} nodes, got {nodes}")
    if edges > MAX_EDGES:
        raise ValidationError(f"a quiver has at most {MAX_EDGES} edges, got {edges}")


def builtin_quiver(name: str) -> Quiver:
    """Built-ins: A1, A2, BC2, A0hat, Arhat(r)."""
    if name == "A1":
        return Quiver(("1",), {"1": 1}, (), name="A1")
    if name == "A2":
        return Quiver(("1", "2"), {"1": 1, "2": 1}, (("1", "2", 0),), name="A2")
    if name == "BC2":
        return Quiver(("1", "2"), {"1": 2, "2": 1}, (("1", "2", 0),), name="BC2")
    if name == "A0hat":
        return Quiver(("0",), {"0": 1}, (("0", "0", 1),), name="A0hat")
    if name.startswith("Arhat(") and name.endswith(")"):
        try:
            r = int(name[6:-1]) if name[6:-1].isdecimal() else 0
        except ValueError:  # more digits than int() converts: far over the bound
            raise ValidationError(f"a quiver has at most {MAX_NODES} nodes, got {name!r}") from None
        if r < 1:
            raise ValidationError(f"Arhat(r) needs an integer r >= 1, got {name!r}")
        _check_size(r, r)
        nodes = tuple(str(i) for i in range(r))
        edges = tuple((str(i), str((i + 1) % r), 1) for i in range(r))
        return Quiver(nodes, {i: 1 for i in nodes}, edges, name=name)
    raise ValidationError(f"unknown builtin quiver {name!r}")


def classical_cartan(Q_: Quiver) -> list[list[int]]:
    """The Cartan matrix with every multiplicative variable set to 1."""
    idx = {v: k for k, v in enumerate(Q_.nodes)}
    out = [[0] * len(Q_.nodes) for _ in Q_.nodes]
    for i, column in Q_.cartan_columns.items():
        for j, _, sign in column:
            out[idx[j]][idx[i]] += sign
    return out


def _components(m: list[list[int]]) -> list[list[int]]:
    """The index sets of the connected components of the graph of m's off-diagonal entries."""
    seen: set[int] = set()
    out = []
    for start in range(len(m)):
        if start in seen:
            continue
        seen.add(start)
        component = [start]
        for i in component:  # grows while it is walked
            for j, entry in enumerate(m[i]):
                if entry and j not in seen:
                    seen.add(j)
                    component.append(j)
        out.append(sorted(component))
    return out


def _component_class(m: list[list[int]], component: list[int]) -> tuple[QuiverClass, int]:
    """Kac's class and the determinant of one connected component's principal submatrix.

    The matrix is symmetrizable (entry [j][i] over d_i is symmetric), so by
    Sylvester its leading principal minors decide: all n positive is finite,
    the first n - 1 positive and the last 0 is affine, anything else is
    indefinite.  One fraction-free (Bareiss) elimination yields them as its
    pivots.  A zero pivot before the last swaps in a later row, which flips
    the determinant's sign; the component is indefinite by then, so no
    pivot read as a minor comes after a swap.  The determinant is the
    signed last pivot, or 0 when no row is left to swap in.
    """
    a = [[m[i][j] for j in component] for i in component]
    n = len(a)
    sign, prev, indefinite = 1, 1, False
    for k in range(n - 1):
        indefinite = indefinite or a[k][k] <= 0
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k]), None)
            if swap is None:
                return QuiverClass.INDEFINITE, 0
            a[k], a[swap], sign = a[swap], a[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    det = sign * a[n - 1][n - 1]
    if indefinite or det < 0:
        return QuiverClass.INDEFINITE, det
    return (QuiverClass.FINITE if det > 0 else QuiverClass.AFFINE), det


def classify(Q_: Quiver) -> tuple[QuiverClass, int]:
    """Class and determinant of the classical Cartan matrix.

    Each connected component is finite, affine or indefinite by Kac's
    criterion (``_component_class``).  The quiver is indefinite if any
    component is, else affine if any is, else finite.  The matrix is
    block-diagonal by component up to a simultaneous permutation, so its
    determinant is the product of theirs.  Two disjoint K4
    quivers, each with determinant -27, are indefinite although their
    determinant 729 is positive.
    """
    return Q_.classification


def a_inverse_monomial(Q_: Quiver, i: str, x: Monomial):
    """A_{i,x}^{-1}, which replaces one numerator Y_{i,x} under the reflection at (i, x).

    Returns (entries, scalar): entries holds one (node j, argument x m,
    exponent -sign) per term (j, m, sign) of column i of the deformed Cartan
    matrix, the unit diagonal term (which consumes Y_{i,x}) included; the
    scalar is the node's ``node_scalars`` entry.
    """
    return [(j, x * mono, -sign) for j, mono, sign in Q_.cartan_columns[i]], Q_.node_scalars[i]
