"""One validated job: quiver -> weights -> expansion -> [Higgsing] -> [limit].

The CLI subcommands, ``qqkit run`` and the corpus fixtures all describe a
computation as a job dict.  ``Job.parse`` reads its pipeline keys and turns
every type or shape error into a ValidationError; ``Job.run`` computes.

Every character a job or a fixture builds comes from ``expansion`` or, on
the generic path of a Higgsing, ``higgsed``.  Inside a ``shared_expansions()``
block, which ``verify.run_corpus`` opens for one run, each distinct
expansion (quiver, weights, cutoff), each distinct Higgsing of one (the
expansion and sigma) and each distinct classical limit of either (the
character and q1 or q2) is made once, and the later requests get the same
object; outside one, every call makes it afresh.  So a fixture's seconds
exclude the work an earlier fixture of the run did.  A call that raises
stores nothing, and no key uses ``id()``.  Sharing is safe because nothing
in qqkit mutates a ``Character`` or a ``ClassicalCharacter`` (``higgs``
copies ``meta``).
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Mapping

from .engine import Character, WeightConfig, expand
from .errors import QQError, ValidationError, require_int
from .higgsing import ClassicalCharacter, classical_limit, fold_weights, higgs
from .monomial import COUNTING, Monomial, gen_key, parse_monomial
from .partitions import affine_character
from .quiver import Quiver, builtin_quiver

COMMANDS = ("expand", "higgs", "limit", "hasse", "affine-expand")
FORMATS = ("json", "latex", "dot", "text")
# the fields of a job file: the pipeline keys that Job.parse reads, and the output file "out"
JOB_FIELDS = ("quiver", "w", "params", "higgs", "limit", "max_deg", "command", "format", "out")


# the open run's table: expansions, Higgsed characters and classical limits by key; None outside a run
_SHARED: ContextVar[dict | None] = ContextVar("qqkit_shared", default=None)


@contextmanager
def shared_expansions():
    """Within the block each distinct expansion, Higgsing and limit is made once; the table goes when it ends."""
    token = _SHARED.set({})
    try:
        yield
    finally:
        _SHARED.reset(token)


def _shared(key, make):
    """``make()``, read from the open run's table under ``key`` if there is one.

    A call that raises stores nothing, so every request for it raises again.
    """
    table = _SHARED.get()
    if table is None:
        return make()
    if key not in table:
        table[key] = make()
    return table[key]


def _key(Q_: Quiver, wc: WeightConfig, max_qdeg: int | None, sigma: Mapping[str, Monomial] | None = None) -> tuple:
    """The table key of ``expand(Q_, wc, max_qdeg)``, or of its Higgsing at ``sigma``.

    ``Quiver`` is not hashable (``d`` is a dict), so the key spells out its
    fields; sigma adds its (generator, image) pairs, sorted by generator name.
    A classical limit's key is its character's key and ``which``.
    """
    key = (Q_.name, Q_.nodes, tuple(Q_.d[i] for i in Q_.nodes), Q_.edges, wc, max_qdeg)
    return key if sigma is None else (*key, tuple(sorted(sigma.items())))


def expansion(Q_: Quiver, wc: WeightConfig, max_qdeg: int | None = None) -> Character:
    """``expand(Q_, wc, max_qdeg)``, read from the open run's table if there is one."""
    return _shared(_key(Q_, wc, max_qdeg), lambda: expand(Q_, wc, max_qdeg=max_qdeg))


def higgsed(Q_: Quiver, wc: WeightConfig, max_qdeg: int | None, sigma: Mapping[str, Monomial]) -> Character:
    """``higgs(expansion(Q_, wc, max_qdeg), sigma)``, read from the open run's table if there is one."""
    return _shared(_key(Q_, wc, max_qdeg, sigma), lambda: higgs(expansion(Q_, wc, max_qdeg), sigma))


def read_json(path):
    """Decode a JSON file (``-`` is stdin); unreadable or malformed files are ValidationErrors."""
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"{path}: {exc}") from None


def decode_json(text: str, where: str = ""):
    """Decode JSON text; malformed text or an integer too long to convert is a ValidationError."""
    try:
        return json.loads(text)
    except ValueError as exc:
        raise ValidationError(f"{where}{exc}") from None


def _load_quiver(spec) -> Quiver:
    """A builtin name, ``@file``, inline JSON text, or a decoded JSON object."""
    if isinstance(spec, str):
        if not spec.startswith("@") and not spec.lstrip().startswith("{"):
            return builtin_quiver(spec)
        spec = read_json(spec[1:]) if spec.startswith("@") else decode_json(spec, "inline quiver: ")
    if not isinstance(spec, Mapping):
        raise ValidationError(f"quiver must be a builtin name, @file or a JSON object, got {spec!r}")
    return Quiver.from_json(spec)


def _get(spec: Mapping, key: str, allowed=None, default=None):
    """``spec[key]``, or ``default`` when it is absent or null.

    The value must be one of ``allowed`` or, when ``allowed`` is None, a JSON object.
    """
    value = spec.get(key)
    if value is None:
        return default
    if allowed is None and not isinstance(value, Mapping):
        raise ValidationError(f"{key} must be a JSON object, got {value!r}")
    if allowed is not None and value not in allowed:
        raise ValidationError(f"{key} must be one of {allowed}, got {value!r}")
    return value


def _image(img, names) -> Monomial:
    return parse_monomial(img, names) if isinstance(img, str) else Monomial.from_json(img)


def _unit(key) -> tuple[str, int]:
    node, _, alpha = str(key).partition(",")
    try:
        return node.strip(), int(alpha)
    except ValueError:
        raise ValidationError(f'params key {key!r} is not "node,alpha"') from None


@dataclass(frozen=True)
class Job:
    """A parsed job; build it with ``Job.parse``.  ``format`` is "dot" for hasse, which takes no other."""

    quiver: Quiver
    weights: WeightConfig
    command: str
    format: str
    higgs: Mapping[str, Monomial]
    limit: str | None
    max_deg: int | None

    @staticmethod
    def parse(spec, names: Mapping[str, Monomial] | None = None) -> "Job":
        """Read the pipeline keys of ``spec``; image strings resolve ``names``."""
        if not isinstance(spec, Mapping):
            raise ValidationError(f"a job must be a JSON object, got {type(spec).__name__}")
        command = _get(spec, "command", COMMANDS, "expand")
        fmt = _get(spec, "format", FORMATS, "dot" if command == "hasse" else "text")
        limit = _get(spec, "limit", ("q1", "q2"))
        max_deg = spec.get("max_deg")
        if max_deg is not None and require_int(max_deg, "max_deg") < 0:
            raise ValidationError("max_deg must be nonnegative")
        quiver = _load_quiver(spec.get("quiver"))
        w = {str(i): k for i, k in _get(spec, "w", default={}).items()}
        params = {_unit(key): _image(img, names) for key, img in _get(spec, "params", default={}).items()}
        sigma = {g: _image(img, names) for g, img in _get(spec, "higgs", default={}).items()}
        for g in sigma:  # each key names one generator, and the engine alone sets qfrak(i)
            if parse_monomial(g) != Monomial.gen(g) or gen_key(g)[0] == COUNTING:
                raise ValidationError(f"higgs key {g!r} must name one generator, and no counting parameter qfrak(i)")
        for img in (*params.values(), *sigma.values()):
            if any(k[0] == COUNTING for k, _ in img.sort_key()):
                raise ValidationError(f"image {img!r} uses a counting parameter qfrak(i), which only the engine sets")
        if command == "limit" and limit is None:
            raise ValidationError("limit needs limit q1 or q2")
        if command == "affine-expand" and (sigma or limit):
            raise ValidationError("affine-expand takes no higgs or limit")
        if command == "affine-expand" and max_deg is None:
            raise ValidationError("affine expansion requires a counting-degree cutoff")
        if command == "hasse" and fmt != "dot":
            raise ValidationError(f"hasse draws the reflection graph and prints only format dot, got {fmt!r}")
        if limit and fmt == "dot":
            raise ValidationError("a classical limit has no reflection graph to draw (hasse, dot)")
        if command == "affine-expand" and fmt == "dot":
            raise ValidationError("a partition sum has no reflection graph to draw (affine-expand, dot)")
        weights = WeightConfig.make(quiver, w, params)
        named = {"q1", "q2", "mu"}.union(*(p.gens() for _, _, p in weights.entries))
        unknown = sorted(set(sigma) - named)
        if unknown:
            raise ValidationError(f"higgs keys {unknown} name no generator of the weight parameters, q1, q2 or mu")
        return Job(quiver, weights, command, fmt, sigma, limit, max_deg)

    def run(self) -> Character | ClassicalCharacter:
        """The job's result.

        ``fold_weights`` rejects a malformed ``higgs`` sigma before anything
        is expanded.  A sigma that it accepts is folded into the weights, and
        the character is expanded once there, with no ``higgs`` step; its
        ``meta`` then has no ``higgs`` or ``dropped`` key.  If that expansion
        raises, the generic path ``higgs(expand(weights), sigma)`` decides the
        character or the error.  A fold that succeeds gives the generic
        character, so the limit runs once, on whichever was built.  Without
        a sigma, every command but ``affine-expand`` starts from ``expand``.
        """
        if self.command == "affine-expand":
            return affine_character(self.quiver, self.weights, self.max_deg)
        key, ch = self._character()
        if not self.limit:
            return ch
        return _shared((key, self.limit), lambda: classical_limit(ch, self.limit))

    def _character(self) -> tuple[tuple, Character]:
        """The character the job reads, with its table key."""
        Q_, wc, deg = self.quiver, self.weights, self.max_deg
        if not self.higgs:
            return _key(Q_, wc, deg), expansion(Q_, wc, deg)
        folded = fold_weights(Q_, wc, self.higgs)
        if folded is not None:
            try:
                return _key(Q_, folded, deg), expansion(Q_, folded, deg)
            except QQError:
                pass
        return _key(Q_, wc, deg, self.higgs), higgsed(Q_, wc, deg, self.higgs)
