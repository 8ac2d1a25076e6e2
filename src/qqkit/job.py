"""One validated job: quiver -> weights -> expansion -> [Higgsing] -> [limit].

The CLI subcommands, ``qqkit run`` and the corpus fixtures all describe a
computation as a job dict.  ``Job.parse`` reads its pipeline keys and turns
every type or shape error into a ValidationError; ``Job.run`` computes.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import Mapping

from .engine import Character, WeightConfig, expand
from .errors import QQError, ValidationError, require_int
from .higgsing import ClassicalCharacter, classical_limit, fold_weights, higgs
from .monomial import Monomial, parse_monomial
from .partitions import affine_character
from .quiver import Quiver, builtin_quiver

COMMANDS = ("expand", "higgs", "limit", "hasse", "affine-expand")
FORMATS = ("json", "latex", "dot", "text")
# the fields of a job file: the pipeline keys that Job.parse reads, and the output file "out"
JOB_FIELDS = ("quiver", "w", "params", "higgs", "limit", "max_deg", "command", "format", "out")


def read_json(path):
    """Decode a JSON file (``-`` is stdin); unreadable or malformed files are ValidationErrors."""
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _load_quiver(spec) -> Quiver:
    """A builtin name, ``@file``, inline JSON text, or a decoded JSON object."""
    if isinstance(spec, str):
        if not spec.startswith("@") and not spec.lstrip().startswith("{"):
            return builtin_quiver(spec)
        try:
            spec = read_json(spec[1:]) if spec.startswith("@") else json.loads(spec)
        except ValueError as exc:
            raise ValidationError(f"inline quiver: {exc}") from None
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
    """A parsed job; build it with ``Job.parse``.  ``format`` is "dot" for hasse."""

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
        fmt = _get(spec, "format", FORMATS, "text")
        limit = _get(spec, "limit", ("q1", "q2"))
        max_deg = spec.get("max_deg")
        if max_deg is not None and require_int(max_deg, "max_deg") < 0:
            raise ValidationError("max_deg must be nonnegative")
        quiver = _load_quiver(spec.get("quiver"))
        w = {str(i): k for i, k in _get(spec, "w", default={}).items()}
        params = {_unit(key): _image(img, names) for key, img in _get(spec, "params", default={}).items()}
        sigma = {g: _image(img, names) for g, img in _get(spec, "higgs", default={}).items()}
        if command == "limit" and limit is None:
            raise ValidationError("limit needs limit q1 or q2")
        if command == "affine-expand" and (sigma or limit):
            raise ValidationError("affine-expand takes no higgs or limit")
        if command == "affine-expand" and max_deg is None:
            raise ValidationError("affine expansion requires a counting-degree cutoff")
        fmt = "dot" if command == "hasse" else fmt
        if limit and fmt == "dot":
            raise ValidationError("a classical limit has no reflection graph to draw (hasse, dot)")
        if command == "affine-expand" and fmt == "dot":
            raise ValidationError("a partition sum has no reflection graph to draw (affine-expand, dot)")
        weights = WeightConfig.make(quiver, w, params)
        return Job(quiver, weights, command, fmt, sigma, limit, max_deg)

    def run(self) -> Character | ClassicalCharacter:
        """The job's result.

        ``fold_weights`` rejects a malformed ``higgs`` sigma before anything
        is expanded.  A sigma that it accepts is folded into the weights, and
        the character is expanded once there, with no ``higgs`` step; its
        ``meta`` then has no ``higgs`` or ``dropped`` key.  If that path
        raises, the generic path ``higgs(expand(weights), sigma)`` decides the
        result or the error, so both paths answer alike.  Without a sigma,
        every command but ``affine-expand`` starts from ``expand``.
        """
        if self.command == "affine-expand":
            return affine_character(self.quiver, self.weights, self.max_deg)
        if self.higgs:
            folded = fold_weights(self.quiver, self.weights, self.higgs)
            if folded is not None:
                try:
                    return self._limit(expand(self.quiver, folded, max_qdeg=self.max_deg))
                except QQError:
                    pass
            return self._limit(higgs(expand(self.quiver, self.weights, max_qdeg=self.max_deg), self.higgs))
        return self._limit(expand(self.quiver, self.weights, max_qdeg=self.max_deg))

    def _limit(self, ch: Character) -> Character | ClassicalCharacter:
        return classical_limit(ch, self.limit) if self.limit else ch
