"""Command-line surface.

Subcommands: expand, higgs, limit, hasse, affine-expand, burge-check,
run (a JSON job file), and verify (replay the bundled identity corpus).
The five computing subcommands and ``run`` build one job dict and hand it
to ``qqkit.job.Job``; ``hasse`` is the dot rendering of the character.
Exit codes: 0 success, 1 verify failures, 2 validation (any malformed
input, reported as one ``validation error:`` line), 3 pole,
4 colliding arguments, 5 specialization collision, 6 non-integer limit,
7 inconsistency or blow-up.
"""

from __future__ import annotations

import argparse
import json
import sys

from .engine import qdeg_of
from .errors import (
    CollidingArguments,
    InvalidPit,
    NonIntegerLimit,
    NonTermination,
    PathInconsistency,
    PoleError,
    ValidationError,
    YCollision,
)
from .higgsing import ClassicalCharacter
from .job import COMMANDS, FORMATS, JOB_FIELDS, Job, read_json
from .render import character_latex, character_to_json, hasse_dot, ym_latex
from .verify import burge_rows, run_corpus


def _emit(doc: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(doc)
    else:
        sys.stdout.write(doc)


def _render(job: Job, ch) -> str:
    fmt, classical = job.format, isinstance(ch, ClassicalCharacter)
    if fmt == "json" and classical:
        data = [{"ym": ym.to_json(), "coeff": c} for ym, c in ch.sorted_terms()]
        return json.dumps({"limit": ch.which, "terms": data}, indent=1) + "\n"
    if fmt == "latex" and classical:
        pieces = ((f"{c} " if c != 1 else "") + ym_latex(ym, {}, False) for ym, c in ch.sorted_terms())
        return " + ".join(pieces) + "\n"
    if classical:
        return "\n".join(f"{c:>6d}  {ym!r}" for ym, c in ch.sorted_terms()) + "\n"
    if fmt == "json" and job.command == "affine-expand":
        series: dict[int, list] = {}
        for ym, c in ch.sorted_terms():
            series.setdefault(qdeg_of(c), []).append({"ym": ym.to_json(), "coeff": c.to_json()})
        blocks = [{"qdeg": d, "terms": series[d]} for d in sorted(series)]
        return json.dumps({"series": blocks}, indent=1) + "\n"
    if fmt == "json":
        return json.dumps(character_to_json(ch), indent=1) + "\n"
    if fmt == "latex":
        return character_latex(ch) + "\n"
    if fmt == "dot":
        return hasse_dot(ch)
    return "\n".join(f"{c!r}  *  {ym!r}" for ym, c in ch.terms.items()) + "\n"


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qqkit", description=__doc__)
    sp = ap.add_subparsers(dest="command", required=True)

    for name in COMMANDS:
        sub = sp.add_parser(name)
        sub.add_argument("--quiver", required=True, help="builtin name, inline JSON, or @file")
        sub.add_argument("--w", required=True, help='weight vector, e.g. \'{"1": 2}\'')
        sub.add_argument("--params", help='weight parameters, e.g. \'{"1,2": "x(1,1)*q1"}\'')
        sub.add_argument("--max-deg", type=int, default=None)
        sub.add_argument("--format", default="text", choices=FORMATS)
        sub.add_argument("--out")
        if name in ("higgs", "limit", "hasse"):
            sub.add_argument("--higgs", help="substitution JSON")
        if name == "limit":
            sub.add_argument("--limit", required=True, choices=("q1", "q2"))

    sub = sp.add_parser("burge-check")
    sub.add_argument("--r", type=int, default=1)
    sub.add_argument("--i", type=int, required=True)
    sub.add_argument("--j", type=int, required=True)
    sub.add_argument("--max-size", type=int, default=6)
    sub.add_argument("--out")

    sub = sp.add_parser("run")
    sub.add_argument("job", help="job JSON file, or - for stdin")

    sub = sp.add_parser("verify")
    sub.add_argument("--corpus", help="directory of fixture files (bundled by default)")
    sub.add_argument("--out")
    return ap


def _cmd_burge(args) -> int:
    rows = list(burge_rows(args.r, [args.i], [args.j], args.max_size))
    agree = all(row["ok"] for row in rows)
    doc = json.dumps({"r": args.r, "i": args.i, "j": args.j, "agree": agree, "pairs": rows}, indent=1)
    _emit(doc + "\n", args.out)
    return 0 if agree else 1


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        if args.command == "verify":
            report = run_corpus(args.corpus)
            _emit(report.text() + "\n", args.out)
            return 0 if report.ok else 1
        if args.command == "burge-check":
            return _cmd_burge(args)
        if args.command == "run":
            spec = read_json(args.job)
            job = Job.parse(spec)
            unknown = set(spec) - {*JOB_FIELDS, "out"}
            if unknown:
                raise ValidationError(f"unknown job fields: {sorted(unknown)}")
            out = spec.get("out")
            if out is not None and not isinstance(out, str):
                raise ValidationError(f"out must be a file name, got {out!r}")
        else:
            # the flags carry the job fields' names; w, params and higgs hold JSON text
            job = Job.parse({
                key: json.loads(v) if key in ("w", "params", "higgs") and v is not None else v
                for key, v in vars(args).items() if key in JOB_FIELDS
            })
            out = args.out
        _emit(_render(job, job.run()), out)
        return 0
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except PoleError as exc:
        print(f"pole error: {exc}", file=sys.stderr)
        return 3
    except (CollidingArguments, InvalidPit) as exc:
        print(f"colliding arguments: {exc}", file=sys.stderr)
        return 4
    except YCollision as exc:
        print(f"specialization collision: {exc}", file=sys.stderr)
        return 5
    except NonIntegerLimit as exc:
        print(f"non-integer limit: {exc}", file=sys.stderr)
        return 6
    except (PathInconsistency, NonTermination) as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 7
    except (json.JSONDecodeError, OSError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
