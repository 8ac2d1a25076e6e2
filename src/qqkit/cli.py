"""Command-line surface.

Subcommands: expand, higgs, limit, hasse, affine-expand, burge-check,
run (a JSON job file), and verify (replay the bundled identity corpus).
The five computing subcommands and ``run`` build one job dict and hand it
to ``qqkit.job.Job``; ``hasse`` is the dot rendering of the character.
Exit codes: 0 success, 1 verify failures, 2 validation (any malformed
input, reported as one ``validation error:`` line), 3 pole,
4 colliding arguments, 5 specialization collision, 6 non-integer limit,
7 inconsistency or blow-up, 141 (128 + SIGPIPE) the reader closed stdout.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterable
from functools import cache

from .errors import QQError, ValidationError
from .job import COMMANDS, FORMATS, JOB_FIELDS, Job, decode_json, read_json
from .render import json_stream, render
from .verify import burge_rows, run_corpus


def _emit(chunks: Iterable[str], out: str | None):
    """Write a document, given as its pieces in order, to the file ``out`` or to stdout."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()  # a closed pipe raises here, inside main, and not at exit


@cache  # built once per process: building one costs far more than a parse, and leaves reference cycles
def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qqkit", description=__doc__)
    sp = ap.add_subparsers(dest="command", required=True)

    for name in COMMANDS:
        sub = sp.add_parser(name)
        sub.add_argument("--quiver", required=True, help="builtin name, inline JSON, or @file")
        sub.add_argument("--w", required=True, help='weight vector, e.g. \'{"1": 2}\'')
        sub.add_argument("--params", help='weight parameters, e.g. \'{"1,2": "x(1,1)*q1"}\'')
        sub.add_argument("--max-deg", type=int, default=None)
        sub.add_argument("--format", choices=FORMATS)  # no default here: Job.parse picks it by command
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
    """Stream the document {"r", "i", "j", "pairs": [...], "agree"} row by row."""
    rows = burge_rows(args.r, [args.i], [args.j], args.max_size)  # a bad argument raises here, before any output
    agree = True

    def checked():
        nonlocal agree
        for row in rows:
            agree = agree and row["ok"]
            yield row

    head = {"r": args.r, "i": args.i, "j": args.j}
    _emit(json_stream(head, "pairs", checked(), lambda: {"agree": agree}), args.out)
    return 0 if agree else 1


def _fail(exc: QQError) -> int:
    print(f"{exc.label}: {exc}", file=sys.stderr)
    return exc.exit_code


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        if args.command == "verify":
            report = run_corpus(args.corpus)
            _emit([report.text() + "\n"], args.out)
            return 0 if report.ok else 1
        if args.command == "burge-check":
            return _cmd_burge(args)
        if args.command == "run":
            spec = read_json(args.job)
        else:  # the flags carry the job fields' names; w, params and higgs hold JSON text
            spec = {
                key: decode_json(v) if key in ("w", "params", "higgs") and v is not None else v
                for key, v in vars(args).items() if key in JOB_FIELDS
            }
        job = Job.parse(spec)  # type and shape errors first, then the fields only a job file can get wrong
        unknown = set(spec).difference(JOB_FIELDS)
        if unknown:
            raise ValidationError(f"unknown job fields: {sorted(unknown)}")
        out = spec.get("out")
        if out is not None and not isinstance(out, str):
            raise ValidationError(f"out must be a file name, got {out!r}")
        _emit([render(job.run(), job.format)], out)
        return 0
    except QQError as exc:
        return _fail(exc)
    except BrokenPipeError:  # the reader closed stdout: no error, and the flush at exit goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except OSError as exc:  # --out
        return _fail(ValidationError(exc))


if __name__ == "__main__":
    sys.exit(main())
