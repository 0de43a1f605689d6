"""Command-line front end.

Commands: cohen, hurwitz, classnum, forms, hdn, verify, kronecker, selfcheck.
Exit codes: 0 success / everything verified, 1 mathematical mismatch,
2 usage or configuration error (including an input past a size bound),
3 an internal cross-check failed, 141 stdout closed early (broken pipe).
Rational values are printed as "p/q" strings, never as decimals, in every
output format.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from array import array
from fractions import Fraction

from . import __version__, arith, bqf, genus, relations
from .qseries import cohen_coefficients
from .shimura import ShimuraLevel, weighted_class_number

CACHE_ENV_VAR = "HUMBERT_CACHE"
CACHE_HEADER = "humbert-classnum-cache"
CACHE_VERSION = 1

SELFCHECK_D0 = (10, 15, 21, 33)


# ---------------------------------------------------------------------------
# class-number cache file


def load_cache(path: str, class_numbers: array) -> None:
    """Check a class-number cache file against the run's table of h(-k)
    (``bqf.class_number_table``); entries that disagree are reported and
    dropped, and no entry is ever used for a result.  A corrupt file is
    ignored entirely."""
    if not os.path.exists(path):
        return
    entries: dict[int, int] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().split()
            if len(header) != 2 or header[0] != CACHE_HEADER or int(header[1]) != CACHE_VERSION:
                raise ValueError("bad header")
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                d_str, h_str = line.split()
                d, h = int(d_str), int(h_str)
                if d >= 0 or h < 0:
                    raise ValueError("bad entry")
                entries[d] = h
    except (OSError, ValueError) as exc:
        print(f"warning: ignoring corrupt cache file {path}: {exc}", file=sys.stderr)
        return
    for d, h in sorted(entries.items(), reverse=True):
        if -d < len(class_numbers) and class_numbers[-d] != h:
            print(f"warning: dropping cache entry h({d}) = {h}: the class number is "
                  f"{class_numbers[-d]}", file=sys.stderr)


def save_cache(path: str, class_numbers: array) -> None:
    """Atomically write the run's class numbers h(-k) (write-temp-then-rename)."""
    import tempfile

    directory = os.path.dirname(os.path.abspath(path))
    tmp = ""
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".humbert-cache-")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(f"{CACHE_HEADER} {CACHE_VERSION}\n")
            for k in range(len(class_numbers) - 1, 0, -1):
                if class_numbers[k]:
                    fh.write(f"{-k} {class_numbers[k]}\n")
        os.replace(tmp, path)
    except OSError as exc:
        print(f"warning: could not write cache file {path}: {exc}", file=sys.stderr)
        if tmp and os.path.exists(tmp):
            os.unlink(tmp)


def _cache_path(args) -> str | None:
    return getattr(args, "cache", None) or os.environ.get(CACHE_ENV_VAR)


# ---------------------------------------------------------------------------
# output


def emit(args, command: str, params: dict, columns: list[str], rows, text,
         all_match: bool = True, extra: dict | None = None) -> None:
    """Print a result as json or csv (``rows``: dicts keyed by ``columns``) or
    as the lines of ``text``; only the iterable the format needs is consumed.

    The json document is the text of ``json.dumps(doc, sort_keys=True)``,
    written one top-level key and one row at a time, so no list of rows is
    held."""
    if args.format == "json":
        import json

        doc = {"command": command, "params": params, "rows": None, "all_match": all_match}
        doc.update(extra or {})
        encode = json.JSONEncoder(sort_keys=True).encode
        write = sys.stdout.write
        for i, key in enumerate(sorted(doc)):
            write(f"{', ' if i else '{'}{encode(key)}: ")
            if key == "rows":
                write("[")
                for j, row in enumerate(rows):
                    write(f"{', ' if j else ''}{encode(row)}")
                write("]")
            else:
                write(encode(doc[key]))
        write("}\n")
    elif args.format == "csv":
        import csv

        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([row[col] for col in columns] for row in rows)
    else:
        sys.stdout.writelines(f"{line}\n" for line in text)


# ---------------------------------------------------------------------------
# commands


def cmd_cohen(args) -> int:
    coeffs = cohen_coefficients(args.nmax)
    emit(args, "cohen", {"nmax": args.nmax}, ["n", "a_n"],
         ({"n": n, "a_n": a} for n, a in enumerate(coeffs)),
         (f"{n} {a}" for n, a in enumerate(coeffs)),
         extra={"coefficients": coeffs})
    return 0


def cmd_hurwitz(args) -> int:
    value = str(bqf.hurwitz(args.n))
    emit(args, "hurwitz", {"n": args.n}, ["n", "H"], [{"n": args.n, "H": value}], [value])
    return 0


def cmd_classnum(args) -> int:
    value = bqf.class_number(args.d)
    emit(args, "classnum", {"d": args.d}, ["d", "h"], [{"d": args.d, "h": value}], [value])
    return 0


def _chars_str(form: genus.EligibleForm) -> str:
    return ";".join(f"{p}:{form.chars[p]}" for p in sorted(form.chars))


def cmd_forms(args) -> int:
    rows = [{
        "D0": f.d0, "a": f.form.a, "b": f.form.b, "c": f.form.c,
        "kind": f.kind, "chars": _chars_str(f), "D": f.D, "N": f.N,
        "ambiguous": f.ambiguous, "W": genus.atkin_lehner_group_order(f),
        "relation_applies": f.D > 1,
    } for f in genus.eligible_forms(args.d0)]
    emit(args, "forms", {"d0": args.d0},
         ["D0", "a", "b", "c", "kind", "chars", "D", "N", "ambiguous", "W", "relation_applies"], rows,
         (f"D0={r['D0']} form=({r['a']},{r['b']},{r['c']}) kind={r['kind']} "
          f"chars={r['chars']} D={r['D']} N={r['N']} ambiguous={r['ambiguous']} "
          f"|W|={r['W']}" + ("" if r["relation_applies"] else "  [D=1: relation not applicable]")
          for r in rows))
    return 0


def rational(text: str) -> Fraction:
    # argparse turns ValueError and TypeError into a usage error (exit 2),
    # but Fraction("1/0") raises ZeroDivisionError
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from None


def cmd_hdn(args) -> int:
    level = ShimuraLevel(args.D, args.N)
    value = str(weighted_class_number(level, args.m))
    m = str(args.m)
    emit(args, "hdn", {"D": args.D, "N": args.N, "m": m}, ["D", "N", "m", "H"],
         [{"D": args.D, "N": args.N, "m": m, "H": value}], [value])
    return 0


def _print_counterexample(report: relations.VerificationReport) -> None:
    row = next(r for r in report.rows if not r.match)
    print(f"counterexample: D0={row.d0} form=({row.form.a},{row.form.b},{row.form.c}) "
          f"n={row.n} lhs={row.lhs} rhs={row.rhs} a_n={row.a_n}")
    print("nonzero terms of the lattice sum:")
    for u, v, m, h in report.counterexample.terms:
        print(f"  u={u} v={v} m={m} H={h}")


def cmd_verify(args) -> int:
    only_form = None
    if args.form:
        try:
            a, b, c = (int(part) for part in args.form.split(","))
        except ValueError:
            print("error: --form expects three comma-separated integers", file=sys.stderr)
            return 2
        only_form = bqf.BQF(a, b, c)
    report = relations.verify_relation(args.d0, args.nmax, only_form)
    rows, skipped, all_match = report.rows, report.skipped, report.all_match
    text = itertools.chain(
        (f"skipped form=({s.form.a},{s.form.b},{s.form.c}) D={s.D} N={s.N}: {s.reason}"
         for s in skipped),
        (f"D0={r.d0} form=({r.form.a},{r.form.b},{r.form.c}) D={r.D} N={r.N} "
         f"n={r.n} lhs={r.lhs} rhs={r.rhs} match={r.match}" for r in rows),
        [f"all_match={all_match} rows={len(rows)} skipped={len(skipped)}"])
    emit(args, "verify", {"d0": args.d0, "nmax": args.nmax, "jobs": args.jobs},
         ["D0", "a", "b", "c", "D", "N", "n", "lhs", "rhs", "match"],
         ({"D0": r.d0, "a": r.form.a, "b": r.form.b, "c": r.form.c,
           "D": r.D, "N": r.N, "n": r.n, "lhs": str(r.lhs),
           "rhs": str(r.rhs), "match": r.match} for r in rows),
         text, all_match,
         {"skipped": [{"a": s.form.a, "b": s.form.b, "c": s.form.c, "reason": s.reason}
                      for s in skipped]})
    cache = _cache_path(args)
    if cache:
        load_cache(cache, report.class_numbers)
        save_cache(cache, report.class_numbers)
    if not all_match:
        _print_counterexample(report)
        return 1
    return 0


def cmd_kronecker(args) -> int:
    rows = relations.verify_kronecker(args.nmax)
    all_match = all(r.match for r in rows)
    emit(args, "kronecker", {"nmax": args.nmax}, ["n", "lhs", "rhs", "match"],
         ({"n": r.n, "lhs": str(r.lhs), "rhs": str(r.rhs), "match": r.match}
          for r in rows),
         itertools.chain((f"n={r.n} lhs={r.lhs} rhs={r.rhs} match={r.match}"
                          for r in rows), [f"all_match={all_match}"]),
         all_match)
    return 0 if all_match else 1


def cmd_selfcheck(args) -> int:
    import random

    from . import quat

    d0_list = [args.d0] if args.d0 is not None else list(SELFCHECK_D0)
    rng = random.Random(20240901)
    failures = 0
    for d0 in d0_list:
        for form in genus.eligible_forms(d0):
            if form.D == 1:
                continue
            problems, worst = quat.check_order(form, rng)
            status = "FAIL" if problems else "ok"
            detail = "; ".join(problems) or f"max period residual {worst:.3e}"
            print(f"selfcheck D0={d0} form=({form.form.a},{form.form.b},{form.form.c}) "
                  f"kind={form.kind}: {status} ({detail})")
            failures += 1 if problems else 0
    print(f"selfcheck: {'all passed' if failures == 0 else f'{failures} failure(s)'}")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="humbert",
        description="Exact class-number relation calculator and verifier.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p = sub.add_parser("cohen", help="coefficients of the weight-5/2 Cohen-type series")
    p.add_argument("--nmax", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_cohen)

    p = sub.add_parser("hurwitz", help="Hurwitz class number H(n)")
    p.add_argument("n", type=int)
    add_format(p)
    p.set_defaults(func=cmd_hurwitz)

    p = sub.add_parser("classnum", help="class number h(d) for a negative discriminant")
    p.add_argument("d", type=int)
    add_format(p)
    p.set_defaults(func=cmd_classnum)

    p = sub.add_parser("forms", help="eligible forms of discriminant -16*D0 with characters")
    p.add_argument("--d0", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_forms)

    p = sub.add_parser("hdn", help="weighted class number of a Shimura level at m")
    p.add_argument("D", type=int)
    p.add_argument("N", type=int)
    p.add_argument("m", type=rational)
    add_format(p)
    p.set_defaults(func=cmd_hdn)

    p = sub.add_parser("verify", help="verify the class-number relation for a D0")
    p.add_argument("--d0", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--form", type=str, default=None, metavar="a,b,c",
                   help="restrict to the GL2-class of this form")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility; rows are computed in order in one thread")
    p.add_argument("--cache", type=str, default=None,
                   help=f"class-number cache file (or ${CACHE_ENV_VAR})")
    add_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("kronecker", help="verify the Hurwitz-Kronecker relation up to nmax")
    p.add_argument("--nmax", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_kronecker)

    p = sub.add_parser("selfcheck", help="run the quaternion-order property suite")
    p.add_argument("--d0", type=int, default=None)
    p.set_defaults(func=cmd_selfcheck)

    return parser


_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    # One parser per process, built on the first call: parse_args leaves it
    # unchanged.  It holds the cmd_* functions bound when it was built.
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except arith.InternalCheckError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # The reader closed the pipe (`humbert ... | head`): point stdout at
        # /dev/null so the flush at exit stays quiet, and report SIGPIPE.
        import signal

        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 128 + signal.SIGPIPE


if __name__ == "__main__":
    sys.exit(main())
