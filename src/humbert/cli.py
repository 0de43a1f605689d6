"""Command-line front end.

Commands: cohen, hurwitz, classnum, forms, hdn, verify, kronecker, selfcheck.
Exit codes: 0 success / everything verified, 1 mathematical mismatch,
2 usage or configuration error (including an input past a size bound),
3 an internal cross-check failed, 141 stdout closed early (broken pipe).
Each printing command hands ``emit`` one stream of row tuples; rationals are
"p/q" strings, never decimals, in every output format.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
from fractions import Fraction

from . import __version__, arith, bqf, genus, relations
from .qseries import cohen_coefficients
from .shimura import ShimuraLevel, weighted_class_number

SELFCHECK_D0 = (10, 15, 21, 33)


# ---------------------------------------------------------------------------
# class-number cache: --cache and $HUMBERT_CACHE are accepted and do nothing


def load_cache(path: str, class_numbers) -> None:
    """Does nothing: only a hook of bench/tracer.py until ROADMAP item 1 drops cli.cache_*."""


def save_cache(path: str, class_numbers) -> None:
    """Does nothing: only a hook of bench/tracer.py until ROADMAP item 1 drops cli.cache_*."""


# ---------------------------------------------------------------------------
# output


def emit(args, command: str, params: dict, columns: list[str], rows, line, head=(), tail=(),
         all_match: bool = True, extra: dict | None = None) -> None:
    """Print ``rows``, tuples of ints, bools and strs in ``columns`` order, read
    once.  text: the ``head`` lines, ``line(row)`` per row, the ``tail`` lines,
    each ending in a newline.  csv: the columns, the rows.  json: the text of
    ``json.dumps(doc, sort_keys=True)``, each row an object keyed by ``columns``."""
    if args.format == "json":
        import json

        doc = {"command": command, "params": params, "rows": _json_rows(columns, rows),
               "all_match": all_match}
        doc.update(extra or {})
        encode = json.JSONEncoder(sort_keys=True).encode
        for i, key in enumerate(sorted(doc)):
            sys.stdout.write(f"{', ' if i else '{'}{encode(key)}: ")
            sys.stdout.writelines(doc[key] if key == "rows" else [encode(doc[key])])
        sys.stdout.write("}\n")
    elif args.format == "csv":
        import csv

        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
    else:
        sys.stdout.writelines(itertools.chain(head, map(line, rows), tail))


def _json_rows(columns: list[str], rows):
    """The json array of ``rows``, each as ``json.dumps(dict(zip(columns, row)),
    sort_keys=True)``, 256 rows at a time: one map encodes each column whose
    cells share a type, and one template with the keys sorted makes each object."""
    from json.encoder import encode_basestring_ascii as string

    cell = {bool: ("false", "true").__getitem__, int: int.__repr__, str: string}
    order = sorted(range(len(columns)), key=columns.__getitem__)
    template = "{%s}" % ", ".join(string(columns[i]).replace("%", "%%") + ": %s" for i in order)
    yield "["
    rows, separator = iter(rows), ""
    while block := list(itertools.islice(rows, 256)):
        cells = []
        for column in zip(*block):
            kinds = set(map(type, column))
            cells.append(map(cell[kinds.pop()], column) if len(kinds) == 1
                         else [cell[type(value)](value) for value in column])
        yield separator + ", ".join(map(template.__mod__, zip(*map(cells.__getitem__, order))))
        separator = ", "
    yield "]"


def _value_line(row) -> str:
    # the text of a one-value command: its last cell
    return f"{row[-1]}\n"


# ---------------------------------------------------------------------------
# commands


def cmd_cohen(args) -> int:
    coeffs = cohen_coefficients(args.nmax)
    emit(args, "cohen", {"nmax": args.nmax}, ["n", "a_n"], enumerate(coeffs), "%s %s\n".__mod__,
         extra={"coefficients": coeffs})
    return 0


def cmd_hurwitz(args) -> int:
    value = str(bqf.hurwitz(args.n))
    emit(args, "hurwitz", {"n": args.n}, ["n", "H"], [(args.n, value)], _value_line)
    return 0


def cmd_classnum(args) -> int:
    value = bqf.class_number(args.d)
    emit(args, "classnum", {"d": args.d}, ["d", "h"], [(args.d, value)], _value_line)
    return 0


def _form_line(row) -> str:
    return ("D0=%s form=(%s,%s,%s) kind=%s chars=%s D=%s N=%s ambiguous=%s |W|=%s%s\n"
            % (*row[:10], "" if row[10] else "  [D=1: relation not applicable]"))


def cmd_forms(args) -> int:
    emit(args, "forms", {"d0": args.d0},
         ["D0", "a", "b", "c", "kind", "chars", "D", "N", "ambiguous", "W", "relation_applies"],
         ((f.d0, f.form.a, f.form.b, f.form.c, f.kind,
           ";".join(f"{p}:{f.chars[p]}" for p in sorted(f.chars)), f.D, f.N, f.ambiguous,
           genus.atkin_lehner_group_order(f), f.D > 1) for f in genus.eligible_forms(args.d0)),
         _form_line)
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
         [(args.D, args.N, m, value)], _value_line)
    return 0


def _ratio(p: int, q: int) -> str:
    """str(Fraction(p, q)) for q >= 1, without making the Fraction."""
    g = math.gcd(p, q)
    return f"{p // g}" if g == q else f"{p // g}/{q // g}"


def _counterexample(report: relations.VerificationReport) -> dict:
    """The first mismatching row and the nonzero terms of its lattice sum,
    with the rationals as "p/q" strings."""
    row = report.rows.first_mismatch()
    return {"D0": row.d0, "a": row.form.a, "b": row.form.b, "c": row.form.c, "n": row.n,
            "lhs": str(row.lhs), "rhs": str(row.rhs), "a_n": row.a_n,
            "terms": [{"u": u, "v": v, "m": str(m), "H": str(h)}
                      for u, v, m, h in report.counterexample.terms]}


def _verify_rows(blocks):
    # (D0, a, b, c, D, N, n, lhs, rhs, match) of each row, the sides as "p/q"
    # strings; a matching row prints one string for both
    for block in blocks:
        f, denominator = block.form, block.denominator
        form = (f.d0, f.form.a, f.form.b, f.form.c, f.D, f.N)
        for n, numerator, target, match in zip(block.n, block.numerators, block.targets,
                                               block.match):
            rhs = _ratio(target, denominator)
            yield (*form, n, rhs if match else _ratio(numerator, denominator), rhs, match)


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
    skipped, all_match = report.skipped, report.all_match
    dump = None if all_match else _counterexample(report)
    emit(args, "verify", {"d0": args.d0, "nmax": args.nmax, "jobs": args.jobs},
         ["D0", "a", "b", "c", "D", "N", "n", "lhs", "rhs", "match"],
         _verify_rows(report.rows.blocks),
         "D0=%s form=(%s,%s,%s) D=%s N=%s n=%s lhs=%s rhs=%s match=%s\n".__mod__,
         [f"skipped form=({s.form.a},{s.form.b},{s.form.c}) D={s.D} N={s.N}: {s.reason}\n"
          for s in skipped],
         [f"all_match={all_match} rows={len(report.rows)} skipped={len(skipped)}\n"], all_match,
         {"skipped": [{"a": s.form.a, "b": s.form.b, "c": s.form.c, "reason": s.reason}
                      for s in skipped],
          **({} if dump is None else {"counterexample": dump})})
    if dump is None:
        return 0
    # the json document holds the dump; a csv document has no room for it
    if args.format != "json":
        lines = ["counterexample: D0={D0} form=({a},{b},{c}) n={n} lhs={lhs} rhs={rhs} "
                 "a_n={a_n}".format_map(dump), "nonzero terms of the lattice sum:",
                 *("  u={u} v={v} m={m} H={H}".format_map(term) for term in dump["terms"])]
        print(*lines, sep="\n", file=sys.stdout if args.format == "text" else sys.stderr)
    return 1


def cmd_kronecker(args) -> int:
    rows = relations.verify_kronecker(args.nmax)
    (columns,) = rows.blocks
    all_match = rows.first_mismatch() is None
    # the sides as "p/q" strings; a matching row prints 2*sigma(n) for both
    emit(args, "kronecker", {"nmax": args.nmax}, ["n", "lhs", "rhs", "match"],
         ((n, rhs if match else _ratio(lhs12, 12), rhs, match)
          for n, lhs12, rhs, match in zip(itertools.count(1), columns.lhs12,
                                          map(str, columns.rhs), columns.match)),
         "n=%s lhs=%s rhs=%s match=%s\n".__mod__, tail=[f"all_match={all_match}\n"],
         all_match=all_match)
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
                   help="accepted for compatibility (as is $HUMBERT_CACHE); "
                        "no file is read or written")
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
