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


def _verify_sides(blocks):
    # (form, n, lhs, rhs, match) of each row, the sides as "p/q" strings; a
    # matching row prints one string for both
    for block in blocks:
        form, denominator = block.form, block.denominator
        for n, numerator, target, match in zip(block.n, block.numerators, block.targets,
                                               block.match):
            rhs = _ratio(target, denominator)
            yield form, n, rhs if match else _ratio(numerator, denominator), rhs, match


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
    blocks, skipped, all_match = report.rows.blocks, report.skipped, report.all_match
    dump = None if all_match else _counterexample(report)
    text = itertools.chain(
        (f"skipped form=({s.form.a},{s.form.b},{s.form.c}) D={s.D} N={s.N}: {s.reason}"
         for s in skipped),
        (f"D0={f.d0} form=({f.form.a},{f.form.b},{f.form.c}) D={f.D} N={f.N} "
         f"n={n} lhs={lhs} rhs={rhs} match={match}"
         for f, n, lhs, rhs, match in _verify_sides(blocks)),
        [f"all_match={all_match} rows={len(report.rows)} skipped={len(skipped)}"])
    emit(args, "verify", {"d0": args.d0, "nmax": args.nmax, "jobs": args.jobs},
         ["D0", "a", "b", "c", "D", "N", "n", "lhs", "rhs", "match"],
         ({"D0": f.d0, "a": f.form.a, "b": f.form.b, "c": f.form.c, "D": f.D, "N": f.N,
           "n": n, "lhs": lhs, "rhs": rhs, "match": match}
          for f, n, lhs, rhs, match in _verify_sides(blocks)),
         text, all_match,
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


def _kronecker_sides(columns: relations.KroneckerColumns):
    # (n, lhs, rhs, match) of each row, the sides as "p/q" strings; a
    # matching row prints 2*sigma(n) for both
    for n, lhs12, rhs, match in zip(itertools.count(1), columns.lhs12, columns.rhs, columns.match):
        rhs = str(rhs)
        yield n, rhs if match else _ratio(lhs12, 12), rhs, match


def cmd_kronecker(args) -> int:
    rows = relations.verify_kronecker(args.nmax)
    (columns,) = rows.blocks
    all_match = rows.first_mismatch() is None
    emit(args, "kronecker", {"nmax": args.nmax}, ["n", "lhs", "rhs", "match"],
         ({"n": n, "lhs": lhs, "rhs": rhs, "match": match}
          for n, lhs, rhs, match in _kronecker_sides(columns)),
         itertools.chain((f"n={n} lhs={lhs} rhs={rhs} match={match}"
                          for n, lhs, rhs, match in _kronecker_sides(columns)),
                         [f"all_match={all_match}"]),
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
