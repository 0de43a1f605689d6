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
# A cache file is this line, then h(-k) for k = 0..X as 8-byte signed
# little-endian fields (bqf.class_number_table(X)).
CACHE_HEADER = b"humbert-classnum-cache 2\n"

SELFCHECK_D0 = (10, 15, 21, 33)


# ---------------------------------------------------------------------------
# class-number cache file; verify reads and writes none: --cache and
# $HUMBERT_CACHE are accepted and do nothing


def _little_endian(fields: array) -> array:
    """``fields`` on a little-endian host, else a byte-swapped copy: the
    same array either way round between memory and a cache file."""
    if sys.byteorder == "big":
        fields = array(fields.typecode, fields)
        fields.byteswap()
    return fields


def load_cache(path: str, class_numbers: array) -> None:
    """Check a class-number cache file against a table of h(-k)
    (``bqf.class_number_table``); entries that disagree are reported and
    dropped, and no entry is ever used for a result.  A file with another
    header (such as the text format of version 1) or a partial field is
    ignored entirely, and entries past the table are not checked.  No command
    calls it; it stays while the benchmark's tracer hooks it (ROADMAP item 1)."""
    if not os.path.exists(path):
        return
    try:
        with open(path, "rb") as fh:
            if fh.readline() != CACHE_HEADER:
                raise ValueError("bad header")
            body = fh.read()
        if len(body) % 8:
            raise ValueError("partial entry")
    except (OSError, ValueError) as exc:
        print(f"warning: ignoring corrupt cache file {path}: {exc}", file=sys.stderr)
        return
    table = _little_endian(class_numbers).tobytes()
    common = min(len(body), len(table))
    if body[:common] == table[:common]:
        return
    cached = _little_endian(array("q", body[:common]))
    for k, (h, true_h) in enumerate(zip(cached, class_numbers)):
        if h != true_h:
            print(f"warning: dropping cache entry h({-k}) = {h}: the class number is "
                  f"{true_h}", file=sys.stderr)


def save_cache(path: str, class_numbers: array) -> None:
    """Atomically write the class numbers h(-k), 0 <= k <= X, in the
    ``CACHE_HEADER`` format (write-temp-then-rename), with the mode that
    ``open(path, "wb")`` would give a new file: 0o666 less the umask.  No
    command calls it; it stays while the benchmark's tracer hooks it (ROADMAP
    item 1)."""
    import tempfile

    directory = os.path.dirname(os.path.abspath(path))
    tmp = ""
    # mkstemp makes the file 0o600, and the rename keeps that mode
    umask = os.umask(0)
    os.umask(umask)
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".humbert-cache-")
        with os.fdopen(fd, "wb") as fh:
            fh.write(CACHE_HEADER + _little_endian(class_numbers).tobytes())
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except OSError as exc:
        print(f"warning: could not write cache file {path}: {exc}", file=sys.stderr)
        if tmp and os.path.exists(tmp):
            os.unlink(tmp)


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


def _counterexample(report: relations.VerificationReport) -> dict:
    """The first mismatching row and the nonzero terms of its lattice sum,
    with the rationals as "p/q" strings."""
    row = next(r for r in report.rows if not r.match)
    return {"D0": row.d0, "a": row.form.a, "b": row.form.b, "c": row.form.c, "n": row.n,
            "lhs": str(row.lhs), "rhs": str(row.rhs), "a_n": row.a_n,
            "terms": [{"u": u, "v": v, "m": str(m), "H": str(h)}
                      for u, v, m, h in report.counterexample.terms]}


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
    dump = None if all_match else _counterexample(report)
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
                   help=f"accepted for compatibility (as is ${CACHE_ENV_VAR}); "
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
