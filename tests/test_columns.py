"""Rows kept as integer columns: the lazy ``relations.Rows`` sequence, the
one ``p/q`` formatter of the CLI, and every printing command's rows, printed
by ``cli.emit`` from row tuples, against an oracle.

The oracle is the rendering the CLI used before it read the columns:
``str(row.lhs)`` and ``str(row.rhs)`` of each row object, one dict and one
f-string per row, and one json (``json.dumps(sort_keys=True)``) or csv
(``csv.writer``) document built in one piece."""

import argparse
import contextlib
import csv
import io
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from humbert import bqf, cli, genus, relations
from humbert.qseries import cohen_coefficients
from humbert.relations import Rows, verify_kronecker, verify_relation
from humbert.shimura import ShimuraLevel, weighted_class_number
from test_cli import plant_cohen_mismatch, run

FORMATS = ("text", "json", "csv")


def document(fmt, command, params, columns, rows, lines, all_match, extra=None):
    # the document cli.emit prints, built in one piece from lists
    if fmt == "json":
        doc = {"command": command, "params": params, "rows": rows, "all_match": all_match}
        return json.dumps({**doc, **(extra or {})}, sort_keys=True) + "\n"
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([row[column] for column in columns] for row in rows)
        return out.getvalue()
    return "".join(f"{line}\n" for line in lines)


def kronecker_oracle(nmax, fmt):
    rows = list(verify_kronecker(nmax))
    all_match = all(r.match for r in rows)
    out = document(fmt, "kronecker", {"nmax": nmax}, ["n", "lhs", "rhs", "match"],
                   [{"n": r.n, "lhs": str(r.lhs), "rhs": str(r.rhs), "match": r.match}
                    for r in rows],
                   [f"n={r.n} lhs={r.lhs} rhs={r.rhs} match={r.match}" for r in rows]
                   + [f"all_match={all_match}"], all_match)
    return 0 if all_match else 1, out, ""


def verify_oracle(d0, nmax, fmt):
    report = verify_relation(d0, nmax)
    rows, skipped = list(report.rows), report.skipped
    all_match = all(r.match for r in rows)
    dump = None
    if not all_match:
        row = next(r for r in rows if not r.match)
        dump = {"D0": row.d0, "a": row.form.a, "b": row.form.b, "c": row.form.c, "n": row.n,
                "lhs": str(row.lhs), "rhs": str(row.rhs), "a_n": row.a_n,
                "terms": [{"u": u, "v": v, "m": str(m), "H": str(h)}
                          for u, v, m, h in report.counterexample.terms]}
    lines = [f"skipped form=({s.form.a},{s.form.b},{s.form.c}) D={s.D} N={s.N}: {s.reason}"
             for s in skipped]
    lines += [f"D0={r.d0} form=({r.form.a},{r.form.b},{r.form.c}) D={r.D} N={r.N} "
              f"n={r.n} lhs={r.lhs} rhs={r.rhs} match={r.match}" for r in rows]
    lines.append(f"all_match={all_match} rows={len(rows)} skipped={len(skipped)}")
    extra = {"skipped": [{"a": s.form.a, "b": s.form.b, "c": s.form.c, "reason": s.reason}
                         for s in skipped]}
    if dump is not None:
        extra["counterexample"] = dump
    out = document(fmt, "verify", {"d0": d0, "nmax": nmax, "jobs": 1},
                   ["D0", "a", "b", "c", "D", "N", "n", "lhs", "rhs", "match"],
                   [{"D0": r.d0, "a": r.form.a, "b": r.form.b, "c": r.form.c, "D": r.D,
                     "N": r.N, "n": r.n, "lhs": str(r.lhs), "rhs": str(r.rhs),
                     "match": r.match} for r in rows],
                   lines, all_match, extra)
    if dump is None:
        return 0, out, ""
    text = "".join(f"{line}\n" for line in [
        "counterexample: D0={D0} form=({a},{b},{c}) n={n} lhs={lhs} rhs={rhs} "
        "a_n={a_n}".format_map(dump), "nonzero terms of the lattice sum:",
        *("  u={u} v={v} m={m} H={H}".format_map(term) for term in dump["terms"])])
    return 1, out + text * (fmt == "text"), text * (fmt == "csv")


def cohen_oracle(nmax, fmt):
    coeffs = cohen_coefficients(nmax)
    return 0, document(fmt, "cohen", {"nmax": nmax}, ["n", "a_n"],
                       [{"n": n, "a_n": a} for n, a in enumerate(coeffs)],
                       [f"{n} {a}" for n, a in enumerate(coeffs)], True,
                       {"coefficients": coeffs}), ""


def value_oracle(fmt, command, params, columns, row):
    # a command that prints one row, and in text only its last value
    return 0, document(fmt, command, params, columns, [dict(zip(columns, row))],
                       [row[-1]], True), ""


def forms_oracle(d0, fmt):
    rows = [{"D0": f.d0, "a": f.form.a, "b": f.form.b, "c": f.form.c, "kind": f.kind,
             "chars": ";".join(f"{p}:{f.chars[p]}" for p in sorted(f.chars)), "D": f.D,
             "N": f.N, "ambiguous": f.ambiguous, "W": genus.atkin_lehner_group_order(f),
             "relation_applies": f.D > 1} for f in genus.eligible_forms(d0)]
    lines = [f"D0={r['D0']} form=({r['a']},{r['b']},{r['c']}) kind={r['kind']} "
             f"chars={r['chars']} D={r['D']} N={r['N']} ambiguous={r['ambiguous']} "
             f"|W|={r['W']}" + ("" if r["relation_applies"] else "  [D=1: relation not applicable]")
             for r in rows]
    return 0, document(fmt, "forms", {"d0": d0},
                       ["D0", "a", "b", "c", "kind", "chars", "D", "N", "ambiguous", "W",
                        "relation_applies"], rows, lines, True), ""


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("nmax", [0, 12, 300])
def test_cohen_prints_what_its_oracle_prints(capsys, nmax, fmt):
    assert run(capsys, "cohen", "--nmax", str(nmax), "--format", fmt) == cohen_oracle(nmax, fmt)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("n", [0, 3, 12, 1000])
def test_hurwitz_prints_what_its_oracle_prints(capsys, n, fmt):
    got = run(capsys, "hurwitz", str(n), "--format", fmt)
    assert got == value_oracle(fmt, "hurwitz", {"n": n}, ["n", "H"], (n, str(bqf.hurwitz(n))))


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("d", [-3, -4, -160, -999])
def test_classnum_prints_what_its_oracle_prints(capsys, d, fmt):
    got = run(capsys, "classnum", str(d), "--format", fmt)
    assert got == value_oracle(fmt, "classnum", {"d": d}, ["d", "h"], (d, bqf.class_number(d)))


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("d0", [1, 30, 210])
def test_forms_prints_what_its_oracle_prints(capsys, d0, fmt):
    assert run(capsys, "forms", "--d0", str(d0), "--format", fmt) == forms_oracle(d0, fmt)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("D, N, m", [(10, 1, "8"), (6, 5, "3/4"), (15, 2, "7")])
def test_hdn_prints_what_its_oracle_prints(capsys, D, N, m, fmt):
    got = run(capsys, "hdn", str(D), str(N), m, "--format", fmt)
    value = str(weighted_class_number(ShimuraLevel(D, N), Fraction(m)))
    assert got == value_oracle(fmt, "hdn", {"D": D, "N": N, "m": m}, ["D", "N", "m", "H"],
                               (D, N, m, value))


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("nmax", [1, 40, 300])
def test_kronecker_prints_what_its_rows_print(capsys, nmax, fmt):
    got = run(capsys, "kronecker", "--nmax", str(nmax), "--format", fmt)
    assert got == kronecker_oracle(nmax, fmt)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("d0, nmax", [(1, 40), (10, 40), (15, 40), (30, 40), (1155, 8)])
def test_verify_prints_what_its_rows_print(capsys, d0, nmax, fmt):
    got = run(capsys, "verify", "--d0", str(d0), "--nmax", str(nmax), "--format", fmt)
    assert got == verify_oracle(d0, nmax, fmt)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("n", [1, 7, 40])
def test_kronecker_mismatch_prints_what_its_rows_print(capsys, monkeypatch, n, fmt):
    # 2 more in the theta row of n: 12*lhs = 24*sigma(n) + 2, so the lhs
    # (12*sigma(n) + 1)/6 is reduced from twelfths
    real = relations.theta_rows

    def broken(table, shifts, counts, xs):
        rows = real(table, shifts, counts, xs)
        rows[xs.index(4 * n)] += 2
        return rows

    monkeypatch.setattr(relations, "theta_rows", broken)
    got = run(capsys, "kronecker", "--nmax", "40", "--format", fmt)
    assert got == kronecker_oracle(40, fmt)
    assert got[0] == 1 and f"{12 * relations.sigma_table(n)[n] + 1}/6" in got[1]


@pytest.mark.parametrize("fmt", FORMATS)
def test_verify_mismatch_prints_what_its_rows_print(capsys, monkeypatch, fmt):
    # a_1 + 1: row n = 1 of the one form with D > 1 mismatches
    plant_cohen_mismatch(monkeypatch, 1)
    got = run(capsys, "verify", "--d0", "10", "--nmax", "4", "--format", fmt)
    assert got == verify_oracle(10, 4, fmt)
    assert got[0] == 1


@given(st.integers(), st.integers(min_value=1))
@example(0, 1)
@example(0, 12)
@example(-26, 12)
@example(2**70, 3 * 2**65)
def test_ratio_is_str_of_fraction(p, q):
    assert cli._ratio(p, q) == str(Fraction(p, q))


@pytest.mark.parametrize("build", [lambda: verify_kronecker(40),
                                   lambda: verify_relation(15, 40).rows,
                                   lambda: verify_relation(3, 40).rows],
                         ids=["kronecker", "verify-d0-15", "verify-d0-3-empty"])
def test_rows_are_a_sized_indexable_sequence(build):
    rows = build()
    listed = list(rows)
    assert isinstance(rows, Rows)
    assert len(rows) == len(listed) == sum(len(block.match) for block in rows.blocks)
    assert [rows[i] for i in range(-len(rows), len(rows))] == listed * 2
    for i in (len(rows), -len(rows) - 1):
        with pytest.raises(IndexError):
            rows[i]
    with pytest.raises(TypeError):
        rows["0"]
    assert repr(rows) == repr(listed)
    assert rows == build() and rows != listed
    assert rows.first_mismatch() is None


def test_rows_differ_where_a_row_does():
    assert verify_kronecker(40) != verify_kronecker(39)
    assert verify_relation(15, 40).rows != verify_relation(15, 41).rows
    assert verify_relation(15, 40).rows != verify_relation(21, 40).rows


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("argv", [["kronecker", "--nmax", "300"],
                                  ["verify", "--d0", "30", "--nmax", "40"]])
def test_matching_rows_print_without_a_fraction(capsys, monkeypatch, argv, fmt):
    # every Fraction that relations or cli would make, counted
    made = []

    def counted(*args):
        made.append(args)
        return Fraction(*args)

    monkeypatch.setattr(relations, "Fraction", counted)
    monkeypatch.setattr(cli, "Fraction", counted)
    code, out, _ = run(capsys, *argv, "--format", fmt)
    assert code == 0 and out
    assert made == []


# every printing command, in argv form
PRINTING = [["cohen", "--nmax", "12"], ["hurwitz", "12"], ["classnum", "-160"],
            ["forms", "--d0", "30"], ["hdn", "10", "1", "8"],
            ["verify", "--d0", "30", "--nmax", "20"], ["kronecker", "--nmax", "40"]]


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("argv", PRINTING, ids=lambda argv: argv[0])
def test_every_command_hands_emit_row_tuples(capsys, monkeypatch, argv, fmt):
    # each row a tuple of ints, bools and strs, one per column
    real, seen = cli.emit, []

    def checked(args, command, params, columns, rows, *rest, **kwargs):
        def tuples():
            for row in rows:
                assert type(row) is tuple and len(row) == len(columns)
                assert {type(cell) for cell in row} <= {int, bool, str}
                seen.append(row)
                yield row

        real(args, command, params, columns, tuples(), *rest, **kwargs)

    monkeypatch.setattr(cli, "emit", checked)
    code, out, _ = run(capsys, *argv, "--format", fmt)
    assert code == 0 and seen and out


def emitted(fmt, columns, rows, line=None, head=(), tail=()):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.emit(argparse.Namespace(format=fmt), "test", {"p": 1}, columns, rows, line, head,
                 tail)
    return out.getvalue()


# mixed-case names, so that "D" < "D0" < "a" fixes the order of the keys
NAMES = st.text(st.sampled_from("DNaWbn0_%\"\\é"), min_size=1, max_size=4)
CELLS = st.one_of(st.integers(), st.booleans(),
                  st.text(st.sampled_from("ab\"\\/%{}\n\té€\U0001d11e"), max_size=5), st.text())


@st.composite
def tables(draw):
    columns = draw(st.lists(NAMES, min_size=1, max_size=6, unique=True))
    rows = draw(st.lists(st.tuples(*[CELLS] * len(columns)), max_size=4))
    return columns, rows


@given(tables())
@example((["n", "lhs", "rhs", "match"], [(1, "2", "2", True), (2, "7/2", "3", False)]))
@example((["a", "D0", "D"], [(0, -1, 2**70)]))
@example((["x"], [("a\"b\\c\u00e9",), (False,)]))
@example((["x", "y"], []))
def test_json_row_template_is_json_dumps_of_the_row(table):
    columns, rows = table
    doc = {"all_match": True, "command": "test", "params": {"p": 1},
           "rows": [dict(zip(columns, row)) for row in rows]}
    assert emitted("json", columns, iter(rows)) == json.dumps(doc, sort_keys=True) + "\n"


@pytest.mark.parametrize("fmt", FORMATS)
def test_emit_reads_its_rows_once(fmt):
    # a one-shot iterator: a second pass would find it empty
    rows, read = [(n, f"{n}/7", n % 2 == 0) for n in range(600)], []

    def once():
        for row in rows:
            read.append(row)
            yield row

    out = emitted(fmt, ["n", "q", "even"], once(), "%s %s %s\n".__mod__, ["head\n"], ["tail\n"])
    assert read == rows
    assert out == document(fmt, "test", {"p": 1}, ["n", "q", "even"],
                           [{"n": n, "q": q, "even": even} for n, q, even in rows],
                           ["head", *(f"{n} {q} {even}" for n, q, even in rows), "tail"], True)
