import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from humbert import bqf, genus, relations, shimura
from humbert.cli import load_cache, main, save_cache
from humbert.shimura import ShimuraLevel, volume_term
from test_relations import verification_row


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cohen_text(capsys):
    code, out, _ = run(capsys, "cohen", "--nmax", "12")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "0 1"
    assert lines[-1] == "12 -240"


def test_cohen_nmax_zero(capsys):
    code, out, _ = run(capsys, "cohen", "--nmax", "0")
    assert code == 0
    assert out.strip() == "0 1"


def test_cohen_json(capsys):
    code, out, _ = run(capsys, "cohen", "--nmax", "5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["coefficients"] == [1, -10, 0, 0, -70, -48]
    assert doc["command"] == "cohen"
    assert set(doc) >= {"command", "params", "rows", "all_match"}


def test_hurwitz_and_classnum(capsys):
    code, out, _ = run(capsys, "hurwitz", "4")
    assert (code, out.strip()) == (0, "1/2")
    code, out, _ = run(capsys, "hurwitz", "0")
    assert (code, out.strip()) == (0, "-1/12")
    code, out, _ = run(capsys, "classnum", "-160")
    assert (code, out.strip()) == (0, "4")
    code, out, err = run(capsys, "hurwitz", "--", "-3")
    assert code == 2


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples_print_what_readme_shows(capsys):
    # the command of README's Example block with its output, and the two
    # "# ->" comments of its CLI block
    text = README.read_text()
    example = text.split("\n## Example\n", 1)[1].split("```text\n", 1)[1].split("```", 1)[0]
    command, expected = example.split("\n", 1)
    assert command.startswith("$ humbert ")
    assert run(capsys, *command.split()[2:])[:2] == (0, expected)
    cli_block = text.split("\n## CLI\n", 1)[1].split("```", 2)[1]
    claims = re.findall(r"^humbert (.+?) +# -> (\S+)$", cli_block, re.M)
    assert claims == [("hurwitz 4", "1/2"), ("classnum -160", "4")]
    for argv, value in claims:
        assert run(capsys, *argv.split())[:2] == (0, value + "\n")


def test_hdn_command(capsys):
    assert run(capsys, "hdn", "10", "1", "8")[1].strip() == "1"
    assert run(capsys, "hdn", "10", "1", "0")[1].strip() == "-1/3"
    assert run(capsys, "hdn", "10", "1", "7/4")[1].strip() == "0"
    assert run(capsys, "hdn", "1", "1", "3")[1].strip() == "1/3"
    code, _, err = run(capsys, "hdn", "2", "1", "3")
    assert code == 2 and "error" in err


@pytest.mark.parametrize("m,message", [("1/0", "zero denominator in '1/0'"),
                                       ("0/0", "zero denominator in '0/0'"),
                                       ("abc", "invalid rational value: 'abc'"),
                                       ("1/2/3", "invalid rational value: '1/2/3'")])
def test_hdn_bad_m_is_a_usage_error(capsys, m, message):
    # a zero denominator exits 2 like any other m that is not a rational,
    # with argparse's usage line and one error line, and no traceback
    with pytest.raises(SystemExit) as exc:
        main(["hdn", "6", "1", m])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    usage, error = captured.err.splitlines()
    assert usage.startswith("usage: humbert hdn")
    assert error == f"humbert hdn: error: argument m: {message}"


def test_forms_output(capsys):
    code, out, _ = run(capsys, "forms", "--d0", "10")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert "form=(1,0,40)" in lines[0] and "relation not applicable" in lines[0]
    assert "form=(5,0,8)" in lines[1] and "D=10" in lines[1] and "|W|=4" in lines[1]


def test_forms_non_squarefree_exits_2(capsys):
    code, _, err = run(capsys, "forms", "--d0", "12")
    assert code == 2
    assert "squarefree" in err


def test_verify_exit_zero_and_csv_header(capsys):
    code, out, _ = run(capsys, "verify", "--d0", "10", "--nmax", "20", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "D0,a,b,c,D,N,n,lhs,rhs,match"
    assert lines[1].startswith("10,5,0,8,10,1,1,10/3,10/3,")


def test_verify_json_shape(capsys):
    code, out, _ = run(capsys, "verify", "--d0", "15", "--nmax", "5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_match"] is True
    assert doc["command"] == "verify"
    assert {row["a"] for row in doc["rows"]} == {5, 8}
    assert len(doc["skipped"]) == 2


def test_verify_form_filter(capsys):
    code, out, _ = run(capsys, "verify", "--d0", "15", "--nmax", "5",
                       "--form", "8,4,8", "--format", "csv")
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert rows and all(r.split(",")[1:4] == ["8", "4", "8"] for r in rows)


def plant_cohen_mismatch(monkeypatch, n):
    # a_n + 1 in the coefficients verify reads: only the right side of the
    # rows at n changes
    real = relations.cohen_coefficients

    def broken(nmax):
        coeffs = real(nmax)
        coeffs[n] += 1
        return coeffs

    monkeypatch.setattr(relations, "cohen_coefficients", broken)


def test_verify_mismatch_exits_1_with_term_dump(capsys, monkeypatch):
    plant_cohen_mismatch(monkeypatch, 1)
    code, out, _ = run(capsys, "verify", "--d0", "10", "--nmax", "4")
    assert code == 1
    assert "counterexample" in out
    assert re.search(r"u=-?1 v=-?2 m=3 H=1/3", out)


def test_verify_mismatch_json_holds_the_dump(capsys, monkeypatch):
    # the json document stays one document: the dump is its counterexample key
    a_1 = relations.cohen_coefficients(1)[1]
    plant_cohen_mismatch(monkeypatch, 1)
    _, text, _ = run(capsys, "verify", "--d0", "10", "--nmax", "4")
    code, out, err = run(capsys, "verify", "--d0", "10", "--nmax", "4", "--format", "json")
    assert (code, err) == (1, "")
    doc = json.loads(out)
    assert doc["all_match"] is False
    dump = doc["counterexample"]
    row = next(row for row in doc["rows"] if not row["match"])
    assert {key: dump[key] for key in row if key in dump} == {
        key: row[key] for key in ("D0", "a", "b", "c", "n", "lhs", "rhs")}
    assert dump["a_n"] == a_1 + 1
    assert {"u": -1, "v": -2, "m": "3", "H": "1/3"} in dump["terms"]
    # the text dump, field for field
    lines = text.splitlines()
    start = lines.index(next(line for line in lines if line.startswith("counterexample: ")))
    assert lines[start] == (f"counterexample: D0=10 form=(5,0,8) n=1 lhs={dump['lhs']} "
                            f"rhs={dump['rhs']} a_n={dump['a_n']}")
    assert lines[start + 2:] == [f"  u={t['u']} v={t['v']} m={t['m']} H={t['H']}"
                                 for t in dump["terms"]]


def test_verify_mismatch_csv_dumps_to_stderr(capsys, monkeypatch):
    # stdout stays the csv rows; the dump goes to stderr, as text prints it
    plant_cohen_mismatch(monkeypatch, 1)
    _, text, _ = run(capsys, "verify", "--d0", "10", "--nmax", "4")
    code, out, err = run(capsys, "verify", "--d0", "10", "--nmax", "4", "--format", "csv")
    assert code == 1
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["D0", "a", "b", "c", "D", "N", "n", "lhs", "rhs", "match"]
    assert [row[6] for row in rows[1:]] == ["1", "4"]
    assert err.startswith("counterexample: D0=10 form=(5,0,8) n=1 ")
    assert text.endswith(err)


def test_verify_mismatch_prints_both_sides(capsys, monkeypatch):
    # a_1 + 1 changes only the right side of row n = 1: its lhs stays the
    # lattice sum, its rhs is the perturbed a_1 times the volume term
    form = next(f for f in relations.eligible_forms(10) if f.D > 1)
    lhs = verification_row(form, 1).lhs
    rhs = (relations.cohen_coefficients(1)[1] + 1) * volume_term(ShimuraLevel(form.D, form.N))
    assert lhs != rhs
    plant_cohen_mismatch(monkeypatch, 1)
    code, out, _ = run(capsys, "verify", "--d0", "10", "--nmax", "4")
    assert code == 1
    assert out.splitlines()[1] == (f"D0=10 form=(5,0,8) D=10 N=1 n=1 lhs={lhs} "
                                   f"rhs={rhs} match=False")


@pytest.mark.parametrize("n, argv, digest", [
    (33, ["--d0", "1155", "--nmax", "40"],
     "a29ca8f2c9a4545033fadfff471b9344941379dfcc25b4c9161bcf579bbe90d1"),
    # four-times-primitive forms
    (197, ["--d0", "15", "--nmax", "200", "--form", "8,4,8"],
     "486f107d6318357f35d5d7c5f2dff7128c0392885c67cccc9b2dcc2db0587148"),
    (97, ["--d0", "35", "--nmax", "100", "--form", "12,4,12"],
     "c44c80db830fa7a8a31fc9c866db14bf96e9adcc2ee9e1247f472f78d8187cec"),
])
def test_verify_mismatch_dump_is_pinned(capsys, monkeypatch, n, argv, digest):
    # the rows and the counterexample's term dump, recorded when verify
    # re-summed the mismatching row and walked its lattice again to print it
    plant_cohen_mismatch(monkeypatch, n)
    code, out, _ = run(capsys, "verify", *argv)
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_mismatch_walks_its_row_once(capsys, monkeypatch):
    # one eligible-forms enumeration, and one point-by-point walk of the
    # mismatching row that both confirms it and supplies the dump's terms
    walks, enumerations = [], []
    real_walk = relations.lattice_sum
    real_forms = relations.eligible_forms

    def walk(form, n):
        walks.append((form.form, n))
        return real_walk(form, n)

    def forms(d0):
        enumerations.append(d0)
        return real_forms(d0)

    monkeypatch.setattr(relations, "lattice_sum", walk)
    monkeypatch.setattr(relations, "eligible_forms", forms)
    monkeypatch.setattr(genus, "eligible_forms", forms)
    plant_cohen_mismatch(monkeypatch, 5)
    code, out, _ = run(capsys, "verify", "--d0", "15", "--nmax", "20")
    assert code == 1
    assert "counterexample: D0=15 form=(5,0,12) n=5 " in out
    assert walks == [(bqf.BQF(5, 0, 12), 5)]
    assert enumerations == [15]


def test_internal_inconsistency_exits_3(capsys, monkeypatch):
    real = relations.level_tables

    seen = []

    def tampered(levels, hurwitz12):
        # every table level_tables yields, as verify reads it
        for level, table in real(levels, hurwitz12):
            for m in range(1, len(table)):
                table[m] += 1
            seen.append(level)
            yield level, table

    monkeypatch.setattr(relations, "level_tables", tampered)
    code, out, err = run(capsys, "verify", "--d0", "10", "--nmax", "4")
    assert seen == [ShimuraLevel(10, 1)]
    assert (code, out) == (3, "")
    assert "error: internal check failed: table row disagrees with the lattice sum" in err


def test_only_internal_check_errors_exit_3(capsys, monkeypatch):
    def crash(nmax):
        raise RuntimeError("not a cross-check")

    monkeypatch.setattr(relations, "verify_kronecker", crash)
    with pytest.raises(RuntimeError, match="not a cross-check"):
        main(["kronecker", "--nmax", "4"])

    # only a ValueError means bad input (exit 2): an indexing fault in a
    # table kernel must not pass for one
    def fault(nmax):
        return [][nmax]

    monkeypatch.setattr(relations, "verify_kronecker", fault)
    with pytest.raises(IndexError):
        main(["kronecker", "--nmax", "4"])

    def broken(nmax):
        raise relations.InternalCheckError("two evaluations disagree")

    monkeypatch.setattr(relations, "verify_kronecker", broken)
    code, out, err = run(capsys, "kronecker", "--nmax", "4")
    assert (code, out) == (3, "")
    assert err == "error: internal check failed: two evaluations disagree\n"


def _never(*args, **kwargs):
    raise AssertionError("the computation started")


def test_size_guards_exit_2_before_computing(capsys, monkeypatch):
    monkeypatch.setattr(bqf, "reduced_forms", _never)
    monkeypatch.setattr(relations, "eligible_forms", _never)
    monkeypatch.setattr(relations, "hurwitz_table", _never)
    for argv in (["classnum", "-10000000000000"],
                 ["hurwitz", "10000000000003"],
                 ["verify", "--d0", "10000000000001", "--nmax", "1"],
                 ["verify", "--d0", "1155", "--nmax", "1000"],
                 ["verify", "--d0", "1155", "--nmax", "433"],
                 ["kronecker", "--nmax", "200000"],
                 ["kronecker", "--nmax", "125001"],
                 ["cohen", "--nmax", "1000000000000"],
                 ["cohen", "--nmax", "200001"],
                 ["forms", "--d0", "62500001"],
                 ["selfcheck", "--d0", "62500001"],
                 ["forms", "--d0", "999999999989"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "input too large" in err, argv


def test_verify_rationals_never_decimal(capsys):
    _, out, _ = run(capsys, "verify", "--d0", "30", "--nmax", "9", "--format", "csv")
    assert not re.search(r"\d+\.\d", out)


def test_kronecker_command(capsys):
    code, out, _ = run(capsys, "kronecker", "--nmax", "40")
    assert code == 0
    assert "all_match=True" in out


@pytest.mark.parametrize("n, lhs, rhs", [(1, "13/6", 2), (7, "97/6", 16), (40, "1081/6", 180)])
def test_kronecker_mismatch_exits_1(capsys, monkeypatch, n, lhs, rhs):
    # two more units in the theta row of n (12*H(4n - x**2) summed over x)
    # add 2 to 12 times the left side of row n; the right side 2*sigma(n) stays
    _, clean, _ = run(capsys, "kronecker", "--nmax", "40")
    lhs12 = 12 * rhs
    real = relations.theta_rows

    def broken(table, shifts, counts, xs):
        rows = real(table, shifts, counts, xs)
        rows[xs.index(4 * n)] += 2
        return rows

    monkeypatch.setattr(relations, "theta_rows", broken)
    code, out, _ = run(capsys, "kronecker", "--nmax", "40")
    assert code == 1
    lines, clean_lines = out.splitlines(), clean.splitlines()
    assert len(lines) == len(clean_lines) == 41
    assert clean_lines[n - 1] == f"n={n} lhs={rhs} rhs={rhs} match=True"
    assert lines[n - 1] == f"n={n} lhs={lhs} rhs={rhs} match=False"
    assert lines[:n - 1] + lines[n:-1] == clean_lines[:n - 1] + clean_lines[n:-1]
    assert lines[-1] == "all_match=False"
    row = relations.verify_kronecker(40)[n - 1]
    assert row.n == n
    assert row.lhs == Fraction(lhs12 + 2, 12) == Fraction(lhs)
    assert row.rhs == rhs != row.lhs
    assert row.match is False


def test_verify_jobs_deterministic(capsys):
    runs = [run(capsys, "verify", "--d0", "10", "--nmax", "40", "--jobs", "8")
            for _ in range(2)]
    assert runs[0] == runs[1]
    assert runs[0][0] == 0


@pytest.mark.parametrize("case", ["flag", "env", "missing-dir", "tampered"])
def test_cache_option_is_accepted_and_ignored(tmp_path, capsys, monkeypatch, case):
    # --cache and $HUMBERT_CACHE do nothing: no file is read or written, and
    # stdout, exit code and stderr are those of the plain run
    argv = ["verify", "--d0", "10", "--nmax", "8"]
    plain = run(capsys, *argv)
    assert plain[0] == 0
    cache = tmp_path / "no-such-dir" / "c.bin" if case == "missing-dir" else tmp_path / "c.bin"
    if case == "tampered":
        # the header of the old cache-file format, then bytes no field fits
        cache.write_bytes(b"humbert-classnum-cache 2\n" + bytes(range(11)))
    before = cache.read_bytes() if cache.exists() else None
    if case == "env":
        monkeypatch.setenv("HUMBERT_CACHE", str(cache))
    else:
        argv += ["--cache", str(cache)]
    assert run(capsys, *argv) == (0, plain[1], "")
    assert (cache.read_bytes() if cache.exists() else None) == before
    assert not (tmp_path / "no-such-dir").exists()


def test_verify_builds_one_table(tmp_path, capsys, monkeypatch):
    # the 12H table is the one count of reduced forms that verify makes
    real, calls = bqf._packed_form_counts, []

    def counted(x):
        calls.append(x)
        return real(x)

    monkeypatch.setattr(bqf, "_packed_form_counts", counted)
    cache = tmp_path / "c.bin"
    code, _, err = run(capsys, "verify", "--d0", "30", "--nmax", "40", "--cache", str(cache))
    assert (code, err, calls) == (0, "", [1200])
    assert not cache.exists()
    for module in (relations, shimura):
        for name in ("class_number_table", "primes_up_to"):
            assert not hasattr(module, name), (module.__name__, name)


def test_cache_hooks_do_nothing(tmp_path, capsys):
    # cli.save_cache and cli.load_cache stay only as names the benchmark's
    # tracer hooks: neither makes, reads nor changes a file, nor prints
    table = bqf.class_number_table(80)
    absent = tmp_path / "absent.bin"
    save_cache(str(absent), table)
    assert not absent.exists()
    present = tmp_path / "present.bin"
    present.write_bytes(b"humbert-classnum-cache 2\n\x01\x02\x03")
    load_cache(str(present), table)
    save_cache(str(present), table)
    assert present.read_bytes() == b"humbert-classnum-cache 2\n\x01\x02\x03"
    assert capsys.readouterr() == ("", "")


def test_selfcheck_single_d0(capsys):
    code, out, _ = run(capsys, "selfcheck", "--d0", "10")
    assert code == 0
    assert "all passed" in out


def test_bad_flags_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cohen", "--nmax", "not-a-number"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    for nmax in ("0", "-5"):
        code, out, err = run(capsys, "verify", "--d0", "10", "--nmax", nmax)
        assert (code, out) == (2, "")
        assert "nmax must be >= 1" in err
    # a --form that is not an eligible form of D0 (discriminants -4 and -16,
    # not -16*10) matches no row; it is an error, not "all_match=True rows=0"
    for form in ("1,0,1", "2,0,2"):
        code, out, err = run(capsys, "verify", "--d0", "10", "--nmax", "8", "--form", form)
        assert (code, out) == (2, "")
        assert err == f"error: form ({form}) is not an eligible form of D0 = 10\n"
    # D0 = 0 is an input like any other, not "no --d0 given"
    for command in ("forms", "selfcheck"):
        code, out, err = run(capsys, command, "--d0", "0")
        assert (code, out) == (2, ""), command
        assert "squarefree" in err, command


def test_repeated_calls_share_one_parser_and_no_state(capsys):
    # main builds its parser once; no option of one call leaks into the next
    first = run(capsys, "verify", "--d0", "10", "--nmax", "4", "--format", "json")
    with pytest.raises(SystemExit):
        main(["verify", "--d0", "10", "--nmax", "bad"])
    capsys.readouterr()
    text = run(capsys, "verify", "--d0", "10", "--nmax", "4")
    assert first[0] == text[0] == 0
    assert json.loads(first[1])["all_match"] is True
    assert text[1].endswith("all_match=True rows=2 skipped=1\n")
    assert run(capsys, "verify", "--d0", "10", "--nmax", "4", "--format", "json") == first


def _python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)


def test_cli_import_leaves_mpmath_unloaded():
    # mpmath and humbert.quat serve only selfcheck; the value types are
    # named tuples, so nothing on the import path needs dataclasses; json,
    # csv and signal serve only their output format and a broken pipe
    proc = _python("import sys, humbert.cli\n"
                   "print([m for m in ('mpmath', 'humbert.quat', 'dataclasses', 'json', 'csv',"
                   " 'signal') if m in sys.modules])")
    assert (proc.returncode, proc.stdout) == (0, "[]\n")


def test_quaternion_names_load_on_first_use():
    proc = _python("import sys, humbert\n"
                   "print('humbert.quat' in sys.modules)\n"
                   "from humbert import OrderBasis, Quaternion, SingularRelation, build_order\n"
                   "print(Quaternion.__module__, build_order is humbert.quat.build_order)")
    assert (proc.returncode, proc.stdout) == (0, "False\nhumbert.quat True\n")
    proc = _python("from humbert import *\n"
                   "import humbert\n"
                   "print(sorted(set(humbert.__all__) - set(globals())), OrderBasis.__name__)")
    assert (proc.returncode, proc.stdout) == (0, "[] OrderBasis\n")


def test_broken_pipe_exits_141_without_traceback():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    env.pop("HUMBERT_CACHE", None)
    # about 110 kB of output: more than a pipe holds, so writes outlive the reader
    proc = subprocess.Popen([sys.executable, "-m", "humbert", "kronecker", "--nmax", "3000"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"n=1 lhs=2 rhs=2 match=True\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert "Traceback" not in err and "BrokenPipeError" not in err
