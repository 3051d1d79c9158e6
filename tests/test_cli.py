"""Tests for the command line surface: formats, exit codes, config plumbing."""

import argparse
import json
import subprocess
import sys

import pytest

from oracle_utils import d6_rare_failure_rows
from symlen import builders, checks, cli, decompose, milnor
from symlen.errors import VerificationFailure
from symlen.scheme import Scheme


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_sl_json_output(capsys):
    code, out = run_cli(capsys, "sl", "--scheme", "laurent(F2)", "--n", "2",
                        "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["dim_kn"] == 1
    assert data["sl"] == 1
    assert data["anisotropic_classes"] == 1


def test_json_output_is_byte_identical(capsys):
    args = ("bounds", "--scheme", "laurent(laurent(laurent(QC)))",
            "--n", "2", "--format", "json")
    code1, out1 = run_cli(capsys, *args)
    code2, out2 = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.endswith("\n")


def test_bounds_reports_dominance(capsys):
    code, out = run_cli(capsys, "bounds", "--scheme",
                        "laurent(laurent(laurent(QC)))", "--n", "2",
                        "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["bounds"]["binomial"] == 3
    assert data["exact_sl"] == 1
    assert data["dominance"] == "pass"


def test_invariants_table_format(capsys):
    code, out = run_cli(capsys, "invariants", "--scheme", "laurent(F2)",
                        "--format", "table")
    assert code == 0
    assert "pythagoras" in out
    assert "3" in out


def test_csv_format_has_header(capsys):
    code, out = run_cli(capsys, "sl", "--scheme", "RC", "--n", "2",
                        "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("sl,") for line in lines)


def test_decompose_bitstring_form(capsys):
    code, out = run_cli(capsys, "decompose", "--scheme",
                        "laurent(laurent(laurent(QC)))", "--n", "2",
                        "--form", "011,100", "--no-merge", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["input"] == [[3, 4]]
    assert data["output"] == [[1, 4], [2, 4]]
    assert data["passed"] is True


def test_decompose_merge_default(capsys):
    code, out = run_cli(capsys, "decompose", "--scheme",
                        "laurent(laurent(laurent(QC)))", "--n", "2",
                        "--form", "011,100", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["output"] == [[3, 4]]


def test_exit_code_invalid_input(capsys):
    assert run_cli(capsys, "sl", "--scheme", "bogus(")[0] == 1
    assert run_cli(capsys, "decompose", "--scheme", "RC", "--n", "2",
                   "--form", "xy")[0] == 1
    assert run_cli(capsys, "sl", "--scheme", "RC", "--n", "1")[0] == 1
    assert run_cli(capsys, "decompose", "--scheme", "RC", "--n", "2")[0] == 1


def test_exit_code_cap_exceeded(capsys):
    code, _ = run_cli(capsys, "sl", "--scheme", "laurent(laurent(RC))",
                      "--n", "2", "--cap-tensor", "4")
    assert code == 2


def test_bounds_honors_tensor_cap(capsys):
    # d = 3: k_1 and k_2 can hold 2 * 2^2 = 8 coordinates
    code, _ = run_cli(capsys, "bounds", "--scheme", "laurent(laurent(RC))",
                      "--n", "2", "--cap-tensor", "7")
    assert code == 2


def test_exit_code_verification_failure(capsys, monkeypatch):
    def boom(cfg):
        raise VerificationFailure("forced")
    monkeypatch.setitem(cli.COMMANDS, "bounds", boom)
    assert run_cli(capsys, "bounds", "--scheme", "RC")[0] == 3


def test_unsafe_table_accepted(capsys, tmp_path):
    path = tmp_path / "rc.json"
    path.write_text(json.dumps(
        {"name": "rc-copy", "d": 1, "minus_one": 1, "rows": [1, 3]}
    ))
    code, out = run_cli(capsys, "invariants", "--unsafe-table", str(path),
                        "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["scheme"] == "rc-copy"
    assert data["is_real"] is True
    via_builder = run_cli(capsys, "invariants", "--scheme", "RC",
                          "--format", "json")[1]
    ref = json.loads(via_builder)
    for key in ("d", "is_real", "pythagoras", "d_seq", "chain"):
        assert data[key] == ref[key]


def test_unsafe_table_rejected(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"d": 1, "minus_one": 0, "rows": [1, 3]}))
    assert run_cli(capsys, "build", "--unsafe-table", str(path))[0] == 1
    missing = tmp_path / "missing.json"
    assert run_cli(capsys, "build", "--unsafe-table", str(missing))[0] == 1
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    assert run_cli(capsys, "build", "--unsafe-table", str(garbage))[0] == 1


def test_unsafe_table_value_set_off_subgroup_rejected(capsys, tmp_path):
    # D<1,1> = {0, 1, 2} is not a subgroup; every other axiom holds
    path = tmp_path / "off.json"
    path.write_text(json.dumps({"d": 2, "minus_one": 0, "rows": [15, 7, 15, 13]}))
    assert run_cli(capsys, "sl", "--unsafe-table", str(path), "--n", "2") == (1, "")


@pytest.mark.parametrize("data, code, err", [
    ({"d": 1, "minus_one": 2, "rows": [1, 3]}, 1,
     "error: class of -1 (2) outside the group of dimension 1"),
    ({"d": 1, "minus_one": 2 ** 200, "rows": [1, 3]}, 1,
     "error: class of -1 (%d) outside the group of dimension 1" % 2 ** 200),
    ({"d": 1, "minus_one": 1, "rows": [1, 3, 3]}, 1,
     "error: table size 3 is not a power of two"),
    ({"d": 2, "minus_one": 1, "rows": [1, 3]}, 1,
     "error: table has 2 rows for group of order 4"),
    ({"d": 1, "minus_one": 1, "rows": [1, 7]}, 1,
     "error: value set row 1 out of range"),
    ({"d": 1, "minus_one": 1, "rows": [-1, 3]}, 1,
     "error: value set row 0 out of range"),
    ({"d": 7, "minus_one": 0, "rows": [1] * 128}, 2,
     "cap exceeded: scheme dimension 7 exceeds cap 6"),
], ids=["eps-outside", "eps-huge", "size-not-power", "size-mismatch",
        "row-too-large", "row-negative", "dimension-cap"])
def test_unsafe_table_refused_by_scheme(capsys, tmp_path, data, code, err):
    # the refusals of Scheme itself, each with its exact text
    path = tmp_path / "table.json"
    path.write_text(json.dumps(data))
    assert cli.main(["build", "--unsafe-table", str(path)]) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", err + "\n")


def test_bfs_cap_enforced_on_warm_cache(capsys):
    # dim k_2 = 10, so 2^10 elements exceed a cap of 100 whether or not an
    # uncapped run has cached the layers
    scheme = "laurent(laurent(laurent(laurent(laurent(QC)))))"
    args = ("sl", "--scheme", scheme, "--n", "2")
    assert run_cli(capsys, *args, "--cap-bfs", "100")[0] == 2
    assert run_cli(capsys, *args)[0] == 0
    assert run_cli(capsys, *args, "--cap-bfs", "100")[0] == 2


def test_unsafe_table_rare_ternary_failure_rejected(capsys, tmp_path):
    path = tmp_path / "mutant.json"
    path.write_text(json.dumps(
        {"d": 6, "minus_one": 9, "rows": d6_rare_failure_rows()}
    ))
    assert run_cli(capsys, "build", "--unsafe-table", str(path)) == (1, "")


@pytest.mark.parametrize("data", [
    {"d": 1, "minus_one": "1", "rows": [1, 3]},
    {"d": 1, "minus_one": 1.0, "rows": [1, 3]},
    {"d": 0, "minus_one": 0, "rows": "1"},
    {"d": 1, "minus_one": 1, "rows": {"0": 1, "1": 3}},
    ["d", "minus_one", "rows"],
    "d minus_one rows",
    # JSON booleans are not integers
    {"d": True, "minus_one": 1, "rows": [1, 3]},
    {"d": 1, "minus_one": True, "rows": [1, 3]},
    {"d": 1, "minus_one": 1, "rows": [True, 3]},
    # the name is printed as the scheme label, so it must be a string
    {"name": ["x"], "d": 1, "minus_one": 1, "rows": [1, 3]},
    {"name": {"a": 1}, "d": 1, "minus_one": 1, "rows": [1, 3]},
    # a string row holds only 0s and 1s: no prefix, underscore or space
    {"d": 1, "minus_one": 1, "rows": ["0b1", "11"]},
    {"d": 1, "minus_one": 1, "rows": ["01", "1_1"]},
    {"d": 1, "minus_one": 1, "rows": [" 1", "11"]},
    {"d": 1, "minus_one": 1, "rows": ["", "11"]},
])
def test_unsafe_table_malformed(capsys, tmp_path, data):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(data))
    code = cli.main(["build", "--unsafe-table", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: table file ")


def test_build_prints_table(capsys):
    code, out = run_cli(capsys, "build", "--scheme", "RC", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["d"] == 1
    assert data["minus_one"] == 1
    assert data["table"] == ["01", "11"]
    assert data["validated"] is True


def test_config_file_flags_win(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# sample\nscheme=laurent(F2)\nn=2\nformat=json\n")
    code, out = run_cli(capsys, "sl", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["n"] == 2
    code, out = run_cli(capsys, "invariants", "--config", str(cfg),
                        "--scheme", "RC")
    assert code == 0
    assert json.loads(out)["scheme"] == "RC"


def test_config_file_rejects_garbage(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n: 3\n")
    assert run_cli(capsys, "sl", "--config", str(cfg))[0] == 1
    cfg.write_text("n=three\n")
    assert run_cli(capsys, "sl", "--config", str(cfg))[0] == 1


@pytest.mark.parametrize("key", ["cap-bsf", "cap_bsf", "merge", "config"])
def test_config_file_rejects_unknown_keys(capsys, tmp_path, key):
    # a misspelt cap must not run with the default one
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scheme=laurent(F2)\n%s = 1\n" % key)
    code = cli.main(["sl", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: %s:2: unknown config key %r\n" % (cfg, key)
    # the option names are known with - or _
    cfg.write_text("scheme=laurent(F2)\ncap-bfs = 1\ncap_tensor = 8192\n")
    assert run_cli(capsys, "sl", "--config", str(cfg))[0] == 2


def test_missing_scheme_rejected(capsys):
    assert run_cli(capsys, "sl", "--n", "2")[0] == 1


def test_sl_counts_classes_at_large_slot_tuple_counts(capsys, tmp_path):
    # d * n >= 21: the count is the class walk's, with no cap on (2^d)^n
    rigid6 = "laurent(laurent(laurent(laurent(laurent(laurent(QC))))))"
    for label, n, classes in (("RC", 21, 1), (rigid6, 4, 651), (rigid6, 5, 63)):
        code, out = run_cli(capsys, "sl", "--scheme", label, "--n", str(n),
                            "--format", "json")
        assert code == 0
        pure = milnor.kn_space(builders.build_from_text(label), n).pure_symbols()
        assert json.loads(out)["anisotropic_classes"] == len(pure) == classes
    # the option that made it null is gone, from the flags and the file
    assert run_cli(capsys, "sl", "--scheme", "RC", "--cap-enum", "1") == (1, "")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scheme = RC\ncap-enum = 5\n")
    assert run_cli(capsys, "sl", "--config", str(cfg)) == (1, "")


@pytest.mark.parametrize("argv, text", [
    # bytes that are not UTF-8
    (["build", "--unsafe-table"], b'{"d": 1, "minus_one": 1, "rows": [1, 3]}\xff'),
    (["sl", "--config"], b"scheme = RC\n# \xff\n"),
    # an int past Python's digit limit for str -> int conversion
    (["build", "--unsafe-table"], b'{"d": 1%s, "minus_one": 1}' % (b"0" * 5000)),
], ids=["table-bytes", "config-bytes", "table-digits"])
def test_unreadable_file_named_in_error(capsys, tmp_path, argv, text):
    path = tmp_path / "input"
    path.write_bytes(text)
    code = cli.main(argv + [str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.startswith("error: ")
    assert str(path) in captured.err


def tower(head, tail, depth):
    """An expression nesting depth combinators around QC."""
    return head * depth + "QC" + tail * depth


def run_symlen(*argv):
    """(exit code, stdout, stderr) of symlen in a child process, so that an
    uncaught error shows as a traceback in stderr."""
    run = subprocess.run([sys.executable, "-m", "symlen", *argv],
                         capture_output=True, text=True)
    return run.returncode, run.stdout, run.stderr


@pytest.mark.parametrize("expr", [
    tower("laurent(", ")", 1200),
    tower("product(", ",QC)", 1200),
    # dimension 0, which exited 0 up to about 990 levels
    tower("product(QC,", ")", builders.MAX_NESTING + 1),
], ids=["laurent", "product", "qc-product-past-bound"])
def test_deep_expression_refused_as_cap(expr):
    code, out, err = run_symlen("sl", "--scheme", expr)
    assert (code, out) == (2, "")
    assert err.startswith("cap exceeded: ") and "Traceback" not in err
    assert "nests deeper than %d" % builders.MAX_NESTING in err


def test_expression_at_nesting_bound_parses():
    expr = tower("product(QC,", ")", builders.MAX_NESTING)
    code, out, err = run_symlen("sl", "--scheme", expr, "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["dim_kn"] == 0
    assert builders.expr_dim(builders.parse_scheme_expr(
        tower("laurent(", ")", builders.MAX_NESTING))) == builders.MAX_NESTING


def test_deeply_nested_table_file_is_a_parse_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    code, out, err = run_symlen("build", "--unsafe-table", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "Traceback" not in err
    assert str(path) in err


def test_unsafe_table_huge_dimension_hits_cap(capsys, tmp_path):
    # the dimension cap is checked before anything of size d is built
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"d": 10 ** 12, "minus_one": 1, "rows": [1, 3]}))
    code = cli.main(["build", "--unsafe-table", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("cap exceeded: ")


def test_decompose_tensor_cap_checked_before_rewrite(capsys, monkeypatch):
    def no_rewrite(*args, **kwargs):
        raise AssertionError("rewrite ran past the tensor cap")

    monkeypatch.setattr(decompose, "rewrite_to_basis", no_rewrite)
    code, out = run_cli(capsys, "decompose", "--scheme",
                        "laurent(laurent(laurent(QC)))", "--n", "2",
                        "--form", "011,100", "--cap-tensor", "1")
    assert code == 2
    assert out == ""


def test_huge_degree_exits_cap_without_big_powers(capsys):
    # d^n here would have more digits than int -> str conversion allows;
    # the cap reads n * 2^(d - 1) and forms no power of d
    for label, n in (("laurent(RC)", "20000"),
                     ("laurent(laurent(RC))", "3000000")):
        code = cli.main(["sl", "--scheme", label, "--n", n])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("cap exceeded: ")
        assert "n = %s" % n in captured.err


def test_sl_degree_five_at_d6(capsys):
    code, out = run_cli(capsys, "sl", "--scheme",
                        "laurent(laurent(laurent(laurent(laurent(laurent(QC))))))",
                        "--n", "5", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["sl"] == 1
    assert data["witness"] == {"coords": 1, "dim": 6}
    assert data["dim_kn"] == 6


@pytest.mark.parametrize("command", ["sl", "bounds"])
def test_top_degree_of_the_qc_tower_answers(capsys, command):
    # k_6 of laurent^6(QC) is the top exterior power of F2^6: dim C(6, 6)
    # = 1, with [6, 6]_2 = 1 pure symbol, so sl is 1; its 6 degrees hold
    # at most 192 coordinates, against d^n = 46656
    code, out = run_cli(capsys, command, "--scheme",
                        "laurent(laurent(laurent(laurent(laurent(laurent(QC))))))",
                        "--n", "6", "--format", "json")
    assert code == 0
    data = json.loads(out)
    if command == "sl":
        assert data["dim_kn"] == 1
        assert data["sl"] == 1
        assert data["witness"] == {"coords": 1, "dim": 1}
        assert data["anisotropic_classes"] == 1
    else:
        assert data["exact_sl"] == 1
        assert data["dominance"] == "pass"


def test_tensor_cap_admits_the_degrees_it_can_hold(capsys, monkeypatch):
    # d = 6: dim k_m <= 2^5, so n degrees hold up to 32 n coordinates,
    # 8192 at n = 256, the default cap
    def no_reduction(*args):
        raise AssertionError("reduced relations past the tensor cap")

    label = "laurent(laurent(laurent(laurent(laurent(RC)))))"
    s = builders.build_from_text(label)
    cold = Scheme(s.d, s.eps, s.rows)
    monkeypatch.setattr(cli, "load_scheme", lambda args: (label, cold))
    with monkeypatch.context() as patched:
        patched.setattr(milnor, "rref_ints", no_reduction)
        code = cli.main(["sl", "--scheme", label, "--n", "257"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("cap exceeded: k_1..k_n ")
        assert cold._kn == []
    # n = 256 builds every degree, and only the search's cap refuses it
    code = cli.main(["sl", "--scheme", label, "--n", "256"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("cap exceeded: k_n has 2^32 elements")
    assert len(cold._kn) == 256


# 4097 degrees of d = 2 hold up to 8194 coordinates: over the default
# cap, under the raised one
RAISED = ["--scheme", "laurent(RC)", "--n", "4097", "--cap-tensor", "8194"]


def test_raised_tensor_cap_reaches_class_map(capsys):
    code, _ = run_cli(capsys, "sl", *RAISED[:4])
    assert code == 2
    code, out = run_cli(capsys, "sl", *RAISED, "--format", "json")
    assert code == 0
    assert json.loads(out)["anisotropic_classes"] == 3
    code, out = run_cli(capsys, "bounds", *RAISED, "--format", "json")
    assert code == 0
    assert json.loads(out)["exact_sl"] == 1


@pytest.mark.parametrize("form, merge, output", [
    (",".join(["10"] * 4097), False, [[0] * 4096 + [2]]),
    (",".join(["11"] * 4097) + ";" + ",".join(["10"] * 4097), True, [[0] * 4097]),
])
def test_raised_tensor_cap_reaches_rewrite_and_merge(capsys, form, merge, output):
    argv = ["decompose", *RAISED, "--form", form, "--format", "json"]
    code, out = run_cli(capsys, *(argv if merge else argv + ["--no-merge"]))
    assert code == 0
    data = json.loads(out)
    assert data["output"] == output
    assert data["passed"] is True


@pytest.mark.parametrize("label", [
    "laurent(laurent(laurent(laurent(laurent(laurent(QC))))))",
    "laurent(laurent(laurent(laurent(laurent(RC)))))",
])
def test_decompose_merge_at_d6_degree_four(capsys, label):
    # the merge searches the class map of k_3, not C(66, 3) divisor
    # multisets; the chain basis of both is 1, 2, 4, ..., so a slot's
    # coordinate bitstring is its class in binary
    entries = [(1, 2, 4, 8), (3, 5, 9, 17), (7, 11, 19, 35), (1, 2, 4, 16)]
    form = ";".join(",".join(format(a, "06b") for a in e) for e in entries)
    code, out = run_cli(capsys, "decompose", "--scheme", label, "--n", "4",
                        "--form", form, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["input"] == sorted(list(e) for e in entries)
    assert data["passed"] is True


RIGID3 = "laurent(laurent(laurent(QC)))"

# the options each subcommand reads, and so accepts
ACCEPTED = {
    "build": ["--config", "--format", "--scheme", "--unsafe-table", "--verbose"],
    "invariants": ["--config", "--format", "--scheme", "--unsafe-table", "--verbose"],
    "sl": ["--cap-bfs", "--cap-tensor", "--config", "--format", "--n",
           "--scheme", "--unsafe-table", "--verbose"],
    "bounds": ["--cap-bfs", "--cap-tensor", "--config", "--format", "--n",
               "--scheme", "--unsafe-table", "--verbose"],
    "decompose": ["--cap-tensor", "--config", "--form", "--format", "--n",
                  "--no-merge", "--scheme", "--unsafe-table", "--verbose"],
    "verify-paper": ["--config", "--max-d", "--seed", "--verbose"],
}


def test_each_subcommand_accepts_the_options_it_reads():
    parser = cli.make_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    accepted = {name: sorted(a.option_strings[-1] for a in p._actions
                             if a.option_strings and a.dest != "help")
                for name, p in sub.choices.items()}
    assert accepted == ACCEPTED
    assert sum(map(len, accepted.values())) == 39


@pytest.mark.parametrize("argv", [
    ["sl", "--scheme", "RC", "--n", "abc"],
    ["sl", "--scheme", "RC", "--n", "1"],
    ["sl", "--scheme", "RC", "--format", "xml"],
    ["sl", "--scheme", "RC", "--bogus"],
    ["sl", "--scheme", "RC", "--cap-tensor", "0"],
    [],
    ["verify-paper", "--max-d", "-1"],
    # no abbreviations: a prefix of one option is not taken for it
    ["decompose", "--scheme", RIGID3, "--form", "011,100", "--cap", "100"],
    ["verify-paper", "--max-d", "1", "--s", "1"],
    ["sl", "--sch", "RC"],
])
def test_usage_errors_exit_invalid(capsys, argv):
    # argparse's own exit code 2 would read as a refused search
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert "usage: symlen" in captured.err


def test_config_value_checked_as_a_flag(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scheme = RC\ncap-bfs = 0\n")
    code = cli.main(["sl", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert "argument --cap-bfs: must be at least 1, got 0" in captured.err


def test_help_exits_ok(capsys):
    assert cli.main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: symlen")
    assert cli.main(["sl", "--help"]) == 0
    assert "--cap-bfs" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["build", "--scheme", "RC", "--n", "3"],
    ["invariants", "--scheme", "RC", "--seed", "1"],
    ["sl", "--scheme", "RC", "--cap-enum", "5"],
    ["decompose", "--scheme", RIGID3, "--form", "011,100", "--cap-bfs", "2"],
    ["verify-paper", "--max-d", "1", "--cap-bfs", "1"],
    ["verify-paper", "--max-d", "1", "--format", "csv"],
])
def test_dropped_options_refused(capsys, argv):
    # an option the subcommand never reads must not pass for one it obeys
    assert run_cli(capsys, *argv) == (1, "")


def test_config_keys_a_subcommand_does_not_read_are_skipped(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scheme = RC\nn = 1\nseed = x\nmax_d = 9\nform = 1\n")
    for command in ("build", "invariants"):
        plain = run_cli(capsys, command, "--scheme", "RC")
        assert plain[0] == 0
        assert run_cli(capsys, command, "--config", str(cfg)) == plain
    # sl reads n
    assert run_cli(capsys, "sl", "--config", str(cfg)) == (1, "")


@pytest.mark.parametrize("form", ["011,100,001", "011,100;011"])
def test_decompose_slot_count_mismatch(capsys, form):
    code = cli.main(["decompose", "--scheme", RIGID3, "--n", "2", "--form", form])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.startswith("error: entry ")


@pytest.mark.parametrize("in_file", [(), ("scheme",), ("unsafe-table",),
                                     ("scheme", "unsafe-table")])
def test_scheme_and_unsafe_table_refused_together(capsys, tmp_path, in_file):
    table = tmp_path / "rc.json"
    table.write_text(json.dumps({"d": 1, "minus_one": 1, "rows": [1, 3]}))
    options = {"scheme": "laurent(F2)", "unsafe-table": str(table)}
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join("%s = %s\n" % (key, options[key]) for key in in_file))
    argv = ["build", "--config", str(cfg)]
    for key in options.keys() - set(in_file):
        argv += ["--" + key, options[key]]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == "error: --scheme and --unsafe-table exclude each other\n"


def test_max_d_above_the_cap_refused_before_any_check(capsys, monkeypatch):
    def no_report(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(checks, "build_report", no_report)
    code = cli.main(["verify-paper", "--max-d", "7"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "cap exceeded: library dimension 7 exceeds cap 6\n"



@pytest.mark.parametrize("n, form, entries", [(2, ",", 1), (3, ",,;,,", 2)])
def test_decompose_on_the_one_class_scheme(capsys, n, form, entries):
    # on QC the chain basis is empty, so every slot is the empty bitstring
    code, out = run_cli(capsys, "decompose", "--scheme", "QC", "--n", str(n),
                        "--form", form, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert (data["input"], data["output"]) == ([[0] * n] * entries, [])
    assert data["passed"] is True


def test_empty_slot_refused_on_a_nontrivial_group(capsys):
    code = cli.main(["decompose", "--scheme", "RC", "--form", ","])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == "error: slot '' has 0 coordinates, the chain basis has 1\n"
