import argparse
import json

import mpmath
import pytest

from hzeta.cli import _COMMANDS, _build_parser, run


def lines(capsys):
    return [ln for ln in capsys.readouterr().out.splitlines() if ln]


class TestSubcommands:
    def test_dz_matches_printed_digits(self, capsys):
        assert run(["dz", "-k", "1", "--digits", "12"]) == 0
        (out,) = lines(capsys)
        assert "-0.165421143700" in out
        assert out.startswith("zeta_deriv(1) = ")

    def test_varpi_printed_digits(self, capsys):
        assert run(["varpi", "-k", "2", "--digits", "10"]) == 0
        (out,) = lines(capsys)
        assert "-0.2475089541" in out

    def test_kinkelin(self, capsys):
        assert run(["kinkelin", "--digits", "11"]) == 0
        (out,) = lines(capsys)
        assert "0.33084228740" in out

    def test_hz_rational_offset(self, capsys):
        assert run(["hz", "-k", "1", "-w", "1/2", "--digits", "20"]) == 0
        (out,) = lines(capsys)
        assert out.startswith("hurwitz_deriv(1,1/2) = 0.053829439326894410048")

    def test_hz_integer_uses_exact_route(self, capsys):
        assert run(["hz", "-k", "2", "-w", "7", "--json"]) == 0
        rec = json.loads(lines(capsys)[0])
        assert rec["method"] == "exact-sum"

    def test_gamma(self, capsys):
        assert run(["gamma", "-k", "0", "-x", "3", "--digits", "15"]) == 0
        (out,) = lines(capsys)
        # log Gamma_0(3) = log 2
        assert out.startswith("gengamma(0,3) = 0.693147180559945")

    def test_const_deep_precision(self, capsys):
        assert run(["const", "-k", "0", "--digits", "30"]) == 0
        (out,) = lines(capsys)
        assert "0.918938533204672741780329736406" in out

    def test_table_to_file(self, tmp_path, capsys):
        target = tmp_path / "table.txt"
        assert run(["table", "--kmax", "2", "-o", str(target), "--digits", "10"]) == 0
        rows = [ln for ln in target.read_text().splitlines() if ln]
        assert len(rows) == 6  # L_k and zeta'(-k) for k = 0, 1, 2
        assert rows[0].startswith("L(0) = 0.9189385332")
        assert rows[1].startswith("zeta_deriv(0) = -0.9189385332")

    def test_selftest_quick(self, capsys):
        assert run(["selftest", "--level", "quick", "--digits", "12"]) == 0
        out = lines(capsys)
        assert any(ln.startswith("selftest quick:") for ln in out)
        assert all("[FAIL]" not in ln for ln in out)


class TestJsonOutput:
    def test_round_trip_is_byte_identical(self, capsys):
        assert run(["dz", "-k", "0", "--json"]) == 0
        (line,) = lines(capsys)
        assert json.dumps(json.loads(line), sort_keys=True) == line

    def test_selftest_prints_only_json_lines(self, capsys):
        assert run(["selftest", "--level", "quick", "--digits", "12", "--json"]) == 0
        captured = capsys.readouterr()
        records = [json.loads(ln) for ln in captured.out.splitlines()]
        assert records and all(rec["passed"] for rec in records)
        assert captured.err.startswith("selftest quick:")

    def test_record_fields(self, capsys):
        assert run(["hz", "-k", "1", "-w", "5.5", "--json", "--digits", "15"]) == 0
        rec = json.loads(lines(capsys)[0])
        assert set(rec) == {
            "quantity",
            "k",
            "w_or_x",
            "value",
            "err_estimate",
            "method",
            "params",
        }
        assert rec["quantity"] == "hurwitz_deriv"
        assert rec["k"] == 1
        assert rec["w_or_x"] == "11/2"
        assert rec["method"] == "asymptotic-shift"
        # the emitted value parses back within the emitted error
        with mpmath.mp.workdps(30):
            assert abs(mpmath.mpf(rec["value"])) > 0
            assert mpmath.mpf(rec["err_estimate"]) >= 0


class TestDigitHandling:
    @pytest.mark.parametrize("digits", [10, 20, 30])
    def test_prefix_consistent_rounding(self, digits, capsys):
        assert run(["dz", "-k", "1", "--digits", str(digits), "--json"]) == 0
        lo = json.loads(lines(capsys)[0])["value"]
        assert run(["dz", "-k", "1", "--digits", str(digits + 10), "--json"]) == 0
        hi = json.loads(lines(capsys)[0])["value"]
        with mpmath.mp.workdps(digits + 20):
            assert mpmath.nstr(mpmath.mpf(hi), digits, strip_zeros=False) == lo

    def test_every_printed_digit_at_high_precision(self, capsys):
        assert run(["hz", "-k", "0", "-w", "3/7", "--digits", "120", "--json"]) == 0
        rec = json.loads(lines(capsys)[0])
        with mpmath.mp.workdps(160):
            oracle = mpmath.zeta(0, mpmath.mpf(3) / 7, 1)
            assert rec["value"] == mpmath.nstr(oracle, 120, strip_zeros=False)
            assert mpmath.mpf(rec["err_estimate"]) <= mpmath.mpf(10) ** -120

    def test_env_var_default(self, capsys, monkeypatch):
        monkeypatch.setenv("HZETA_DIGITS", "12")
        assert run(["dz", "-k", "1"]) == 0
        (out,) = lines(capsys)
        assert "-0.165421143700" in out

    def test_env_var_invalid(self, capsys, monkeypatch):
        monkeypatch.setenv("HZETA_DIGITS", "zero")
        assert run(["dz", "-k", "1"]) == 1

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("HZETA_DIGITS", "35")
        assert run(["varpi", "-k", "2", "--digits", "10"]) == 0
        (out,) = lines(capsys)
        assert "-0.2475089541" in out


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert run(["dz"]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_computation_error(self, capsys):
        assert run(["gamma", "-k", "0", "-x", "0"]) == 1
        err = capsys.readouterr().err
        assert err.strip().count("\n") == 0  # one-line diagnostic

    def test_nonpositive_offset(self, capsys):
        assert run(["hz", "-k", "1", "-w", "0"]) == 1

    @pytest.mark.parametrize("command, flag", [("hz", "-w"), ("gamma", "-x")])
    def test_argument_beyond_float_range(self, command, flag, capsys):
        assert run([command, "-k", "0", flag, f"{10**400}/3"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert len(captured.out.splitlines()) == 1

    @pytest.mark.parametrize("arg", ["100000000", "1e400"])
    @pytest.mark.parametrize("command, flag", [("hz", "-w"), ("gamma", "-x")])
    def test_integer_beyond_the_exact_sum(self, command, flag, arg, capsys):
        # the series with no shift, within err of mpmath at D + 40 digits
        assert run([command, "-k", "0", flag, arg, "--json"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rec = json.loads(captured.out)
        assert rec["method"] == "asymptotic-shift"
        with mpmath.mp.workdps(60):
            w = mpmath.mpf(arg)
            oracle = mpmath.zeta(0, w, 1) if command == "hz" else mpmath.loggamma(w)
            # the value printed to 20 digits: half a unit of the last, plus err
            slack = abs(oracle) * mpmath.mpf(10) ** -19 / 2 + mpmath.mpf(rec["err_estimate"])
            assert abs(mpmath.mpf(rec["value"]) - oracle) <= slack

    def test_trial_argument_beyond_the_exact_sum(self, capsys):
        assert run(["const", "-k", "0", "--w-trial", "100000000"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("hzeta: error: exact sums stop")
        assert captured.err.strip().count("\n") == 0

    def test_unwritable_output_file(self, tmp_path, capsys):
        target = tmp_path / "missing" / "table.txt"
        assert run(["table", "--kmax", "1", "-o", str(target)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("hzeta: error: ")
        assert err.strip().count("\n") == 0  # one-line diagnostic, no traceback

    @pytest.mark.parametrize(
        "argv",
        [
            ["varpi", "-k", "2", "--terms", "5"],
            ["kinkelin", "--w-trial", "100"],
            ["table", "--kmax", "1", "--terms", "5"],
            ["selftest", "--terms", "5"],
            ["hz", "-k", "1", "-w", "1/2", "--w-trial", "100"],
            ["dz", "-k", "1", "--terms", "5"],
        ],
        ids=["varpi-terms", "kinkelin-w-trial", "table-terms", "selftest-terms",
             "hz-w-trial", "dz-terms-without-w-trial"],
    )
    def test_override_flag_where_it_has_no_effect(self, argv, capsys):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().count("\n") == 0  # one-line diagnostic
        assert "error" in captured.err


class TestParserForTheCommand:
    """`run` builds only the named subcommand's parser; help, errors and
    exit codes are those of the parser with every subcommand."""

    @staticmethod
    def full_parser(argv, capsys):
        try:
            _build_parser().parse_args(argv)
            code = 0
        except SystemExit as exc:
            code = int(exc.code or 0)
        return code, capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [["--help"], ["-h"], ["bogus"], [], ["--digits", "5", "dz", "-k", "1"],
         ["hz", "-k", "1"], ["gamma", "-k", "0", "-x", "1/2", "--bogus"],
         *([name, "--help"] for name in _COMMANDS)],
        ids=" ".join)
    def test_same_output_and_exit_code_as_the_full_parser(self, argv, capsys):
        expected_code, expected = self.full_parser(argv, capsys)
        assert expected_code == (0 if argv[-1:] in (["-h"], ["--help"]) else 2)
        assert run(argv) == expected_code
        got = capsys.readouterr()
        assert (got.out, got.err) == (expected.out, expected.err)
        assert expected.out or expected.err

    @pytest.mark.parametrize("argv", [
        ["dz", "-k", "0"], ["hz", "-k", "1", "-w", "1/2"], ["const", "-k", "0"],
        ["varpi", "-k", "1"], ["kinkelin"], ["gamma", "-k", "0", "-x", "3"],
        ["table", "--kmax", "0"], ["selftest", "--level", "quick"]], ids=lambda a: a[0])
    def test_one_parser_per_command_line(self, argv, monkeypatch, capsys):
        made = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            made.append(parser)
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert run([*argv, "--digits", "5"]) == 0
        assert len(made) == 1

    def test_subcommand_help_lists_no_siblings(self, capsys):
        assert run(["hz", "--help"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: hzeta hz ")
        assert "kinkelin" not in out


class TestParameterOverrides:
    def test_w_trial_and_terms(self, capsys):
        assert run(["const", "-k", "0", "--w-trial", "150", "--terms", "25", "--json"]) == 0
        rec = json.loads(lines(capsys)[0])
        assert rec["params"]["w_used"] == 150
        with mpmath.mp.workdps(40):
            oracle = mpmath.log(2 * mpmath.pi) / 2
            assert abs(mpmath.mpf(rec["value"]) - oracle) < mpmath.mpf("1e-19")

    def test_dz_w_trial_and_terms(self, capsys):
        assert run(["dz", "-k", "0", "--w-trial", "150", "--terms", "25", "--json"]) == 0
        rec = json.loads(lines(capsys)[0])
        assert rec["params"]["w_used"] == 150
        assert rec["params"]["tail_terms"] == 25
        with mpmath.mp.workdps(40):
            oracle = -mpmath.log(2 * mpmath.pi) / 2
            assert abs(mpmath.mpf(rec["value"]) - oracle) < mpmath.mpf("1e-19")


    def test_exact_route_reports_no_tail_terms(self, capsys):
        assert run(["hz", "-k", "1", "-w", "4", "--terms", "30", "--json"]) == 0
        rec = json.loads(lines(capsys)[0])
        assert rec["method"] == "exact-sum"
        assert rec["params"] == {"digits": 20}

    @pytest.mark.parametrize(
        "argv, tail_terms",
        [
            (["gamma", "-k", "0", "-x", "1/3", "--terms", "30"], 30),
            (["hz", "-k", "1", "-w", "1/4"], 16),
        ],
        ids=["gamma-terms", "hz-default-terms"],
    )
    def test_series_route_reports_tail_terms(self, argv, tail_terms, capsys):
        assert run(argv + ["--json"]) == 0
        rec = json.loads(lines(capsys)[0])
        assert rec["method"] == "asymptotic-shift"
        assert rec["params"] == {"digits": 20, "tail_terms": tail_terms}


class TestOnePath:
    def test_dz_matches_table_record(self, capsys):
        assert run(["table", "--kmax", "2", "--digits", "10", "--json"]) == 0
        table = [json.loads(ln) for ln in lines(capsys)]
        from_table = {r["k"]: r for r in table if r["quantity"] == "zeta_deriv"}
        assert sorted(from_table) == [0, 1, 2]
        for k in range(3):
            assert run(["dz", "-k", str(k), "--digits", "10", "--json"]) == 0
            (line,) = lines(capsys)
            assert json.loads(line) == from_table[k]
