import json
from fractions import Fraction
from pathlib import Path

import pytest

from metaplectic import CycValue, builtin_sigma_p3
from metaplectic.cli import (
    ConfigError,
    cyc_from_json,
    cyc_to_json,
    main,
    parse_vector_expression,
    poly_from_json,
    poly_to_json,
)
from metaplectic.repn import sigma_to_dict


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestExampleCommand:
    def test_default_passes(self, capsys):
        rc, out, _ = run_cli(capsys, "--command", "example")
        assert rc == 0
        assert "4/3" in out and "PASS" in out
        assert "gamma(0)" in out  # shell-by-shell breakdown

    def test_second_datum_reports_without_assert(self, capsys):
        rc, out, _ = run_cli(capsys, "--command", "example", "--sigma", "builtin2")
        assert rc == 0
        assert "no assertion" in out

    def test_rejects_even_p(self, capsys, tmp_path, ctx):
        # a table file fixes its own p; one that is not an odd prime is an
        # invalid table like any other, a failed stage
        data = sigma_to_dict(builtin_sigma_p3(ctx, 1))
        data["p"] = 4
        path = tmp_path / "sigma.json"
        path.write_text(json.dumps(data))
        rc, _, err = run_cli(capsys, "--sigma", str(path))
        assert rc == 1 and "ValueError: p = 4 is not an odd prime" in err


class TestCheckFe:
    def test_table_output_passes(self, capsys):
        rc, out, _ = run_cli(capsys, "--command", "check-fe")
        assert rc == 0
        assert out.count("PASS") >= 3 and "FAIL" not in out

    def test_json_schema_and_roundtrip(self, capsys):
        rc, out, _ = run_cli(capsys, "--command", "check-fe", "--output", "json")
        assert rc == 0
        report = json.loads(out)
        assert report["command"] == "check-fe"
        for case in report["cases"]:
            assert set(case) == {"xi", "mu", "vector", "lhs", "rhs", "residual",
                                 "pass", "vacuous_parity"}
            for key in ("lhs", "rhs", "residual"):
                poly = case[key]
                assert poly["variable"] in ("q^-s", "q^s")
                back = poly_from_json(3, poly)
                assert poly_to_json(back) == poly
            assert case["pass"] is True

    def test_corrupted_gamma_fails_localized(self, capsys):
        rc, out, _ = run_cli(capsys, "--command", "check-fe", "--corrupt-gamma")
        assert rc == 1
        assert "FAIL" in out and "residual" in out

    def test_parity_vacuous_flagged(self, capsys, tmp_path):
        mu = json.dumps({"conductor_exponent": 1,
                         "value_at_p_numerator_of_exponent": 0,
                         "value_at_p_denominator_of_exponent": 1,
                         "generator_image_exponent": 1})
        rc, out, _ = run_cli(capsys, "--command", "check-fe", "--mu", mu)
        assert rc == 0
        assert "vacuous" in out

    def test_deterministic_output(self, capsys):
        rc1, out1, _ = run_cli(capsys, "--command", "check-fe", "--output", "json")
        rc2, out2, _ = run_cli(capsys, "--command", "check-fe", "--output", "json")
        assert (rc1, out1) == (rc2, out2)


class TestCheckInvariants:
    def test_all_suites_pass(self, capsys):
        rc, out, _ = run_cli(capsys, "--command", "check-invariants",
                             "--trials", "60", "--seed", "7")
        assert rc == 0
        for suite in ("cocycle", "kubota-splitting", "coset-roundtrip", "characters",
                      "hilbert-oracle", "whittaker-equivariance", "bessel-agreement",
                      "shell-vanishing", "gamma-involution"):
            assert f"PASS  {suite}" in out

    def test_json_output(self, capsys):
        rc, out, _ = run_cli(capsys, "--command", "check-invariants",
                             "--trials", "50", "--output", "json")
        assert rc == 0
        report = json.loads(out)
        assert all(suite["pass"] for suite in report["suites"])


class TestSigmaFiles:
    def test_load_valid_file(self, capsys, tmp_path, ctx):
        path = tmp_path / "sigma.json"
        path.write_text(json.dumps(sigma_to_dict(builtin_sigma_p3(ctx, 1))))
        rc, out, _ = run_cli(capsys, "--command", "example", "--sigma", str(path))
        assert rc == 0 and "no assertion" in out

    def test_reject_non_cuspidal_file(self, capsys, tmp_path, ctx):
        data = sigma_to_dict(builtin_sigma_p3(ctx, 1))
        constant_one = [[[0, 1], [1, 1]]]
        for entry in data["entries"]:
            entry["rep"] = [[constant_one]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        rc, _, err = run_cli(capsys, "--command", "example", "--sigma", str(path))
        assert rc == 1
        assert "cuspidal" in err or "conductor" in err

    def test_weil_file_check_fe(self, capsys, tmp_path, weil5):
        # a p = 5, dim 2 table through the file door and its validation
        path = tmp_path / "weil5.json"
        path.write_text(json.dumps(sigma_to_dict(weil5.sigma)))
        mu = json.dumps({"conductor_exponent": 1,
                         "value_at_p_numerator_of_exponent": 0,
                         "value_at_p_denominator_of_exponent": 1,
                         "generator_image_exponent": 1})
        rc, out, _ = run_cli(capsys, "--sigma", str(path), "--command", "check-fe",
                             "--mu", mu, "--output", "json")
        assert rc == 0
        cases = json.loads(out)["cases"]
        assert cases and all(case["pass"] for case in cases)
        assert any(case["lhs"]["terms"] for case in cases)

    def test_missing_file(self, capsys):
        rc, _, err = run_cli(capsys, "--sigma", "/nonexistent/sigma.json")
        assert rc == 2


class TestConfigErrors:
    """Unreadable input, malformed JSON and records with a missing field are
    configuration errors: exit status 2, not a failed stage."""

    @pytest.mark.parametrize("argv", [
        ("--command", "gamma", "--mu", "@/nonexistent.json"),
        ("--command", "gamma", "--mu", "{bad"),
        ("--command", "gamma", "--mu", '{"conductor_exponent": 1}'),
        ("--command", "zeta", "--vectors", "/nonexistent.txt"),
    ], ids=["mu-file-missing", "mu-bad-json", "mu-missing-field", "vectors-file-missing"])
    def test_exit_status_2(self, capsys, argv):
        rc, _, err = run_cli(capsys, *argv)
        assert rc == 2 and err.startswith("configuration error:")

    @pytest.mark.parametrize("record", [
        [1],
        {"conductor_exponent": "x", "value_at_p_numerator_of_exponent": 0,
         "value_at_p_denominator_of_exponent": 1},
        {"conductor_exponent": 0, "value_at_p_numerator_of_exponent": 1,
         "value_at_p_denominator_of_exponent": 0},
        {"conductor_exponent": 7, "value_at_p_numerator_of_exponent": 0,
         "value_at_p_denominator_of_exponent": 1},
        # 1.9 and 1.5 were truncated to 1 and 1, "2" was read as 2
        {"conductor_exponent": 1.9, "value_at_p_numerator_of_exponent": 0,
         "value_at_p_denominator_of_exponent": 1, "generator_image_exponent": 1.5},
        {"conductor_exponent": "2", "value_at_p_numerator_of_exponent": 0,
         "value_at_p_denominator_of_exponent": 1, "generator_image_exponent": 1},
        {"conductor_exponent": float("inf"), "value_at_p_numerator_of_exponent": 0,
         "value_at_p_denominator_of_exponent": 1},
    ], ids=["mu-not-a-record", "mu-non-integer-field", "mu-zero-denominator",
            "mu-exponent-over-cap", "mu-fractional-field", "mu-numeric-string-field",
            "mu-infinite-field"])
    def test_malformed_mu_record(self, capsys, record):
        rc, _, err = run_cli(capsys, "--command", "gamma", "--mu", json.dumps(record))
        assert rc == 2 and err.startswith("configuration error:")
        assert "is invalid" in err

    @pytest.mark.parametrize("line", ["phi(t=1/0)", "2/0 * phi()", "phi(b=5)"],
                             ids=["t-zero-denominator", "coeff-zero-denominator",
                                  "basis-index-over-dim"])
    @pytest.mark.parametrize("command", ["zeta", "check-fe"])
    def test_invalid_vector_term(self, capsys, tmp_path, command, line):
        path = tmp_path / "vectors.txt"
        path.write_text(f"phi()\n{line}\n")
        rc, _, err = run_cli(capsys, "--command", command, "--vectors", str(path))
        assert rc == 2 and err.startswith("configuration error:")
        assert "invalid vector term" in err

    @pytest.mark.parametrize("line", ["-", "phi() -", "phi() phi(n=1)"],
                             ids=["signs-only", "trailing-sign", "missing-operator"])
    @pytest.mark.parametrize("command", ["zeta", "check-fe"])
    def test_malformed_vector_combination(self, capsys, tmp_path, command, line):
        # each line passed as the zero vector, phi() or phi() + phi(n=1) before
        path = tmp_path / "vectors.txt"
        path.write_text(f"phi()\n{line}\n")
        rc, out, err = run_cli(capsys, "--command", command, "--vectors", str(path))
        assert rc == 2 and err.startswith("configuration error:") and not out

    def test_vectors_file_with_only_comments(self, capsys, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("# no vector here\n\n# nor here\n")
        rc, _, err = run_cli(capsys, "--command", "zeta", "--vectors", str(path))
        assert rc == 2 and err.startswith("configuration error:")
        assert "no vector expressions found" in err

    @pytest.mark.parametrize("text", ["{bad", '{"p": 3, "l": 1}'],
                             ids=["bad-json", "missing-field"])
    def test_malformed_sigma_file(self, capsys, tmp_path, text):
        path = tmp_path / "sigma.json"
        path.write_text(text)
        rc, _, err = run_cli(capsys, "--sigma", str(path))
        assert rc == 2 and err.startswith("configuration error:")


class TestVectors:
    def test_expression_parser(self, rep1):
        v = parse_vector_expression(rep1, "2/3*phi(t=1/3, n=0, b=0) - phi(t=0, n=1)")
        assert v.terms[(1, 1, 0, 0)] == Fraction(2, 3)
        assert v.terms[(0, 0, 1, 0)] == -1

    def test_expression_defaults(self, rep1):
        v = parse_vector_expression(rep1, "phi()")
        assert v.terms == {(0, 0, 0, 0): CycValue.one(3)}

    def test_bad_expression(self, rep1):
        with pytest.raises(ConfigError):
            parse_vector_expression(rep1, "psi(t=0)")

    def test_vectors_file(self, capsys, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("phi(t=0, n=0, b=0)\n# comment\n2*phi(n=1) - phi(t=1/3)\n")
        rc, out, _ = run_cli(capsys, "--command", "check-fe", "--vectors", str(path))
        assert rc == 0
        assert out.count("PASS") == 2

    def test_deep_denominator_check_fe(self, capsys, tmp_path):
        # a t of denominator 3^8: its shell is sampled at level l + 8
        path = tmp_path / "vectors.txt"
        path.write_text("phi(t=1/6561, n=0) + phi(t=0, n=1)\n")
        rc, out, _ = run_cli(capsys, "--command", "check-fe", "--vectors", str(path))
        assert rc == 0
        assert out.count("PASS") == 1 and "FAIL" not in out

    def test_zeta_far_shell(self, capsys, tmp_path):
        # support beyond the default window [-7, 7] of builtin 1
        path = tmp_path / "vectors.txt"
        path.write_text("phi(n=8)\n")
        rc, out, _ = run_cli(capsys, "--command", "zeta", "--vectors", str(path),
                             "--output", "json")
        assert rc == 0
        (case,) = json.loads(out)["cases"]
        assert [term["exp"] for term in case["poly"]["terms"]] == [8]
        assert case["window"] == [-7, 13]

    def test_zeta_window_is_no_limit(self, capsys, tmp_path):
        # shell 12 needs the window end 17: reported, not refused
        path = tmp_path / "vectors.txt"
        path.write_text("phi(n=12)\n")
        rc, out, _ = run_cli(capsys, "--command", "zeta", "--vectors", str(path),
                             "--output", "json")
        assert rc == 0
        (case,) = json.loads(out)["cases"]
        assert [term["exp"] for term in case["poly"]["terms"]] == [12]
        assert case["window"] == [-7, 17]

    def test_max_range_is_unknown(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--command", "zeta", "--max-range", "20"])
        assert exc.value.code == 2
        assert "--max-range" in capsys.readouterr().err


class TestSerialization:
    def test_cyc_roundtrip_exact(self, ctx):
        value = (CycValue.root_of_unity(ctx.q, Fraction(5, 9)) * Fraction(2, 7)
                 + CycValue.sqrtq(ctx.q) * CycValue.root_of_unity(ctx.q, Fraction(1, 4))
                 + CycValue.rational(ctx.q, Fraction(-3, 2)))
        data = cyc_to_json(value)
        assert cyc_from_json(3, data) == value
        assert not any(term["sqrtq"] for term in data["terms"])

    def test_sqrtq_term_still_read(self, ctx):
        # c e(r) sqrt(q) written with the flag, as older files may carry it
        term = {"numerator": 2, "denominator": 7, "root_of_unity_num": 1,
                "root_of_unity_den": 4, "sqrtq": True}
        want = CycValue.sqrtq(3) * CycValue.root_of_unity(3, Fraction(1, 4)) * Fraction(2, 7)
        assert cyc_from_json(3, {"terms": [term]}) == want
        assert cyc_from_json(3, cyc_to_json(want)) == want

    def test_mu_spec_inline(self, capsys):
        mu = json.dumps({"conductor_exponent": 0,
                         "value_at_p_numerator_of_exponent": 1,
                         "value_at_p_denominator_of_exponent": 4,
                         "generator_image_exponent": 0})
        rc, out, _ = run_cli(capsys, "--command", "zeta", "--mu", mu, "--output", "json")
        assert rc == 0
        report = json.loads(out)
        assert report["mu"]["value_at_p_numerator_of_exponent"] == 1

    def test_gamma_command_json(self, capsys):
        rc, out, _ = run_cli(capsys, "--command", "gamma", "--output", "json")
        assert rc == 0
        report = json.loads(out)
        case = report["cases"][0]
        poly = poly_from_json(3, case["poly"])
        assert poly.coeffs[0] == Fraction(4, 3)

    def test_bessel_command(self, capsys):
        rc, out, _ = run_cli(capsys, "--command", "bessel")
        assert rc == 0
        assert "J(<x>w)" in out


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_MU = {
    "trivial": "trivial",
    "quadratic1": json.dumps({"conductor_exponent": 1,
                              "value_at_p_numerator_of_exponent": 0,
                              "value_at_p_denominator_of_exponent": 1,
                              "generator_image_exponent": 1}),
    "unramified4": json.dumps({"conductor_exponent": 0,
                               "value_at_p_numerator_of_exponent": 1,
                               "value_at_p_denominator_of_exponent": 4,
                               "generator_image_exponent": 0}),
    "ramified3": json.dumps({"conductor_exponent": 3,
                             "value_at_p_numerator_of_exponent": 1,
                             "value_at_p_denominator_of_exponent": 4,
                             "generator_image_exponent": 4}),
}


@pytest.mark.parametrize("mu", sorted(GOLDEN_MU))
@pytest.mark.parametrize("sigma", ["builtin1", "builtin2"])
@pytest.mark.parametrize("command", ["zeta", "check-fe", "gamma"])
def test_golden_json_bytes(capsys, command, sigma, mu):
    """`zeta`, `check-fe` (on the default vectors) and `gamma` JSON, byte for
    byte as recorded in golden/<command>-<sigma>-<mu>.json."""
    rc, out, _ = run_cli(capsys, "--command", command, "--sigma", sigma,
                         "--mu", GOLDEN_MU[mu], "--output", "json")
    assert rc == 0
    assert out == (GOLDEN / f"{command}-{sigma}-{mu}.json").read_text()


def _assert_named_golden(capsys, sigma, command):
    rc, out, _ = run_cli(capsys, "--sigma", sigma, "--command", command,
                         "--mu", GOLDEN_MU["quadratic1"], "--output", "json")
    assert rc == 0
    assert out == (GOLDEN / f"{command}-{sigma}-quadratic1.json").read_text()


@pytest.mark.parametrize("command", ["check-fe", "gamma"])
def test_golden_weil5_json_bytes(capsys, command):
    """`check-fe` and `gamma` JSON on the p = 5 odd Weil table (dim 2), read
    by its name with the conductor-1 character, byte for byte as recorded
    in golden/<command>-weil5-quadratic1.json.  The builtin goldens are
    1 x 1, so these and the norm3 goldens see the matrix paths."""
    _assert_named_golden(capsys, "weil5", command)


@pytest.mark.parametrize("command", ["check-fe", "gamma"])
def test_golden_norm3_json_bytes(capsys, command):
    """The same on the norm-form table at p = 3 (dim 2), whose two square
    classes make the sums over eta two terms and the gamma matrix 2 x 2:
    golden/<command>-norm3-quadratic1.json."""
    _assert_named_golden(capsys, "norm3", command)


@pytest.mark.parametrize("sigma", ["builtin1", "builtin2"])
def test_golden_bessel_json_bytes(capsys, sigma):
    """`bessel` JSON (it ignores --mu), byte for byte as recorded in
    golden/bessel-<sigma>.json: the unit shell, the shells below it and the
    deep-shell spot checks."""
    rc, out, _ = run_cli(capsys, "--command", "bessel", "--sigma", sigma, "--output", "json")
    assert rc == 0
    assert out == (GOLDEN / f"bessel-{sigma}.json").read_text()


GOLDEN_TABLE_RUNS = {
    **{f"{command}-{sigma}": (0, ["--command", command, "--sigma", sigma])
       for command in ("example", "gamma", "zeta", "bessel", "check-fe")
       for sigma in ("builtin1", "builtin2")},
    "check-fe-corrupt-gamma-builtin1": (1, ["--command", "check-fe", "--corrupt-gamma"]),
    "check-invariants-builtin1": (0, ["--command", "check-invariants",
                                      "--trials", "50", "--seed", "7"]),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_TABLE_RUNS))
def test_golden_table_bytes(capsys, name):
    """`--output table` (the default) and the exit status, byte for byte as
    recorded in golden/<name>.txt."""
    status, argv = GOLDEN_TABLE_RUNS[name]
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == status
    assert out == (GOLDEN / f"{name}.txt").read_text()
