import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from chebotarev_lab import fields, sieve
from chebotarev_lab.arith import factorize
from chebotarev_lab.cli import _csv, main
from chebotarev_lab.fields import builtin_field
from chebotarev_lab.oracles import frobenius_data_by_factoring, rs_product_coefficients

SUBCOMMANDS = ["coeffs", "splitting", "large-sieve", "weights", "eta", "chebotarev", "family"]


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "chebotarev_lab.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_coeffs_csv(capsys):
    assert main(["coeffs", "--field", "gaussian", "--n", "12"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "n,a_K"
    assert lines[1] == "1,1"
    assert "3,-1" in lines and "5,1" in lines
    assert all(not line.startswith(("2,", "4,")) for line in lines[1:])  # even n skipped


def test_coeffs_pair(capsys):
    assert main(["coeffs", "--field", "gaussian", "--other-field", "sqrt5", "--n", "10"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "n,a_KxK"


def test_coeffs_pair_past_exponent_8(capsys):
    # n = 600 reaches 2^9: every printed value against the Euler-product oracle
    assert main(["coeffs", "--field", "sqrt5", "--other-field", "zeta7", "--n", "600"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,a_KxK"
    sqrt5, zeta7 = builtin_field("sqrt5"), builtin_field("zeta7")
    printed = dict(tuple(int(tok) for tok in line.split(",")) for line in lines[1:])
    assert sorted(printed) == [n for n in range(1, 601) if math.gcd(n, 5 * 7) == 1]
    for n, value in printed.items():
        want = 1
        for p, e in factorize(n).items():
            want *= rs_product_coefficients(sqrt5, zeta7, p, e)[e]
        assert abs(value - want) < 1e-6, (n, value, want)


def test_coeffs_past_the_term_cap_is_refused_before_sieving(monkeypatch, capsys):
    from chebotarev_lab import artin

    def refuse(limit):
        raise AssertionError(f"sieved to {limit}")

    monkeypatch.setattr(artin, "sieve_primes", refuse)
    n = artin.MAX_SERIES_TERMS + 1
    assert main(["coeffs", "--field", "gaussian", "--other-field", "sqrt5", "--n", str(n)]) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == {"code": "LimitTooLarge", "message": f"series truncation must be <= {artin.MAX_SERIES_TERMS}, got {n}"}


def test_chebotarev_json(capsys):
    assert main(["chebotarev", "--field", "gaussian", "--class", "1", "--x", "100"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == 1
    assert payload["count"] == 11
    assert payload["pi_x"] == 25


def test_chebotarev_with_weights(capsys):
    assert main([
        "chebotarev", "--field", "gaussian", "--class", "1", "--x", "500",
        "--weights-eps", "0.1",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["psi_weighted"] > 0


class _Sieved(Exception):
    """Stops a CLI run at its sieve."""


def test_chebotarev_sieves_to_x_e_eps(monkeypatch, capsys):
    # psi needs primes to x e^eps, not x e^(1/4): at x = 8e7 and eps = 0.1
    # that is 8.84e7, within the 1e8 cap that x e^(1/4) exceeds.  An eps out
    # of range is reported as such before any sieve is asked for
    limits = []

    def record(limit):
        limits.append(limit)
        raise _Sieved

    monkeypatch.setattr(sieve, "sieve_primes", record)
    for x, eps, want in (("8e7", "0.1", math.ceil(8e7 * math.exp(0.1))), ("5e7", None, 5 * 10**7)):
        limits.clear()
        argv = ["chebotarev", "--field", "gaussian", "--x", x] + (["--weights-eps", eps] if eps else [])
        with pytest.raises(_Sieved):
            main(argv)
        assert limits == [want] and want <= sieve.SIEVE_CAP
    # an eps of 0 is refused like any other outside (0, 1/4), not read as no eps,
    # and a union is refused with it before any sieve too
    for cls, eps, code in (("1", "7", "ParameterOutOfRange"), ("1", "0", "ParameterOutOfRange"),
                           ("order=2", "0.1", "ValidationError")):
        limits.clear()
        assert main(["chebotarev", "--field", "gaussian", "--class", cls, "--x", "8e7", "--weights-eps", eps]) == 1
        assert json.loads(capsys.readouterr().err)["error"]["code"] == code, (cls, eps)
        assert limits == []


def test_x_at_the_sieve_cap_runs(monkeypatch, capsys, tmp_path):
    # every command sieves to ceil(x), so x at the cap runs and x just past it
    # is refused with the limit it needs, not x + 1
    cap = 1000
    monkeypatch.setattr(sieve, "SIEVE_CAP", cap)
    catalog = tmp_path / "quads.txt"
    catalog.write_text("m1 | 1 0 1 | C2 | -4\nm3 | 1 1 1 | C2 | -3\n", encoding="utf-8")
    psi_x = repr(cap / math.exp(0.1))  # x e^0.1 rounds up to the cap
    assert math.ceil(float(psi_x) * math.exp(0.1)) == cap
    for argv in (
        ["chebotarev", "--field", "gaussian", "--x", "1000"],
        ["chebotarev", "--field", "gaussian", "--x", psi_x, "--weights-eps", "0.1"],
        ["family", "--catalog", str(catalog), "--x", "1000"],
        ["large-sieve", "--u", "1000"],
    ):
        assert main(argv) == 0, argv
        capsys.readouterr()
    for argv, limit in (
        (["chebotarev", "--field", "gaussian", "--x", "1000.5"], 1001),
        (["chebotarev", "--field", "gaussian", "--x", "1000", "--weights-eps", "0.1"], 1106),
        (["family", "--catalog", str(catalog), "--x", "1000.5"], 1001),
        (["large-sieve", "--u", "1000.5"], 1001),
    ):
        assert main(argv) == 1, argv
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == {"code": "LimitTooLarge", "message": f"sieve limit must be <= 1000, got {limit}"}, argv


@pytest.mark.parametrize("x", ["0", "1", "1.5"])
def test_family_below_two_reports_x(x, capsys):
    # the sieve limit is at least 2, so the refusal names x, not the sieve
    assert main(["family", "--catalog", CATALOG, "--x", x]) == 1
    assert json.loads(capsys.readouterr().err) == {"error": {
        "code": "ParameterOutOfRange", "message": f"x must be finite and >= 2, got {float(x)}"}}


@pytest.mark.parametrize("argv", [
    ["family", "--Q", "100", "--x", "1000"],
    ["family", "--Q", "100", "--x", "1000", "--rule", "explicit-pairs"],
    ["splitting", "--field", "a", "--limit", "100"],
], ids=["family", "family-explicit-pairs", "splitting"])
def test_catalog_with_a_repeated_name_exit_code_and_message(tmp_path, capsys, argv):
    # family printed one per_field entry and m 1 (m 2 under explicit-pairs) for two
    # fields of error 4.0 each, and --field could not reach the second row
    catalog = tmp_path / "twice.txt"
    catalog.write_text("a | 1 0 1 | C2 | -4\na | -2 0 1 | C2 | 8\n", encoding="utf-8")
    assert main([*argv, "--catalog", str(catalog)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": {
        "code": "CatalogError", "message": f"{catalog}:2: field name 'a' is already used on line 1"}}


@pytest.mark.parametrize("argv", [
    ["chebotarev", "--field", "gaussian", "--class", "2", "--x", "100"],
    ["coeffs", "--field", "gaussian", "--n", "12"],
    ["splitting", "--field", "gaussian", "--limit", "100"],
    ["large-sieve", "--fields", "gaussian,sqrt5", "--Q", "10", "--u", "300"],
    ["family", "--Q", "100", "--x", "1000"],
], ids=["chebotarev", "coeffs", "splitting", "large-sieve", "family"])
def test_catalog_shadowing_a_builtin_exit_code_and_message(tmp_path, capsys, argv):
    # the row is Q(sqrt 2): chebotarev counted 13 primes for the built-in Q(i),
    # while family reported per_field["gaussian"] for the row
    catalog = tmp_path / "shadow.txt"
    catalog.write_text("gaussian | -2 0 1 | C2 | 8\n", encoding="utf-8")
    assert main([*argv, "--catalog", str(catalog)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": {
        "code": "CatalogError", "message": f"{catalog}:1: field name 'gaussian' is already used by a built-in field"}}


def test_family_names_an_unknown_rule(capsys):
    assert main(["family", "--catalog", CATALOG, "--rule", "bogus"]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == {
        "code": "UndecidableIntersectionRule",
        "message": "unknown intersection rule 'bogus'; known:"
        " ['explicit-pairs', 'quadratic-equality', 'resolvent-discriminant', 'simple-group']",
    }


def test_family_errors_come_before_any_sieve(monkeypatch, capsys, tmp_path):
    # m_F and the mean-value window are checked when the family and window are
    # built, so a family without an intersection rule or a bad window is
    # reported without sieving to x or u
    def refuse(limit):
        raise _Sieved

    monkeypatch.setattr(sieve, "sieve_primes", refuse)
    catalog = tmp_path / "s3.txt"
    catalog.write_text("s3 | -1 -1 0 1 | S3 | -12167\n", encoding="utf-8")
    for argv, code, error in (
        (["family", "--catalog", str(catalog), "--Q", "20000", "--x", "1e7"], 2, "UndecidableIntersectionRule"),
        (["large-sieve", "--fields", "zeta5", "--u", "9e7"], 2, "UndecidableIntersectionRule"),
        (["large-sieve", "--y", "0.5", "--u", "9e7"], 1, "ValidationError"),
        # log log y is undefined at y = 1: a typed error, not a math domain traceback
        (["large-sieve", "--y", "1", "--u", "1.5"], 1, "ValidationError"),
        (["large-sieve", "--y", "1", "--u", "1"], 1, "ValidationError"),
        # the zero-density parameters and the height T are checked before the sieve too
        (["large-sieve", "--sigma", "0.3", "--u", "9e7"], 1, "ParameterOutOfRange"),
        (["large-sieve", "--Q", "1", "--fields", "rational", "--rule", "explicit-pairs", "--sigma", "0.8",
          "--u", "9e7"], 1, "ParameterOutOfRange"),
        (["large-sieve", "--T", "0", "--sigma", "0.8", "--u", "9e7"], 1, "ParameterOutOfRange"),
    ):
        assert main(argv) == code, argv
        assert json.loads(capsys.readouterr().err)["error"]["code"] == error


def test_large_sieve_y_one_is_a_typed_error():
    # y = 1 once reached log(log y) in the mean-value report and died with a math domain traceback
    code, out, err = run_cli(["large-sieve", "--y", "1", "--u", "1.5"])
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": {"code": "ValidationError", "message": "y must be > 1"}}


def test_splitting_table(capsys):
    assert main(["splitting", "--field", "s3cubic", "--limit", "60"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "p,ramified,factorization_type,frobenius_order,class"
    assert "59,0,1+1+1,1,1" in lines  # first totally split prime
    assert "23,1,,," in lines  # the ramified prime


def test_weights_grid(capsys):
    assert main(["weights", "--x", "100", "--eps", "0.1", "--grid", "0:1:0.25"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("t,f,")
    assert len(lines) == 6


def test_csv_cells_print_as_repr():
    # str of a float is its shortest round-trip repr, so CSV floats read back exactly
    floats = [0.1, 1e22, 5e-324, -0.0, math.nan]
    out = _csv([[7, "ab", *floats]], ["n", "s", "a", "b", "c", "d", "e"])
    assert out == "n,s,a,b,c,d,e\n7,ab,0.1,1e+22,5e-324,-0.0,nan"
    assert out.splitlines()[1] == ",".join(["7", "ab", *map(repr, floats)])


def test_eta_csv(capsys):
    assert main(["eta", "--disc", "229", "--degree", "2", "--x-values", "1000,100000"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x,eta"
    assert len(lines) == 3


def test_eta_family_mode(capsys):
    assert main(["eta", "--Q", "100", "--m", "1", "--eps", "0.5", "--x-values", "1000"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x,eta,inf_phi1,inf_phi2,three_term_bound"


def test_large_sieve_json(capsys):
    assert main([
        "large-sieve", "--fields", "gaussian,sqrt5", "--Q", "10",
        "--y", "2", "--u", "500",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "mean-value"
    assert payload["lhs"] >= 0
    assert "rhs_shape_log" in payload


def test_ambiguous_family_names_its_first_unresolved_prime(tmp_path, capsys):
    # psi's error and exit code: A4's classes 3a and 3b are not separated at p = 5
    catalog = tmp_path / "a4.txt"
    catalog.write_text("a4quartic | 12 8 0 0 1 | A4 | 331776\n", encoding="utf-8")
    argv = ["--catalog", str(catalog), "--x", "1000"]
    for args in (["family", *argv, "--rule", "explicit-pairs", "--Q", "1e6"],
                 ["chebotarev", *argv, "--field", "a4quartic", "--class", "1", "--weights-eps", "0.1"]):
        assert main(args) == 2, args
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == {"code": "AmbiguousClass", "message": "a4quartic: class not resolvable at p=5"}, args


def test_family_subcommand(tmp_path, capsys):
    catalog = tmp_path / "quads.txt"
    catalog.write_text(
        "\n".join(
            f"q{d} | {-d} 0 1 | C2 | {4 * d}" for d in (2, 3, 7, -2, -5)
        )
        + "\n",
        encoding="utf-8",
    )
    assert main(["family", "--catalog", str(catalog), "--Q", "40", "--x", "1000"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == 1
    assert payload["size"] == 5
    assert payload["m"] == 1
    assert payload["avg_error"] >= 0


def test_malformed_catalog_exit_code_and_line(tmp_path):
    catalog = tmp_path / "bad.txt"
    catalog.write_text("fine | 1 0 1 | C2 | -4\noops | one two | C2 | 5\n", encoding="utf-8")
    code, out, err = run_cli(["family", "--catalog", str(catalog), "--Q", "40", "--x", "100"])
    assert code == 1
    assert "bad.txt:2" in err


def test_catalog_d_k_off_disc_f_exit_code_and_message(tmp_path, capsys):
    # x^3 - x - 1 has disc -23, so D_K = -7 * 23 names a prime that cannot ramify
    catalog = tmp_path / "w.txt"
    catalog.write_text("fine | 1 0 1 | C2 | -4\nw | -1 -1 0 1 | S3 | -161\n", encoding="utf-8")
    assert main(["splitting", "--catalog", str(catalog), "--field", "w", "--limit", "30"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": {"code": "CatalogError", "message": (
        f"{catalog}:2: w: D_K = -161 has a prime factor that does not divide disc f = -23")}}


@pytest.mark.parametrize("row,argv,message", [
    ("liar | -1 -1 0 0 1 | A4 | -283", ["splitting", "--field", "liar", "--limit", "1000"],
     "liar: disc f = -283 is not a square, so G is not in A4, but A4 is"),
    ("a4s4 | 12 8 0 0 1 | S4 | 576", ["chebotarev", "--field", "a4s4", "--class", "3", "--x", "1e5"],
     "a4s4: disc f = 331776 is a square, so G is in A4, but S4 is not"),
], ids=["liar", "a4s4"])
def test_catalog_group_tag_off_disc_f_exit_code_and_message(tmp_path, capsys, row, argv, message):
    # each tag is disproved by the sign of disc f: liar's S4 quartic left 140 of
    # 168 primes unresolved, and a4s4 printed an expected value from S4's class sizes
    catalog = tmp_path / "tags.txt"
    catalog.write_text(f"fine | 1 0 1 | C2 | -4\n{row}\n", encoding="utf-8")
    assert main([*argv, "--catalog", str(catalog)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": {"code": "CatalogError", "message": f"{catalog}:2: {message}"}}


@pytest.mark.parametrize("row,argv,message", [
    ("liar4 | -1 -1 0 0 1 | D4 | -283", ["splitting", "--field", "liar4", "--limit", "1000"],
     "liar4: p=2 has factorization type (4,) of order 4, the order of no element of D4"),
    ("liar4 | -1 -1 0 0 1 | D4 | -283", ["chebotarev", "--field", "liar4", "--class", "order=2", "--x", "1000"],
     "liar4: p=2 has factorization type (4,) of order 4, the order of no element of D4"),
    ("s4c4 | -1 -1 0 0 1 | C4 | -283", ["splitting", "--field", "s4c4", "--limit", "1000"],
     "s4c4: p=7 has factorization type (1, 3) of order 3, the order of no element of C4"),
    ("s4c4 | -1 -1 0 0 1 | C4 | -283", ["chebotarev", "--field", "s4c4", "--class", "order=4", "--x", "1000"],
     "s4c4: p=7 has factorization type (1, 3) of order 3, the order of no element of C4"),
], ids=["liar4-splitting", "liar4-chebotarev", "s4c4-splitting", "s4c4-chebotarev"])
def test_group_mismatch_exit_code_and_message(tmp_path, capsys, row, argv, message):
    # an S4 quartic tagged D4 or C4 passes every parse-time check; it left 163
    # and 100 of 168 primes at '?', and printed a count of 63 against 126.0
    # expected for order=2 of liar4
    catalog = tmp_path / "tags.txt"
    catalog.write_text(f"fine | 1 0 1 | C2 | -4\n{row}\n", encoding="utf-8")
    assert main([*argv, "--catalog", str(catalog)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": {"code": "GroupMismatch", "message": message}}


def test_alternating_groups_count_by_order(tmp_path, capsys):
    # A4 and A5 acting on the roots: the split classes 3a/3b and 5a/5b are
    # ambiguous, and their union by order counts
    catalog = tmp_path / "alt.txt"
    catalog.write_text("a4 | 12 8 0 0 1 | A4 | 331776\na5 | 16 20 0 0 0 1 | A5 | 1024000000\n", encoding="utf-8")
    primes = sieve.sieve_primes(2000).primes.tolist()
    for fd, d in zip(fields.load_catalog(catalog), (3, 5)):
        want = sum(frobenius_data_by_factoring(fd, p).frobenius_order == d for p in primes)
        assert main(["chebotarev", "--catalog", str(catalog), "--field", fd.name, "--class", f"order={d}",
                     "--x", "2000"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["class"], payload["count"], payload["pi_x"]) == (f"order={d}", want, 303)
        assert want > 0
        assert main(["chebotarev", "--catalog", str(catalog), "--field", fd.name, "--class", f"{d}a",
                     "--x", "2000"]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["code"] == "AmbiguousClass"


def test_validation_exit_codes():
    code, _, err = run_cli(["chebotarev", "--field", "nosuchfield", "--x", "100"])
    assert code == 1
    assert "nosuchfield" in err
    code, _, _ = run_cli(["chebotarev", "--field", "gaussian", "--class", "99", "--x", "50"])
    assert code == 1


CATALOG = str(Path(__file__).resolve().parents[1] / "demos" / "catalog_quadratics.txt")
HUGE_GRIDS = (["weights", "--grid", "0:1:1e-9"],  # 10^9 points, refused before the first
              ["weights", "--grid", "1:1:1e-17"])  # t += step would never move t


@pytest.mark.parametrize(
    "args",
    [
        ["chebotarev", "--x", "nan"],
        ["chebotarev", "--x", "inf"],
        ["chebotarev", "--x", "-inf"],
        ["chebotarev", "--x", "100", "--weights-eps", "nan"],
        ["family", "--catalog", CATALOG, "--x", "nan"],
        ["family", "--catalog", CATALOG, "--x", "inf"],
        ["family", "--catalog", CATALOG, "--x", "100", "--Q", "nan"],
        ["family", "--catalog", CATALOG, "--x", "100", "--eps", "nan"],
        ["large-sieve", "--u", "nan"],
        ["large-sieve", "--u", "inf"],
        ["large-sieve", "--y", "nan"],
        ["large-sieve", "--y", "inf"],
        ["large-sieve", "--Q", "nan"],
        ["large-sieve", "--T", "inf"],
        ["large-sieve", "--sigma", "nan"],
        ["weights", "--x", "nan"],
        ["weights", "--x", "inf"],
        ["weights", "--grid", "0:nan:0.1"],
        ["weights", "--grid", "0:1:0"],
        *HUGE_GRIDS,
        ["weights", "--grid", "0:1"],
        ["eta", "--Q", "nan"],
        ["eta", "--c1", "nan"],
        ["eta", "--x-values", "1000,inf"],
        # an order that is not an integer, for --class order=<d>
        ["chebotarev", "--x", "100", "--class", "order=abc"],
        ["chebotarev", "--x", "100", "--class", "order="],
        ["chebotarev", "--x", "100", "--class", "order=2.5"],
    ],
)
def test_non_finite_and_malformed_floats_rejected(args, capsys):
    assert main(args) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" not in err
    assert json.loads(err)["error"]["code"] == ("LimitTooLarge" if args in HUGE_GRIDS else "ValidationError")


@pytest.mark.parametrize(
    "args",
    [
        ["eta", "--degree", "0"],
        ["eta", "--degree", "-2"],
        ["eta", "--c1", "-1"],
        ["eta", "--c1", "0"],
        ["eta", "--c-eps", "-1"],
        ["eta", "--Q", "100", "--c1", "-1"],
    ],
)
def test_eta_constants_out_of_range(args, capsys):
    assert main(args) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" not in err
    assert json.loads(err)["error"]["code"] == "ParameterOutOfRange"


@pytest.mark.parametrize(
    "args, parses, memos",
    [
        (["large-sieve", "--catalog", CATALOG, "--fields", "quad(-3),quad(5),quad(-3)"], 1, 2),
        (["coeffs", "--catalog", CATALOG, "--field", "quad(5)", "--other-field", "quad(5)"], 1, 1),
        (["family", "--catalog", CATALOG], 1, 20),
    ],
)
def test_catalog_parsed_once_per_invocation(args, parses, memos, monkeypatch, capsys):
    # a repeated name resolves to one descriptor, so one Frobenius-table memo
    counts = {"parses": 0, "memos": 0}
    parse_catalog = fields.parse_catalog

    def counting_parse(*a, **kw):
        counts["parses"] += 1
        return parse_catalog(*a, **kw)

    class CountingMemo(fields._TableMemo):
        def __init__(self, fd):
            counts["memos"] += 1
            super().__init__(fd)

    monkeypatch.setattr(fields, "parse_catalog", counting_parse)
    monkeypatch.setattr(fields, "_TableMemo", CountingMemo)
    assert main(args) == 0
    assert (counts["parses"], counts["memos"]) == (parses, memos)


def test_computation_exit_code(tmp_path):
    # exact class requested where only unions are resolvable
    catalog = tmp_path / "blind.txt"
    catalog.write_text("blindz5 | 1 1 1 1 1 | C4 | 125\n", encoding="utf-8")
    code, _, err = run_cli([
        "chebotarev", "--field", "blindz5", "--catalog", str(catalog),
        "--class", "4a", "--x", "1000",
    ])
    assert code == 2
    assert "AmbiguousClass" in err


@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_selftests_pass_and_deterministic(sub):
    code1, out1, _ = run_cli([sub, "--selftest"])
    code2, out2, _ = run_cli([sub, "--selftest"])
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["all_pass"] is True


def test_output_file(tmp_path):
    target = tmp_path / "out.csv"
    code, out, _ = run_cli([
        "coeffs", "--field", "gaussian", "--n", "9", "--output", str(target)
    ])
    assert code == 0 and out == ""
    assert target.read_text(encoding="utf-8").splitlines()[0] == "n,a_K"


@pytest.mark.parametrize(
    "args",
    [
        ["chebotarev", "--field", "zeta5", "--class", "4a", "--x", "2000"],
        ["eta", "--Q", "100", "--m", "2", "--eps", "0.3", "--x-values", "1000,1000000"],
        ["large-sieve", "--fields", "gaussian,sqrt5", "--Q", "10", "--y", "2", "--u", "300"],
        ["weights", "--x", "50", "--eps", "0.2", "--grid", "0:1.1:0.1"],
    ],
)
def test_regular_commands_byte_identical(args):
    code1, out1, _ = run_cli(args)
    code2, out2, _ = run_cli(args)
    assert code1 == code2 == 0
    assert out1 == out2
