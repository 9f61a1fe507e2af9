"""End-to-end tests for the command-line interface."""

import hashlib
import json
import logging
import math
import subprocess
import sys
import time

import pytest

from purefields import cli, newton
from purefields.cli import run
from purefields.exactmath import MILLER_RABIN_BOUND, QPolynomial
from purefields.newton import index_lower_bound
from purefields.purebasis import BasisElement, IntegralBasis, PureField, index_report

# product of three primes just above the trial-division bound: the cofactor
# left by trial division is too large for its integer square root to settle
# square-freeness, so commands must stop with the resource exit code
UNDECIDED_M = 10000019 * 10000079 * 10000103


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasis:
    def test_json_document(self, capsys):
        code, out, err = invoke(capsys, "basis", "--n", "9", "--m", "55")
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 9
        assert doc["m"] == 55
        assert doc["total_index"] == 81
        assert doc["index"] == {"3": 4}
        assert len(doc["elements"]) == 9
        assert doc["elements"][0] == {"num": [1], "den": 1}
        assert doc["elements"][8]["den"] == 9
        assert doc["hnf"]["den"] == 9

    def test_pretty_degree_twelve(self, capsys):
        code, out, err = invoke(
            capsys, "basis", "--n", "12", "--m", "53", "--format", "pretty"
        )
        assert code == 0
        assert "(X^8+2X^4+3X^2+4)/6" in out
        assert "(X^11+2X^7+3X^5+4X^3)/6" in out
        assert "index: 2^6 * 3^4 = 5184" in out

    def test_byte_determinism(self, capsys):
        _, first, _ = invoke(capsys, "basis", "--n", "12", "--m", "17")
        _, second, _ = invoke(capsys, "basis", "--n", "12", "--m", "17")
        assert first == second

    def test_json_round_trip(self, capsys):
        _, out, _ = invoke(capsys, "basis", "--n", "6", "--m", "10")
        reserialized = (
            json.dumps(json.loads(out), sort_keys=True, separators=(",", ":"))
            + "\n"
        )
        assert reserialized == out

    def test_rejects_non_square_free(self, capsys):
        code, out, err = invoke(capsys, "basis", "--n", "9", "--m", "28")
        assert code == 2
        assert out == ""
        assert "2**2" in err

    @pytest.mark.parametrize(
        "n, m", [("2", "0"), ("2", "1"), ("2", "-1"), ("1", "5"), ("0", "5")]
    )
    def test_rejects_degenerate_inputs(self, capsys, n, m):
        code, _, err = invoke(capsys, "basis", "--n", n, "--m", m)
        assert code == 2
        assert err

    def test_undecided_square_free_is_resource_bound(self, capsys):
        code, out, err = invoke(
            capsys, "basis", "--n", "2", "--m", str(UNDECIDED_M)
        )
        assert code == 3
        assert out == ""
        assert "could not decide" in err
        assert "--allow-unknown-squarefree" not in err

    def test_square_freeness_is_decided_not_assumed(self, capsys):
        code, out, err = invoke(
            capsys, "basis", "--n", "2", "--m", "5", "--allow-unknown-squarefree"
        )
        assert code == 2
        assert out == ""
        # two primes beyond the trial bound: the square-root test settles it
        code, out, _ = invoke(
            capsys, "basis", "--n", "2", "--m", str(100000007 * 100000037)
        )
        assert code == 0
        assert json.loads(out)["m"] == 100000007 * 100000037
        # the square of a prime beyond the trial bound is caught, not certified
        for cmd, n in (("verify", "2"), ("basis", "3")):
            code, out, err = invoke(
                capsys, cmd, "--n", n, "--m", str(10000019**2)
            )
            assert code == 2
            assert out == ""
            assert "divisible by 10000019**2" in err

    def test_skipped_maximality_is_resource_bound(self, capsys):
        # the budget bounds n^2 = 81: one under it, one reason line
        argv = ("basis", "--n", "9", "--m", "55", "--enum-budget")
        code, out, err = invoke(capsys, *argv, "80")
        assert code == 3
        assert out == ""
        assert err == (
            "certification skipped: n^2 = 9^2 = 81 exceeds the budget 80 "
            "(raise --enum-budget to certify)\n"
        )
        code, out, err = invoke(capsys, *argv, "81")
        assert code == 0
        assert len(json.loads(out)["elements"]) == 9

    def test_huge_degree_exits_at_once(self, capsys):
        # the budget is checked before the basis is built, so n = 10^6
        # ends with the resource exit code instead of hanging
        start = time.perf_counter()
        code, out, err = invoke(capsys, "basis", "--n", "1000000", "--m", "2")
        assert time.perf_counter() - start < 1
        assert code == 3
        assert out == ""
        assert err == (
            "certification skipped: n^2 = 1000000^2 = 1000000000000 exceeds "
            "the budget 65536 (raise --enum-budget to certify)\n"
        )

    @pytest.mark.parametrize("n", ["11", "64", "256"])
    def test_default_budget_certifies_to_degree_256(self, capsys, n):
        code, out, err = invoke(capsys, "basis", "--n", n, "--m", "3")
        assert (code, err) == (0, "")
        assert len(json.loads(out)["elements"]) == int(n)

    @pytest.mark.parametrize("subcommand", ["basis", "verify"])
    def test_default_budget_refuses_degree_257(self, capsys, subcommand):
        start = time.perf_counter()
        code, out, err = invoke(capsys, subcommand, "--n", "257", "--m", "3")
        assert time.perf_counter() - start < 1
        assert (code, out) == (3, "")
        assert err == (
            "certification skipped: n^2 = 257^2 = 66049 exceeds the budget "
            "65536 (raise --enum-budget to certify)\n"
        )

    @pytest.mark.parametrize("name", ["basic_format", "bogus"])
    def test_log_name_that_is_no_level_falls_back(self, capsys, monkeypatch, name):
        # logging.BASIC_FORMAT is a string, not a level; neither it nor an
        # unknown name may stop the command.  An empty root handler list
        # lets basicConfig act as it does in a fresh interpreter
        _, default, _ = invoke(capsys, "basis", "--n", "4", "--m", "3")
        root = logging.getLogger()
        monkeypatch.setattr(root, "handlers", [])
        monkeypatch.setenv("PUREFIELDS_LOG", name)
        level = root.level
        try:
            code, out, err = invoke(capsys, "basis", "--n", "4", "--m", "3")
            assert root.level == logging.WARNING
        finally:
            root.setLevel(level)
        assert (code, out) == (0, default), err

    def test_output_path_silences_stdout(self, capsys, tmp_path):
        target = tmp_path / "basis.json"
        code, out, _ = invoke(
            capsys,
            "basis",
            "--n",
            "9",
            "--m",
            "55",
            "--output-path",
            str(target),
        )
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["total_index"] == 81

    def test_output_path_with_pretty_keeps_stdout(self, capsys, tmp_path):
        target = tmp_path / "basis.json"
        code, out, _ = invoke(
            capsys,
            "basis",
            "--n",
            "2",
            "--m",
            "5",
            "--format",
            "pretty",
            "--output-path",
            str(target),
        )
        assert code == 0
        assert "(X+1)/2" in out
        assert json.loads(target.read_text())["m"] == 5

    @pytest.mark.parametrize("fmt", ["json", "pretty"])
    @pytest.mark.parametrize("target", ["missing/basis.json", "."])
    def test_unwritable_output_path_is_invalid_input(self, capsys, tmp_path, target, fmt):
        # a path under a missing directory, or a directory itself
        code, out, err = invoke(
            capsys,
            "basis",
            "--n",
            "2",
            "--m",
            "5",
            "--format",
            fmt,
            "--output-path",
            str(tmp_path / target),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write --output-path: ")
        assert err.count("\n") == 1


class TestIndex:
    def test_json_document(self, capsys):
        code, out, _ = invoke(capsys, "index", "--n", "9", "--m", "55")
        assert code == 0
        doc = json.loads(out)
        assert doc == {
            "n": 9,
            "m": 55,
            "index": {"3": 4},
            "total_index": 81,
            "disc_poly": 9**9 * 55**8,
            "disc_field": 9**9 * 55**8 // 3**8,
        }

    def test_pretty_trivial_index(self, capsys):
        code, out, _ = invoke(
            capsys, "index", "--n", "2", "--m", "7", "--format", "pretty"
        )
        assert code == 0
        assert "index: 1 = 1" in out
        assert "field discriminant: 28" in out

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int string limit"
    )
    def test_discriminant_past_the_int_string_limit(self, capsys):
        # disc_poly of X^1500 - 3 has about 5,500 digits, past Python's
        # default limit of 4,300 on int <-> str conversion
        limit = sys.get_int_max_str_digits()
        code, out, err = invoke(capsys, "index", "--n", "1500", "--m", "3")
        assert (code, err) == (0, "")
        pretty_code, pretty, _ = invoke(
            capsys, "index", "--n", "1500", "--m", "3", "--format", "pretty"
        )
        assert pretty_code == 0
        # run restores the caller's limit
        assert sys.get_int_max_str_digits() == limit
        expected = index_report(PureField.create(1500, 3)).poly_discriminant
        sys.set_int_max_str_digits(0)
        try:
            assert json.loads(out)["disc_poly"] == expected
            assert f"polynomial discriminant: {expected}\n" in pretty
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int string limit"
    )
    def test_radicand_past_the_int_string_limit(self, capsys):
        # argparse converts --m; 4 * 10^4400 then fails on its own merits
        limit = sys.get_int_max_str_digits()
        code, out, err = invoke(capsys, "index", "--n", "2", "--m", "4" + "0" * 4400)
        assert (code, out) == (2, "")
        assert "divisible by 2**2" in err
        assert sys.get_int_max_str_digits() == limit


class TestPolygon:
    def test_json_document(self, capsys):
        code, out, _ = invoke(
            capsys, "polygon", "--p", "3", "--k", "2", "--m", "55"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["index_bound"] == 4
        assert doc["exact"] is True
        assert doc["phi"] == "X-1"
        slopes = [side["slope"] for side in doc["polygon"]["sides"]]
        assert slopes == ["-1/1", "-1/2", "-1/6"]

    def test_pretty_contains_plot_and_bound(self, capsys):
        code, out, _ = invoke(
            capsys,
            "polygon",
            "--p",
            "3",
            "--k",
            "2",
            "--m",
            "55",
            "--format",
            "pretty",
        )
        assert code == 0
        assert "slope -1/2" in out
        assert "index bound: 4 (exact)" in out

    def test_eisenstein_case(self, capsys):
        code, out, _ = invoke(
            capsys, "polygon", "--p", "3", "--k", "1", "--m", "6"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["index_bound"] == 0
        assert doc["phi"] == "X"

    def test_one_development_gives_the_index_bound(self, capsys, monkeypatch):
        # X^(p^k) - m = (X - m)^(p^k) mod p, so the one polygon the command
        # draws carries the bound; index_lower_bound develops along another
        # lift of the same factor and must agree with it
        developments = []
        develop = newton.phi_development

        def counting(*args):
            developments.append(args)
            return develop(*args)

        monkeypatch.setattr(newton, "phi_development", counting)
        for p, k in [(2, 1), (2, 3), (3, 2), (5, 1), (7, 1)]:
            for m in (-60, -7, 2, 3, 5, 6, 10, 17, 55, 98):
                developments.clear()
                code, out, _ = invoke(
                    capsys, "polygon", "--p", str(p), "--k", str(k), "--m", str(m)
                )
                assert (code, len(developments)) == (0, 1), (p, k, m)
                doc = json.loads(out)
                f = QPolynomial.x_power(p**k) - QPolynomial([m])
                bound = index_lower_bound(f, p)
                assert (doc["index_bound"], doc["exact"]) == bound, (p, k, m)

    @pytest.mark.parametrize(
        "p, k, m",
        [
            ("4", "1", "5"),
            ("3", "0", "5"),
            ("3", "1", "0"),
            ("1", "1", "3"),
            ("0", "1", "3"),
            ("-3", "1", "3"),
        ],
    )
    def test_rejects_bad_parameters(self, capsys, p, k, m):
        code, _, err = invoke(
            capsys, "polygon", "--p", p, "--k", k, "--m", m
        )
        assert code == 2
        assert err
        if int(p) < 2:
            assert err == f"error: p must be prime, got {p}\n"

    def test_undecided_primality_is_one_error_line(self, capsys):
        # past the bound of the deterministic primality test, with no small
        # factor to decide it, polygon stops at once with one error line
        p = MILLER_RABIN_BOUND
        while math.gcd(p, math.prod(range(2, 42))) > 1:
            p += 1
        start = time.perf_counter()
        code, out, err = invoke(capsys, "polygon", "--p", str(p), "--k", "1", "--m", "3")
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(MILLER_RABIN_BOUND) in err

    @pytest.mark.parametrize(
        "p, k, measure",
        [
            # a MemoryError traceback before, and more than 20 s at p = 1000003
            ("2305843009213693951", "1", "2305843009213693951^1"),
            ("1000003", "1", "1000003^1"),
            # p^k itself is never formed
            ("2", "1000000000", "2^1000000000"),
            ("2", "17", "2^17"),
        ],
    )
    def test_over_budget_exits_at_once(self, capsys, p, k, measure):
        start = time.perf_counter()
        code, out, err = invoke(capsys, "polygon", "--p", p, "--k", k, "--m", "3")
        assert time.perf_counter() - start < 1
        assert (code, out) == (3, "")
        assert err.count("\n") == 1
        assert f"p^k = {measure} exceeds the budget 65536" in err

    def test_budget_admits_p_to_the_k(self, capsys):
        # the work measure is p^k itself: 9 for X^9 - 55 at 3
        argv = ("polygon", "--p", "3", "--k", "2", "--m", "55")
        assert invoke(capsys, *argv, "--enum-budget", "8")[:2] == (3, "")
        code, out, _ = invoke(capsys, *argv, "--enum-budget", "9")
        assert (code, out) == (0, invoke(capsys, *argv)[1])


class TestAtlas:
    def test_quadratic_json(self, capsys):
        code, out, _ = invoke(capsys, "atlas", "--n", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["n0"] == 4
        assert doc["rows"]["1"]["basis"] == [["1"], ["1/2", "1/2"]]
        assert "skip" in doc["rows"]["0"]

    def test_quadratic_pretty_table(self, capsys):
        code, out, _ = invoke(
            capsys, "atlas", "--n", "2", "--format", "pretty"
        )
        assert code == 0
        assert "m = 1 (mod 4):" in out
        assert "m = 2, 3 (mod 4):" in out

    def test_byte_determinism(self, capsys):
        _, first, _ = invoke(capsys, "atlas", "--n", "4")
        _, second, _ = invoke(capsys, "atlas", "--n", "4")
        assert first == second

    def test_work_over_budget_exits_before_the_scan(self, capsys):
        # n0 * n^2 bounds the atlas: n = 210 has 44,100 classes
        start = time.perf_counter()
        code, out, err = invoke(capsys, "atlas", "--n", "210")
        assert time.perf_counter() - start < 1
        assert (code, out) == (3, "")
        assert err == (
            "certification skipped: n0 * n^2 = 44100 * 210^2 = 1944810000 "
            "exceeds the budget 65536 (raise --enum-budget to certify)\n"
        )

    def test_budget_edge_is_n0_times_n_squared(self, capsys):
        # n = 4: n0 * n^2 = 8 * 16 = 128
        code, out, err = invoke(capsys, "atlas", "--n", "4", "--enum-budget", "127")
        assert (code, out) == (3, "")
        assert "n0 * n^2 = 8 * 4^2 = 128 exceeds the budget 127" in err
        code, out, err = invoke(capsys, "atlas", "--n", "4", "--enum-budget", "128")
        assert (code, err) == (0, "")
        assert json.loads(out)["n0"] == 8

    def test_small_scan_bound_is_resource_bound(self, capsys):
        code, out, err = invoke(
            capsys, "atlas", "--n", "2", "--scan-bound", "2"
        )
        assert code == 3
        assert "--scan-bound" in err
        doc = json.loads(out)
        assert doc["rows"]["1"] == {"unknown_below": 2}


@pytest.mark.parametrize(
    "argv, option",
    [
        (("basis", "--n", "6", "--m", "10", "--enum-budget", "-1"), "--enum-budget"),
        (("verify", "--n", "6", "--m", "10", "--enum-budget", "-1"), "--enum-budget"),
        (("atlas", "--n", "4", "--enum-budget", "-1"), "--enum-budget"),
        (("atlas", "--n", "4", "--scan-bound", "-5"), "--scan-bound"),
        (("basis", "--n", "6", "--m", "10", "--enum-budget", "many"), "--enum-budget"),
    ],
)
def test_negative_budget_or_bound_is_invalid_input(capsys, argv, option):
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"argument {option}:" in err


class TestVerify:
    def test_certified_field(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--n", "12", "--m", "53")
        assert code == 0
        doc = json.loads(out)
        assert doc["certified"] is True
        assert doc["maximality"] == {
            "2": {"status": "proved"},
            "3": {"status": "proved"},
        }

    def test_pretty_report(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "--n", "9", "--m", "-26", "--format", "pretty"
        )
        assert code == 0
        assert "integrality: 9/9 integral" in out
        assert "p = 3: maximality proved" in out
        assert out.rstrip().endswith("certified")

    def test_budget_too_small_is_resource_bound(self, capsys):
        # one under n^2 = 4: nothing is built or printed, and stderr gives
        # the reason exactly as basis does
        argv = ("--n", "2", "--m", "5", "--enum-budget", "3")
        code, out, err = invoke(capsys, "verify", *argv)
        assert code == 3
        assert out == ""
        assert err == (
            "certification skipped: n^2 = 2^2 = 4 exceeds the budget 3 "
            "(raise --enum-budget to certify)\n"
        )
        assert (code, out, err) == invoke(capsys, "basis", *argv)
        code, out, err = invoke(capsys, "verify", *argv[:-1], "4")
        assert (code, err) == (0, "")
        assert json.loads(out)["certified"] is True

    def test_budget_between_primes_reports_each(self, capsys):
        # the budget bounds n^2 alone, so the primes of n = 6 are skipped
        # together: under 36 no report prints, at 36 both are proved
        argv = ("verify", "--n", "6", "--m", "5", "--enum-budget")
        code, out, err = invoke(capsys, *argv, "35")
        assert (code, out) == (3, "")
        assert err == (
            "certification skipped: n^2 = 6^2 = 36 exceeds the budget 35 "
            "(raise --enum-budget to certify)\n"
        )
        code, out, err = invoke(capsys, *argv, "36")
        assert (code, err) == (0, "")
        assert json.loads(out)["maximality"] == {
            "2": {"status": "proved"},
            "3": {"status": "proved"},
        }

    def test_failed_checks_exit_one_and_are_named(self, capsys, monkeypatch):
        # the power order Z[alpha] of (12, 17) is an order, but neither
        # 2- nor 3-maximal, so its discriminant is off the ledger
        monkeypatch.setattr(
            cli,
            "build_basis",
            lambda field: IntegralBasis(
                field,
                tuple(BasisElement(QPolynomial.x_power(j), 1) for j in range(field.n)),
            ),
        )
        code, out, err = invoke(capsys, "verify", "--n", "12", "--m", "17")
        assert code == 1
        assert json.loads(out)["certified"] is False
        assert err == (
            "verification failed: discriminant accounting, "
            "p-maximality at 2, p-maximality at 3\n"
        )

    # the power order's counterexample path: the JSON bytes are those the
    # rational-coordinate element gave; the pretty line prints the element
    # as N(X)/d, e.g. "p = 3: counterexample (X^8+2X^4+1)/3"
    @pytest.mark.parametrize(
        "fmt, digest",
        [
            ("json", "c1b7badffe820811dfa6519d3ec183b8d3208b2de36ed84900bbe64921e073bf"),
            ("pretty", "2bbb87ab8ff454027f01180981b5782b7f2e15207f7beebfb88eb4886cd11086"),
        ],
    )
    def test_counterexample_golden_bytes(self, capsys, monkeypatch, fmt, digest):
        monkeypatch.setattr(
            cli,
            "build_basis",
            lambda field: IntegralBasis(
                field,
                tuple(BasisElement(QPolynomial.x_power(j), 1) for j in range(field.n)),
            ),
        )
        code, out, _ = invoke(capsys, "verify", "--n", "12", "--m", "17", "--format", fmt)
        assert code == 1
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_huge_degree_exits_at_once(self, capsys):
        start = time.perf_counter()
        code, out, err = invoke(capsys, "verify", "--n", "1000000", "--m", "2")
        assert time.perf_counter() - start < 1
        assert code == 3
        assert out == ""
        assert err == (
            "certification skipped: n^2 = 1000000^2 = 1000000000000 exceeds "
            "the budget 65536 (raise --enum-budget to certify)\n"
        )


class RenderedPretty(Exception):
    pass


@pytest.mark.parametrize("subcommand", ["basis", "index"])
def test_json_stdout_renders_no_pretty_text(capsys, monkeypatch, subcommand):
    # the pretty ledger converts both discriminants to decimal; JSON output
    # must not pay for a rendering it throws away
    def refuse(report):
        raise RenderedPretty

    monkeypatch.setattr(cli, "_ledger_pretty", refuse)
    code, out, _ = invoke(capsys, subcommand, "--n", "9", "--m", "55")
    assert code == 0
    assert json.loads(out)["total_index"] == 81
    with pytest.raises(RenderedPretty):
        run([subcommand, "--n", "9", "--m", "55", "--format", "pretty"])


class TestArgumentHandling:
    def test_no_arguments_is_invalid_input(self, capsys):
        assert run([]) == 2

    def test_unknown_subcommand_is_invalid_input(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_help_exits_cleanly(self, capsys):
        assert run(["--help"]) == 0

    def test_module_execution(self):
        proc = subprocess.run(
            [sys.executable, "-m", "purefields", "index", "--n", "2", "--m", "7"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["total_index"] == 1


# SHA-256 of stdout; any change to the emitted bytes must be deliberate
GOLDEN_STDOUT = [
    (("basis", "--n", "9", "--m", "55"),
     "c3a77d075773076e46d1d49fe616d72f5f7e441c4b505735ded6eaad9e9b001a"),
    (("basis", "--n", "9", "--m", "55", "--format", "pretty"),
     "b37c1f72619ecd8a92e7f74996293620b433c539c9cbf414c05c88065ca24211"),
    (("basis", "--n", "12", "--m", "53"),
     "95b94379047447b26807749074b7319f1b21080907918d2d4eb387ab7a805248"),
    (("basis", "--n", "12", "--m", "53", "--format", "pretty"),
     "70a7c370476c0fae321b56c08e2cb33713591cf6a136874f8dfc7b9c4afb03e4"),
    (("basis", "--n", "6", "--m", "-10"),
     "8007a9f60533cd1a1adb8f97f38c46d226705ff837dc3a1831b4fc1827dc6913"),
    (("basis", "--n", "6", "--m", "-10", "--format", "pretty"),
     "92ca49b395b18d12fc4af2753ff798d10b48c7c7d220c819b43547ec9da2007c"),
    (("index", "--n", "12", "--m", "53"),
     "2aa31f7b0a2ce24d7b9cb82d6ade0784e241b4f21d16ec86053510fbaeaef5ed"),
    (("index", "--n", "12", "--m", "53", "--format", "pretty"),
     "afbc22547baf884e9bf04afe3cb920433d07d4e525224fc36bb112db2169dd7d"),
    (("verify", "--n", "12", "--m", "17"),
     "c972d92dc1ad896d6cab7a2bee6f8637d2511fceb10d06d2e235668177780624"),
    (("atlas", "--n", "4"),
     "1d257e85289c14acbbbeaed9bfb322818ab897004d3c0777d564bb5ed1b7888c"),
    (("polygon", "--p", "3", "--k", "2", "--m", "55"),
     "0882ac3b6605440285771a92896f2afee06682038e29d3295d5de7545b474ca7"),
    (("polygon", "--p", "3", "--k", "2", "--m", "55", "--format", "pretty"),
     "7c47d34285336909b44df2b51d62f79cc6c3b590d9f18e69ab6660492b74f6cf"),
    (("polygon", "--p", "3", "--k", "1", "--m", "6"),
     "df1cc1beedb71703f213810db9c6689a6b6c1872a289a369dce8252554c86960"),
    (("polygon", "--p", "3", "--k", "1", "--m", "6", "--format", "pretty"),
     "4777cab6179ee62b7a66b6bc4c6111582e0c19799af1688fc86153c89a5848b5"),
    # the inexact case: the residual Y^2+1 is not separable over F_2
    (("polygon", "--p", "2", "--k", "3", "--m", "-60"),
     "55b5f489365cd2f6a78f4ea1a247d450e312d88e23b258465f08547a864bec73"),
    (("polygon", "--p", "2", "--k", "3", "--m", "-60", "--format", "pretty"),
     "2e138ce8ce8225aed5c3506afdedeebcd9fced522d8c95f1d19e2458415a7a51"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN_STDOUT)
def test_golden_stdout_bytes(capsys, argv, digest):
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
