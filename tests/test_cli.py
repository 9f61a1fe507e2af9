"""End-to-end tests for the command-line interface."""

import hashlib
import json
import subprocess
import sys
import time

import pytest

from purefields.cli import run

# product of two primes just above the trial-division bound: square-freeness
# cannot be settled, so commands must stop with the resource exit code
UNDECIDED_M = 100000007 * 100000037


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
        code, _, err = invoke(
            capsys, "basis", "--n", "2", "--m", str(UNDECIDED_M)
        )
        assert code == 3
        assert "--allow-unknown-squarefree" in err

    def test_allow_flag_overrides_undecided(self, capsys):
        code, out, _ = invoke(
            capsys,
            "basis",
            "--n",
            "2",
            "--m",
            str(UNDECIDED_M),
            "--allow-unknown-squarefree",
        )
        assert code == 0
        assert json.loads(out)["m"] == UNDECIDED_M

    def test_skipped_maximality_is_resource_bound(self, capsys):
        code, out, err = invoke(
            capsys, "basis", "--n", "9", "--m", "55", "--enum-budget", "19682"
        )
        assert code == 3
        assert out == ""
        assert "p = 3" in err
        assert "--enum-budget" in err

    def test_huge_degree_exits_at_once(self, capsys):
        # the budget is checked before the basis is built, so n = 10^6
        # ends with the resource exit code instead of hanging
        start = time.perf_counter()
        code, out, err = invoke(capsys, "basis", "--n", "1000000", "--m", "2")
        assert time.perf_counter() - start < 5
        assert code == 3
        assert out == ""
        assert "p = 2" in err and "p = 5" in err

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

    @pytest.mark.parametrize(
        "p, k, m", [("4", "1", "5"), ("3", "0", "5"), ("3", "1", "0")]
    )
    def test_rejects_bad_parameters(self, capsys, p, k, m):
        code, _, err = invoke(
            capsys, "polygon", "--p", p, "--k", k, "--m", m
        )
        assert code == 2
        assert err


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

    def test_small_scan_bound_is_resource_bound(self, capsys):
        code, out, err = invoke(
            capsys, "atlas", "--n", "2", "--scan-bound", "2"
        )
        assert code == 3
        assert "--scan-bound" in err
        doc = json.loads(out)
        assert doc["rows"]["1"] == {"unknown_below": 2}


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
        code, out, err = invoke(
            capsys, "verify", "--n", "2", "--m", "5", "--enum-budget", "1"
        )
        assert code == 3
        assert "--enum-budget" in err
        doc = json.loads(out)
        assert doc["certified"] is True
        assert doc["maximality"]["2"]["status"] == "skipped"


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
]


@pytest.mark.parametrize("argv, digest", GOLDEN_STDOUT)
def test_golden_stdout_bytes(capsys, argv, digest):
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
