"""Command-line interface tests (in-process via main)."""

import json
import os
import subprocess
import sys

import pytest

import hiddensums
from hiddensums.cli import main
from hiddensums.cipher import TOY_GROUP_SPEC, builtin_toy_spec, permuted_key_schedule
from hiddensums.gf2 import BinMatrix
from hiddensums.hidden_sum import MAX_VERIFY_WIDTH, AffineMap, dump_group_spec


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_subprocess(*argv, timeout=30):
    """The command in a fresh interpreter, so that a hang fails the test."""
    src = os.path.dirname(os.path.dirname(hiddensums.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "hiddensums.cli", *argv],
        capture_output=True, text=True, timeout=timeout, env=env,
    )


class TestAnalyze:
    def test_builtin_brick_text(self, capsys):
        code, out, _ = run(capsys, "analyze", "--builtin-brick")
        assert code == 0
        assert "delta          : 4" in out
        assert "anti-crooked   : False" in out

    def test_builtin_brick_json(self, capsys):
        code, out, _ = run(capsys, "analyze", "--builtin-brick", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["delta"] == 4
        assert report["anti_crooked"] is False
        assert report["crooked"] is True
        assert report["n_hat"] == 3

    def test_env_var_switches_format(self, capsys, monkeypatch):
        monkeypatch.setenv("HIDDENSUMS_FORMAT", "json")
        code, out, _ = run(capsys, "analyze", "--builtin-brick")
        assert code == 0
        json.loads(out)

    def test_power_config(self, tmp_path, capsys):
        cfg = tmp_path / "power.json"
        cfg.write_text(json.dumps({"field": {"m": 6, "modulus": "1011011"}, "kind": "power", "exponent": 49}))
        code, out, _ = run(capsys, "analyze", str(cfg), "--json")
        assert code == 0
        report = json.loads(out)
        assert report["permutation"] is False
        assert report["anti_crooked"] is None  # label withheld for non-permutations
        assert report["coset_free_derivatives"] is True

    def test_univariate_config(self, tmp_path, capsys):
        cfg = tmp_path / "poly.json"
        cfg.write_text(
            json.dumps(
                {
                    "field": {"m": 3, "modulus": "1011"},
                    "kind": "univariate",
                    "coeffs": [0, 2, 2, 7, 4, 2, 7],
                }
            )
        )
        code, out, _ = run(capsys, "analyze", str(cfg), "--json")
        assert code == 0
        report = json.loads(out)
        assert report["delta"] == 4
        assert report["crooked"] is True

    def test_sbox_file(self, tmp_path, capsys):
        path = tmp_path / "box.txt"
        # x^3 over GF(8) with modulus x^3 + x + 1
        path.write_text("m=3 n=3\n0\n1\n3\n4\n5\n6\n7\n2\n")
        code, out, _ = run(capsys, "analyze", str(path), "--json")
        assert code == 0
        report = json.loads(out)
        assert report["apn"] is True
        assert report["crooked"] is True

    def test_missing_source_is_input_error(self, capsys):
        code, _, err = run(capsys, "analyze")
        assert code == 2
        assert "error" in err

    def test_unreadable_file(self, capsys):
        code, _, err = run(capsys, "analyze", "/nonexistent/sbox.txt")
        assert code == 2

    def test_non_utf8_file_is_input_error(self, tmp_path, capsys):
        src = tmp_path / "sbox.txt"
        src.write_bytes(b"\xff\xfe0 1 3 2\n")
        code, out, err = run(capsys, "analyze", str(src))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot read {src}")

    def test_deeply_nested_config_is_input_error(self, tmp_path, capsys):
        cfg = tmp_path / "nested.json"
        cfg.write_text('{"kind": ' + "[" * 100_000 + "]" * 100_000 + "}")
        code, out, err = run(capsys, "analyze", str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith("error: bad function config")

    def test_negative_exponent_is_input_error(self, tmp_path, capsys):
        cfg = tmp_path / "power.json"
        cfg.write_text(json.dumps({"field": {"m": 3, "modulus": "1011"}, "kind": "power", "exponent": -1}))
        code, out, err = run(capsys, "analyze", str(cfg))
        assert code == 2
        assert out == ""
        assert "exponent" in err

    @pytest.mark.parametrize(
        "function",
        [{"kind": "power", "exponent": 3}, {"kind": "univariate", "coeffs": [0, 1]}],
    )
    def test_wide_field_fails_fast(self, tmp_path, function):
        # x^64 + x^4 + x^3 + x + 1 is irreducible; 2^64 points exceed the table limit
        cfg = tmp_path / "wide.json"
        cfg.write_text(json.dumps({"field": {"m": 64, "modulus": "1" + "0" * 59 + "11011"}, **function}))
        proc = run_subprocess("analyze", str(cfg))
        assert proc.returncode == 2
        assert "table limit" in proc.stderr

    def test_width_past_the_table_limit_refused_before_the_field(self, tmp_path, capsys, monkeypatch):
        """x^9689 + x^84 + 1 is irreducible, and its Ben-Or test once ran for
        half a minute before the table limit refused m = 9689."""

        def no_field(m, modulus):
            raise AssertionError(f"FieldSpec built for m = {m}")

        monkeypatch.setattr("hiddensums.cli.FieldSpec", no_field)
        modulus = bin((1 << 9689) | (1 << 84) | 1)
        cfg = tmp_path / "wide.json"
        cfg.write_text(json.dumps({"field": {"m": 9689, "modulus": modulus}, "kind": "power", "exponent": 3}))
        code, out, err = run(capsys, "analyze", str(cfg))
        assert (code, out) == (2, "")
        assert err == "error: bad function config: input width 9689 exceeds table limit 16\n"

    @pytest.mark.parametrize(
        "modulus, message",
        [
            (-8, "modulus -8 must be non-negative"),
            ("-1000", "modulus -8 must be non-negative"),
            (-11, "modulus -11 must be non-negative"),
            (True, "field 'modulus' has the wrong type: True"),
        ],
        ids=["-8", "'-1000'", "-11", "true"],
    )
    def test_bad_modulus_is_input_error(self, tmp_path, modulus, message):
        # -8 and "-1000" once hung Ben-Or's loop, -11 passed as a degree-3
        # modulus, and true was read as 1
        cfg = tmp_path / "power.json"
        cfg.write_text(json.dumps({"field": {"m": 3, "modulus": modulus}, "kind": "power", "exponent": 3}))
        proc = run_subprocess("analyze", str(cfg), timeout=10)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: bad function config: ")
        assert message in proc.stderr

    @pytest.mark.parametrize(
        "config, field",
        [
            ({"field": {"m": 3, "modulus": "1011"}, "kind": "power", "exponent": True}, "exponent"),
            ({"field": {"m": 3, "modulus": "1011"}, "kind": "power", "exponent": 2.5}, "exponent"),
            ({"field": {"m": True, "modulus": "11"}, "kind": "power", "exponent": 3}, "m"),
            ({"field": {"m": 3.5, "modulus": "1011"}, "kind": "power", "exponent": 3}, "m"),
            ({"field": {"m": 3, "modulus": "1011"}, "kind": "univariate", "coeffs": [0, 1.5]}, "coeffs"),
            ({"field": {"m": 3, "modulus": "1011"}, "kind": "univariate", "coeffs": [0, True]}, "coeffs"),
            # a string must not be read as one coefficient per digit
            ({"field": {"m": 3, "modulus": "1011"}, "kind": "univariate", "coeffs": "0227427"}, "coeffs"),
            # strings take the digits of gf2.read_digits, not all of int()'s
            ({"field": {"m": 3, "modulus": "1011"}, "kind": "power", "exponent": "3_0"}, "exponent"),
            ({"field": {"m": "\u0663", "modulus": "1011"}, "kind": "power", "exponent": 3}, "m"),
            ({"field": {"m": 3, "modulus": "+1011"}, "kind": "power", "exponent": 3}, "modulus"),
            ({"field": {"m": 3, "modulus": "0b1_011"}, "kind": "power", "exponent": 3}, "modulus"),
            ({"field": {"m": 3, "modulus": "0b\u0661011"}, "kind": "power", "exponent": 3}, "modulus"),
        ],
    )
    def test_non_integer_function_field_is_input_error(self, tmp_path, capsys, config, field):
        cfg = tmp_path / "function.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run(capsys, "analyze", str(cfg))
        assert code == 2
        assert out == ""
        assert repr(field) in err

    @pytest.mark.parametrize("modulus", ["1011011", "0b1011011", 91, 91.0])
    def test_modulus_forms_accepted(self, tmp_path, capsys, modulus):
        """A binary string, '0b' allowed, or an integer, read like m."""
        cfg = tmp_path / "power.json"
        cfg.write_text(json.dumps({"field": {"m": 6, "modulus": modulus}, "kind": "power", "exponent": 5}))
        code, out, _ = run(capsys, "analyze", str(cfg))
        assert code == 0
        assert out.startswith("function       : x^5  (6 -> 6 bits)")

    def test_integral_function_fields_accepted(self, tmp_path, capsys):
        cfg = tmp_path / "power.json"
        cfg.write_text(json.dumps({"field": {"m": 6.0, "modulus": "1011011"}, "kind": "power", "exponent": "49"}))
        code, out, _ = run(capsys, "analyze", str(cfg))
        assert code == 0
        assert out.startswith("function       : x^49  (6 -> 6 bits)")

    def test_one_bit_sbox(self, tmp_path, capsys):
        path = tmp_path / "box.txt"
        path.write_text("m=1 n=1\n0\n1\n")
        code, out, err = run(capsys, "analyze", str(path), "--json")
        assert code == 0, err
        report = json.loads(out)
        assert report["apn"] is True
        assert report["weakly_apn"] is True
        assert report["n_hat"] == 1

    def test_zero_bit_sbox_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "box.txt"
        path.write_text("m=0 n=0\n0\n")
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 2
        assert "bad s-box file" in err

    def test_extra_header_token_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "box.txt"
        path.write_text("m=3 n=3 junk\n" + "0\n" * 8)
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 2
        assert out == ""
        assert "bad s-box file: line 1: bad s-box header 'm=3 n=3 junk'" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("m=3 n=3\n0\n+1\n" + "0\n" * 6, "line 3: '+1' is not a hex value"),
            ("m=3 n=3\n0\n0x2\n" + "0\n" * 6, "line 3: '0x2' is not a hex value"),
            ("m=3 n=3\n0\n1_1\n" + "0\n" * 6, "line 3: '1_1' is not a hex value"),
            ("m=3 n=3\n0\n\u0661\n" + "0\n" * 6, "line 3: '\u0661' is not a hex value"),
            ("m=3 n=3\n0\n-1\n" + "0\n" * 6, "line 3: table value '-1' is negative"),
            ("m=+3 n=3\n" + "0\n" * 8, "line 1: bad s-box header 'm=+3 n=3'"),
            ("m=3 n=\u0663\n" + "0\n" * 8, "line 1: bad s-box header"),
        ],
        ids=["sign", "prefix", "underscore", "indic", "negative", "signed-m", "indic-n"],
    )
    def test_entry_or_count_not_in_ascii_digits_is_input_error(self, tmp_path, capsys, text, message):
        path = tmp_path / "box.txt"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 2
        assert out == ""
        assert f"bad s-box file: {message}" in err

    @pytest.mark.parametrize("n", [0, -1])
    def test_output_width_below_one_is_input_error(self, tmp_path, capsys, n):
        path = tmp_path / "box.txt"
        path.write_text(f"m=3 n={n}\n" + "0\n" * 8)
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 2
        assert out == ""
        assert f"bad s-box file: line 1: output width n={n} must be positive" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("m=2 n=2\n0\n1\n2\n7\n", "line 5: table value '7' does not fit in n=2 bits"),
            ("m=2 n=2\n0\n\n10\n2\n3\n", "line 4: table value '10' does not fit in n=2 bits"),
            ("m=2 n=2\n0\n1\n2\n", "expected 4 table entries for m=2, got 3"),
            ("m=2 n=2\n0\n1\n2\n3\n0\n", "expected 4 table entries for m=2, got 5"),
            ("m=2 n=2\n", "expected 4 table entries for m=2, got 0"),
            ("m=17 n=2\n0\n", "line 1: input width m=17 exceeds table limit 16"),
        ],
        ids=["wide", "wide-after-blank", "short", "long", "empty", "too-many-inputs"],
    )
    def test_entry_too_wide_or_count_wrong_is_input_error(self, tmp_path, capsys, text, message):
        path = tmp_path / "box.txt"
        path.write_text(text)
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 2
        assert out == ""
        assert f"bad s-box file: {message}" in err


# spec text (None for --builtin) and the outcome it reports
HIDDEN_VERIFY_CASES = {
    "builtin": (None, "verified"),
    "redundant": ("3\n100010011|100\n100010001|010\n100010011|110\n110010001|001\n", "verified"),
    "non-commuting": ("3\n100010011|100\n010100001|010\n", "not abelian"),
    "single": ("3\n100010011|100\n", "not regular"),
    "order-four": ("2\n1101|10\n", "not elementary abelian"),
}

HIDDEN_VERIFY_TEXT = {
    "verified": (
        0,
        "abelian           : True\n"
        "regular           : True\n"
        "elementary_abelian: True\n"
        "kappa_homomorphism: True\n"
        "U_basis           : ['010']\n"
        "ring_axioms       : True\n"
        "nilpotency_index  : 3\n",
    ),
    "not abelian": (
        1,
        "abelian           : False\n"
        "regular           : None\n"
        "elementary_abelian: None\n"
        "kappa_homomorphism: None\n"
        "U_basis           : None\n"
        "ring_axioms       : None\n"
        "nilpotency_index  : None\n",
    ),
    "not regular": (
        1,
        "abelian           : True\n"
        "regular           : False\n"
        "elementary_abelian: None\n"
        "kappa_homomorphism: None\n"
        "U_basis           : None\n"
        "ring_axioms       : None\n"
        "nilpotency_index  : None\n",
    ),
    "not elementary abelian": (
        1,
        "abelian           : True\n"
        "regular           : True\n"
        "elementary_abelian: False\n"
        "kappa_homomorphism: None\n"
        "U_basis           : None\n"
        "ring_axioms       : None\n"
        "nilpotency_index  : None\n",
    ),
}

HIDDEN_VERIFY_JSON = {
    "verified": "{\n"
    '  "U_basis": [\n'
    '    "010"\n'
    "  ],\n"
    '  "abelian": true,\n'
    '  "elementary_abelian": true,\n'
    '  "kappa_homomorphism": true,\n'
    '  "nilpotency_index": 3,\n'
    '  "regular": true,\n'
    '  "ring_axioms": true\n'
    "}\n",
    "not abelian": "{\n"
    '  "U_basis": null,\n'
    '  "abelian": false,\n'
    '  "elementary_abelian": null,\n'
    '  "kappa_homomorphism": null,\n'
    '  "nilpotency_index": null,\n'
    '  "regular": null,\n'
    '  "ring_axioms": null\n'
    "}\n",
    "not regular": "{\n"
    '  "U_basis": null,\n'
    '  "abelian": true,\n'
    '  "elementary_abelian": null,\n'
    '  "kappa_homomorphism": null,\n'
    '  "nilpotency_index": null,\n'
    '  "regular": false,\n'
    '  "ring_axioms": null\n'
    "}\n",
    "not elementary abelian": "{\n"
    '  "U_basis": null,\n'
    '  "abelian": true,\n'
    '  "elementary_abelian": false,\n'
    '  "kappa_homomorphism": null,\n'
    '  "nilpotency_index": null,\n'
    '  "regular": true,\n'
    '  "ring_axioms": null\n'
    "}\n",
}


class TestHiddenVerify:
    def test_builtin(self, capsys):
        code, out, _ = run(capsys, "hidden-verify", "--builtin", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["abelian"] and report["regular"]
        assert report["nilpotency_index"] == 3

    def test_from_file(self, tmp_path, capsys):
        path = tmp_path / "group.txt"
        path.write_text(TOY_GROUP_SPEC)
        code, out, _ = run(capsys, "hidden-verify", str(path))
        assert code == 0
        assert "kappa_homomorphism: True" in out

    def test_failing_group_exits_one(self, tmp_path, capsys):
        path = tmp_path / "group.txt"
        # one generator alone is not regular
        path.write_text("3\n100010011|100\n")
        code, out, _ = run(capsys, "hidden-verify", str(path))
        assert code == 1

    def test_bad_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "group.txt"
        path.write_text("not a group spec")
        code, _, err = run(capsys, "hidden-verify", str(path))
        assert code == 2

    @pytest.mark.parametrize("text", ["0\n|\n", "-1\n|\n"])
    def test_width_below_one_exits_two(self, tmp_path, capsys, text):
        path = tmp_path / "group.txt"
        path.write_text(text)
        code, out, err = run(capsys, "hidden-verify", str(path))
        assert code == 2
        assert out == ""
        assert "width must be at least 1" in err

    @pytest.mark.parametrize(
        "text, named",
        [
            ("1\n0|1\n", "generator 1 (0|1)"),  # the constant map x -> 1
            ("2\n1001|01\n1100|10\n", "generator 2 (1100|10)"),
        ],
        ids=["constant", "one-singular"],
    )
    def test_singular_generator_exits_two(self, tmp_path, capsys, text, named):
        path = tmp_path / "group.txt"
        path.write_text(text)
        for extra in ([], ["--json"]):
            code, out, err = run(capsys, "hidden-verify", str(path), *extra)
            assert code == 2
            assert out == ""
            assert f"bad group spec: {named} has a singular matrix" in err

    @pytest.mark.parametrize("width", [MAX_VERIFY_WIDTH + 1, 20])
    def test_too_wide_exits_two(self, tmp_path, capsys, width):
        # the translation group: its closure alone has 2^width elements
        path = tmp_path / "group.txt"
        path.write_text(
            dump_group_spec(
                [AffineMap(BinMatrix.identity(width), 1 << i) for i in range(width)]
            )
        )
        code, out, err = run(capsys, "hidden-verify", str(path))
        assert code == 2
        assert out == ""
        assert f"width {width} exceeds {MAX_VERIFY_WIDTH}" in err


    @pytest.mark.parametrize("name", sorted(HIDDEN_VERIFY_CASES))
    def test_output_pinned(self, tmp_path, capsys, name):
        """The text and JSON reports of a passing spec and of each way a
        spec fails, so that how the verdicts are reached cannot change
        what hidden-verify prints."""
        spec, outcome = HIDDEN_VERIFY_CASES[name]
        if spec is None:
            source = ["--builtin"]
        else:
            path = tmp_path / "group.txt"
            path.write_text(spec)
            source = [str(path)]
        code, text = HIDDEN_VERIFY_TEXT[outcome]
        assert run(capsys, "hidden-verify", *source) == (code, text, "")
        assert run(capsys, "hidden-verify", *source, "--json") == (
            code, HIDDEN_VERIFY_JSON[outcome], "",
        )

    @pytest.mark.parametrize("width", ["+3", "\u0663"])
    def test_width_not_in_ascii_digits_exits_two(self, tmp_path, capsys, width):
        path = tmp_path / "group.txt"
        path.write_text(f"{width}\n100010011|100\n", encoding="utf-8")
        code, out, err = run(capsys, "hidden-verify", str(path))
        assert code == 2
        assert out == ""
        assert "bad group spec: first line must be the width" in err


class TestHiddenSearch:
    def test_builtin_bricks(self, capsys):
        code, out, _ = run(capsys, "hidden-search", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["count"] == 1
        assert report["contains_bundled"] is True

    def test_inversion_bricks(self, capsys):
        code, out, _ = run(capsys, "hidden-search", "--bricks", "inversion", "--json")
        assert code == 0
        assert json.loads(out)["count"] == 0

    @pytest.mark.parametrize("bricks", ["builtin", "inversion"])
    def test_output_pinned(self, capsys, bricks):
        """The full text and JSON reports, so that how sums are compared
        and ordered cannot change what the search prints."""
        code, out, _ = run(capsys, "hidden-search", "--bricks", bricks)
        assert code == 0
        assert out == HIDDEN_SEARCH_TEXT[bricks]
        code, out, _ = run(capsys, "hidden-search", "--bricks", bricks, "--json")
        assert code == 0
        assert out == HIDDEN_SEARCH_JSON[bricks]


BUNDLED_SUM_SPEC = [
    "6",
    "100000010000001000000100000010000001|010000",
    "100000010000011000000100000010000001|100000",
    "110000010000001000000100000010000001|001000",
    "100000010000001000000100000010000001|000010",
    "100000010000001000000100000010000011|000100",
    "100000010000001000000110000010000001|000001",
]

HIDDEN_SEARCH_TEXT = {
    "builtin": "\n".join(
        ["bricks         : builtin", "hidden sums    : 1", "-- sum 0 generators --"]
        + ["  " + line for line in BUNDLED_SUM_SPEC]
        + ["contains bundled sum: True", ""]
    ),
    "inversion": "bricks         : inversion\nhidden sums    : 0\n",
}

HIDDEN_SEARCH_JSON = {
    "builtin": "{\n"
    '  "bricks": "builtin",\n'
    '  "contains_bundled": true,\n'
    '  "count": 1,\n'
    '  "sums": [\n'
    "    [\n"
    + ",\n".join(f'      "{line}"' for line in BUNDLED_SUM_SPEC)
    + "\n    ]\n"
    "  ]\n"
    "}\n",
    "inversion": "{\n"
    '  "bricks": "inversion",\n'
    '  "contains_bundled": false,\n'
    '  "count": 0,\n'
    '  "sums": []\n'
    "}\n",
}


class TestEncryptDecrypt:
    def test_round_trip(self, capsys):
        code, out, _ = run(capsys, "encrypt", "--key", "2a", "--pt", "15")
        assert code == 0
        ct = out.strip()
        code, out, _ = run(capsys, "decrypt", "--key", "2a", "--ct", ct)
        assert code == 0
        assert out.strip() == "15"

    def test_round_trip_permuted_schedule(self, capsys):
        args = ["--key", "3f", "--rounds", "7", "--schedule", "permute", "--seed", "5"]
        code, out, _ = run(capsys, "encrypt", "--pt", "0a", *args)
        ct = out.strip()
        code, out, _ = run(capsys, "decrypt", "--ct", ct, *args)
        assert out.strip() == "0a"

    def test_permuted_schedule_matches_library(self, capsys):
        spec = builtin_toy_spec(7, permuted_key_schedule(6, 5))
        args = ["--key", "3f", "--rounds", "7", "--schedule", "permute", "--seed", "5"]
        for pt in (0x00, 0x0A, 0x3F):
            code, out, _ = run(capsys, "encrypt", "--pt", format(pt, "02x"), *args)
            assert code == 0
            assert int(out, 16) == spec.encrypt(0x3F, pt)

    def test_cipher_config_document(self, tmp_path, capsys):
        (tmp_path / "mix.txt").write_text(
            "011010\n010000\n111010\n010111\n000010\n010110\n"
        )
        cfg = tmp_path / "cipher.json"
        cfg.write_text(
            json.dumps(
                {
                    "bricks": ["builtin", "builtin"],
                    "mixing": "mix.txt",
                    "rounds": 4,
                    "schedule": {"kind": "permute", "seed": 3},
                }
            )
        )
        args = ["--key", "11", "--cipher", str(cfg)]
        code, out, _ = run(capsys, "encrypt", "--pt", "2b", *args)
        assert code == 0
        ct = out.strip()
        code, out, _ = run(capsys, "decrypt", "--ct", ct, *args)
        assert code == 0
        assert out.strip() == "2b"

    @pytest.mark.parametrize("command", ["encrypt", "decrypt"])
    @pytest.mark.parametrize(
        "flag, value", [("--rounds", "900"), ("--schedule", "permute"), ("--seed", "3")]
    )
    def test_builtin_flags_refused_with_cipher_config(self, tmp_path, capsys, command, flag, value):
        cfg = tmp_path / "cipher.json"
        cfg.write_text(json.dumps({"bricks": ["builtin", "builtin"], "mixing": [1, 2, 4, 8, 16, 32], "rounds": 4}))
        block = "--pt" if command == "encrypt" else "--ct"
        code, out, err = run(
            capsys, command, "--key", "11", block, "2b", "--cipher", str(cfg), flag, value
        )
        assert code == 2
        assert out == ""
        assert flag in err

    def test_builtin_defaults_without_cipher_config(self, capsys):
        code, out, _ = run(capsys, "encrypt", "--key", "11", "--pt", "2b")
        assert code == 0
        assert int(out, 16) == builtin_toy_spec(20).encrypt(0x11, 0x2B)
        code, out, _ = run(capsys, "decrypt", "--key", "11", "--ct", "2b", "--seed", "3")
        assert code == 0
        assert int(out, 16) == builtin_toy_spec(20).decrypt(0x11, 0x2B)

    def test_bad_cipher_config(self, tmp_path, capsys):
        cfg = tmp_path / "cipher.json"
        cfg.write_text("{\"bricks\": []}")
        code, _, err = run(capsys, "encrypt", "--key", "00", "--pt", "00", "--cipher", str(cfg))
        assert code == 2

    @pytest.mark.parametrize("command, block", [("encrypt", "--pt"), ("decrypt", "--ct")])
    def test_deeply_nested_cipher_config_is_input_error(self, tmp_path, capsys, command, block):
        cfg = tmp_path / "cipher.json"
        cfg.write_text('{"bricks": ' + "[" * 100_000 + "]" * 100_000 + "}")
        code, out, err = run(capsys, command, "--key", "00", block, "00", "--cipher", str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: bad cipher config {cfg}")

    @pytest.mark.parametrize(
        "config, reason",
        [
            ([1, 2], "must be a JSON object"),
            # a string must not be read as one brick file per character
            ({"bricks": "builtin", "mixing": "mix.txt"}, "'bricks' must be a list"),
            ({"bricks": [5], "mixing": "mix.txt"}, "wrong type"),
            ({"bricks": ["builtin"] * 2, "mixing": 5}, "wrong type"),
            ({"bricks": ["builtin"] * 2, "mixing": "mix.txt", "rounds": None}, "wrong type"),
        ],
    )
    def test_malformed_cipher_config(self, tmp_path, capsys, config, reason):
        (tmp_path / "mix.txt").write_text(
            "011010\n010000\n111010\n010111\n000010\n010110\n"
        )
        cfg = tmp_path / "cipher.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run(capsys, "encrypt", "--key", "00", "--pt", "00", "--cipher", str(cfg))
        assert code == 2
        assert out == ""
        assert reason in err

    @pytest.mark.parametrize(
        "fields, field",
        [
            ({"rounds": True}, "rounds"),
            ({"rounds": 2.9}, "rounds"),
            ({"rounds": "2.9"}, "rounds"),
            ({"schedule": {"kind": "permute", "seed": False}}, "seed"),
            ({"schedule": {"kind": "permute", "seed": 0.5}}, "seed"),
            ({"mixing": [1, 2, 4, 8, 16, 32.5]}, "mixing"),
            ({"mixing": [1, 2, 4, 8, 16, "65/2"]}, "mixing"),
            ({"mixing": [True, 2, 4, 8, 16, 32]}, "mixing"),
            ({"mixing": [1, 2, 4, 8, 16, [32]]}, "mixing"),
            # strings take the digits of gf2.read_digits, not all of int()'s
            ({"rounds": "5_0"}, "rounds"),
            ({"rounds": "\u0663"}, "rounds"),
            ({"rounds": " 5"}, "rounds"),
            ({"schedule": {"kind": "permute", "seed": "+3"}}, "seed"),
        ],
    )
    def test_non_integer_cipher_field_is_input_error(self, tmp_path, capsys, fields, field):
        cfg = tmp_path / "cipher.json"
        cfg.write_text(json.dumps({"bricks": ["builtin", "builtin"], "mixing": [1, 2, 4, 8, 16, 32], **fields}))
        code, out, err = run(capsys, "encrypt", "--key", "11", "--pt", "2b", "--cipher", str(cfg))
        assert code == 2
        assert out == ""
        assert repr(field) in err

    def test_integral_cipher_fields_accepted(self, tmp_path, capsys):
        outputs = []
        for rounds, seed, last_row in ((4, 3, 32), (4.0, "3", 32.0)):
            cfg = tmp_path / "cipher.json"
            fields = {"rounds": rounds, "schedule": {"kind": "permute", "seed": seed}}
            mixing = [1, 2, 4, 8, 16, last_row]
            cfg.write_text(json.dumps({"bricks": ["builtin", "builtin"], "mixing": mixing, **fields}))
            code, out, _ = run(capsys, "encrypt", "--key", "11", "--pt", "2b", "--cipher", str(cfg))
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("command", ["encrypt", "decrypt"])
    @pytest.mark.parametrize("rounds", ["0", "5000"])
    def test_rounds_out_of_range(self, capsys, command, rounds):
        block = "--pt" if command == "encrypt" else "--ct"
        code, out, err = run(capsys, command, "--key", "00", block, "00", "--rounds", rounds)
        assert code == 2
        assert out == ""
        assert "1..1000" in err

    @pytest.mark.parametrize("flag", ["--rounds", "--seed"])
    @pytest.mark.parametrize("value", ["5_0", "+5", "\u0663", " 5"])
    @pytest.mark.parametrize("command", ["encrypt", "attack"])
    def test_integer_flags_take_ascii_digits_only(self, capsys, command, flag, value):
        argv = [command, "--key", "00", *(["--pt", "00"] if command == "encrypt" else [])]
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, value])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument {flag}: {value!r} is not a base-10 number" in err

    def test_block_too_wide(self, capsys):
        code, _, err = run(capsys, "encrypt", "--key", "40", "--pt", "00")
        assert code == 2

    def test_not_hex(self, capsys):
        code, _, err = run(capsys, "encrypt", "--key", "zz", "--pt", "00")
        assert code == 2

    def test_negative_block(self, capsys):
        code, out, err = run(capsys, "encrypt", "--key", "0", "--pt", "-1")
        assert code == 2
        assert out == ""
        assert "block '-1' must be a non-negative hex number" in err

    @pytest.mark.parametrize("block", ["1_0", " 0x2a", "0x2a", "+1", "-1", "2a ", ""])
    @pytest.mark.parametrize("flag", ["--key", "--pt"])
    def test_only_hex_digits_accepted(self, capsys, flag, block):
        """Python's int() syntax (sign, prefix, underscore, blanks) is refused."""
        argv = {"--key": "10", "--pt": "2a", flag: block}
        code, out, err = run(capsys, "encrypt", *(x for kv in argv.items() for x in kv))
        assert code == 2
        assert out == ""
        assert f"block {block!r} must be a non-negative hex number" in err

    @pytest.mark.parametrize("block", ["-0", "\u0661", "\uff11"])
    def test_minus_zero_and_non_ascii_digits_refused(self, capsys, block):
        """The digits an s-box entry takes (gf2.read_digits), and no sign."""
        code, out, err = run(capsys, "encrypt", "--key", "10", "--pt", block)
        assert code == 2
        assert out == ""
        assert f"block {block!r} must be a non-negative hex number" in err

    def test_hex_digits_of_either_case_accepted(self, capsys):
        assert run(capsys, "encrypt", "--key", "10", "--pt", "2a")[:2] == (0, "37\n")
        assert run(capsys, "encrypt", "--key", "10", "--pt", "2A")[:2] == (0, "37\n")


class TestAttackCommand:
    def test_cp_mode(self, capsys):
        code, out, _ = run(capsys, "attack", "--mode", "cp", "--key", "1b", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["enc_queries"] == 7
        assert report["dec_queries"] == 0
        assert report["mismatches"] == 0
        assert report["verdict"] == "PASS"

    def test_cpcc_mode_more_rounds(self, capsys):
        code, out, _ = run(
            capsys, "attack", "--mode", "cpcc", "--rounds", "100", "--key", "3e", "--json"
        )
        assert code == 0
        report = json.loads(out)
        assert (report["enc_queries"], report["dec_queries"]) == (7, 7)
        assert report["mismatches"] == 0

    @pytest.mark.parametrize("rounds", ["0", "5000"])
    def test_rounds_out_of_range(self, capsys, rounds):
        code, out, err = run(capsys, "attack", "--rounds", rounds)
        assert code == 2
        assert out == ""
        assert "1..1000" in err

    def test_negative_key(self, capsys):
        code, out, err = run(capsys, "attack", "--key", "-1")
        assert code == 2
        assert out == ""
        assert "block '-1' must be a non-negative hex number" in err

    def test_random_key_deterministic_with_seed(self, capsys):
        code1, out1, _ = run(capsys, "attack", "--key", "random", "--seed", "9", "--json")
        code2, out2, _ = run(capsys, "attack", "--key", "random", "--seed", "9", "--json")
        assert (code1, code2) == (0, 0)
        assert out1 == out2


class TestReproduceCommand:
    def test_subset_passes(self, capsys):
        code, out, _ = run(capsys, "reproduce", "--criteria", "1,2,10,11")
        assert code == 0
        assert out.count("PASS") == 4

    def test_bad_list(self, capsys):
        code, _, err = run(capsys, "reproduce", "--criteria", "one,two")
        assert code == 2

    @pytest.mark.parametrize("criteria", ["1_0", "1,+2", "\u0661", " 1", "1,", ""])
    def test_criteria_take_ascii_digits_only(self, capsys, criteria):
        """Each token is read by gf2.read_digits: "1_0" once ran criterion
        10, and an empty list the whole battery."""
        code, out, err = run(capsys, "reproduce", "--criteria", criteria)
        assert code == 2
        assert out == ""
        assert "--criteria" in err

    def test_unknown_criterion_is_input_error(self, capsys):
        code, out, err = run(capsys, "reproduce", "--criteria", "1,99")
        assert code == 2
        assert out == ""
        assert "99" in err
        assert "1-14" in err

    def test_json_subset(self, capsys):
        code, out, _ = run(capsys, "reproduce", "--criteria", "1,4", "--json")
        assert code == 1
        report = json.loads(out)
        assert report["passed"] is False
        rows = report["criteria"]
        assert [(r["criterion"], r["verdict"]) for r in rows] == [(1, "PASS"), (4, "FAIL")]
        for row in rows:
            assert set(row) == {"criterion", "title", "verdict", "detail", "elapsed_s"}
            assert row["elapsed_s"] > 0

    def test_env_var_switches_format(self, capsys, monkeypatch):
        monkeypatch.setenv("HIDDENSUMS_FORMAT", "json")
        code, out, _ = run(capsys, "reproduce", "--criteria", "2,10")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert [r["criterion"] for r in report["criteria"]] == [2, 10]

    def test_json_carries_the_text_lines(self, capsys):
        text_code, text, _ = run(capsys, "reproduce")
        json_code, out, _ = run(capsys, "reproduce", "--json")
        assert json_code == text_code == 1
        rows = json.loads(out)["criteria"]
        assert [r["criterion"] for r in rows] == list(range(1, 15))
        lines = [f"{r['verdict']} [{r['criterion']:2d}] {r['title']}: {r['detail']}" for r in rows]
        assert "\n".join(lines) + "\n" == text

    def test_json_unknown_criterion_is_input_error(self, capsys):
        code, out, err = run(capsys, "reproduce", "--criteria", "99", "--json")
        assert code == 2
        assert out == ""
        assert "99" in err


class TestProcess:
    @staticmethod
    def env(**extra):
        src = os.path.dirname(os.path.dirname(hiddensums.__file__))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        return dict(env, PYTHONPATH=src, **extra)

    @pytest.mark.parametrize("unbuffered", [{}, {"PYTHONUNBUFFERED": "1"}], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
    def test_closed_pipe_exits_without_traceback(self, fmt, unbuffered):
        """A reader that closes the pipe at once, as `| head -c 10` does
        soon after, ends the command with exit 1 and no traceback, whether
        the output fails as it is printed or as it is flushed."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "hiddensums.cli", "reproduce", "--criteria", "1", *fmt],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.env(**unbuffered),
        )
        proc.stdout.close()
        _, err = proc.communicate(timeout=30)
        assert err.decode() == ""
        assert proc.returncode == 1

    def test_package_runs_as_a_module(self, capsys):
        """python -m hiddensums runs the command line."""
        proc = subprocess.run(
            [sys.executable, "-m", "hiddensums", "reproduce", "--criteria", "1"],
            capture_output=True, text=True, timeout=30, env=self.env(),
        )
        code, out, _ = run(capsys, "reproduce", "--criteria", "1")
        assert proc.returncode == code == 0
        assert proc.stdout == out
        assert out.startswith("PASS [ 1] ")
