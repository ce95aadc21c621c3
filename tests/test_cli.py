import io
import json
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from rncgeom import catalog, rnc
from rncgeom.catalog import FAMILIES
from rncgeom.cli import (
    EXIT_FAIL,
    EXIT_INCONCLUSIVE,
    EXIT_PASS,
    EXIT_USAGE,
    main,
)
from rncgeom.errors import GenericityError, InvariantError
from rncgeom.poly import Polynomial, RationalCurve
from rncgeom.sampling import MAX_RETRIES
from test_gcd_oracle import reference_curve_contains_point
from test_rnc import _callers


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


SCROLL = '{"family":"Scroll","params":{"a":[1,1]}}'

# one spec of every family, as JSON params
FAMILY_PARAMS = {
    "Veronese": '{"dim":2,"order":2}',
    "Scroll": '{"a":[2,1]}',
    "StandardScroll": '{"a":[1,1],"rho":2,"chi":1}',
    "ConeStandard": '{"r":2,"q":4}',
    "QuadricVeronese": '{"r":3,"rho":2,"rank":5}',
    "SegreSpecial": '{"r":2,"mu":4}',
    "CubicSpecial": '{"r":2,"mu_prime":2}',
    "Veronese33": '{}',
}


def family_spec(family) -> str:
    return f'{{"family":"{family}","params":{FAMILY_PARAMS[family]}}}'


class TestPiTable:
    def test_rows_and_identity_column(self):
        code, out = run(["pi-table", "--r", "2", "--n", "2", "--q", "3", "--format", "json"])
        assert code == EXIT_PASS
        doc = json.loads(out)
        row = doc["rows"][0]
        assert row == {"r": 2, "n": 2, "q": 3, "pi": 19, "castelnuovo": 19}

    def test_identity_column_always_matches(self):
        code, out = run(["pi-table", "--r", "1:3", "--n", "2:5", "--q", "1:9", "--format", "json"])
        doc = json.loads(out)
        assert all(r["pi"] == r["castelnuovo"] for r in doc["rows"])

    def test_minimal_row(self):
        code, out = run(["pi-table", "--r", "3", "--n", "4", "--q", "3", "--format", "json"])
        doc = json.loads(out)
        assert doc["rows"][0]["pi"] == 3 + 4 - 1

    def test_table_text_format_golden(self):
        code, out = run(["pi-table", "--r", "2", "--n", "3", "--q", "2:3"])
        assert code == EXIT_PASS
        assert out.splitlines() == [
            "  r   n    q       pi  castelnuovo",
            "  2   3    2        4            4",
            "  2   3    3        7            7",
        ]


class TestEnumerate:
    def test_scroll_index_set(self):
        code, out = run(
            ["enumerate", "--index-set", '{"type":"scroll","a":[1,1],"rho":1,"chi":0}',
             "--format", "json"]
        )
        assert code == EXIT_PASS
        doc = json.loads(out)
        assert doc["cardinality"] == 3 and doc["pi_matches"]

    def test_cone_index_set(self):
        code, out = run(
            ["enumerate", "--index-set", '{"type":"cone","r":2,"q":4}', "--format", "json"]
        )
        doc = json.loads(out)
        assert doc["cardinality"] == 6 and doc["pi_matches"]

    def test_cone_identity_flag(self):
        code, out = run(
            ["enumerate", "--index-set",
             '{"type":"scroll","a":[3,0,0],"rho":2,"chi":-1}', "--format", "json"]
        )
        doc = json.loads(out)
        assert doc["flags"]["cone_identity"] is True


class TestVerifyCommand:
    def test_pass_exit_code(self):
        code, _ = run(["verify", "--spec", SCROLL, "--trials", "2", "--seed", "3"])
        assert code == EXIT_PASS

    def test_byte_identical_json(self):
        argv = ["verify", "--spec", SCROLL, "--trials", "3", "--seed", "11",
                "--format", "json"]
        code1, out1 = run(argv)
        code2, out2 = run(argv)
        assert code1 == code2 == EXIT_PASS
        assert out1 == out2

    def test_byte_identical_across_processes(self):
        # different hash seeds must not leak into the output bytes
        import os

        argv = [sys.executable, "-m", "rncgeom.cli", "verify", "--spec", SCROLL,
                "--trials", "2", "--seed", "5", "--format", "json"]
        outs = []
        for hash_seed in ("1", "42"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            proc = subprocess.run(argv, capture_output=True, env=env)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]

    def test_forced_fail(self):
        bad = '{"family":"Scroll","params":{"a":[1,1]},"declare":{"r":1,"n":3,"q":5}}'
        code, out = run(["verify", "--spec", bad, "--trials", "1", "--format", "json"])
        assert code == EXIT_FAIL
        assert json.loads(out)["verdict"] == "fail"

    def test_inconclusive_exit_code(self):
        spec = '{"family":"CubicSpecial","params":{"r":3,"mu_prime":3}}'
        code, out = run(["verify", "--spec", spec, "--trials", "1", "--format", "json"])
        assert code == EXIT_INCONCLUSIVE
        assert json.loads(out)["verdict"] == "inconclusive"

    def test_malformed_spec(self):
        code, _ = run(["verify", "--spec", '{"family":"Mystery"}'])
        assert code == EXIT_USAGE

    def test_unparsable_json(self):
        code, _ = run(["verify", "--spec", "{not json"])
        assert code == EXIT_USAGE

    def test_spec_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(SCROLL)
        code, _ = run(["verify", "--spec", str(path), "--trials", "1"])
        assert code == EXIT_PASS


class TestOtherCommands:
    def test_build(self):
        code, out = run(["build", "--spec", SCROLL, "--format", "json"])
        assert code == EXIT_PASS
        doc = json.loads(out)
        assert doc["ambient_dim"] == 3 and doc["span_dim"] == 3
        assert doc["components"][0] == "1"

    def test_build_every_family(self):
        assert set(FAMILY_PARAMS) == set(FAMILIES)
        for family in FAMILIES:
            code, out = run(["build", "--spec", family_spec(family), "--format", "json"])
            assert code == EXIT_PASS
            payload = json.loads(out)
            assert payload["span_dim"] == payload["ambient_dim"]

    def test_osculate(self):
        code, out = run(
            ["osculate", "--spec", '{"family":"Veronese","params":{"dim":2,"order":2}}',
             "--point", "0,0", "--order", "2", "--format", "json"]
        )
        assert code == EXIT_PASS
        doc = json.loads(out)
        assert doc["report"] == {
            "order": 2, "dim": 5, "regular": True, "expected_dim_plus_1": 6
        }

    def test_fit(self):
        code, out = run(["fit", "--spec", SCROLL, "--seed", "5", "--format", "json"])
        assert code == EXIT_PASS
        doc = json.loads(out)
        assert doc["certificate"]["is_rnc"] and doc["incidence"]

    @pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
    def test_fit_incidence_is_that_of_the_gcd_path(self, family, monkeypatch):
        # the carried pairs certify the printed points with no gcd, and the
        # plain Fraction gcd reference agrees on the printed curve
        gcds = _callers(monkeypatch, "_gcd_ints")
        code, out = run(["fit", "--spec", family_spec(family), "--seed", "3", "--format", "json"])
        doc = json.loads(out)
        assert code == EXIT_PASS and doc["incidence"]
        assert "curve_contains_point" not in gcds
        variety = catalog.make_variety(catalog.spec_from_json(doc["spec"]))
        curve = RationalCurve(
            [Polynomial.univariate([Fraction(x) for x in row]) for row in doc["curve_coefficients"]]
        )
        for point in doc["points"]:
            image = variety.eval(tuple(Fraction(x) for x in point))
            assert reference_curve_contains_point(curve, image)

    def test_fit_needing_a_splitting_field_is_inconclusive(self, capsys):
        spec = '{"family":"CubicSpecial","params":{"r":3,"mu_prime":3}}'
        code, out = run(["fit", "--spec", spec, "--seed", "0", "--format", "json"])
        assert code == EXIT_INCONCLUSIVE and out == ""
        err = capsys.readouterr().err
        assert err.startswith("error: intersection requires adjoining a square root of")

    def test_fit_does_not_resample_a_broken_invariant(self, monkeypatch):
        calls = []

        def broken(spec, points, rng=None):
            calls.append(points)
            raise InvariantError("broken")

        monkeypatch.setattr(rnc, "fit_rnc_through", broken)
        code, _ = run(["fit", "--spec", SCROLL, "--seed", "0"])
        assert code == EXIT_FAIL and len(calls) == 1

    def test_fit_resamples_genericity_failures(self, monkeypatch):
        calls = []

        def unlucky(spec, points, rng=None):
            calls.append(points)
            raise GenericityError("unlucky")

        monkeypatch.setattr(rnc, "fit_rnc_through", unlucky)
        code, _ = run(["fit", "--spec", SCROLL, "--seed", "0"])
        assert code == EXIT_FAIL and len(calls) == MAX_RETRIES + 1

    def test_witness(self):
        code, out = run(
            ["witness", "--spec", '{"family":"Veronese33","params":{}}',
             "--format", "json"]
        )
        assert code == EXIT_PASS
        assert json.loads(out)["verdict"] == "special"

    def test_usage_error_on_unknown_command(self):
        code, _ = run(["frobnicate"])
        assert code == EXIT_USAGE


VERONESE = '{"family":"Veronese","params":{"dim":2,"order":2}}'
INT_ERROR = "invalid literal for int() with base 10: "
JSON_ERROR = "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"


class TestUsageErrors:
    """Exit 64 is for malformed input only, with the message of the parse error."""

    @pytest.mark.parametrize("argv, message", [
        (["pi-table", "--r", "x"], INT_ERROR + "'x'"),
        (["pi-table", "--q", "1:y"], INT_ERROR + "'y'"),
        (["enumerate", "--index-set", "{bad"], JSON_ERROR),
        (["enumerate", "--index-set", '{"a":[1,1],"rho":1}'], "'chi'"),
        (["enumerate", "--index-set", '{"a":[1,1],"rho":"x","chi":0}'], INT_ERROR + "'x'"),
        (["enumerate", "--index-set", '{"a":[1,"x"],"rho":1,"chi":0}'], INT_ERROR + "'x'"),
        (["enumerate", "--index-set", '{"type":"cone","r":"x","q":4}'], INT_ERROR + "'x'"),
        (["enumerate", "--index-set", '{"type":"torus"}'], "unknown index-set type 'torus'"),
        (["osculate", "--spec", VERONESE, "--point", "x,1", "--order", "1"],
         "Invalid literal for Fraction: 'x'"),
        (["osculate", "--spec", VERONESE, "--point", "1,2", "--order", "-1"],
         "order must be non-negative"),
        (["verify", "--spec", "{not json"], "spec is not valid JSON: " + JSON_ERROR),
        (["osculate", "--spec", VERONESE, "--point", "1,2,3", "--order", "1"],
         "point needs 2 coordinates, got 3"),
        (["verify", "--spec", VERONESE, "--trials", "0"], "--trials must be at least 1"),
        (["verify", "--spec", VERONESE, "--trials", "-3"], "--trials must be at least 1"),
    ])
    def test_malformed_input(self, argv, message, capsys):
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["pi-table"],
        ["enumerate", "--index-set", '{"type":"cone","r":2,"q":4}'],
        ["build", "--spec", VERONESE],
        ["osculate", "--spec", VERONESE, "--point", "1,2", "--order", "1"],
        ["witness", "--spec", '{"family":"Veronese33","params":{}}'],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("flag", ["--seed", "--trials"])
    def test_flag_the_command_does_not_read(self, argv, flag, capsys):
        # only fit reads --seed, and only verify reads --seed and --trials
        assert main(argv) == EXIT_PASS
        assert main(argv + [flag, "3"]) == EXIT_USAGE
        assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err

    def test_fit_takes_no_trials(self, capsys):
        assert main(["fit", "--spec", SCROLL, "--trials", "3"]) == EXIT_USAGE
        assert "unrecognized arguments: --trials 3" in capsys.readouterr().err

    def test_undecodable_spec_file(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_bytes(b"\xff{")
        assert main(["verify", "--spec", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: 'utf-8' codec can't decode")

    def test_library_value_error_is_not_a_usage_error(self, monkeypatch):
        def inexact(spec, points, rng=None):
            raise ValueError("division is not exact")

        monkeypatch.setattr(rnc, "fit_rnc_through", inexact)
        with pytest.raises(ValueError, match="division is not exact"):
            main(["fit", "--spec", SCROLL, "--seed", "0"])
