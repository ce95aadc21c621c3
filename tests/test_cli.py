import hashlib
import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
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
JSON_INT_ERROR = "expected an integer, got "
JSON_ERROR = "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"


class TestUsageErrors:
    """Exit 64 is for malformed input only, with the message of the parse error."""

    @pytest.mark.parametrize("argv, message", [
        (["pi-table", "--r", "x"], INT_ERROR + "'x'"),
        (["pi-table", "--q", "1:y"], INT_ERROR + "'y'"),
        (["enumerate", "--index-set", "{bad"], JSON_ERROR),
        (["enumerate", "--index-set", '{"a":[1,1],"rho":1}'], "'chi'"),
        (["enumerate", "--index-set", '{"a":[1,1],"rho":"x","chi":0}'], JSON_INT_ERROR + "'x'"),
        (["enumerate", "--index-set", '{"a":[1,"x"],"rho":1,"chi":0}'], JSON_INT_ERROR + "'x'"),
        (["enumerate", "--index-set", '{"type":"cone","r":"x","q":4}'], JSON_INT_ERROR + "'x'"),
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
        # JSON integers are checked, not truncated or parsed
        (["build", "--spec", '{"family":"Veronese","params":{"dim":2.7,"order":2}}'],
         "bad parameter value: " + JSON_INT_ERROR + "2.7"),
        (["fit", "--spec", '{"family":"Scroll","params":{"a":[1.9,1]}}'],
         "bad parameter value: " + JSON_INT_ERROR + "1.9"),
        (["build", "--spec", '{"family":"Scroll","params":{"a":"11"}}'],
         "bad parameter value: expected a list of integers, got '11'"),
        (["verify", "--spec", '{"family":"Scroll","params":{"a":[1,1]},'
          '"declare":{"r":1.5,"n":3,"q":2}}'], "bad declare block: " + JSON_INT_ERROR + "1.5"),
        (["verify", "--spec", '{"family":"Scroll","params":{"a":[1,1]},'
          '"declare":{"r":1,"n":"3","q":2}}'], "bad declare block: " + JSON_INT_ERROR + "'3'"),
        (["enumerate", "--index-set", '{"a":[1,1],"rho":1.0,"chi":0}'], JSON_INT_ERROR + "1.0"),
        (["enumerate", "--index-set", '{"a":"11","rho":1,"chi":0}'],
         "expected a list of integers, got '11'"),
        (["enumerate", "--index-set", '{"type":"cone","r":2,"q":true}'], JSON_INT_ERROR + "True"),
        (["build", "--spec", '{"family":"Veronese","params":{"dim":Infinity,"order":2}}'],
         "bad parameter value: " + JSON_INT_ERROR + "inf"),
        # a key the document format does not know is an error, not dropped
        (["verify", "--spec", '{"family":"Veronese","params":{"dim":2,"order":2,"bogus":1}}',
          "--trials", "1"], "Veronese spec has unknown params ['bogus']"),
        (["verify", "--spec", '{"family":"Scroll","params":{"a":[1,1]},'
          '"declare":{"r":1,"n":3,"q":5,"s":1}}'], "bad declare block: unknown keys ['s']"),
        (["verify", "--spec", '{"family":"Scroll","params":{"a":[1,1]},'
          '"declar":{"r":1,"n":3,"q":5}}'], "unknown spec document keys ['declar']"),
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

    @pytest.mark.parametrize("command", ["fit", "verify"])
    def test_more_points_than_the_sampler_draws(self, command):
        # Scroll a=[40,1] needs 42 points with distinct first coordinates,
        # and the sampler's heights give 41 distinct rationals: the spec is
        # refused at once instead of being redrawn forever
        spec = '{"family":"Scroll","params":{"a":[40,1]}}'
        argv = [sys.executable, "-m", "rncgeom.cli", command, "--spec", spec]
        proc = subprocess.run(argv, capture_output=True, timeout=30)
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr == (
            b"error: cannot draw 42 distinct rationals: the sampler's heights give 41\n"
        )

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


class TestPinnedBytes:
    """fit and verify --trials 3 at seeds 0 and 7, and witness, in json for
    one spec of every family: the sha256 of each run's stdout, stderr and
    exit code, pinned so that a change to how curves are built, normalized
    or printed cannot move a CLI byte unnoticed."""

    DIGESTS = {
        "ConeStandard fit 0": "9e5bb9631053f7b9c0407bc265aadb14b1b06df48412cfe3263eea3f0a3ba6a0",
        "ConeStandard verify 0": "5716f694e9c046e167892707ac3ca89a6bd5daac6bf1cc07a0aa6e28a4237654",
        "ConeStandard fit 7": "d8c72eb37102051d1deba9278bfd36f924278fc217201317b67f815b852b2028",
        "ConeStandard verify 7": "5716f694e9c046e167892707ac3ca89a6bd5daac6bf1cc07a0aa6e28a4237654",
        "ConeStandard witness": "c7cb531095d6b3fd667894cf0ea5b39967e2cacc12d2994e8c3731e26ee24a04",
        "CubicSpecial fit 0": "480902c419edcb3c1719911528b5b2e1a7c950b6b2d246b86d8cfd29ef6b3915",
        "CubicSpecial verify 0": "3d00320c2d7046881b21d90d16c12bee750a86c534dde33a00cbcc8da98e72cd",
        "CubicSpecial fit 7": "32a106bd0ce864f26300cd8b746b1673e131fd047c8b86cc6d9a4042915dc5df",
        "CubicSpecial verify 7": "082305f28775651350b57eb9670322fdb88940f3dde51955bcb125c0ee6e8442",
        "CubicSpecial witness": "47cc9ae250c3183df6c7f36775367d41400ff790b0c639e24d71f7dcf70f7606",
        "QuadricVeronese fit 0": "278c45effe08cec272abdc45b38fe3a9eb7700e07fb47f51d0a920a384e77fca",
        "QuadricVeronese verify 0": "a1bf6dafe1348aa5d6cc17fe2c2a53b06eeae0b7b50ad00ea6196ff2f4dff51f",
        "QuadricVeronese fit 7": "c76f8f1567ab00bacfb701d3fca3ede1a91f67d26a9f8dbcff249535aa77d961",
        "QuadricVeronese verify 7": "a1bf6dafe1348aa5d6cc17fe2c2a53b06eeae0b7b50ad00ea6196ff2f4dff51f",
        "QuadricVeronese witness": "2dfcc130aee2f38d1d674d59aa994b8ff68d92d2a9d0d99df8a056128caf1409",
        "Scroll fit 0": "917299207a1ce430ad5afe8436094808530222b2400607a54741edca587a110a",
        "Scroll verify 0": "96dc49b592d4172702cfb56a00dd51081d47462443888a5893732f6118998b32",
        "Scroll fit 7": "3ae4249bb0cb18a5137447041f2814009943f1defa68230ff0f5e76866e77c91",
        "Scroll verify 7": "96dc49b592d4172702cfb56a00dd51081d47462443888a5893732f6118998b32",
        "Scroll witness": "ac67c384e20286c50a963d6862afe2240b8c608a9ab78afe11cf5240ebdf9374",
        "SegreSpecial fit 0": "f33d0f8b90046d9659af5991c5f678ef88567e632f20364b81dc2ed18ef4fc4b",
        "SegreSpecial verify 0": "dc13b6828811ed58c878ebf0badff4d021b2ef81566dc1f2a4cb8e3afa5582c6",
        "SegreSpecial fit 7": "62f8406cf0a33d3844f786bbd597274e07c4be347a394e4e54c122a06b6791fa",
        "SegreSpecial verify 7": "dc13b6828811ed58c878ebf0badff4d021b2ef81566dc1f2a4cb8e3afa5582c6",
        "SegreSpecial witness": "0167d4a15f8e5abf354e78d0087caf0c83a0efce6606c619b52b4ca09f967d7a",
        "StandardScroll fit 0": "def12aab41486e1d48d2d8ddf184dd1680847001cdf9516f62d5c3a92cc406a1",
        "StandardScroll verify 0": "d389f4809cc10bf61d950e31fd86aa457847bd4aa86a4094562a09f9cf5b6750",
        "StandardScroll fit 7": "9a31b4a0dea4bc76ae3ff0436e269594deed4e46452c6c8589bc7e7ab0f079e8",
        "StandardScroll verify 7": "d389f4809cc10bf61d950e31fd86aa457847bd4aa86a4094562a09f9cf5b6750",
        "StandardScroll witness": "d452b95fdc19ea94cffc3c0ec2721f3ddd9a0d7d1edb49f2f41ffeaab19aed8b",
        "Veronese fit 0": "8c74b152802ec62f892d9874063d3794f0fd700baa94637b4a248a3e40a2a84b",
        "Veronese verify 0": "654afb47edf9cac3aee1b63be27058f936065cd35a5bf7372734595f4df576ea",
        "Veronese fit 7": "f5ec24f551039c2247d101f5561cb1f6421b8e3766ae7c3536c42bbca66356d0",
        "Veronese verify 7": "654afb47edf9cac3aee1b63be27058f936065cd35a5bf7372734595f4df576ea",
        "Veronese witness": "68c377b43934496ebfd605bc0f75dffc2818a95d834d47b4052c7bc87f571e2a",
        "Veronese33 fit 0": "c72bbb6c9bfeac8f8b1732c07a28a6780637e549e8047608ec909dd3f03500ba",
        "Veronese33 verify 0": "59dba098e65773bf75421d0b34b7c5b14633d625543c111c4af356ebad89ad9e",
        "Veronese33 fit 7": "0ad61a153b87f06983ac86e12f0cdb8332d5244015dbd74e5fb9792fd356fd67",
        "Veronese33 verify 7": "80c7a5febaaaf1d2fe74ddb389250b3ae3896f3162d723aee13f4289c13425dc",
        "Veronese33 witness": "d22c65950a80b4c7718a4feeca52a099c4908826b8be5e21f861d9749c986f41",
    }

    @staticmethod
    def digest(argv) -> str:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv + ["--format", "json"])
        return hashlib.sha256(f"{code}\0{out.getvalue()}\0{err.getvalue()}".encode()).hexdigest()

    @pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
    def test_fit_verify_and_witness_bytes(self, family):
        spec = ["--spec", family_spec(family)]
        got = {f"{family} witness": self.digest(["witness"] + spec)}
        for seed in ("0", "7"):
            got[f"{family} fit {seed}"] = self.digest(["fit"] + spec + ["--seed", seed])
            got[f"{family} verify {seed}"] = self.digest(
                ["verify"] + spec + ["--seed", seed, "--trials", "3"]
            )
        assert got == {k: v for k, v in self.DIGESTS.items() if k.split()[0] == family}
