import argparse
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import symspaces
from symspaces import cli
from symspaces.cli import EXIT_CHECK_FAILED, EXIT_GATE, EXIT_OK, EXIT_USAGE, main
from symspaces.cli import _trotter_ks
from symspaces.lts import algebra_to_json
from symspaces.symspace import lts_of_pair


class TestModelsAndUsage:
    def test_models_lists_catalog(self, capsys):
        assert main(["models"]) == EXIT_OK
        out = capsys.readouterr().out
        for name in ("sphere", "spd", "grassmann", "torus_abelian", "product"):
            assert name in out

    def test_no_arguments_is_usage_error(self):
        assert main([]) == EXIT_USAGE

    def test_unknown_verb_is_usage_error(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_unknown_model_is_usage_error(self, capsys):
        assert main(["verify", "--model", "nosuchmodel(3)"]) == EXIT_USAGE


class TestVerify:
    def test_sphere_passes(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["verify", "--model", "sphere(2)", "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["ok"] is True
        assert report["max_residual"] < 1e-8

    def test_verify_pair_descriptor_file(self, tmp_path, sphere):
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(sphere.pair.to_json()))
        assert main(["verify", "--model", str(path)]) == EXIT_OK

    def test_corrupted_tensor_file_fails_axiom_one(self, tmp_path, sphere):
        data = algebra_to_json(lts_of_pair(sphere.pair))
        data["tensor"][0][0][1][0] = 1.0  # break [x,x,y] = 0
        path = tmp_path / "bad_lts.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "report.json"
        assert main(["verify", "--model", str(path), "--out", str(out)]) == EXIT_CHECK_FAILED
        report = json.loads(out.read_text())
        assert report["antisymmetry"] >= 1.0
        assert report["ok"] is False

    @pytest.mark.parametrize("kind", ["lts", "symmetric_lie_algebra"])
    def test_bare_algebra_descriptor_passes(self, tmp_path, capsys, sphere, kind):
        algebra = lts_of_pair(sphere.pair) if kind == "lts" else sphere.pair.algebra()
        path = tmp_path / "algebra.json"
        path.write_text(json.dumps(algebra_to_json(algebra)))
        assert main(["verify", "--model", str(path)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True and report["max_residual"] < 1e-8


class TestTrotter:
    def test_commuting_inputs_are_exact(self, tmp_path, capsys):
        # diagonal spd directions commute: errors at rounding level
        code = main(
            ["trotter", "--model", "spd(2)", "--x", "1,0,0", "--y", "0,1,0",
             "--k-min", "16", "--k-max", "128"]
        )
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "k,error"
        for line in lines[1:]:
            assert float(line.split(",")[1]) <= 1e-12

    def test_commuting_large_k_stays_at_rounding_level(self, capsys):
        # the k-fold product accumulates O(k * eps * scale) rounding noise
        code = main(
            ["trotter", "--model", "spd(2)", "--x", "1,0,0", "--y", "0,1,0",
             "--k-min", "256", "--k-max", "4096"]
        )
        assert code == EXIT_OK
        for line in capsys.readouterr().out.strip().splitlines()[1:]:
            k, err = line.split(",")
            assert float(err) <= max(float(k) * 1e-13, 1e-12)

    def test_noncommuting_errors_decrease(self, capsys):
        code = main(
            ["trotter", "--model", "spd(2)", "--x", "1,0,0", "--y", "0,0,1",
             "--k-min", "16", "--k-max", "4096"]
        )
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        errs = [float(l.split(",")[1]) for l in lines]
        assert all(b < a * 1.1 for a, b in zip(errs, errs[1:]))

    def test_bracket_table_has_three_columns(self, capsys):
        code = main(
            ["trotter", "--model", "spd(2)", "--x", "0.4,0,0", "--y", "0,0,0.56",
             "--z", "0.4,0,0", "--k-min", "4", "--k-max", "16"]
        )
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "k,l,error"
        assert len(lines) == 1 + 3

    def test_empty_range_gives_empty_table(self, capsys):
        code = main(
            ["trotter", "--model", "spd(2)", "--x", "1,0,0", "--y", "0,1,0",
             "--k-min", "32", "--k-max", "16"]
        )
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip() == "k,error"

    @pytest.mark.parametrize("k_min, k_max", [(16, 4096), (1, 1), (1, 3), (3, 7), (5, 4), (16, 0)])
    def test_k_ladder_doubles_up_to_k_max(self, k_min, k_max):
        want = [k_min * 2**j for j in range(64) if k_min * 2**j <= k_max]
        assert _trotter_ks(k_min, k_max) == want

    @pytest.mark.parametrize("k_min", [0, -1, -16])
    def test_k_ladder_rejects_k_min_below_one(self, k_min):
        with pytest.raises(ValueError, match="--k-min"):
            _trotter_ks(k_min, 4096)

    @pytest.mark.parametrize("k_min", ["0", "-4"])
    def test_nonpositive_k_min_is_a_usage_error(self, k_min, capsys):
        code = main(
            ["trotter", "--model", "spd(2)", "--x", "1,0,0", "--y", "0,1,0",
             "--k-min", k_min, "--k-max", "16"]
        )
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --k-min must be at least 1")

    @pytest.mark.parametrize("flag,value", [("--y", "0,0,1e400"), ("--x", "nan,0,0"), ("--z", "0,-inf,0")])
    def test_non_finite_vector_is_a_usage_error(self, flag, value, capsys):
        argv = ["trotter", "--model", "spd(2)", "--k-min", "16", "--k-max", "32"]
        for name, text in {"--x": "1,0,0", "--y": "0,1,0", flag: value}.items():
            argv += [name, text]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: vector entries must be finite: {value!r}\n"

    @pytest.mark.parametrize(
        "flag,value,given", [("--x", "1,0", 2), ("--y", "0,0,1,0", 4), ("--z", "1,0", 2)]
    )
    def test_wrong_length_vector_names_the_flag(self, flag, value, given, capsys):
        argv = ["trotter", "--model", "spd(2)", "--k-min", "16", "--k-max", "32"]
        for name, text in {"--x": "1,0,0", "--y": "0,0,1", flag: value}.items():
            argv += [name, text]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag} has {given} entries, but g_minus has dimension 3\n"

    def test_json_format(self, capsys):
        code = main(
            ["trotter", "--model", "spd(2)", "--x", "1,0,0", "--y", "0,1,0",
             "--k-min", "16", "--k-max", "32", "--format", "json"]
        )
        assert code == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        assert [r["k"] for r in rows] == [16, 32]


class TestQuotient:
    def test_product_factor_succeeds(self, tmp_path):
        out = tmp_path / "q.json"
        code = main(
            ["quotient", "--model", "product(sphere(2),sphere(2))",
             "--ideal", "left_factor", "--out", str(out)]
        )
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert report["ok"] is True
        assert report["weak_submersion"] is True
        assert report["sample_pass_rates"] == {"projection_morphism": 1.0, "kernel_relation": 1.0}
        assert report["quotient_dim_minus"] == 2

    def test_torus_dense_line_exits_three(self, tmp_path):
        out = tmp_path / "q.json"
        code = main(
            ["quotient", "--model", "torus_abelian(sqrt2)",
             "--ideal", "dense_line", "--out", str(out)]
        )
        assert code == EXIT_GATE
        report = json.loads(out.read_text())
        assert report["ok"] is False
        assert report["rejected_by"] == "symmetric-subspace gate"
        assert report["witness"]["witness"] is not None

    def test_sphere_zero_ideal_succeeds(self, tmp_path):
        out = tmp_path / "q.json"
        code = main(
            ["quotient", "--model", "sphere(2)", "--ideal", "0,0", "--out", str(out)]
        )
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert report["quotient_dim_minus"] == 2

    def test_spd_zero_ideal_fails_faithfulness(self, tmp_path):
        out = tmp_path / "q.json"
        code = main(
            ["quotient", "--model", "spd(2)", "--ideal", "0,0,0", "--out", str(out)]
        )
        assert code == EXIT_CHECK_FAILED
        report = json.loads(out.read_text())
        assert "faithful" in report["error"]

    def test_explicit_basis_vectors(self, tmp_path):
        out = tmp_path / "q.json"
        code = main(
            ["quotient", "--model", "product(sphere(2),sphere(2))",
             "--ideal", "1,0,0,0;0,1,0,0", "--out", str(out)]
        )
        assert code == EXIT_OK

    def test_malformed_ideal_is_usage_error(self):
        code = main(
            ["quotient", "--model", "sphere(2)", "--ideal", "zz,1"]
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("ideal", ["inf,0,0", "nan,0,0", "1,0,0;0,-inf,0"])
    def test_non_finite_ideal_is_usage_error(self, ideal, capsys):
        # an infinite row once spanned the zero ideal and ran its pipeline
        assert main(["quotient", "--model", "spd(2)", "--ideal", ideal]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot parse --ideal: vector entries must be finite")
        assert captured.err.count("\n") == 1


class TestNonFiniteParameters:
    @pytest.mark.parametrize("slope", ["1/0", "0/0", "1e400"])
    def test_bad_torus_slope_is_usage_error(self, slope, capsys):
        assert main(["verify", "--model", f"torus_abelian({slope})"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: torus slope {slope!r} is not a finite rational number\n"

    @pytest.mark.parametrize("flag", ["--tol-abs", "--tol-rel"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_tolerance_is_usage_error(self, flag, value, capsys):
        assert main(["verify", "--model", "sphere(2)", flag, value]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: tolerances must be finite and strictly positive\n"


class TestSubspaceVerb:
    def test_torus_report_contains_both_lines(self, tmp_path):
        out = tmp_path / "s.json"
        code = main(["subspace", "--model", "torus_abelian(sqrt2)", "--out", str(out)])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        subs = report["subspaces"]
        assert subs["dense_line"]["symmetric"] is False
        assert subs["axis_line"]["symmetric"] is True
        assert report["ok"] is True

    @pytest.mark.parametrize("slope", ["1/2", "0", "3"])
    def test_rational_torus_line_is_expected_symmetric(self, tmp_path, slope):
        # at a rational slope the line closes into a circle
        out = tmp_path / "s.json"
        assert main(["subspace", "--model", f"torus_abelian({slope})", "--out", str(out)]) == EXIT_OK
        line = json.loads(out.read_text())["subspaces"]["dense_line"]
        assert line["symmetric"] is True and line["expected_symmetric"] is True
        assert line["matches_expectation"] is True

    def test_sphere_report(self, tmp_path):
        out = tmp_path / "s.json"
        assert main(["subspace", "--model", "sphere(2)", "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["subspaces"]["great_circle"]["symmetric"] is True

    def test_nonisomorphic_product_lists_only_its_left_factor(self, tmp_path):
        out = tmp_path / "s.json"
        assert main(["subspace", "--model", "product(spd(2),sphere(3))", "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert sorted(report["subspaces"]) == ["left_factor"]
        assert report["subspaces"]["left_factor"]["matches_expectation"] is True


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--model", "spd(2)", "--seed", "42"],
            ["quotient", "--model", "product(sphere(2),sphere(2))",
             "--ideal", "left_factor", "--seed", "42"],
            ["subspace", "--model", "torus_abelian(sqrt2)", "--seed", "42"],
        ],
    )
    def test_reports_are_byte_identical(self, tmp_path, argv):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        main(argv + ["--out", str(out1)])
        main(argv + ["--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [
            ["quotient", "--model", "product(sphere(3),sphere(3))", "--ideal", "left_factor"],
            ["quotient", "--model", "spd(3)", "--ideal", "center"],
            ["subspace", "--model", "grassmann(2,5)"],
        ],
    )
    def test_repeated_ops_in_one_process_print_the_same_bytes(self, capsys, argv):
        # every op builds a fresh pair, so per-instance caches must not leak
        # state from one op into the next
        runs = []
        for _ in range(2):
            code = main(argv + ["--seed", "7"])
            runs.append((code, capsys.readouterr().out))
        assert runs[0][1]
        assert runs[0] == runs[1]


TROTTER_SPD = ["trotter", "--model", "spd(2)", "--x", "0.4,0,0", "--y", "0,0,0.56", "--k-min", "8", "--k-max", "32"]

# one process, one parser: a call sequence over every verb, with a usage
# error before a valid call and a --z call before one without --z
PARSER_SEQUENCE = (
    ["verify", "--model", "sphere(2)", "--no-such-flag"],
    ["verify", "--model", "sphere(2)", "--seed", "3"],
    TROTTER_SPD + ["--z", "0.4,0,0"],
    TROTTER_SPD,
    ["quotient", "--model", "product(sphere(2),sphere(2))", "--ideal", "left_factor", "--seed", "1"],
    ["quotient"],
    ["quotient", "--model", "spd(2)", "--ideal", "0,0,1", "--seed", "1"],
    ["subspace", "--model", "spd(2)", "--seed", "1"],
    ["frobnicate"],
    ["models"],
)


def _captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestParserReuse:
    @pytest.fixture(autouse=True)
    def fresh_parser_cache(self):
        cli._parser.cache_clear()
        yield
        cli._parser.cache_clear()

    def test_the_parser_is_not_built_at_import(self):
        code = "import symspaces.cli as cli; print(cli._parser.cache_info().currsize)"
        src = os.path.dirname(os.path.dirname(os.path.abspath(symspaces.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "0"

    def test_a_call_sequence_builds_one_parser_and_prints_the_fresh_bytes(self, monkeypatch):
        fresh = []
        for argv in PARSER_SEQUENCE:
            cli._parser.cache_clear()  # each call on a freshly built parser
            fresh.append(_captured(argv))
        cli._parser.cache_clear()
        built = []
        build = cli._build_parser

        def spy():
            built.append(True)
            return build()

        monkeypatch.setattr(cli, "_build_parser", spy)
        reused = [_captured(argv) for argv in PARSER_SEQUENCE]
        assert len(built) == 1
        for argv, want, got in zip(PARSER_SEQUENCE, fresh, reused):
            assert got == want, argv
        codes = [code for code, _, _ in reused]
        assert codes[0] == EXIT_USAGE and codes[1] == EXIT_OK
        assert codes[5] == EXIT_USAGE and codes[8] == EXIT_USAGE
        assert reused[2][1].startswith("k,l,error\n") and reused[3][1].startswith("k,error\n")

    def test_each_call_gets_a_fresh_namespace(self):
        parser = cli._parser()
        with_z = parser.parse_args(TROTTER_SPD + ["--z", "0.4,0,0"])
        without_z = parser.parse_args(TROTTER_SPD)
        assert cli._parser() is parser
        assert with_z is not without_z
        assert with_z.z == "0.4,0,0" and without_z.z is None
        assert with_z.verb == without_z.verb == "trotter"


def test_cli_import_loads_neither_scipy_nor_sympy():
    code = (
        "import sys, symspaces.cli; "
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'sympy'}))"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(symspaces.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_verify_of_a_fifteen_dim_model_stays_small(tmp_path):
    # spd(5) has dim g_minus = 15; a six-index axiom check would hold
    # 15^6 doubles (~87 MB) per intermediate and peak above 400 MB
    code = (
        "import resource, sys; from symspaces.cli import main; "
        "main(['verify', '--model', 'spd(5)', '--out', sys.argv[1]]); "
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(symspaces.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "report.json")],
        env=env, capture_output=True, text=True,
    )
    assert out.returncode == 0, f"exit {out.returncode}; stderr ends: {out.stderr[-2000:]}"
    assert json.loads((tmp_path / "report.json").read_text())["dim_minus"] == 15
    peak_mb = int(out.stdout.strip()) / 1024  # ru_maxrss is in KiB on Linux
    assert peak_mb < 150, f"peak RSS {peak_mb:.1f} MB"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--model", "sphere(3)"],
        ["subspace", "--model", "spd(3)"],
        ["quotient", "--model", "spd(4)", "--ideal", "center"],
    ],
    ids=["verify", "subspace", "quotient"],
)
def test_a_tolerance_below_the_closure_rounding_fails_without_a_traceback(argv):
    # at these tolerances the pair's own commutator closure fails its re-check
    # (a VerificationError); the verb reports it as a failed check
    src = os.path.dirname(os.path.dirname(os.path.abspath(symspaces.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    cmd = [sys.executable, "-m", "symspaces.cli", *argv, "--tol-abs", "1e-17", "--tol-rel", "1e-16"]
    out = subprocess.run(cmd, env=env, capture_output=True, text=True)
    assert "Traceback" not in out.stderr
    assert out.returncode == EXIT_CHECK_FAILED
    assert out.stdout == ""
    assert out.stderr.startswith("error: algebra basis is not closed under commutator: ") and out.stderr.count("\n") == 1


class TestOneModelPath:
    @pytest.mark.parametrize(
        "argv",
        [
            ["trotter", "--x", "1,0", "--y", "0,1"],
            ["quotient", "--ideal", "1,0"],
            ["subspace"],
        ],
        ids=["trotter", "quotient", "subspace"],
    )
    def test_only_verify_reads_a_bare_algebra_descriptor(self, tmp_path, sphere, argv):
        path = tmp_path / "algebra.json"
        path.write_text(json.dumps(algebra_to_json(sphere.pair.algebra())))
        code, out, err = _captured(argv[:1] + ["--model", str(path)] + argv[1:])
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: {path} holds no pair descriptor (no ambient_n); only verify reads an algebra descriptor\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--model", "sphere(2)", "--params", "n=2"],
            TROTTER_SPD + ["--params", "n=2"],
            ["quotient", "--model", "spd(2)", "--ideal", "center", "--params", "n=2"],
            ["subspace", "--model", "product", "--params", "a=grassmann(2,5),b=grassmann(2,5)"],
            ["verify", "--model", "sphere(2)", "--format", "json"],
            ["quotient", "--model", "spd(2)", "--ideal", "center", "--format", "json"],
            ["subspace", "--model", "spd(2)", "--format", "csv"],
            TROTTER_SPD + ["--format", "text"],
        ],
    )
    def test_options_no_verb_reads_are_usage_errors(self, argv):
        # argparse rejects them before any model is built
        code, out, err = _captured(argv)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("usage: symspaces ") and ("unrecognized arguments" in err or "invalid choice" in err)

    def test_csv_is_the_default_format(self):
        default = _captured(TROTTER_SPD)
        assert default[0] == EXIT_OK and default[1].startswith("k,error\n")
        assert _captured(TROTTER_SPD + ["--format", "csv"]) == default

    def test_the_readme_names_each_verbs_options(self):
        # the README's CLI section lists, verb by verb, exactly the options of the parser
        verbs = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
        want = {
            verb: {
                flag: tuple(action.choices) if action.choices else None
                for action in parser._actions
                for flag in action.option_strings
                if flag.startswith("--") and flag != "--help"
            }
            for verb, parser in verbs.items()
        }
        readme = (Path(symspaces.__file__).resolve().parents[2] / "README.md").read_text()
        section = re.search(r"^## CLI\n(.*?)(?=^## )", readme, re.S | re.M).group(1)
        listed = {
            verb: {flag: tuple(choices.split(",")) if choices else None
                   for flag, choices in re.findall(r"(--[a-z-]+)(?: \{([a-z,]+)\})?", options)}
            for verb, options in re.findall(r"^- `(\w+)`: (.*)$", section, re.M)
        }
        assert listed == want
        named = set(re.findall(r"--[a-z][a-z-]*", section))
        assert named == {flag for flags in want.values() for flag in flags}


VERB_ARGS = {"verify": [], "trotter": ["--x", "1,0", "--y", "0,1"], "quotient": ["--ideal", "1,0"], "subspace": []}


def _malformed_pair(sphere, case: str) -> str:
    """The text of a sphere(2) pair descriptor broken one way."""
    data = sphere.pair.to_json()
    if case == "top_level_array":
        return json.dumps([1, 2])
    if case == "not_json":
        return "ambient_n: 3"
    if case == "missing_field":
        del data["algebra_basis"]
    elif case == "wrong_type":
        data["plus_count"] = "1"
    elif case == "non_finite_entry":
        data["algebra_basis"][0][0][0] = float("nan")
    elif case == "ragged_array":
        data["algebra_basis"][0][0].pop()
    elif case == "wrong_shape":
        data["ambient_n"] = 2  # 27 basis entries are no stack of 2 x 2 matrices
    elif case == "sigma_without_kind":
        del data["sigma"]["kind"]
    return json.dumps(data)


class TestMalformedModelFile:
    """A model file that is not a well-formed descriptor is a usage error on
    every verb: exit 2, nothing on stdout, one ``error:`` line that names the
    file and, where one field is at fault, the field and what it must hold."""

    @pytest.mark.parametrize("verb", sorted(VERB_ARGS))
    @pytest.mark.parametrize(
        "case,says",
        [
            ("top_level_array", "expected a JSON object at the top level, found a list"),
            ("not_json", "not a JSON file"),
            ("missing_field", "field 'algebra_basis' is missing; expected an array of finite numbers"),
            ("wrong_type", "field 'plus_count' is not a non-negative integer"),
            ("non_finite_entry", "field 'algebra_basis' is not an array of finite numbers"),
            ("ragged_array", "field 'algebra_basis' is not an array of finite numbers"),
            ("wrong_shape", "cannot reshape array of size 27 into shape (2,2)"),
            ("sigma_without_kind", "field 'sigma' is not an object with a string 'kind'"),
        ],
    )
    def test_pair_descriptor(self, tmp_path, sphere, verb, case, says):
        path = tmp_path / "model.json"
        path.write_text(_malformed_pair(sphere, case))
        code, out, err = _captured([verb, "--model", str(path)] + VERB_ARGS[verb])
        assert code == EXIT_USAGE and out == ""
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1 and says in err

    @pytest.mark.parametrize(
        "edit,says",
        [
            ({"tensor": None}, "field 'tensor' is missing; expected an array of finite numbers"),
            ({"kind": "group"}, "field 'kind' is 'group'; expected 'lts' or 'symmetric_lie_algebra' (or 'ambient_n' of a pair)"),
            ({"dim": -1}, "field 'dim' is not a non-negative integer"),
            ({"tensor": [[float("inf")]]}, "field 'tensor' is not an array of finite numbers"),
            ({"tensor": [0.0] * 8}, "tensor shape (8,) != (2, 2, 2, 2)"),
            ({"labels": "sphere"}, "field 'labels' is not a list of strings"),
        ],
    )
    def test_algebra_descriptor_on_verify(self, tmp_path, sphere, edit, says):
        data = algebra_to_json(lts_of_pair(sphere.pair))
        for key, value in edit.items():
            if value is None:
                del data[key]
            else:
                data[key] = value
        path = tmp_path / "algebra.json"
        path.write_text(json.dumps(data))
        code, out, err = _captured(["verify", "--model", str(path)])
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: {path}: {says}\n"

    def test_a_symmetric_lie_algebra_descriptor_needs_theta(self, tmp_path, sphere):
        data = algebra_to_json(sphere.pair.algebra())
        del data["theta"]
        path = tmp_path / "algebra.json"
        path.write_text(json.dumps(data))
        code, out, err = _captured(["verify", "--model", str(path)])
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: {path}: field 'theta' is missing; expected an array of finite numbers\n"
