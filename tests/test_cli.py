"""CLI: commands, exit codes, determinism, serialization round trips."""

import json
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from qexterior import cli
from qexterior.cli import main
from qexterior.coeffs import FourierCoeff
from qexterior.equivariant import _equivariant_basis
from qexterior.forms import HForm
from qexterior.models import PoissonModel
from qexterior.sampling import PRNG_NAME
from qexterior.serialize import (CONVENTIONS, form_from_json, form_to_json,
                                 model_from_json)

from test_namespace import child_env


def run_cli(args):
    r = subprocess.run([sys.executable, "-m", "qexterior.cli", *args],
                       capture_output=True, text=True, env=child_env())
    return r


def break_suite_product(monkeypatch):
    """Make the product-law suites multiply by a ^_h b + h a, which is
    neither associative nor supercommutative, on the integer numerators
    they decide on: a's numerators join at h^(j+1), scaled from la to the
    product's den.  (Flipping the sign of the h-correction would not do:
    that is the product under -w.)"""
    from qexterior import suites
    product = suites.qwedge_numerators

    def broken(na, nb, table):
        den, top, out = product(na, nb, table)
        la, ta, A = na
        out = dict(out)
        for (j, m), n in A.items():
            s = out.get((j + 1, m), 0) + n * (den // la)
            if s:
                out[(j + 1, m)] = s
            else:
                out.pop((j + 1, m), None)
        return den, max(top, ta), out
    monkeypatch.setattr(suites, "qwedge_numerators", broken)


@pytest.fixture
def t2_file(tmp_path):
    path = tmp_path / "t2.json"
    path.write_text(json.dumps({"space": "torus", "dim": 2,
                                "symplectic": "darboux"}), encoding="utf-8")
    return str(path)


@pytest.fixture
def t2c_file(tmp_path):
    path = tmp_path / "t2c.json"
    path.write_text(json.dumps({"space": "torus", "dim": 2,
                                "symplectic": "darboux", "complex": True}),
                    encoding="utf-8")
    return str(path)


@pytest.fixture
def affine_file(tmp_path):
    path = tmp_path / "r2.json"
    path.write_text(json.dumps({"space": "affine", "dim": 2,
                                "bivector": [[1, 2, "1"]]}), encoding="utf-8")
    return str(path)


class TestCheck:
    def test_suite_passes(self, t2_file):
        rc = main(["check", "--suite", "frame", "--trials", "10",
                   "--seed", "42", "--model", t2_file, "--out", "/dev/null"])
        assert rc == 0

    def test_all_suites_small(self, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["check", "--trials", "4", "--seed", "3",
                   "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["status"] == "pass"
        assert len(report["results"]) >= 10
        assert "conventions" in report

    def test_negative_control_exits_one(self, tmp_path, monkeypatch):
        break_suite_product(monkeypatch)
        for suite in ("associativity", "supercommutativity"):
            out = tmp_path / f"{suite}.json"
            rc = main(["check", "--suite", suite, "--trials", "4",
                       "--seed", "1", "--out", str(out)])
            assert rc == 1
            report = json.loads(out.read_text())
            assert report["status"] == "fail"
            assert report["results"][0]["failures"]

    def test_unknown_suite_exits_two(self):
        # negative-control was a demo suite that always failed; it is gone
        for suite in ("nope", "negative-control"):
            r = run_cli(["check", "--suite", suite, "--trials", "1"])
            assert r.returncode == 2
            err = json.loads(r.stderr)
            assert err["error"]["code"] == 2
            assert f"unknown suite {suite!r}" in err["error"]["message"]

    def test_malformed_model_exits_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        r = run_cli(["check", "--suite", "frame", "--model", str(bad)])
        assert r.returncode == 2

    def test_deeply_nested_model_exits_two(self, capsys, tmp_path):
        # json raises RecursionError, not ValueError, on deep nesting
        bad = tmp_path / "deep.json"
        bad.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
        assert "cannot load" in cli_error(capsys, ["cohomology", "--model",
                                                   str(bad)])

    @pytest.mark.parametrize("body,message", [
        ([1, 2], "JSON object"),
        ({"space": "torus", "dim": -2}, "dimension"),
        ({"space": "torus", "dim": 2, "bivector": [[1, 2]]}, "triples"),
        ({"space": "torus", "dim": 2.7}, "dimension must be an integer"),
        ({"space": "torus", "dim": True}, "dimension must be an integer"),
        ({"space": "torus", "dim": 2, "bivector": [[2, 1, "1"]]},
         "1 <= i < j <= 2"),
        ({"space": "torus", "dim": 2, "bivector": [[1, 3, "1"]]},
         "1 <= i < j <= 2"),
        ({"space": "torus", "dim": 2, "bivector": [[False, 2, "1"]]},
         "index must be an integer"),
    ])
    def test_invalid_model_exits_two(self, tmp_path, body, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(body), encoding="utf-8")
        r = run_cli(["cohomology", "--model", str(bad)])
        assert r.returncode == 2
        err = json.loads(r.stderr)
        assert err["error"]["code"] == 2
        assert message in err["error"]["message"]
        assert "Traceback" not in r.stderr

    # A count below 1 would make a "pass" vacuous, and a negative mode box
    # or degree bound would be read as an empty one: all are malformed input.
    @pytest.mark.parametrize("argv,message", [
        (["check", "--suite", "associativity", "--trials", "-3"], "trials"),
        (["check", "--suite", "associativity", "--trials", "0"], "trials"),
        (["chern", "--connection", "CONN", "--power", "0"], "--power"),
        (["chern", "--connection", "CONN", "--power", "-3"], "--power"),
        (["cohomology", "--mode-box", "-1"], "mode_box"),
        (["dolbeault", "--mode-box", "-1"], "mode_box"),
        (["equivariant", "--action", "ACT", "--mode-box", "-1"], "mode_box"),
        (["cohomology", "--max-degree", "-3"], "max_degree"),
    ], ids=["trials-3", "trials0", "power0", "power-3", "cohomology-box-1",
            "dolbeault-box-1", "equivariant-box-1", "cohomology-max-degree-3"])
    def test_bad_count_exits_two(self, t2c_file, tmp_path, argv, message):
        conn = tmp_path / "conn.json"
        conn.write_text(json.dumps({"rank": 1, "theta": [[[]]]}),
                        encoding="utf-8")
        act = tmp_path / "act.json"
        act.write_text(json.dumps({"generators": [["1", "0"]]}),
                       encoding="utf-8")
        files = {"CONN": str(conn), "ACT": str(act)}
        r = run_cli([files.get(a, a) for a in argv] + ["--model", t2c_file])
        assert r.returncode == 2
        assert r.stdout == ""
        err = json.loads(r.stderr)
        assert err["error"]["code"] == 2
        assert message in err["error"]["message"]
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("seed", [0, 1])
    def test_chern_suite_on_the_circle(self, tmp_path, seed):
        # T^1 has no 2-forms, so a section entry is drawn in degree 0 or 1
        model, out = tmp_path / "t1.json", tmp_path / "report.json"
        write_json(model, {"space": "torus", "dim": 1})
        assert main(["check", "--suite", "chern", "--trials", "3",
                     "--seed", str(seed), "--model", str(model),
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["status"] == "pass"

    @pytest.mark.parametrize("seed", [0, 1])
    def test_equivariant_suite_refuses_affine_models(self, capsys, tmp_path,
                                                      seed):
        model = tmp_path / "r3.json"
        write_json(model, {"space": "affine", "dim": 3})
        assert cli_error(capsys, [
            "check", "--suite", "equivariant", "--trials", "3",
            "--seed", str(seed), "--model", str(model)]) == \
            "equivariant suite runs on torus models"

    @pytest.mark.parametrize("body,skipped", [
        ({"space": "torus", "dim": 4},
         ["normalization", "stokes", "dolbeault", "frobenius", "lefschetz"]),
        ({"space": "affine", "dim": 3},
         ["normalization", "stokes", "dolbeault", "frobenius", "lefschetz",
          "chern", "equivariant"]),
        ({"space": "affine", "dim": 2, "symplectic": "darboux"},
         ["normalization", "stokes", "dolbeault", "frobenius", "chern",
          "equivariant"]),
    ], ids=["T4", "R3", "R2-darboux"])
    def test_all_suites_skip_violated_preconditions(self, tmp_path, body,
                                                    skipped):
        from qexterior.suites import SUITES
        model, out = write_json(tmp_path / "m.json", body), tmp_path / "r.json"
        rc = main(["check", "--trials", "1", "--model", model,
                   "--out", str(out)])
        report = json.loads(out.read_text())
        assert (rc, report["status"]) == (0, "pass")
        assert [(x["suite"], x["reason"].split()[0]) for x in
                report["skipped"]] == [(name, name) for name in skipped]
        assert sorted([x["suite"] for x in report["results"]] + skipped) == \
            sorted(SUITES)

    def test_all_suites_skip_equivariant_when_d1_moves_w(self, capsys,
                                                          tmp_path):
        # w = cos(theta_1) d_1 ^ d_2 is not preserved by the translation d_1
        # (with cos(theta_2) it is, and the equivariant suite runs)
        model = write_json(tmp_path / "cos1.json", {
            "space": "torus", "dim": 2, "bivector": [[1, 2, {"fourier": [
                [[1, 0], "1/2"], [[-1, 0], "1/2"]]}]]})
        out = tmp_path / "all.json"
        assert main(["check", "--trials", "2", "--model", model,
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["skipped"][-1] == {
            "suite": "equivariant",
            "reason": "equivariant suite needs d_1 to preserve w"}
        assert "equivariant" not in [x["suite"] for x in report["skipped"][:-1]]
        for result in report["results"]:
            named = tmp_path / f"{result['suite']}.json"
            assert main(["check", "--trials", "2", "--model", model,
                         "--suite", result["suite"], "--out", str(named)]) == 0
            assert json.loads(named.read_text())["results"] == [result]
        assert cli_error(capsys, ["check", "--trials", "2", "--model", model,
                                  "--suite", "equivariant"]) == \
            report["skipped"][-1]["reason"]

    @pytest.mark.parametrize("suite", ["normalization", "stokes",
                                       "dolbeault", "frobenius", "lefschetz",
                                       "chern", "equivariant"])
    def test_precondition_comes_before_any_draw(self, suite):
        from qexterior.suites import SUITES, SuitePrecondition

        class NoDraws:
            def __getattr__(self, name):
                raise AssertionError(f"drew {name} before the precondition")

        with pytest.raises(SuitePrecondition, match=suite):
            SUITES[suite](PoissonModel.affine(3), 1, NoDraws())

    def test_named_suite_still_refuses_the_model(self, capsys, tmp_path):
        model = write_json(tmp_path / "r3.json", {"space": "affine", "dim": 3})
        assert cli_error(capsys, ["check", "--suite", "stokes", "--trials",
                                  "1", "--model", model]) == \
            "stokes suite runs on symplectic torus models"

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            rc = main(["check", "--suite", "associativity", "--trials", "6",
                       "--seed", "11", "--out", str(path)])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()


def cli_error(capsys, argv):
    """Run the CLI in-process on malformed input: exit 2, nothing on
    stdout and a JSON error object on stderr; returns its message."""
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"]["code"] == 2
    assert "Traceback" not in captured.err
    return err["error"]["message"]


@pytest.fixture
def inputs(tmp_path):
    """Valid input files for every command, keyed by placeholder."""
    files = {
        "T2": {"space": "torus", "dim": 2, "symplectic": "darboux"},
        "T2C": {"space": "torus", "dim": 2, "symplectic": "darboux",
                "complex": True},
        "ACT": {"generators": [["1", "0"]]},
        "CONN": {"rank": 1, "theta": [[[]]]},
        "FORM": [],
    }
    paths = {}
    for key, body in files.items():
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(body), encoding="utf-8")
        paths[key] = str(path)
    return paths


# A cheap valid command line per command; each removed option is added to it.
BASE_ARGV = {
    "check": ["check", "--suite", "frame", "--trials", "1", "--model", "T2"],
    "cohomology": ["cohomology", "--model", "T2"],
    "dolbeault": ["dolbeault", "--model", "T2C"],
    "equivariant": ["equivariant", "--model", "T2", "--action", "ACT",
                    "--cutoff", "1"],
    "lefschetz": ["lefschetz", "--n", "1"],
    "chern": ["chern", "--model", "T2", "--connection", "CONN"],
    "integral": ["integral", "--model", "T2", "--form", "FORM"],
}

# The options a command does not read, which it refuses rather than ignores.
REMOVED_OPTIONS = [
    ("check", ["--mode-box", "1"]), ("check", ["--max-degree", "2"]),
    ("check", ["--ring", "polynomial"]), ("check", ["--latex"]),
    ("cohomology", ["--trials", "5"]),
    ("dolbeault", ["--trials", "5"]), ("dolbeault", ["--max-degree", "2"]),
    ("equivariant", ["--trials", "5"]), ("equivariant", ["--max-degree", "2"]),
    ("lefschetz", ["--model", "T2"]), ("lefschetz", ["--trials", "5"]),
    ("lefschetz", ["--mode-box", "7"]), ("lefschetz", ["--max-degree", "2"]),
    ("lefschetz", ["--ring", "polynomial"]), ("lefschetz", ["--latex"]),
    ("chern", ["--trials", "5"]), ("chern", ["--mode-box", "1"]),
    ("chern", ["--max-degree", "2"]), ("chern", ["--ring", "polynomial"]),
    ("chern", ["--latex"]),
    ("integral", ["--trials", "5"]), ("integral", ["--mode-box", "1"]),
    ("integral", ["--max-degree", "2"]), ("integral", ["--latex"]),
]


class TestOptions:
    @pytest.mark.parametrize("command,extra", REMOVED_OPTIONS,
                             ids=[f"{c}{e[0]}" for c, e in REMOVED_OPTIONS])
    def test_unread_option_refused(self, capsys, inputs, command, extra):
        argv = [inputs.get(a, a) for a in BASE_ARGV[command] + extra]
        message = cli_error(capsys, argv)
        assert "unrecognized arguments" in message and extra[0] in message

    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_negative_seed_refused_before_any_work(self, capsys, monkeypatch,
                                                   inputs, command):
        # random.Random seeds from |seed|, so --seed -5 would silently rerun
        # --seed 5; every command refuses it before its own body runs
        ran = []
        _func, help_text, options = cli.COMMANDS[command]
        monkeypatch.setitem(cli.COMMANDS, command,
                            (lambda args: ran.append(args.seed) or {},
                             help_text, options))
        argv = [inputs.get(a, a) for a in BASE_ARGV[command]]
        message = cli_error(capsys, argv + ["--seed", "-5"])
        assert message == "--seed must be at least 0, got -5" and ran == []
        assert main(argv + ["--seed", "0"]) == 0 and ran == [0]

    def test_settable_values(self):
        from qexterior.cli import COMMANDS
        assert sum(len(options) for _f, _h, options in COMMANDS.values()) == 39

    @pytest.mark.parametrize("argv,message", [
        (["lefschetz", "--n", "abc"], "invalid int value"),
        (["lefschetz", "--bogus"], "unrecognized arguments"),
        (["cohomology", "--ring", "rational"], "invalid choice"),
        (["nope"], "invalid choice"),
        ([], "required"),
    ], ids=["bad-int", "unknown-option", "bad-choice", "unknown-command",
            "no-command"])
    def test_usage_error_is_json(self, capsys, argv, message):
        assert message in cli_error(capsys, argv)

    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_one_subparser_errors_as_the_full_parser(self, capsys,
                                                     monkeypatch, command):
        # main builds only the named command's subparser; every usage
        # error, and an unknown command, gives the same exit code and
        # error object, byte for byte, as the parser of all commands
        options = cli.COMMANDS[command][2]
        int_option = next(o for o in options
                          if cli.OPTIONS[o].get("type") is int)
        malformed = [[command, "--bogus"], [command, int_option, "abc"],
                     [command, options[0]], [command + "x"],
                     [command, "--ring", "rational"]]
        built = []
        original = cli.build_parser

        def recording(commands=cli.COMMANDS):
            built.append(list(commands))
            return original(commands)

        def full(commands=cli.COMMANDS):
            return original()

        for argv in malformed:
            monkeypatch.setattr(cli, "build_parser", recording)
            code = main(argv)
            one = capsys.readouterr()
            monkeypatch.setattr(cli, "build_parser", full)
            assert (code, one) == (main(argv), capsys.readouterr()), argv
            assert code == 2 and one.out == "", argv
        assert built == [[command]] * 3 + [list(cli.COMMANDS), [command]]


class TestCohomology:
    def test_t2_table(self, t2_file, tmp_path):
        out = tmp_path / "t2.out.json"
        rc = main(["cohomology", "--model", t2_file, "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        ranks = {tuple(e["degree"]) if isinstance(e["degree"], list)
                 else e["degree"]: e["rank"] for e in data["table"]}
        assert ranks == {0: 1, 1: 2, 2: 1}
        assert data["meta"]["anomalous_modes"] == []

    def test_affine_rejected(self, affine_file):
        r = run_cli(["cohomology", "--model", affine_file])
        assert r.returncode == 2
        assert "torus" in json.loads(r.stderr)["error"]["message"]

    def test_latex_emission(self, t2_file, tmp_path):
        out = tmp_path / "t2.tex.json"
        rc = main(["cohomology", "--model", t2_file, "--latex",
                   "--out", str(out)])
        assert rc == 0
        assert r"\begin{tabular}" in out.read_text()

    def test_byte_identical_reports(self, t2_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            main(["cohomology", "--model", t2_file, "--out", str(path)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("value", [10_001, 10 ** 9])
    def test_max_degree_past_the_cap_refused(self, capsys, monkeypatch,
                                             t2_file, value):
        # refused before the model or any graded dimension is built
        from qexterior import cohomology
        monkeypatch.setattr(cli, "model_from_json", built)
        monkeypatch.setattr(cohomology, "graded_dims", built)
        message = cli_error(capsys, ["cohomology", "--model", t2_file,
                                     "--max-degree", str(value)])
        assert "--max-degree" in message and "at most 10,000" in message

    def test_max_degree_at_the_cap_accepted(self, t2_file, tmp_path):
        out = tmp_path / "t2.json"
        assert main(["cohomology", "--model", t2_file, "--max-degree",
                     "10000", "--out", str(out)]) == 0
        dims = json.loads(out.read_text())["meta"]["graded_dims"]
        assert len(dims) == 10_001 and dims["10000"] == 2


class TestDolbeault:
    def test_t2_complex(self, t2c_file, tmp_path):
        out = tmp_path / "dolb.json"
        rc = main(["dolbeault", "--model", t2c_file, "--ring", "polynomial",
                   "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        ranks = {tuple(e["degree"]): e["rank"] for e in data["table"]}
        assert ranks[(0, 0)] == 1 and ranks[(1, 0)] == 1

    def test_non_complex_rejected(self, t2_file):
        r = run_cli(["dolbeault", "--model", t2_file])
        assert r.returncode == 2


class TestEquivariant:
    def test_circle_action(self, t2_file, tmp_path):
        action = tmp_path / "act.json"
        action.write_text(json.dumps({"generators": [["1", "0"]]}),
                          encoding="utf-8")
        out = tmp_path / "equi.json"
        rc = main(["equivariant", "--model", t2_file, "--action", str(action),
                   "--cutoff", "4", "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        ranks = {e["degree"]: e["rank"] for e in data["table"]}
        assert ranks == {n: 1 for n in range(5)}
        assert data["meta"]["cutoff"] == 4

    def test_missing_action(self, t2_file):
        r = run_cli(["equivariant", "--model", t2_file])
        assert r.returncode == 2

    def test_a_complex_that_is_not_square_zero_is_internal(
            self, monkeypatch, capsys, tmp_path):
        # the library builds the Cartan complex itself, so a D with D^2 != 0
        # is a fault of the engine (exit 3), not of the input (exit 2): the
        # mutant drops the sign of every Cartan column entry
        from qexterior import equivariant
        from qexterior._kernels import odd_below
        cartan = equivariant._cartan_columns

        def unsigned(generators, labels):
            cols, L = cartan(generators, labels)
            for (_A, _j, mask), col in cols.items():
                for key, (p, q) in col.items():
                    if odd_below(mask) & (mask ^ key[0][2]):
                        col[key] = (-p, -q)
            return cols, L
        model, action = tmp_path / "t4.json", tmp_path / "act.json"
        model.write_text(json.dumps({"space": "torus", "dim": 4,
                                     "symplectic": "darboux"}))
        action.write_text(json.dumps({"generators": [["1", "2", "0", "0"]]}))
        argv = ["equivariant", "--model", str(model), "--action", str(action)]
        assert main(argv) == 0
        capsys.readouterr()
        monkeypatch.setattr(equivariant, "_cartan_columns", unsigned)
        assert main(argv) == 3
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["code"] == 3
        assert err["message"] == ("internal error: AssertionError: complex "
                                  "is not square-zero at spot 2")

    def test_a_representative_that_is_not_a_cycle_is_internal(
            self, monkeypatch, capsys, tmp_path):
        # the library computes the representatives itself, so one that its
        # differential does not kill is a fault of the engine (exit 3): the
        # mutant adds 1 to every entry of each spot's first representative
        from qexterior import complexes
        homology_at = complexes.homology_at

        def shifted(*args):
            free_rank, torsion, reps = homology_at(*args)
            if reps:
                reps[0] = [x + 1 for x in reps[0]]
            return free_rank, torsion, reps
        model, action = tmp_path / "t4.json", tmp_path / "act.json"
        model.write_text(json.dumps({"space": "torus", "dim": 4,
                                     "symplectic": "darboux"}))
        action.write_text(json.dumps({"generators": [["1", "2", "0", "0"]]}))
        argv = ["equivariant", "--model", str(model), "--action", str(action),
                "--cutoff", "4", "--mode-box", "1"]
        assert main(argv) == 0
        capsys.readouterr()
        monkeypatch.setattr(complexes, "homology_at", shifted)
        assert main(argv) == 3
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["message"] == ("internal error: AssertionError: "
                                  "representative is not a cycle")

    def test_laurent_ring_refused(self, t2_file, tmp_path):
        # the tables are computed over k[h]; an explicit Laurent request
        # must not silently get a polynomial report
        action = tmp_path / "act.json"
        action.write_text(json.dumps({"generators": [["1", "0"]]}),
                          encoding="utf-8")
        r = run_cli(["equivariant", "--model", t2_file, "--action",
                     str(action), "--cutoff", "2", "--ring", "laurent"])
        assert r.returncode == 2
        assert r.stdout == ""
        err = json.loads(r.stderr)
        assert err["error"]["code"] == 2
        assert "--ring laurent" in err["error"]["message"]
        assert "Traceback" not in r.stderr

    def test_polynomial_ring_is_the_default(self, t2_file, tmp_path):
        action = tmp_path / "act.json"
        action.write_text(json.dumps({"generators": [["1", "0"]]}),
                          encoding="utf-8")
        reports = []
        for extra in ([], ["--ring", "polynomial"]):
            out = tmp_path / f"equi{len(reports)}.json"
            assert main(["equivariant", "--model", t2_file, "--action",
                         str(action), "--cutoff", "2", "--out", str(out),
                         *extra]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]


    @pytest.mark.parametrize("body,message", [
        ([["1", "0"]], "JSON object"),
        ({"generators": 5}, "must be a list"),
        ({"generators": [[True, 0]]}, "exact scalar"),
        ({"generators": [[1.5, 0]]}, "exact scalar"),
        ({"generators": [["1/0", 0]]}, "zero denominator"),
        ({"generators": [[1]]}, "2 components"),
        ({"generators": [5]}, "2 components"),
    ], ids=["list", "generators-int", "bool", "float", "zero-denominator",
            "short-row", "row-int"])
    def test_malformed_action_exits_two(self, capsys, inputs, body, message):
        action = Path(inputs["ACT"])
        action.write_text(json.dumps(body), encoding="utf-8")
        assert message in cli_error(capsys, ["equivariant", "--model",
                                             inputs["T2"], "--action",
                                             str(action), "--cutoff", "1"])


class TestLefschetz:
    def test_n1_report(self, tmp_path):
        out = tmp_path / "lef.json"
        rc = main(["lefschetz", "--n", "1", "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["all_invertible"]
        assert data["blocks"]["0"]["paper_conformance"] == "mismatch"
        assert data["blocks"]["0"]["conformance_issues"]
        assert data["blocks"]["1"]["factors"]["rational_roots"] == {"1": 2}
        assert all(data["commutators"].values())

    def test_bad_n(self):
        r = run_cli(["lefschetz", "--n", "9"])
        assert r.returncode == 2

    def test_n_past_the_cap_is_refused_before_any_work(self, monkeypatch,
                                                       capsys):
        from qexterior import cli, lefschetz

        def refuse(n):
            raise AssertionError(f"DarbouxSpace({n}) built")
        monkeypatch.setattr(lefschetz, "DarbouxSpace", refuse)
        assert main(["lefschetz", "--n", str(cli.LEFSCHETZ_MAX_N + 1)]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["message"] == "lefschetz reports cover n in 1..5"


class TestChern:
    def test_zero_connection(self, t2_file, tmp_path):
        conn = tmp_path / "conn.json"
        conn.write_text(json.dumps({"rank": 1, "theta": [[[]]]}),
                        encoding="utf-8")
        out = tmp_path / "chern.json"
        rc = main(["chern", "--model", t2_file, "--connection", str(conn),
                   "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["char_forms"]["1"]["form"] == []
        assert data["char_forms"]["1"]["closed"]

    def test_rank2_certificate(self, t2_file, tmp_path):
        theta_entry = [{"indices": [1], "h": 0,
                        "coeff": {"fourier": [[[0, 1], {"re": "1", "im": "0"}]]}}]
        zero_entry = []
        conn = tmp_path / "conn2.json"
        conn.write_text(json.dumps(
            {"rank": 2, "theta": [[theta_entry, zero_entry],
                                  [zero_entry, theta_entry]]}),
            encoding="utf-8")
        out = tmp_path / "chern2.json"
        rc = main(["chern", "--model", t2_file, "--connection", str(conn),
                   "--power", "2", "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["char_forms"]["2"]["closed"]
        assert data["status"] == "pass"

    def test_missing_connection(self, t2_file):
        r = run_cli(["chern", "--model", t2_file])
        assert r.returncode == 2

    @pytest.mark.parametrize("power", [cli.CHERN_MAX_POWER + 1, 100_000])
    def test_power_past_the_cap_refused_before_the_model(self, capsys,
                                                         tmp_path, power):
        # the model file is past the dimension budget and the connection
        # file is missing: --power is checked before either is read
        path = write_json(tmp_path / "model.json", {"space": "torus",
                                                    "dim": 100})
        start = time.perf_counter()
        message = cli_error(capsys, ["chern", "--model", path, "--connection",
                                     str(tmp_path / "missing.json"),
                                     "--power", str(power)])
        assert time.perf_counter() - start < 0.5
        assert message == f"--power {power} passes the work budget: at " \
            f"most {cli.CHERN_MAX_POWER}"

    @pytest.mark.parametrize("power", [0, -3])
    def test_power_below_one_refused_before_the_model(self, capsys,
                                                      tmp_path, power):
        # neither the model nor the connection file exists: --power is
        # checked before either is read
        message = cli_error(capsys, [
            "chern", "--power", str(power), "--model",
            str(tmp_path / "nonexistent.json"), "--connection",
            str(tmp_path / "missing.json")])
        assert message == "--power must be at least 1"

    def test_power_at_the_cap(self, t2_file, tmp_path):
        # theta = e^1 has zero curvature, so every trace power is zero
        assert cli.CHERN_MAX_POWER == 8
        conn = write_json(tmp_path / "conn.json", {"rank": 1, "theta": [[[
            {"indices": [1], "h": 0, "coeff": "1"}]]]})
        out = tmp_path / "chern.json"
        assert main(["chern", "--model", t2_file, "--connection", conn,
                     "--power", "8", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert list(data["char_forms"]) == [str(k) for k in range(1, 9)]
        assert all(c["form"] == [] and c["closed"]
                   for c in data["char_forms"].values())


class TestIntegral:
    def test_volume(self, t2_file, tmp_path):
        form = tmp_path / "one.json"
        form.write_text(json.dumps(
            [{"indices": [], "h": 0,
              "coeff": {"fourier": [[[0, 0], {"re": "1", "im": "0"}]]}}]),
            encoding="utf-8")
        out = tmp_path / "int.json"
        rc = main(["integral", "--model", t2_file, "--form", str(form),
                   "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["integral"] == [[0, {"im": "0", "re": "1"}]]
        assert data["stokes"]["pass"]

    def test_report_states_its_ring(self, tmp_path):
        # the same form over k[h] and k[h,h^-1] integrates to the same
        # values; only the ring key tells the two reports apart
        model = write_json(tmp_path / "t4.json", {
            "space": "torus", "dim": 4, "symplectic": "darboux"})
        form = write_json(tmp_path / "f.json", [
            {"indices": [], "h": 0, "coeff": "1"},
            {"indices": [1, 2], "h": 1, "coeff": {"fourier": [
                [[0, 0, 0, 0], "3/2"], [[1, 0, 0, 0], "1"]]}},
            {"indices": [1, 2, 3, 4], "h": 2, "coeff": "2"}])
        reports = {}
        for ring in ("laurent", "polynomial", None):
            out = tmp_path / f"{ring}.json"
            argv = ["integral", "--model", model, "--form", form,
                    "--out", str(out)]
            assert main(argv + (["--ring", ring] if ring else [])) == 0
            reports[ring] = out.read_bytes()
            assert json.loads(reports[ring])["ring"] == (ring or "laurent")
        assert reports["laurent"] != reports["polynomial"]
        assert reports[None] == reports["laurent"]
        bodies = [json.loads(r) for r in reports.values()]
        for body in bodies:
            del body["ring"]
        assert bodies[0] == bodies[1] == bodies[2]

    def test_coefficient_past_int_string_limit(self, t2_file, tmp_path):
        # 4,301 digits: within the input budget, past Python's limit on
        # int-to-string conversion
        form = write_json(tmp_path / "f.json",
                          [{"indices": [1, 2], "h": 0,
                            "coeff": {"fourier": [[[0, 0], "1e4300"]]}}])
        out = tmp_path / "int.json"
        rc = main(["integral", "--model", t2_file, "--form", form,
                   "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["integral"] == [[0, {"im": "0", "re": "1" + "0" * 4300}]]

    def test_affine_rejected(self, affine_file, tmp_path):
        form = tmp_path / "f.json"
        form.write_text("[]", encoding="utf-8")
        r = run_cli(["integral", "--model", affine_file, "--form", str(form)])
        assert r.returncode == 2

    def test_unnormalized_powers_are_internal(self, monkeypatch, capsys,
                                              tmp_path):
        # qintegral with omega^k for omega^k/k! gives int_h 1 = 2 on the
        # Darboux T^4: its Liouville check makes that a fault of the
        # engine (exit 3), not a different value
        from qexterior import calculus
        from test_calculus import unnormalized_qintegral
        model = write_json(tmp_path / "t4.json", {
            "space": "torus", "dim": 4, "symplectic": "darboux"})
        form = write_json(tmp_path / "one.json", [{
            "indices": [], "h": 0, "coeff": {"fourier": [[[0] * 4, "1"]]}}])
        argv = ["integral", "--model", model, "--form", form]
        assert main(argv) == 0
        capsys.readouterr()
        monkeypatch.setattr(calculus, "qintegral", unnormalized_qintegral())
        assert main(argv) == 3
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["message"] == (
            "internal error: AssertionError: quantum integral: int_h 1 = 2 "
            "is not Pf(Omega), its square is not det(Omega)")


# Form terms the loader must refuse rather than misread: a descending or
# repeated index list would load as +e^12, index 0 as a negative shift and
# a fractional h-exponent would be truncated.
BAD_FORM_TERMS = [
    ({"indices": [2, 1], "h": 0}, "strictly ascending"),
    ({"indices": [1, 1, 2], "h": 0}, "strictly ascending"),
    ({"indices": [0], "h": 0}, "out of range"),
    ({"indices": [3], "h": 0}, "out of range"),
    ({"indices": [True], "h": 0}, "index must be an integer"),
    ({"indices": [1], "h": 1.7}, "h-exponent must be an integer"),
]


class TestFormLoader:
    @pytest.mark.parametrize("term,message", BAD_FORM_TERMS,
                             ids=["descending", "repeated", "zero",
                                  "beyond-dim", "bool", "fractional-h"])
    def test_bad_form_exits_two(self, capsys, inputs, term, message):
        term = {**term, "coeff": {"fourier": [[[0, 0],
                                               {"re": "1", "im": "0"}]]}}
        form = Path(inputs["FORM"])
        form.write_text(json.dumps([term]), encoding="utf-8")
        assert message in cli_error(capsys, ["integral", "--model",
                                             inputs["T2"], "--form", str(form)])
        conn = Path(inputs["CONN"])
        conn.write_text(json.dumps({"rank": 1, "theta": [[[term]]]}),
                        encoding="utf-8")
        assert message in cli_error(capsys, ["chern", "--model", inputs["T2"],
                                             "--connection", str(conn)])

    def test_ascending_indices_load(self):
        t2 = PoissonModel.darboux_torus(1)
        form = form_from_json([{"indices": [1, 2], "h": 1, "coeff": "3"}], t2)
        assert form == t2.form_monomial([1, 2], h=1) * Fraction(3)


# Input a lenient loader misreads: a float as a nearby rational, a bool as
# 0 or 1, a string as true, a ragged matrix as an IndexError, a rank-0
# connection as a vacuous pass, a coefficient of the other space kind as
# valid.  Each must exit 2 with a message that names the problem.
DARBOUX = {"space": "torus", "dim": 2, "symplectic": "darboux"}
BAD_MODELS = [
    ({**DARBOUX, "symplectic": None, "bivector": [[1, 2, 0.1]]},
     "exact scalar"),
    ({**DARBOUX, "symplectic": [[0, 0.5], [-0.5, 0]], "bivector": [[1, 2, -2]]},
     "exact scalar"),
    ({**DARBOUX, "symplectic": [[False, True], [-1, 0]],
      "bivector": [[1, 2, -1]]}, "exact scalar"),
    ({**DARBOUX, "symplectic": [[0, 1], [-1]]}, "2x2 list of rows"),
    ({**DARBOUX, "symplectic": [[0, {"re": 1, "im": 0}], [-1, 0]],
      "bivector": [[1, 2, -1]]}, "must be real"),
    ({**DARBOUX, "complex": "no"}, "complex must be true or false"),
    ({"space": "affine", "dim": 2,
      "bivector": [[1, 2, {"poly": [[[1.9, 0], "1"]]}]]},
     "poly key must be an integer"),
]
BAD_FORM_COEFFS = [
    (0.5, "exact scalar"),
    ({"re": True, "im": "0"}, "exact scalar"),
    ({"fourier": [[[0.5, 0], "1"]]}, "fourier key must be an integer"),
    ({"fourier": [[[True, False], "1"]]}, "fourier key must be an integer"),
    ({"poly": [[[0, 0], "1"]]}, "'fourier' coefficient on torus models"),
]
BAD_FORM_FILES = [
    ([5], "form terms must be objects"),
    ([{"coeff": "1"}], "form terms must be objects"),
    ({"indices": [1]}, "a form must be a list"),
]
BAD_CONNECTIONS = [
    ({"rank": 1.7, "theta": [[[]]]}, "rank must be an integer"),
    ({"rank": True, "theta": [[[]]]}, "rank must be an integer"),
    ({"rank": 0, "theta": []}, "rank must be at least 1"),
    ({"rank": 1, "theta": [[]]}, "must be square"),
    ({"rank": 1, "theta": [5]}, "theta row must be a list"),
]


def write_json(path, body):
    path = Path(path)
    path.write_text(json.dumps(body), encoding="utf-8")
    return str(path)


class TestStrictInputs:
    @pytest.mark.parametrize("body,message", BAD_MODELS,
                             ids=["float-bivector", "float-symplectic",
                                  "bool-symplectic", "ragged-symplectic",
                                  "complex-symplectic", "string-complex",
                                  "float-poly-key"])
    def test_bad_model_exits_two(self, capsys, tmp_path, body, message):
        model = write_json(tmp_path / "model.json", body)
        assert message in cli_error(capsys, ["check", "--suite", "koszul",
                                             "--trials", "1", "--model", model])

    def test_repeated_bivector_pair_exits_two(self, capsys, tmp_path):
        # a loader keeping the last of [1, 2, "1"], [1, 2, "2"] would read
        # w^12 = 2, where Bivector and the form loader sum repeats to 3
        model = write_json(tmp_path / "model.json", {
            "space": "torus", "dim": 2,
            "bivector": [[1, 2, "1"], [1, 2, "2"]]})
        assert "bivector pair [1, 2] is given twice" in cli_error(
            capsys, ["cohomology", "--model", model])

    @pytest.mark.parametrize("coeff,message", BAD_FORM_COEFFS,
                             ids=["float", "bool-re", "float-key", "bool-key",
                                  "poly-on-torus"])
    def test_bad_form_coefficient_exits_two(self, capsys, inputs, coeff,
                                            message):
        form = write_json(inputs["FORM"], [{"indices": [], "coeff": coeff}])
        assert message in cli_error(capsys, ["integral", "--model",
                                             inputs["T2"], "--form", form])

    @pytest.mark.parametrize("body,message", BAD_FORM_FILES,
                             ids=["int-term", "no-indices", "object"])
    def test_bad_form_file_exits_two(self, capsys, inputs, body, message):
        form = write_json(inputs["FORM"], body)
        assert message in cli_error(capsys, ["integral", "--model",
                                             inputs["T2"], "--form", form])

    @pytest.mark.parametrize("body,message", BAD_CONNECTIONS,
                             ids=["float-rank", "bool-rank", "rank-0",
                                  "short-row", "int-row"])
    def test_bad_connection_exits_two(self, capsys, inputs, body, message):
        conn = write_json(inputs["CONN"], body)
        assert message in cli_error(capsys, ["chern", "--model", inputs["T2"],
                                             "--connection", conn])

    @pytest.mark.parametrize("coeff,message", [
        ("1e9999999", "decimal exponent beyond 4300"),
        ("-3/2E-9999999", "decimal exponent beyond 4300"),
        ("1" * 4301, "longer than 4300 characters"),
    ], ids=["exponent", "negative-exponent", "long"])
    def test_rational_string_budget(self, capsys, tmp_path, coeff, message):
        # Fraction would expand the exponent in full, taking seconds.
        model = write_json(tmp_path / "model.json",
                           {**DARBOUX, "symplectic": None,
                            "bivector": [[1, 2, coeff]]})
        start = time.perf_counter()
        got = cli_error(capsys, ["cohomology", "--model", model])
        assert time.perf_counter() - start < 0.5
        assert message in got

    def test_connection_coefficient_matches_space(self, capsys, inputs,
                                                  tmp_path):
        model = write_json(tmp_path / "r2.json",
                           {**DARBOUX, "space": "affine"})
        term = {"indices": [1], "coeff": {"fourier": [[[0, 0], "1"]]}}
        conn = write_json(inputs["CONN"], {"rank": 1, "theta": [[[term]]]})
        assert "'poly' coefficient on affine models" in cli_error(
            capsys, ["chern", "--model", model, "--connection", conn])


class TestExitCodes:
    @pytest.mark.parametrize("exc", [RuntimeError, KeyError, TypeError])
    def test_internal_error_exits_three(self, capsys, monkeypatch, inputs,
                                        tmp_path, exc):
        import qexterior.cohomology

        def broken(*_args, **_kwargs):
            raise exc("engine fault")

        monkeypatch.setattr(qexterior.cohomology, "quantum_derham_table",
                            broken)
        out = tmp_path / "out.json"
        rc = main(["cohomology", "--model", inputs["T2"], "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == "" and "Traceback" not in captured.err
        err = json.loads(captured.err)
        assert err["error"]["code"] == 3
        assert exc.__name__ in err["error"]["message"]
        assert err["error"]["traceback"][-1].endswith(" in broken")
        assert json.loads(out.read_text()) == err

    def test_property_failure_is_the_only_exit_one(self, capsys, inputs,
                                                   monkeypatch):
        # the same suite machinery exits 1 on a failed property and 2 on a
        # precondition the model violates
        with monkeypatch.context() as patch:
            break_suite_product(patch)
            assert main(["check", "--suite", "associativity", "--trials",
                         "2", "--out", "/dev/null"]) == 1
        assert "complex structure" in cli_error(
            capsys, ["check", "--suite", "dolbeault", "--trials", "1",
                     "--model", inputs["T2"]])

    def test_unwritable_out_exits_two(self, capsys, inputs, tmp_path):
        message = cli_error(capsys, ["cohomology", "--model", inputs["T2"],
                                     "--out", str(tmp_path / "no" / "x.json")])
        assert "cannot write the report" in message

    def test_error_with_unwritable_out_keeps_its_code(self, capsys,
                                                      monkeypatch, tmp_path):
        # the error object goes to stderr first, and an --out it cannot be
        # copied to neither raises nor changes the exit code
        out = str(tmp_path / "missing" / "x.json")
        assert "lefschetz reports cover n in 1..5" in cli_error(
            capsys, ["lefschetz", "--n", "9", "--out", out])
        assert "No such file" in cli_error(
            capsys, ["cohomology", "--model", str(tmp_path / "none.json"),
                     "--out", out])

        def broken(*_args):
            raise RuntimeError("engine fault")

        import qexterior.lefschetz
        monkeypatch.setattr(qexterior.lefschetz, "commutator_check", broken)
        assert main(["lefschetz", "--out", out]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"]["message"] == \
            "internal error: RuntimeError: engine fault"
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    @pytest.mark.parametrize("body,code", [
        ({"status": "fail"}, 1), ({"status": "pass"}, 0), ({}, 0)],
        ids=["fail", "pass", "no-status"])
    def test_main_frames_and_scores_every_body(self, capsys, monkeypatch,
                                               inputs, command, body, code):
        # a command returns its body; main adds the one header, writes it
        # and exits 1 exactly when the body's status is "fail"
        _func, help_text, options = cli.COMMANDS[command]
        monkeypatch.setitem(cli.COMMANDS, command,
                            (lambda args: dict(body), help_text, options))
        argv = [inputs.get(a, a) for a in BASE_ARGV[command]]
        assert main(argv + ["--seed", "3"]) == code
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out) == dict(
            body, command=command, seed=3, prng=PRNG_NAME,
            conventions=CONVENTIONS)


class TestSerialization:
    def test_model_roundtrip(self):
        t2 = PoissonModel.darboux_torus(1, complex_structure=True)
        again = model_from_json({
            "space": "torus", "dim": 2, "complex": True,
            "bivector": [[1, 2, {"fourier": [[[0, 0],
                                              {"re": "-1", "im": "0"}]]}]],
            "symplectic": [["0", "1"], ["-1", "0"]]})
        assert again.dim == 2 and again.kind == "torus"
        assert again.complex_structure
        assert again.w == t2.w
        assert again.omega == t2.omega

    def test_form_roundtrip(self):
        t2 = PoissonModel.darboux_torus(1)
        a = t2.form_monomial([1, 2], FourierCoeff.character(2, (1, -1)),
                             h=2) + t2.form_scalar(Fraction(1, 3))
        again = form_from_json(form_to_json(a), t2)
        assert again == a

    def test_mismatched_coeff_class_rejected(self):
        bad = {"space": "torus", "dim": 2,
               "bivector": [[1, 2, {"poly": [[[0, 0], "1"]]}]]}
        with pytest.raises(ValueError):
            model_from_json(bad)


def built(*args):
    raise AssertionError("an over-budget input reached its decoder")


class TestWorkBudget:
    """Table commands refuse a box of Fourier modes times basis labels
    past ``cli.TABLE_BUDGET`` before any model or action is built."""

    @pytest.mark.parametrize("command,model,extra", [
        ("cohomology", {"space": "torus", "dim": 8}, ["--mode-box", "1"]),
        ("cohomology", {"space": "torus", "dim": 10 ** 6},
         ["--mode-box", "0"]),
        ("dolbeault", {"space": "torus", "dim": 8, "symplectic": "darboux",
                       "complex": True}, ["--mode-box", "1"]),
        ("dolbeault", {"space": "torus", "dim": 10 ** 6,
                       "symplectic": "darboux", "complex": True},
         ["--mode-box", "0"]),
        ("equivariant", {"space": "torus", "dim": 8}, ["--mode-box", "1"]),
        ("equivariant", {"space": "torus", "dim": 10 ** 6},
         ["--mode-box", "0"]),
        ("equivariant", {"space": "torus", "dim": 1},
         ["--mode-box", "0", "--cutoff", str(10 ** 9)]),
    ], ids=["cohomology-T8", "cohomology-huge-dim", "dolbeault-T8",
            "dolbeault-huge-dim", "equivariant-T8", "equivariant-huge-dim",
            "equivariant-huge-cutoff"])
    def test_refused_in_milliseconds(self, capsys, monkeypatch, tmp_path,
                                     command, model, extra):
        monkeypatch.setattr(cli, "model_from_json", built)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model), encoding="utf-8")
        action = tmp_path / "action.json"
        action.write_text(json.dumps({"generators": []}), encoding="utf-8")
        argv = [command, "--model", str(path), *extra]
        if command == "equivariant":
            argv += ["--action", str(action)]
        start = time.perf_counter()
        message = cli_error(capsys, argv)
        assert time.perf_counter() - start < 0.5
        assert "(Fourier mode, basis label) pairs" in message

    def test_many_generators_refused_before_the_action_is_built(
            self, capsys, monkeypatch, t2_file, tmp_path):
        monkeypatch.setattr(cli, "action_from_json", built)
        action = tmp_path / "action.json"
        action.write_text(json.dumps({"generators": [["1", "0"]] * 400}),
                          encoding="utf-8")
        start = time.perf_counter()
        message = cli_error(capsys, ["equivariant", "--model", t2_file,
                                     "--action", str(action)])
        assert time.perf_counter() - start < 0.5
        assert "work budget of 100,000" in message

    # (argv, dim, generators, pairs): the (2 b + 1)^dim - 1 nonzero modes,
    # each certified once, plus the levels of mode 0, times 2^dim masks:
    # one level for cohomology, 2 LEVEL_CAP + 1 + dim / 2 first indices p
    # for dolbeault and, for equivariant, the sum over total degrees
    # n <= cutoff + 1 of the C(n // 2 + g, g) Theta monomials of degree at
    # most n // 2
    @pytest.mark.parametrize("argv,dim,generators,pairs", [
        (["cohomology", "--mode-box", "3"], 4, 0, 7 ** 4 * 16),
        (["cohomology", "--mode-box", "1"], 6, 0, 3 ** 6 * 64),
        (["cohomology", "--mode-box", "2"], 5, 0, 5 ** 5 * 32),
        (["cohomology", "--mode-box", "0"], 16, 0, 2 ** 16),
        (["cohomology", "--mode-box", "2"], 6, 0, 5 ** 6 * 64),
        (["cohomology", "--mode-box", "1"], 8, 0, 3 ** 8 * 256),
        (["cohomology", "--mode-box", "0"], 17, 0, 2 ** 17),
        (["dolbeault", "--mode-box", "2"], 4, 0, (5 ** 4 - 1 + 7) * 16),
        (["equivariant", "--mode-box", "1", "--cutoff", "4"], 4, 2,
         (3 ** 4 - 1 + (1 + 1 + 3 + 3 + 6 + 6)) * 16),
        (["equivariant", "--mode-box", "1"], 4, 2,
         (3 ** 4 - 1 + (1 + 1 + 3 + 3 + 6 + 6 + 10 + 10)) * 16),
        (["equivariant", "--mode-box", "1"], 5, 3,
         (3 ** 5 - 1 + (1 + 1 + 4 + 4 + 10 + 10 + 20 + 20)) * 32),
        (["equivariant", "--mode-box", "0", "--cutoff", "2"], 16, 0,
         2 ** 16 * 4),
        (["dolbeault", "--mode-box", "1"], 6, 0, 47_104),
        (["dolbeault", "--mode-box", "3"], 4, 0, 38_512),
        (["equivariant", "--mode-box", "2"], 4, 1, 10_304),
        (["equivariant", "--mode-box", "3"], 4, 1, 38_720),
        (["equivariant", "--mode-box", "0", "--cutoff", "49998"], 1, 0,
         100_000),
        (["equivariant", "--mode-box", "0", "--cutoff", "49999"], 1, 0,
         100_002),
    ])
    def test_stated_budget(self, argv, dim, generators, pairs):
        # T^5 with three generators at box 1 fits the pairs but not the
        # mode-0 budget at the default cutoff 6
        args = cli.build_parser().parse_args(argv)
        if pairs > cli.TABLE_BUDGET:
            with pytest.raises(cli.CliError, match="work budget of 100,000"):
                cli._require_budget(args, dim, generators)
        elif args.command == "equivariant" and cli._mode_zero_work(
                dim, generators, args.cutoff) > cli.MODE_ZERO_BUDGET:
            with pytest.raises(cli.CliError, match="2,000,000 units"):
                cli._require_budget(args, dim, generators)
        else:
            cli._require_budget(args, dim, generators)


    @pytest.mark.parametrize("generators,cutoff", [
        ([["1", "0"], ["2", "0"]], 30),
        ([["1", "0"], ["0", "1"], ["1", "1"]], 12),
        ([["1", "0"]], 300),
    ], ids=["dependent-30", "three-12", "circle-300"])
    def test_mode_zero_refused_in_milliseconds(self, capsys, monkeypatch,
                                               t2_file, tmp_path, generators,
                                               cutoff):
        # mode-0 Smith normal forms of 60 s, 12 s and 199 s at --mode-box 0
        monkeypatch.setattr(cli, "action_from_json", built)
        action = tmp_path / "action.json"
        action.write_text(json.dumps({"generators": generators}),
                          encoding="utf-8")
        start = time.perf_counter()
        message = cli_error(capsys, ["equivariant", "--model", t2_file,
                                     "--action", str(action), "--mode-box",
                                     "0", "--cutoff", str(cutoff)])
        assert time.perf_counter() - start < 0.5
        assert "work budget of 2,000,000 units for the Smith normal form " \
            "of mode 0" in message

    # (dim, generators, cutoff, units): the sum over the spots n <= cutoff
    # + 1 of |B_n|^3, |B_n| the Theta monomials of degree a <= n / 2 times
    # the masks with parity n and at most n - 2a indices
    @pytest.mark.parametrize("dim,generators,cutoff,units", [
        (4, 1, 13, 705_601),
        (4, 2, 8, 1_978_405),
        (9, 3, 2, 1_792_730),
        (2, 1, 50, 1_898_884),
        (1, 1, 2, 1 + 1 + 2 ** 3 + 2 ** 3),
        (2, 1, 51, 2_047_761),
        (4, 3, 6, 2_548_260),
        (2, 3, 12, 10_255_896),
    ])
    def test_stated_mode_zero_budget(self, dim, generators, cutoff, units):
        args = cli.build_parser().parse_args(
            ["equivariant", "--mode-box", "0", "--cutoff", str(cutoff)])
        work = cli._mode_zero_work(dim, generators, cutoff)
        if units <= cli.MODE_ZERO_BUDGET:
            assert work == units
            cli._require_budget(args, dim, generators)
        else:
            # the count stops at the first spot past the budget
            assert cli.MODE_ZERO_BUDGET < work <= units
            with pytest.raises(cli.CliError, match="2,000,000 units"):
                cli._require_budget(args, dim, generators)
        # without generators only the Theta monomial 1 counts, and each of
        # these tori fits at its cutoff
        assert cli._mode_zero_work(dim, 0, cutoff) <= cli.MODE_ZERO_BUDGET
        cli._require_budget(args, dim, 0)

    @pytest.mark.parametrize("dim,generators,cutoff", [
        (1, 1, 9), (2, 2, 6), (3, 1, 5), (4, 3, 3), (5, 2, 2), (3, 0, 7),
        (7, 0, 6)])
    def test_mode_zero_units_count_the_cartan_labels(self, dim, generators,
                                                     cutoff):
        model = PoissonModel.torus(dim, {})
        assert cli._mode_zero_work(dim, generators, cutoff) == sum(
            len(_equivariant_basis(model, generators, n)) ** 3
            for n in range(cutoff + 2))

    @pytest.mark.parametrize("dim", [8, 10])
    def test_no_generators_refused_in_milliseconds(
            self, capsys, monkeypatch, tmp_path, dim):
        # the dense mode-0 Cartan complex is built and its representatives
        # checked with or without generators: 1.4 s on T^8, 29 s on T^10
        monkeypatch.setattr(cli, "action_from_json", built)
        model = write_json(tmp_path / "model.json",
                           {"space": "torus", "dim": dim})
        action = write_json(tmp_path / "action.json", {"generators": []})
        start = time.perf_counter()
        message = cli_error(capsys, ["equivariant", "--model", model,
                                     "--action", action, "--mode-box", "0"])
        assert time.perf_counter() - start < 0.5
        assert "work budget of 2,000,000 units" in message

    def test_no_generators_admitted_edges(self, tmp_path):
        # T^7 at the default cutoff 6: 1,044,608 units; T^1 up to the cutoff
        # the pairs admit, counted in time linear in the cutoff
        assert cli._mode_zero_work(7, 0, 6) == 1_044_608
        cli._require_budget(cli.build_parser().parse_args(
            ["equivariant", "--mode-box", "0"]), 7, 0)
        start = time.perf_counter()
        assert cli._mode_zero_work(1, 0, 49_998) == 50_000
        assert time.perf_counter() - start < 0.5
        model = write_json(tmp_path / "model.json",
                           {"space": "torus", "dim": 7})
        action = write_json(tmp_path / "action.json", {"generators": []})
        out = tmp_path / "report.json"
        assert main(["equivariant", "--model", model, "--action", action,
                     "--mode-box", "0", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["meta"]["generators"] == 0

    @pytest.mark.parametrize("command,model,total", [
        ("cohomology", {"space": "torus", "dim": 16}, 2 ** 16),
        ("dolbeault", {"space": "torus", "dim": 12, "symplectic": "darboux",
                       "complex": True}, 11 * 2 ** 12),
    ], ids=["cohomology-T16", "dolbeault-darboux-T12"])
    def test_admitted_edge_fits_one_gib(self, tmp_path, command, model,
                                        total):
        # the largest admitted mode-0 tables, each class stored by its one
        # basis label, in a child limited to 1 GiB of address space
        path, out = tmp_path / "model.json", tmp_path / "report.json"
        path.write_text(json.dumps(model), encoding="utf-8")

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))

        r = subprocess.run([sys.executable, "-m", "qexterior.cli", command,
                            "--model", str(path), "--mode-box", "0",
                            "--out", str(out)],
                           capture_output=True, text=True, env=child_env(),
                           preexec_fn=limit)
        assert r.returncode == 0, r.stderr
        report = json.loads(out.read_text())
        assert sum(d["rank"] for d in report["table"]) == total

class TestModelDimension:
    """Every command refuses a model past serialize.MAX_MODEL_DIM before it
    reads one bivector entry (here an unreadable one) or builds anything."""

    @staticmethod
    def argv(command, tmp_path, model):
        path = write_json(tmp_path / "model.json", model)
        if command == "check":
            return ["check", "--model", path, "--suite", "associativity",
                    "--trials", "1"]
        if command == "chern":
            return ["chern", "--model", path, "--connection",
                    write_json(tmp_path / "conn.json",
                               {"rank": 1, "theta": [[[]]]})]
        return ["integral", "--model", path, "--form",
                write_json(tmp_path / "form.json",
                           [{"indices": [1, 2], "h": 0, "coeff": "1"}])]

    @pytest.mark.parametrize("symplectic", [None, "darboux"])
    @pytest.mark.parametrize("command", ["check", "chern", "integral"])
    def test_dim_100_refused_in_milliseconds(self, capsys, tmp_path,
                                             command, symplectic):
        model = {"space": "torus", "dim": 100, "bivector": "unread"}
        if symplectic:
            model["symplectic"] = symplectic
        argv = self.argv(command, tmp_path, model)
        start = time.perf_counter()
        message = cli_error(capsys, argv)
        assert time.perf_counter() - start < 0.1
        assert message == "model dimension must be in 1..16, got 100"

    @pytest.mark.parametrize("command", ["chern", "integral"])
    def test_dim_16_accepted(self, tmp_path, command):
        model = {"space": "torus", "dim": 16, "symplectic": "darboux"}
        assert main(self.argv(command, tmp_path, model)
                    + ["--out", str(tmp_path / "out.json")]) == 0

    def test_loader_bounds(self):
        assert model_from_json({"space": "affine", "dim": 16}).dim == 16
        for dim in (0, 17):
            with pytest.raises(ValueError, match=r"must be in 1\.\.16"):
                model_from_json({"space": "affine", "dim": dim})


class TestCheckBudget:
    """``check`` refuses a model past cli.CHECK_MAX_DIM before any trial;
    the suites are stubbed, so no admitted case runs a trial either."""

    @pytest.fixture
    def reached(self, monkeypatch):
        from qexterior import suites
        calls = []

        def stop(name, model, trials, seed):
            calls.append((name, model.dim, trials))
            raise RuntimeError("suite reached")
        monkeypatch.setattr(suites, "run_suite", stop)
        return calls

    @pytest.mark.parametrize("dim,extra", [
        (9, {}), (10, {}), (16, {}), (10, {"symplectic": "darboux"}),
        (16, {"symplectic": "darboux", "complex": True}),
        (12, {"space": "affine"}),
    ], ids=["T9", "T10", "T16", "T10-darboux", "T16-darboux-complex",
            "affine12"])
    def test_past_the_cap_refused_before_any_trial(self, capsys, tmp_path,
                                                   reached, dim, extra):
        model = {"space": "torus", "dim": dim, **extra}
        path = write_json(tmp_path / "model.json", model)
        start = time.perf_counter()
        message = cli_error(capsys, ["check", "--model", path, "--suite",
                                     "associativity", "--trials", "1"])
        assert time.perf_counter() - start < 0.5
        assert message == f"check on dimension {dim} passes the work " \
            "budget: the suites take models of dimension at most 8"
        assert reached == []

    def test_cap_reaches_the_suites(self, tmp_path, reached):
        model = {"space": "torus", "dim": 8, "symplectic": "darboux",
                 "complex": True}
        path = write_json(tmp_path / "model.json", model)
        assert main(["check", "--model", path, "--suite", "chern",
                     "--trials", "100"]) == 3
        assert reached == [("chern", 8, 100)]

    def test_trials_past_the_cap_refused_before_the_model(self, capsys,
                                                          tmp_path, reached):
        # the model file is past the dimension budget too; --trials is
        # checked first, before the model is read
        path = write_json(tmp_path / "model.json", {"space": "torus",
                                                    "dim": 100})
        trials = cli.CHECK_MAX_TRIALS + 1
        message = cli_error(capsys, ["check", "--model", path, "--suite",
                                     "chern", "--trials", str(trials)])
        assert message == f"--trials {trials} passes the work budget: at " \
            f"most {cli.CHECK_MAX_TRIALS}"
        assert reached == []

    def test_trials_cap_reaches_the_suites(self, tmp_path, reached):
        path = write_json(tmp_path / "model.json", {"space": "torus",
                                                    "dim": 2})
        assert main(["check", "--model", path, "--suite", "chern",
                     "--trials", str(cli.CHECK_MAX_TRIALS)]) == 3
        assert reached == [("chern", 2, cli.CHECK_MAX_TRIALS)]

    @pytest.mark.parametrize("suite,trials", [("associativity", 200),
                                              ("supercommutativity", 500)])
    def test_benchmark_inputs_admitted(self, tmp_path, reached, suite, trials):
        # the benchmark's suites jobs: a dimension-4 torus, no bivector
        path = write_json(tmp_path / "model.json", {"space": "torus",
                                                    "dim": 4})
        assert main(["check", "--suite", suite, "--model", path,
                     "--trials", str(trials), "--seed", "7"]) == 3
        assert reached == [(suite, 4, trials)]
