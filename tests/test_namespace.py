"""The lazy package namespace and what each start loads.

``import qexterior`` resolves its public names on access (PEP 562), and
each CLI command imports its own driver, so a start compiles only the
modules its command runs.  The start-up checks run in fresh interpreters:
in this process every module is long loaded."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qexterior

SRC = Path(__file__).resolve().parents[1] / "src"


def loaded_modules(code):
    """The ``qexterior`` modules a fresh interpreter holds after ``code``,
    without the package prefix ('' for the package itself)."""
    report = ("\nimport json, sys\n"
              "print(json.dumps(sorted(n for n in sys.modules\n"
              "    if n == 'qexterior' or n.startswith('qexterior.'))))\n")
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, "-c", code + report],
                       capture_output=True, text=True,
                       env={**os.environ, "PYTHONPATH": path})
    assert r.returncode == 0, r.stderr
    return {name[len("qexterior."):] if "." in name else ""
            for name in json.loads(r.stdout.splitlines()[-1])}


def run_command(argv):
    return ("import qexterior.cli\n"
            f"assert qexterior.cli.main({argv!r}) in (0, 1)\n")


DRIVERS = {"snf", "complexes", "cohomology", "chern", "equivariant",
           "lefschetz", "calculus", "suites"}


class TestStartUp:
    def test_package_import_loads_no_submodule(self):
        assert loaded_modules("import qexterior") == {""}

    def test_cli_import_loads_no_driver(self):
        loaded = loaded_modules("import qexterior.cli")
        assert not loaded & DRIVERS
        assert len(loaded) <= 12, sorted(loaded)

    def test_lefschetz_loads_no_table_or_suite(self, tmp_path):
        loaded = loaded_modules(run_command(
            ["lefschetz", "--n", "1", "--out", str(tmp_path / "r.json")]))
        assert "lefschetz" in loaded
        assert not loaded & {"snf", "complexes", "cohomology", "chern",
                             "equivariant", "suites"}

    def test_product_suite_loads_suites_alone(self, tmp_path):
        loaded = loaded_modules(run_command(
            ["check", "--suite", "associativity", "--trials", "1",
             "--out", str(tmp_path / "r.json")]))
        assert loaded & DRIVERS == {"suites"}

    def test_cohomology_loads_no_other_driver(self, tmp_path):
        model = tmp_path / "t2.json"
        model.write_text(json.dumps({"space": "torus", "dim": 2,
                                     "symplectic": "darboux"}))
        loaded = loaded_modules(run_command(
            ["cohomology", "--model", str(model), "--mode-box", "0",
             "--out", str(tmp_path / "r.json")]))
        assert "cohomology" in loaded
        assert not loaded & {"chern", "equivariant", "lefschetz", "suites"}


class TestNamespace:
    def test_every_name_is_its_home_module_object(self):
        for name in qexterior.__all__:
            home = importlib.import_module(
                f"qexterior.{qexterior._HOME[name]}")
            assert getattr(qexterior, name) is getattr(home, name), name

    def test_one_table_lists_each_name_once(self):
        assert set(qexterior._HOME) == set(qexterior.__all__)
        assert sum(map(len, qexterior._EXPORTS.values())) == \
            len(qexterior.__all__)

    def test_star_import_and_dir(self):
        namespace = {}
        exec("from qexterior import *", namespace)
        assert set(qexterior.__all__) <= set(namespace)
        assert set(qexterior.__all__) <= set(dir(qexterior))

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="'no_such_name'"):
            qexterior.no_such_name

    def test_a_patched_home_module_shows_through(self):
        from qexterior import quantum
        original = quantum.qwedge
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quantum, "qwedge", len)
            assert qexterior.qwedge is len
        assert qexterior.qwedge is original
        assert "qwedge" not in vars(qexterior)
