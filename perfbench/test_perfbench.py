"""Self-tests of the benchmark itself.

    python3 -m pytest perfbench

Tiny-size runs of every workload must print every metric that
BENCHMARK.json names, with its unit; injected faults (a report with one
byte changed, a job that raises) must count as failed jobs; the tracer
must charge nested spans correctly and survive names it cannot find.
"""

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, root=ROOT):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def tiny(workload, trace=0, *extra):
    code, lines = run_bench("--workload", workload, "--seed", "7",
                            "--seconds", "1", "--trace", str(trace),
                            "--size", "tiny", *extra)
    return code, json.loads(lines[-1]), json.loads(lines[-2])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric(workload, trace):
    code, result, detail = tiny(workload, trace)
    assert code == 0, detail
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    provenance = detail["provenance"]
    for key in ("python", "nproc", "seed", "commit", "kernel_backend"):
        assert provenance[key] is not None


@pytest.mark.parametrize("fault,problem", [("tamper", "digest"),
                                           ("raise", "injected fault")])
def test_injected_fault_counts_as_failed(fault, problem):
    code, result, detail = tiny("lefschetz", 0, "--fault", fault)
    assert code == 1
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["metrics"]["pass_frac"]["value"] < 1.0
    failed = [j for j in detail["jobs"] if not j["ok"]]
    assert failed and all(problem in " ".join(j["problems"]) for j in failed)


def test_without_engine_sources_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    code, lines = run_bench("--workload", "suites", "--seed", "1",
                            "--seconds", "1", "--trace", "0", root=tmp_path)
    assert code != 0 and lines == []


@pytest.fixture
def fake_targets(monkeypatch):
    """A stand-in qexterior module where outer() calls inner() by name."""
    mod = types.ModuleType("qexterior.benchfake")

    def inner():
        time.sleep(0.10)

    def outer():
        time.sleep(0.05)
        mod.inner()
        return 1

    mod.inner, mod.outer = inner, outer
    monkeypatch.setitem(sys.modules, "qexterior.benchfake", mod)
    monkeypatch.setattr(tracer, "TARGETS", [
        ("fake.outer", "qexterior.benchfake", "outer"),
        ("fake.inner", "qexterior.benchfake", "inner"),
        ("fake.gone", "qexterior.benchfake", "removed_function"),
    ])
    return mod


def test_tracer_self_time_and_missing_names(fake_targets):
    t = tracer.Tracer()
    assert t.install() == ["qexterior.benchfake.removed_function"]
    assert fake_targets.outer() == 1
    t.uninstall()
    m = t.metrics()
    assert m["fake.outer.calls"][0] == 1 and m["fake.inner.calls"][0] == 1
    # outer's span covers inner's 0.10 s sleep; its self time must not.
    assert 0.045 <= m["fake.outer.self_s"][0] < 0.10
    assert 0.095 <= m["fake.inner.self_s"][0] < 0.30
    assert m["fake.gone.calls"][0] == 0
    assert fake_targets.outer.__name__ == "outer" and \
        not hasattr(fake_targets.outer, "__wrapped__")


def test_tracer_rebinds_names_imported_elsewhere():
    import qexterior.cohomology
    import qexterior.complexes
    import qexterior.snf
    original = qexterior.snf.smith_normal_form
    t = tracer.Tracer()
    assert t.install() == []
    try:
        assert qexterior.complexes.smith_normal_form is \
            qexterior.snf.smith_normal_form is not original
        assert qexterior.cohomology.solve_linear is qexterior.snf.solve_linear
    finally:
        t.uninstall()
    assert qexterior.complexes.smith_normal_form is original


def test_repeat_shares_compare_by_value():
    from fractions import Fraction

    from qexterior import quantum, snf
    from qexterior.forms import Bivector, HForm
    from qexterior.hpoly import HPoly
    e1, e2 = HForm.basis(2, 1), HForm.basis(2, 2)
    t = tracer.Tracer()
    t.install()
    try:
        for c in (1, 1, 2):   # the second bivector equals the first by value
            quantum.qwedge(e1, e2, Bivector(2, {(1, 2): Fraction(c)}))
        for _ in range(2):
            snf.solve_linear([[HPoly.one()]], [HPoly.one()])
    finally:
        t.uninstall()
    m = t.metrics()
    assert m["quantum.qwedge.w_repeat_share"] == (1 / 3, "ratio")
    assert m["quantum.qwedge.in_terms"][0] == 6
    assert m["snf.solve_linear.matrix_repeat_share"] == (0.5, "ratio")
    assert m["snf.smith_normal_form.cells"][0] == 2
