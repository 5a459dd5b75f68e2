"""Seeded job lists of the three benchmark workloads and their checks.

A workload builds, from ``(seed, index)``, the job list of one execution:
the inputs it writes for the program (model JSON files, CLI arguments) and
the library calls where the CLI has no command.  Every job has

* ``key``: a string naming the job and all of its inputs, under which the
  reference digest of its output is stored;
* ``run()``: the timed call into the engine;
* ``output(result)``: the canonical output bytes that are hashed -- the
  report bytes for a CLI job, a sorted JSON rendering for a library call;
* ``check(result)``: invariants that do not rely on the engine's own
  self-checks, returned as a list of problems (empty when the job passed).

Why these workloads (each names the layer it stresses):

* ``lefschetz``: the spectrum layer (exact det, charpoly and rational root
  search on the 32x32 n = 3 blocks of M_h) plus the star / L_h operators
  of the commutator algebra.  No SNF, little HPoly arithmetic, and every
  qwedge reuses the one Darboux bivector.
* ``torus_tables``: Smith normal form over k[h] and k[h,h^-1] (HPoly
  divmod and mul) on the T^4 mode complexes, and ``ring_table``, which
  solves one 16x16 system for each of its 256 class products.  No charpoly
  or root search.
* ``suites``: the product-law property suites (``check --suite
  associativity`` and ``supercommutativity``) on a 4-dimensional model;
  the work is qwedge and every trial draws a fresh random bivector, the
  opposite reuse pattern to the other two workloads.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("lefschetz", "torus_tables", "suites")

# Sizes per workload.  "full" is the benchmark; "tiny" exercises the same
# code paths in a second or two and is used by the self-tests.
SIZES = {
    "full": {"lefschetz_cli_n": 2, "commutator_n": 3, "block_n": 3,
             "torus_dim": 4, "suite_dim": 4, "suite_rounds": 3,
             "suite_trials": {"associativity": 200, "supercommutativity": 500}},
    "tiny": {"lefschetz_cli_n": 1, "commutator_n": 1, "block_n": 1,
             "torus_dim": 2, "suite_dim": 3, "suite_rounds": 1,
             "suite_trials": {"associativity": 5, "supercommutativity": 5}},
}


class Job:
    def __init__(self, key, run, output, check, report_path=None):
        self.key = key
        self.run = run
        self.output = output
        self.check = check
        self.report_path = report_path   # the CLI report file, if any


def _plan_rng(workload, seed):
    """Per-run generator: draws that must differ across a run's executions."""
    return random.Random(f"{workload}:{seed}")


def _exec_rng(workload, seed, index):
    return random.Random(f"{workload}:{seed}:{index}")


def _cli(argv):
    import qexterior.cli
    return qexterior.cli.main(argv)


def _dumps(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _cli_job(key, argv, out_path: Path, check_report):
    """A CLI invocation whose report goes to ``out_path``.

    The result of ``run`` is the exit code; the report bytes are read back
    outside the timed region.
    """
    def output(_code):
        return out_path.read_bytes()

    def check(code):
        if code != 0:
            return [f"exit code {code}"]
        try:
            report = json.loads(out_path.read_bytes())
        except ValueError as exc:
            return [f"report is not JSON: {exc}"]
        return check_report(report)

    return Job(key, lambda: _cli(argv + ["--out", str(out_path)]),
               output, check, report_path=out_path)


# -- lefschetz ---------------------------------------------------------------


def _block_problems(size, det, charpoly_const, algebraic):
    problems = []
    if det == 0:
        problems.append("det is 0")
    if charpoly_const != (-1) ** size * det:
        problems.append("charpoly constant term is not (-1)^size det")
    if sum(algebraic) > size:
        problems.append("algebraic multiplicities exceed the block size")
    return problems


def _check_lefschetz_report(report):
    problems = [] if report.get("status") == "pass" else ["status not pass"]
    if not report.get("all_invertible"):
        problems.append("a block is not invertible")
    for k, block in report["blocks"].items():
        const = dict(block["charpoly"]).get(0, "0")
        algebraic = [e["algebraic"] for e in block["eigenspaces"].values()]
        problems += [f"block {k}: {p}" for p in _block_problems(
            block["size"], Fraction(block["det"]), Fraction(const),
            algebraic)]
    return problems


def _spectrum_job(n, k):
    from qexterior import lefschetz

    def run():
        return lefschetz.hard_lefschetz_check(n, window=[k])

    def output(rep):
        b = rep.blocks[k]
        f = b.factorization
        return _dumps({
            "size": b.size, "det": str(b.det),
            "charpoly": [[j, str(c)] for j, c in sorted(b.charpoly.coeffs.items())],
            "rational_roots": {str(r): m for r, m in sorted(f.rational_roots.items())},
            "quadratics": [[str(bb), str(c), m]
                           for (bb, c), m in sorted(f.quadratics.items())],
            "remainder": str(f.remainder),
            "eigenspaces": b.eigen_summary(),
            "conformance": rep.conformance[k]})

    def check(rep):
        b = rep.blocks[k]
        return _block_problems(b.size, b.det,
                               b.charpoly.coeffs.get(0, Fraction(0)),
                               [a for a, _g in b.geometric.values()])

    return Job(f"hard_lefschetz_check:n={n}:k={k}", run, output, check)


def _commutator_job(n, window):
    from qexterior import lefschetz

    def run():
        return lefschetz.commutator_check(n, window=window)

    def output(rep):
        return _dumps({"window": rep.window, "results": rep.results,
                       "failures": rep.failures})

    def check(rep):
        return [f"identity {name} failed" for name, ok in rep.results.items()
                if not ok]

    return Job(f"commutator_check:n={n}:window={window[0]}..{window[-1]}",
               run, output, check)


def lefschetz_jobs(seed, index, size, workdir):
    p = SIZES[size]
    n_block = p["block_n"]
    degrees = list(range(-2 * n_block, 2 * n_block + 1))
    # One block per execution, distinct across a run's executions.
    order = _plan_rng("lefschetz", seed).sample(degrees, len(degrees))
    k = order[index % len(order)]
    n_comm = p["commutator_n"]
    lo = _exec_rng("lefschetz", seed, index).randint(-(2 * n_comm + 2),
                                                     2 * n_comm)
    n_cli = p["lefschetz_cli_n"]
    return [
        _cli_job(f"cli:lefschetz:n={n_cli}",
                 ["lefschetz", "--n", str(n_cli)],
                 workdir / "lefschetz.json", _check_lefschetz_report),
        _commutator_job(n_comm, [lo, lo + 1, lo + 2]),
        _spectrum_job(n_block, k),
    ]


# -- torus_tables -------------------------------------------------------------


def _pfaffian(w, dim):
    if dim == 2:
        return w[(1, 2)]
    return (w[(1, 2)] * w[(3, 4)] - w[(1, 3)] * w[(2, 4)]
            + w[(1, 4)] * w[(2, 3)])


def torus_bivector(rng, dim):
    """Seeded nondegenerate constant bivector, entries nonzero integers.

    Integer entries keep the size of the exact arithmetic, and with it the
    cost, alike across seeds.
    """
    values = [v for v in range(-6, 7) if v]
    while True:
        w = {(i, j): Fraction(rng.choice(values))
             for i in range(1, dim + 1) for j in range(i + 1, dim + 1)}
        if _pfaffian(w, dim):
            return w


def _check_table_report(total):
    def check(report):
        problems = []
        rank = sum(d["rank"] for d in report["table"])
        if rank != total:
            problems.append(f"total rank {rank} != {total}")
        if any(d["torsion"] for d in report["table"]):
            problems.append("table has torsion (not free)")
        return problems
    return check


def _ring_job(key, model_path: Path, w12):
    from qexterior import cohomology, serialize
    from qexterior.hpoly import HLaurent
    # Parsing the generated model file is part of set-up.
    model = serialize.model_from_json(json.loads(model_path.read_text()))

    def run():
        # mode_box=0: the ring structure uses only the mode-0 table.
        table = cohomology.quantum_derham_table(model, mode_box=0)
        return cohomology.ring_table(table, model)

    def output(rt):
        classes = [[d, i, sorted([j, m, str(c)] for (j, m), c in f.terms.items())]
                   for d, i, f in rt.classes]
        structure = [[i, j, {str(k): str(c) for k, c in sorted(v.items())}]
                     for (i, j), v in sorted(rt.structure.items())]
        return _dumps({"classes": classes, "structure": structure})

    def check(rt):
        found = {}
        for i, (_d, _ix, form) in enumerate(rt.classes):
            if len(form.terms) == 1:
                (j, mask), = form.terms
                if j == 0:
                    found[mask] = i
        try:
            i1, i2, i12, unit = (found[m] for m in (0b01, 0b10, 0b11, 0))
        except KeyError:
            return ["classes [1], [e1], [e2], [e12] not found"]
        want = {i12: HLaurent.one(), unit: HLaurent({1: w12})}
        if rt.product(i1, i2) != want:
            return ["[e1][e2] != [e12] + h w12 [1]"]
        return []

    return Job(key, run, output, check)


def torus_jobs(seed, index, size, workdir):
    dim = SIZES[size]["torus_dim"]
    w = torus_bivector(_exec_rng("torus_tables", seed, index), dim)
    model = {"space": "torus", "dim": dim,
             "bivector": [[i, j, str(c)] for (i, j), c in sorted(w.items())]}
    model_path = workdir / "model.json"
    model_path.write_text(json.dumps(model))
    wkey = ",".join(str(c) for _ij, c in sorted(w.items()))
    jobs = []
    for ring in ("laurent", "polynomial"):
        jobs.append(_cli_job(
            f"cli:cohomology:T{dim}:w={wkey}:box=1:ring={ring}",
            ["cohomology", "--model", str(model_path), "--mode-box", "1",
             "--ring", ring],
            workdir / f"cohomology-{ring}.json", _check_table_report(2 ** dim)))
    jobs.append(_ring_job(f"ring_table:T{dim}:w={wkey}:ring=laurent",
                          model_path, w[(1, 2)]))
    return jobs


# -- suites -------------------------------------------------------------------


def _check_suite_report(suite, trials):
    def check(report):
        problems = [] if report.get("status") == "pass" else ["status not pass"]
        done = [(r["suite"], r["trials"]) for r in report["results"]]
        if done != [(suite, trials)]:
            problems.append(f"ran {done}, expected {suite} x {trials}")
        return problems
    return check


def suite_jobs(seed, index, size, workdir):
    p = SIZES[size]
    # The product-law suites take only the dimension from --model and draw
    # a fresh random bivector and forms per trial.  A fixed dimension bounds
    # the cost of a trial.  The cost of one trial still varies widely with
    # its random degrees and fractions (standard deviation about 1.3 times
    # the mean), so a run needs thousands of distinct trials to cost the
    # same across seeds; dimension 4 makes them cheap enough, and each
    # execution spreads its trials over several jobs with their own check
    # seeds.  (``check --suite all`` draws
    # dimensions 2..8 and connection ranks 1..3, and its time varied
    # twofold across seeds.)
    dim = p["suite_dim"]
    model_path = workdir / "model.json"
    model_path.write_text(json.dumps({"space": "torus", "dim": dim}))
    rng = _exec_rng("suites", seed, index)
    jobs = []
    for suite, trials in p["suite_rounds"] * list(p["suite_trials"].items()):
        check_seed = rng.randrange(2 ** 31)
        jobs.append(_cli_job(
            f"cli:check:{suite}:T{dim}:trials={trials}:seed={check_seed}",
            ["check", "--suite", suite, "--model", str(model_path),
             "--trials", str(trials), "--seed", str(check_seed)],
            workdir / f"check-{suite}.json",
            _check_suite_report(suite, trials)))
    return jobs


BUILDERS = {"lefschetz": lefschetz_jobs, "torus_tables": torus_jobs,
            "suites": suite_jobs}


def build(workload, seed, index, size, workdir: Path):
    """Write the inputs of one execution and return its job list."""
    return BUILDERS[workload](seed, index, size, workdir)
