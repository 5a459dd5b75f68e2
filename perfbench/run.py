"""Seeded end-to-end benchmark of the qexterior engine.

    python3 perfbench/run.py --workload lefschetz|torus_tables|suites \\
        --seed N --seconds S --trace 0|1 [--record PATH]

Run from the root of a source checkout; the engine is imported from
``src/``, nothing is installed.  Each execution of a workload's job list
is a fresh ``python3 perfbench/worker.py`` process that runs every job
once, one at a time, so each execution pays its own imports and cache
fills as a CLI user does.  Executions run one after another (a closed
loop, one client).

``--trace 0`` makes ``round(S / nominal)`` executions (at least one), each
on its own seeded inputs, plus set-up-only starts, and reports the
end-to-end metrics.  The two times are in reference seconds: each measured
wall time is scaled by the host-speed probe taken next to it
(``hostspeed.py``), because the shared host's own speed drifts far more
than the bounds allow; the detail line keeps the raw wall times too.

* ``wall_s``: median wall time of one execution's job list after set-up;
* ``setup_s``: median time from process start through the engine import
  and writing/parsing the generated inputs, up to the first job, over
  every start in the run;
* ``peak_rss_mib``: median peak resident memory of an execution process;
* ``pass_frac``: jobs that passed every check / jobs attempted.  A job
  fails if it raises, exits non-zero, breaks an invariant, or its output
  digest differs from the reference digest for its inputs.

``--trace 1`` runs execution 0 once untraced and once under the span
tracer (``tracer.py``) and reports the per-layer metrics plus
``trace.overhead`` (traced / untraced wall time).

The last stdout line is the result JSON; the line before it holds the
provenance and the per-job digests.  The exit code is 0 when every job
passed and 1 otherwise.  Without ``src/qexterior`` the run exits 2 at once.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostspeed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Wall time of one execution when the benchmark was introduced (2 vCPUs,
# Python 3.11, pure-Python kernels).  It fixes the number of executions per
# run, so a faster engine shortens a run instead of adding executions.
NOMINAL_S = {
    "full": {"lefschetz": 20.0, "torus_tables": 17.0, "suites": 3.2},
    "tiny": {"lefschetz": 1.0, "torus_tables": 1.0, "suites": 1.0},
}
SETUP_STARTS = 9          # set-up-only starts per run, besides executions
RUN_TIMEOUT_S = 170.0     # hard limit on all children of one run
WORKDIR = ROOT / ".perfbench_work"


def commit_id():
    """HEAD commit read from .git without calling git, or 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class WorkerCrash(Exception):
    pass


class Runner:
    """Starts worker processes one at a time within the run's deadline."""

    def __init__(self, args, workdir: Path):
        self.args = args
        self.workdir = workdir
        self.deadline = time.monotonic() + RUN_TIMEOUT_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]]
                                   if self.env.get("PYTHONPATH") else []))
        self.starts = 0

    def start(self, index, setup_only=False, trace=False, fault=None):
        """One worker process; returns (raw setup seconds, worker result)."""
        a = self.args
        self.starts += 1
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", a.workload, "--seed", str(a.seed),
               "--index", str(index), "--size", a.size,
               "--workdir", str(self.workdir / str(self.starts))]
        if setup_only:
            cmd.append("--setup-only")
        if trace:
            cmd.append("--trace")
        if fault:
            cmd += ["--fault", fault]
        timeout = max(1.0, self.deadline - time.monotonic())
        t0 = time.perf_counter()
        # perf_counter is CLOCK_MONOTONIC, shared with the child process.
        proc = subprocess.run(cmd, env=self.env, cwd=ROOT, timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise WorkerCrash(f"worker exited {proc.returncode}:\n"
                              f"{proc.stderr[-2000:]}")
        result = json.loads(lines[-1])
        return result["setup_end"] - t0, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", default="full", choices=sorted(workloads.SIZES),
                    help="'tiny' runs the same code paths in seconds "
                         "(self-tests)")
    ap.add_argument("--record", help="also write provenance and per-job "
                                     "digests to this JSON file")
    ap.add_argument("--fault", choices=["raise", "tamper"],
                    help="inject a failure into the first job (self-tests)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qexterior" / "__init__.py").is_file():
        print(f"no engine sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2

    WORKDIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORKDIR))
    try:
        return _run(args, Runner(args, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, runner):
    jobs, setups, walls, rss = [], [], [], []
    raw = {"setup_s": [], "wall_s": [], "probe_s": []}
    crashes = 0
    trace = None
    trace_missing = None
    backend = None

    def execute(index, trace_on=False):
        nonlocal crashes, backend
        try:
            setup, res = runner.start(index, trace=trace_on, fault=args.fault)
        except (WorkerCrash, subprocess.TimeoutExpired) as exc:
            print(f"execution {index} crashed: {exc}", file=sys.stderr)
            crashes += 1
            return None, None
        backend = res["kernel_backend"]
        jobs.extend(dict(j, index=index, traced=trace_on) for j in res["jobs"])
        return setup, res

    # A first start compiles bytecode in a fresh checkout; not measured.
    runner.start(0, setup_only=True)
    if args.trace:
        _s, plain = execute(0)
        _s, traced = execute(0, trace_on=True)
        if plain and traced:
            trace = dict(traced["trace"])
            trace["trace.overhead"] = (
                traced["ref_wall_s"] / plain["ref_wall_s"], "ratio")
            trace_missing = traced["trace_missing"]
    else:
        def add_setup(setup, res):
            setups.append(hostspeed.scale(setup, res["probe_s"]))
            raw["setup_s"].append(setup)
            raw["probe_s"].append(res["probe_s"])

        for _ in range(SETUP_STARTS):
            add_setup(*runner.start(0, setup_only=True))
        count = max(1, round(args.seconds / NOMINAL_S[args.size][args.workload]))
        for index in range(count):
            setup, res = execute(index)
            if res:
                add_setup(setup, res)
                walls.append(res["ref_wall_s"])
                raw["wall_s"].append(res["wall_s"])
                rss.append(res["peak_rss_kib"] / 1024)

    attempted = len(jobs) + crashes
    failed = crashes + sum(not j["ok"] for j in jobs)
    provenance = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace, "commit": commit_id(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "kernel_backend": backend,
    }
    if trace_missing:
        print(f"tracer could not find: {trace_missing}", file=sys.stderr)
    detail = {"provenance": provenance, "trace_missing": trace_missing,
              "raw": raw,
              "jobs": [{k: j[k] for k in ("index", "traced", "key", "sha256",
                                          "seconds", "ref_seconds", "ok",
                                          "problems")}
                       for j in jobs]}
    if args.record:
        Path(args.record).write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(detail))

    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in (trace or {}).items()}
    elif walls:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mib": {"value": statistics.median(rss), "unit": "MiB"},
            "pass_frac": {"value": (attempted - failed) / attempted,
                          "unit": "ratio"},
        }
    else:
        metrics = {}
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
