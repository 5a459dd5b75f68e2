"""One execution of a workload's job list in a fresh process.

Started by ``run.py``; not meant to be run by hand.  The process pins
itself to one CPU, imports the engine, writes and parses the generated
inputs (set-up), then runs the jobs once each, one at a time, and checks
every output: invariants, plus the sha256 of the canonical output against
the reference digest when the reference has one for the job's key.  The
host-speed probe (``hostspeed.py``) runs after set-up, after every job and
periodically during a job; each job's time is also given in reference
seconds, scaled by the mean of the probes before, during and after it (the
probes' own time inside a job is taken out of the job's time, but a traced
run's span times still include it).  The last line of stdout is one JSON
object with the timings, the probe times, the peak RSS and the per-job
outcomes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import digests
import hostspeed
import workloads


def _flip_one_byte(path: Path):
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


def _run_job(job, fault, reference):
    """Run, time and check one job; returns its outcome record.

    ``fault`` injects a failure for the self-tests: "raise" makes the job
    raise, "tamper" changes one byte of its report before it is checked.
    """
    record = {"key": job.key, "seconds": 0.0, "sha256": None, "problems": []}
    monitor = hostspeed.Monitor()
    start = time.perf_counter()
    try:
        if fault == "raise":
            raise RuntimeError("injected fault")
        with monitor:
            result = job.run()
        record["seconds"] = time.perf_counter() - start - monitor.paused
        if fault == "tamper":
            _flip_one_byte(job.report_path)
        record["sha256"] = hashlib.sha256(job.output(result)).hexdigest()
        record["problems"] += job.check(result)
    except Exception as exc:  # a raising job is a failed job, not a crash
        record["seconds"] = time.perf_counter() - start - monitor.paused
        record["problems"].append(
            f"raised {type(exc).__name__}: {exc}\n{traceback.format_exc()}")
    mismatch = digests.mismatch(reference, job.key, record["sha256"])
    if mismatch:
        record["problems"].append(mismatch)
    record["ok"] = not record["problems"]
    record["probes_s"] = monitor.samples
    return record


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--index", type=int, default=0)
    ap.add_argument("--size", default="full", choices=sorted(workloads.SIZES))
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--fault", choices=["raise", "tamper"])
    args = ap.parse_args(argv)

    hostspeed.pin_to_one_cpu()
    # -- set-up: engine import and the generated inputs --------------------
    import qexterior
    import qexterior.cli  # noqa: F401  (what the CLI entry point loads)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    jobs = workloads.build(args.workload, args.seed, args.index, args.size,
                           workdir)
    setup_end = time.perf_counter()

    out = {"setup_end": setup_end, "probe_s": hostspeed.probe()}
    backend = getattr(qexterior, "kernel_backend", None)
    out["kernel_backend"] = backend() if callable(backend) else None
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            out["trace_missing"] = tracer.install()
        reference = digests.load_reference()
        records = []
        before = out["probe_s"]
        for i, job in enumerate(jobs):
            # An injected fault hits the first job only.
            record = _run_job(job, args.fault if i == 0 else None, reference)
            after = hostspeed.probe()
            record["ref_seconds"] = hostspeed.scale(
                record["seconds"],
                statistics.fmean([before, *record.pop("probes_s"), after]))
            records.append(record)
            before = after
        out["jobs"] = records
        out["wall_s"] = sum(r["seconds"] for r in records)
        out["ref_wall_s"] = sum(r["ref_seconds"] for r in records)
        if tracer is not None:
            tracer.uninstall()
            out["trace"] = tracer.metrics()
    out["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
