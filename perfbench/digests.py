"""Reference digests of job outputs, and the tools that maintain them.

``reference.json`` maps a job key (the job and all of its inputs, see
``workloads.py``) to the sha256 of its canonical output.  A job whose key
has a reference digest fails when its output hashes differently; a key
without one is checked by its invariants only.

    python3 perfbench/digests.py update RECORD...   # add digests to the reference
    python3 perfbench/digests.py compare A B        # job-by-job digest diff

RECORD, A and B are files written by ``run.py --record``.  ``update``
takes only jobs that passed their checks and refuses to overwrite a
different digest already in the reference.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")


def load_reference(path: Path = REFERENCE) -> dict:
    if not path.exists():
        return {}
    return json.loads(path.read_text())["digests"]


def mismatch(reference: dict, key: str, sha256):
    """A problem string when ``sha256`` differs from the reference digest."""
    want = reference.get(key)
    if want is None or sha256 is None or want == sha256:
        return None
    return f"output digest {sha256[:16]} != reference {want[:16]}"


def _record_digests(path):
    record = json.loads(Path(path).read_text())
    return {j["key"]: j for j in record["jobs"]}


def update(paths, reference_path: Path = REFERENCE) -> int:
    ref = load_reference(reference_path)
    added = 0
    for path in paths:
        for key, job in _record_digests(path).items():
            if not job["ok"]:
                raise SystemExit(f"{path}: job {key} failed; not recorded")
            old = ref.get(key)
            if old is not None and old != job["sha256"]:
                raise SystemExit(f"{path}: {key} differs from the reference")
            if old is None:
                ref[key] = job["sha256"]
                added += 1
    reference_path.write_text(json.dumps(
        {"digests": dict(sorted(ref.items()))}, indent=1) + "\n")
    return added


def compare(path_a, path_b):
    """(keys present in both records, those of them whose digests differ)."""
    a, b = _record_digests(path_a), _record_digests(path_b)
    common = sorted(set(a) & set(b))
    diff = [k for k in common if a[k]["sha256"] != b[k]["sha256"]]
    return common, diff


def main(argv):
    if len(argv) >= 2 and argv[0] == "update":
        print(f"added {update(argv[1:])} digests to {REFERENCE.name}")
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        common, diff = compare(argv[1], argv[2])
        for key in diff:
            print(f"DIFFERS {key}")
        print(f"{len(common) - len(diff)} of {len(common)} common jobs "
              "have identical digests")
        return 1 if diff or not common else 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
