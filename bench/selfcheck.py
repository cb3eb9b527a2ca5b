"""Self-check of the output gate: one altered digest fails its job and the run.

    python3 bench/selfcheck.py

Runs one pass of the verify-tower workload with the committed digest of one
job replaced, then checks that exactly that job counts as failed, that the
result line reads `"correct": false`, and that the benchmark exits 1.
Exits 0 when the gate behaves so.
"""

import contextlib
import io
import json
import sys

import run


def main():
    digests = json.loads((run.BENCH / "digests.json").read_text())
    jobs = run.WORKLOADS["verify-tower"]
    altered = " ".join(jobs[0])
    digests[altered] = "0" * 64
    argv = ["--workload", "verify-tower", "--seed", "0", "--seconds", "1", "--trace", "0"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv, digests=digests)
    result = json.loads(out.getvalue().splitlines()[-1])
    record = json.loads((run.OUT / "verify-tower-seed0-trace0.json").read_text())
    checks = {
        "exit code 1": code == 1,
        "correct is false": result["correct"] is False,
        f"attempted {len(jobs)}": result["attempted"] == len(jobs),
        "failed 1": result["failed"] == 1,
        f"failed job is {altered!r}": record["failed"] == [altered],
    }
    for label, ok in checks.items():
        print(f"{'ok  ' if ok else 'FAIL'} {label}")
    return 0 if all(checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
