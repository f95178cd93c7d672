#!/usr/bin/env python3
"""Virtual-time regression gate for the repository benchmark.

Runs every bench/perf workload at seed 1 with run.sh's default --seconds
and fails when a workload's digest differs from the one committed in
bench/perf/baseline/seed1/<workload>.json. The digest is an FNV-1a hash
over every latency sample of a run, so any change to the modelled
behaviour moves it, while a change that only makes the simulator faster
leaves it alone.

    scripts/perf_digest_gate.py [--out DIR]

A change that alters the modelled design on purpose commits new baseline
files in the same diff (see bench/perf/README.md).
"""

import argparse
import json
import pathlib
import subprocess
import sys
import tempfile

WORKLOADS = ("invoke_open", "parallel_batches", "lease_churn", "alloc_churn")


def baseline_digest(path):
    """The digest every run in a baseline file recorded (None if they disagree)."""
    with open(path) as f:
        digests = {run["digest"] for run in json.load(f)["runs"]}
    return digests.pop() if len(digests) == 1 else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="directory for the run results (default: a temp dir)")
    args = parser.parse_args()

    root = pathlib.Path(__file__).resolve().parent.parent
    baseline = root / "bench" / "perf" / "baseline" / "seed1"
    out = pathlib.Path(args.out or tempfile.mkdtemp(prefix="perf-digest-"))

    failures = []
    for workload in WORKLOADS:
        want = baseline_digest(baseline / f"{workload}.json")
        if want is None:
            failures.append(f"{workload}: the baseline runs disagree on the digest")
            continue
        run = subprocess.run(["bash", str(root / "bench" / "perf" / "run.sh"), "--workload",
                              workload, "--seed", "1", "--out", str(out)], check=False)
        if run.returncode != 0:
            failures.append(f"{workload}: run.sh exited with {run.returncode}")
            continue
        with open(out / f"{workload}.json") as f:
            got = json.load(f)["digest"]
        print(f"{workload}: digest {got}, baseline {want}: {'ok' if got == want else 'DIFFERS'}")
        if got != want:
            failures.append(f"{workload}: digest {got} differs from the baseline's {want}")

    if failures:
        sys.exit("\n".join(failures))


if __name__ == "__main__":
    main()
