#!/usr/bin/env python3
"""Checks that a change left every smoke-mode bench output byte-identical.

    scripts/smoke_diff.py PARENT_BUILD CHANGE_BUILD [--out DIR]

PARENT_BUILD and CHANGE_BUILD are CMake build directories of two
checkouts (for example the parent commit and the change). The script
runs every fig* bench, ablation_design_choices and billing_accounting of
each (<build>/bench/<name>) under RFS_SMOKE=1, writing the BENCH_*.json
files to DIR/parent and DIR/change (default DIR: a new temp directory),
and compares the two sets byte for byte.

The benches are deterministic virtual-time simulations, so any
difference means the change moved modelled behaviour. The one exemption
is fig16's wall-clock rows (host timings of the simulator itself): they
are printed side by side and never fail the check. Any other difference,
a file present on one side only, or a bench that exits non-zero makes
the script exit 1. Python standard library only.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile

EXTRA_BENCHES = ("ablation_design_choices", "billing_accounting")
# Rows (by their first cell) that hold wall-clock measurements.
WALL_CLOCK_ROWS = {
    "BENCH_fig16_hotpath.json": {"sweep-us", "reclaim-p99-us", "grant-us-per-op"},
}


def bench_names(build):
    bench_dir = build / "bench"
    figs = {p.name for p in bench_dir.glob("fig*") if p.is_file() and os.access(p, os.X_OK)}
    extras = {name for name in EXTRA_BENCHES if (bench_dir / name).is_file()}
    return figs | extras


def run_benches(build, names, out):
    """Runs each bench of `build` into `out`; returns the failure messages."""
    out.mkdir(parents=True, exist_ok=True)
    for stale in out.glob("BENCH_*.json"):  # a bench that writes nothing must show
        stale.unlink()
    env = dict(os.environ, RFS_SMOKE="1", RFS_BENCH_JSON_DIR=str(out))
    failures = []
    for name in sorted(names):
        with open(out / f"{name}.log", "w") as log:
            run = subprocess.run([str(build / "bench" / name)], cwd=out, env=env, stdout=log,
                                 stderr=subprocess.STDOUT, check=False)
        if run.returncode != 0:
            failures.append(f"{build}: {name} exited with {run.returncode}")
    return failures


def compare_wall_clock(name, parent_raw, change_raw, wall_rows):
    """Compares a file whose listed rows may differ; returns failure messages."""
    try:
        parent, change = json.loads(parent_raw), json.loads(change_raw)
    except ValueError as err:
        return [f"{name}: not JSON ({err})"]
    rest = lambda doc: {k: v for k, v in doc.items() if k != "rows"}
    if rest(parent) != rest(change) or len(parent["rows"]) != len(change["rows"]):
        return [f"{name}: columns or row count differ"]
    failures = []
    for a, b in zip(parent["rows"], change["rows"]):
        if a and a[0] in wall_rows and b and b[0] == a[0]:
            print(f"  {name}: wall clock  parent {a}  change {b}")
        elif a != b:
            failures.append(f"{name}: row differs: parent {a} change {b}")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_build", type=pathlib.Path)
    parser.add_argument("change_build", type=pathlib.Path)
    parser.add_argument("--out", type=pathlib.Path,
                        help="directory for the two output sets (default: a temp dir)")
    args = parser.parse_args()
    out = args.out or pathlib.Path(tempfile.mkdtemp(prefix="smoke-diff-"))

    sides = {"parent": args.parent_build.resolve(), "change": args.change_build.resolve()}
    names = {side: bench_names(build) for side, build in sides.items()}
    failures = [f"{side}: no benches under {build / 'bench'}"
                for side, build in sides.items() if not names[side]]
    failures += [f"{side}: bench {name} is missing"
                 for side in sides for other in sides
                 for name in sorted(names[other] - names[side])]
    for side, build in sides.items():
        print(f"running {len(names[side])} benches of {build} into {out / side}")
        failures += run_benches(build, names[side], out / side)

    files = {side: {p.name for p in (out / side).glob("BENCH_*.json")} for side in sides}
    identical = 0
    for name in sorted(files["parent"] | files["change"]):
        if name not in files["parent"] or name not in files["change"]:
            failures.append(f"{name}: written by one side only")
            continue
        parent_raw = (out / "parent" / name).read_bytes()
        change_raw = (out / "change" / name).read_bytes()
        if parent_raw == change_raw:
            identical += 1
        elif name in WALL_CLOCK_ROWS:
            failures += compare_wall_clock(name, parent_raw, change_raw, WALL_CLOCK_ROWS[name])
        else:
            failures.append(f"{name}: differs")

    print(f"{identical} of {len(files['parent'] | files['change'])} BENCH files byte-identical")
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
