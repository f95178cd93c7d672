#!/usr/bin/env python3
"""Checks that a change left every smoke-mode bench and example output byte-identical.

    scripts/smoke_diff.py PARENT_BUILD CHANGE_BUILD [--out DIR]

PARENT_BUILD and CHANGE_BUILD are CMake build directories of two
checkouts (for example the parent commit and the change). The script
runs every fig* bench, ablation_design_choices and billing_accounting of
each (<build>/bench/<name>) under RFS_SMOKE=1, writing the BENCH_*.json
files to DIR/parent and DIR/change (default DIR: a new temp directory),
and compares the two sets byte for byte. It then covers CI's chaos
matrix the same way: fig19_chaos, fig20_failover and fig21_grayfailure
run again at RFS_CHAOS_SEED 1 to 10, into DIR/<side>/seed<N>/. Last,
it runs the four examples (<build>/examples/<name>) and compares their
stdout, saved as DIR/<side>/examples/<name>.out.

The benches and examples are deterministic virtual-time simulations, so
any difference means the change moved modelled behaviour. The one
exemption is fig16's wall-clock rows (host timings of the simulator
itself): they are printed side by side and never fail the check. Any
other difference, a file present on one side only, or a bench or example
that is missing or exits non-zero makes the script exit 1. Python
standard library only.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile

EXTRA_BENCHES = ("ablation_design_choices", "billing_accounting")
# CI's chaos matrix: these benches run once per seed.
CHAOS_BENCHES = ("fig19_chaos", "fig20_failover", "fig21_grayfailure")
CHAOS_SEEDS = range(1, 11)
EXAMPLES = ("quickstart", "parallel_offloading", "ml_inference_service", "hpc_jacobi")
# Rows (by their first cell) that hold wall-clock measurements.
WALL_CLOCK_ROWS = {
    "BENCH_fig16_hotpath.json": {"sweep-us", "reclaim-p99-us", "grant-us-per-op"},
}


def bench_names(build):
    bench_dir = build / "bench"
    figs = {p.name for p in bench_dir.glob("fig*") if p.is_file() and os.access(p, os.X_OK)}
    extras = {name for name in EXTRA_BENCHES if (bench_dir / name).is_file()}
    return figs | extras


def run_benches(build, names, out, extra_env=None):
    """Runs each bench of `build` into `out`; returns the failure messages."""
    out.mkdir(parents=True, exist_ok=True)
    for stale in out.glob("BENCH_*.json"):  # a bench that writes nothing must show
        stale.unlink()
    env = dict(os.environ, RFS_SMOKE="1", RFS_BENCH_JSON_DIR=str(out), **(extra_env or {}))
    failures = []
    for name in sorted(names):
        with open(out / f"{name}.log", "w") as log:
            run = subprocess.run([str(build / "bench" / name)], cwd=out, env=env, stdout=log,
                                 stderr=subprocess.STDOUT, check=False)
        if run.returncode != 0:
            failures.append(f"{build}: {name} exited with {run.returncode} "
                            f"(log: {out / name}.log)")
    return failures


def run_examples(build, out):
    """Runs each example of `build`, its stdout into `out`; returns the failure messages."""
    out.mkdir(parents=True, exist_ok=True)
    failures = []
    for name in EXAMPLES:
        binary = build / "examples" / name
        stdout_path = out / f"{name}.out"
        stdout_path.unlink(missing_ok=True)  # an example that does not run must show
        if not binary.is_file():
            failures.append(f"{build}: example {name} is missing")
            continue
        with open(stdout_path, "wb") as stdout, open(out / f"{name}.log", "wb") as log:
            run = subprocess.run([str(binary)], cwd=out, stdout=stdout, stderr=log, check=False)
        if run.returncode != 0:
            failures.append(f"{build}: example {name} exited with {run.returncode} "
                            f"(stderr: {out / name}.log)")
    return failures


def compare_examples(parent_dir, change_dir):
    """Compares the examples' saved stdout; returns (identical, failure messages)."""
    identical = 0
    failures = []
    for name in EXAMPLES:
        parent_out, change_out = parent_dir / f"{name}.out", change_dir / f"{name}.out"
        if not parent_out.is_file() or not change_out.is_file():
            continue  # reported by run_examples
        if parent_out.read_bytes() == change_out.read_bytes():
            identical += 1
        else:
            failures.append(f"examples/{name}.out: differs")
    return identical, failures


def compare_outputs(parent_dir, change_dir, label):
    """Compares the BENCH files of two run directories.

    Returns (identical, total, failure messages); `label` prefixes each
    file name in the messages.
    """
    files = {d: {p.name for p in d.glob("BENCH_*.json")} for d in (parent_dir, change_dir)}
    names = files[parent_dir] | files[change_dir]
    identical = 0
    failures = []
    for name in sorted(names):
        if name not in files[parent_dir] or name not in files[change_dir]:
            failures.append(f"{label}{name}: written by one side only")
            continue
        parent_raw = (parent_dir / name).read_bytes()
        change_raw = (change_dir / name).read_bytes()
        if parent_raw == change_raw:
            identical += 1
        elif name in WALL_CLOCK_ROWS:
            failures += compare_wall_clock(name, parent_raw, change_raw, WALL_CLOCK_ROWS[name])
        else:
            failures.append(f"{label}{name}: differs")
    return identical, len(names), failures


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
    out = (args.out or pathlib.Path(tempfile.mkdtemp(prefix="smoke-diff-"))).resolve()

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
    identical, total, diffs = compare_outputs(out / "parent", out / "change", "")
    failures += diffs
    print(f"{identical} of {total} BENCH files byte-identical")

    chaos = {side: names[side] & set(CHAOS_BENCHES) for side in sides}
    if chaos["parent"] or chaos["change"]:
        identical = total = 0
        for seed in CHAOS_SEEDS:
            for side, build in sides.items():
                failures += run_benches(build, chaos[side], out / side / f"seed{seed}",
                                        {"RFS_CHAOS_SEED": str(seed)})
            same, count, diffs = compare_outputs(out / "parent" / f"seed{seed}",
                                                 out / "change" / f"seed{seed}",
                                                 f"seed{seed}/")
            identical += same
            total += count
            failures += diffs
        print(f"{identical} of {total} chaos BENCH files byte-identical at "
              f"RFS_CHAOS_SEED {CHAOS_SEEDS.start}-{CHAOS_SEEDS.stop - 1}")

    for side, build in sides.items():
        failures += run_examples(build, out / side / "examples")
    identical, diffs = compare_examples(out / "parent" / "examples", out / "change" / "examples")
    failures += diffs
    print(f"{identical} of {len(EXAMPLES)} example outputs byte-identical")
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
