#!/usr/bin/env python3
"""Prints where the samples of a sampler.c or heap.c run went, function by function.

    python3 scripts/profile/report.py sampler-<pid>.txt [--under REGEX] [--top N]
                                      [--callers REGEX | --children REGEX | --lines REGEX]
    python3 scripts/profile/report.py heap-<pid>.txt --under run_workload

Only the samples with a frame whose function name matches --under count
(default `Stepper::run`, the timed loop of bench/perf), so set-up and
teardown stay out of the shares. For each function the report prints:

  self       the share of those samples it was the innermost frame of
  inclusive  the share it was anywhere on the stack of (once per sample)

--callers REGEX prints one table instead: for each counted sample whose
innermost frame matches REGEX, its first caller that neither matches
REGEX nor starts with `std::`, with the share of the counted samples.
This finds who calls a library function: `--callers _Map_base::operator`
names the code behind the samples in std::unordered_map lookups.

--children REGEX prints the other direction: for each counted sample
with a frame matching REGEX, the callee directly under the innermost
such frame (`(self)` when that frame is the leaf), with the share of the
counted samples. This splits a function's inclusive time across what it
calls; a coroutine's body reads as one function, so `--children
run_send` shows how a fabric task's time divides between its landing
step and the engine calls it makes.

--lines REGEX looks inside one function: for each counted sample whose
innermost frame matches REGEX, it maps that frame's address to its
source line with `addr2line` (the line of the innermost inlined call
when the compiler inlined one there) and prints each line's self share,
of the counted samples and of those in REGEX. `--lines
Engine::push_wheel` on bench/perf's `invoke_open` puts about a quarter
of push_wheel's samples in its walk along the bucket for the insertion
point. It needs the debug lines of the default RelWithDebInfo build.

heap.c writes the same format: one sample per 4 KiB of live heap that
an allocating call stack held when the program's live heap bytes
peaked, so the shares are of the peak heap, not of time. Its stacks
start in the caller of malloc (usually `operator new`; in bench/perf,
its counting hook `counted_alloc`): read the inclusive table, or use
--callers. The peak usually holds set-up allocations, so pick --under
to match: `main` for the whole heap, `run_workload` for a bench/perf
run without its host-reference loops. Memory mapped without malloc is
outside its view: mmap regions such as rdmalib::Buffer's worker
buffers count in peak RSS but never in its samples.

Addresses are resolved with `nm` against the executable and the shared
libraries named in the run's copy of /proc/self/maps. Names are
demangled, with template and argument lists cut, so that each function
reads as one row; --full keeps them. Standard library only, plus nm and,
for --lines, addr2line.
"""

import argparse
import bisect
import collections
import re
import subprocess
import sys


def parse(path):
    """Returns (maps, samples): maps as (start, end, offset, file) rows for
    the executable mappings, samples as lists of addresses, leaf first."""
    maps, samples = [], []
    section = None
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("# "):
                section = line[2:].split()[0]
                continue
            if section == "maps":
                fields = line.split(maxsplit=5)
                if len(fields) < 6 or "x" not in fields[1] or not fields[5].startswith("/"):
                    continue
                start, end = (int(x, 16) for x in fields[0].split("-"))
                maps.append((start, end, int(fields[2], 16), fields[5]))
            elif section == "samples" and line:
                samples.append([int(x, 16) for x in line.split()])
    maps.sort()
    return maps, samples


class Symbols:
    """Address -> function name for one object file, from `nm -n -S -C`."""

    def __init__(self, path):
        self.starts, self.ends, self.names = [], [], []
        out = self.nm(path) or self.nm(path, "-D")  # a stripped library keeps its dynamic table
        for line in out.splitlines():
            parts = line.split(" ", 3)  # address, size (when known), type, name
            if len(parts) == 3:
                parts = [parts[0], None, parts[1], parts[2]]
            if len(parts) == 4 and parts[2] in "tTwW":
                start = int(parts[0], 16)
                self.starts.append(start)
                self.ends.append(start + int(parts[1], 16) if parts[1] else None)
                self.names.append(parts[3])

    @staticmethod
    def nm(path, *extra):
        try:
            return subprocess.run(["nm", "-n", "-S", "-C", "--defined-only", *extra, path],
                                  capture_output=True, text=True, check=False).stdout
        except OSError:
            return ""

    def lookup(self, vaddr):
        i = bisect.bisect_right(self.starts, vaddr) - 1
        if i < 0 or (self.ends[i] is not None and vaddr >= self.ends[i]):
            return None  # e.g. a local symbol of a stripped library
        return self.names[i]


def shorten(name):
    """Drops template arguments, parameter lists, return types, qualifiers
    and clone suffixes (a coroutine's `.actor` body counts as the
    coroutine)."""
    name = re.sub(r" \[clone [^\]]*\]", "", name)
    out, depth = [], 0
    for ch in name:
        if ch in "<(":
            depth += 1
        elif ch in ">)":
            depth = max(0, depth - 1)
        elif depth == 0:
            out.append(ch)
    name = re.sub(r"( const| volatile| noexcept| &&| &)+$", "", "".join(out).strip())
    # A leading return type ("void rfs::sim::Engine::step") goes.
    return name.rsplit(" ", 1)[-1] if " " in name and "operator" not in name else name


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("file", help="sampler-<pid>.txt or heap-<pid>.txt written by "
                                     "sampler.c or heap.c")
    parser.add_argument("--under", default=r"Stepper::run",
                        help="count only samples with a frame matching this regex")
    parser.add_argument("--top", type=int, default=25, help="rows per table")
    parser.add_argument("--full", action="store_true", help="keep full demangled names")
    table = parser.add_mutually_exclusive_group()
    table.add_argument("--callers", metavar="REGEX",
                       help="count the first caller outside REGEX and std:: of each sample "
                            "whose innermost frame matches REGEX")
    table.add_argument("--children", metavar="REGEX",
                       help="count the callee directly under the innermost frame matching "
                            "REGEX of each sample that has one")
    table.add_argument("--lines", metavar="REGEX",
                       help="count the source line of each sample whose innermost frame "
                            "matches REGEX")
    args = parser.parse_args()

    maps, samples = parse(args.file)
    starts = [m[0] for m in maps]
    objects = {}
    cache = {}

    def object_of(addr):
        """(path, address in the file) of a sampled address, or None."""
        i = bisect.bisect_right(starts, addr) - 1
        if i < 0 or addr >= maps[i][1]:
            return None
        start, _, offset, path = maps[i]
        # Assumes each loadable segment's virtual address equals its file
        # offset, as GNU ld lays out executables and libraries.
        return path, addr - start + offset

    def name_of(addr):
        if addr in cache:
            return cache[addr]
        name = None
        located = object_of(addr)
        if located is not None:
            path, vaddr = located
            if path not in objects:
                objects[path] = Symbols(path)
            name = objects[path].lookup(vaddr)
            if name is None:
                name = "?? " + path.rsplit("/", 1)[-1]
        name = name or "??"
        if not args.full:
            name = shorten(name)
        cache[addr] = name
        return name

    under = re.compile(args.under)
    leaf = re.compile(args.callers) if args.callers else None
    outer = re.compile(args.children) if args.children else None
    inside = re.compile(args.lines) if args.lines else None
    self_counts, incl_counts = collections.Counter(), collections.Counter()
    edge_counts = collections.Counter()  # --callers' callers or --children's callees
    leaf_addrs = collections.Counter()  # --lines: leaf addresses inside the function
    total = 0
    for stack in samples:
        # Return addresses point past the call: look up the call itself.
        names = [name_of(a if i == 0 else a - 1) for i, a in enumerate(stack)]
        if not any(under.search(n) for n in names):
            continue
        total += 1
        self_counts[names[0]] += 1
        for n in set(names):
            incl_counts[n] += 1
        if leaf and leaf.search(names[0]):
            callers = (n for n in names[1:] if not leaf.search(n) and not n.startswith("std::"))
            edge_counts[next(callers, "??")] += 1
        if outer:
            # names is leaf first, so the first match is the innermost one.
            i = next((i for i, n in enumerate(names) if outer.search(n)), None)
            if i is not None:
                edge_counts[names[i - 1] if i > 0 else "(self)"] += 1
        if inside and inside.search(names[0]):
            leaf_addrs[stack[0]] += 1

    print(f"{len(samples)} samples, {total} under /{args.under}/")
    if total == 0:
        return 1
    if inside:
        return print_lines(leaf_addrs, object_of, total, args)
    if leaf or outer:
        hits = sum(edge_counts.values())
        if leaf:
            matched, column = (f"an innermost frame matching /{args.callers}/",
                               "first caller outside it and std::")
        else:
            matched, column = (f"a frame matching /{args.children}/",
                               "callee directly under the innermost match")
        print(f"{hits} ({100.0 * hits / total:.1f}%) with {matched}\n\n"
              f"{'share':>9}  {'samples':>7}  {column}")
        for name, count in edge_counts.most_common(args.top):
            print(f"{100.0 * count / total:8.1f}%  {count:7d}  {name}")
        return 0
    for title, counts in (("self", self_counts), ("inclusive", incl_counts)):
        print(f"\n{title:>9}  function")
        for name, count in counts.most_common(args.top):
            print(f"{100.0 * count / total:8.1f}%  {name}")
    return 0


def print_lines(leaf_addrs, object_of, total, args):
    """--lines: the self share of each source line the leaf samples in
    the function hit, resolved with one addr2line call per object."""
    by_object = collections.defaultdict(list)
    for addr in leaf_addrs:
        located = object_of(addr)
        if located is not None:
            by_object[located[0]].append((addr, located[1]))
    where = {}
    for path, addrs in by_object.items():
        try:
            out = subprocess.run(["addr2line", "-e", path, *(f"{v:x}" for _, v in addrs)],
                                 capture_output=True, text=True, check=False).stdout
        except OSError:
            out = ""
        for (addr, _), line in zip(addrs, out.splitlines()):
            where[addr] = re.sub(r" \(discriminator \d+\)$", "", line)
    line_counts = collections.Counter()
    for addr, count in leaf_addrs.items():
        line_counts[where.get(addr, "??:0")] += count
    hits = sum(line_counts.values())
    print(f"{hits} ({100.0 * hits / total:.1f}%) with an innermost frame matching /{args.lines}/")
    if hits == 0:
        return 1
    print(f"\n{'share':>9}  {'of fn':>6}  {'samples':>7}  source line")
    for line, count in line_counts.most_common(args.top):
        print(f"{100.0 * count / total:8.1f}%  {100.0 * count / hits:5.1f}%  {count:7d}  {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
