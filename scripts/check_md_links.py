#!/usr/bin/env python3
"""Fails when a relative markdown link in README.md, ROADMAP.md or docs/*.md
points at a file that does not exist. Links to http(s), mailto and in-page
anchors are not checked. Run from the repository root:

    scripts/check_md_links.py
"""

import os, re, sys
link = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
failures = []
# Every docs/ page (FAULT_TOLERANCE, ARCHITECTURE, BENCHMARKS,
# and whatever lands next) plus the top-level entry points.
files = ["README.md", "ROADMAP.md"] + sorted(
    os.path.join("docs", f) for f in os.listdir("docs") if f.endswith(".md"))
for path in files:
    base = os.path.dirname(path)
    for n, line in enumerate(open(path), 1):
        for target in link.findall(line):
            if target.startswith(("http://", "https://", "#", "mailto:")):
                continue
            rel = os.path.normpath(os.path.join(base, target.split("#")[0]))
            if not os.path.exists(rel):
                failures.append(f"{path}:{n}: broken link -> {target}")
    print(f"{path}: checked")
if failures:
    sys.exit("\n".join(failures))
