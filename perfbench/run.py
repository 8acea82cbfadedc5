#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

    python3 perfbench/run.py --workload check|steady|serve|fuzz \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The build goes to the checkout's
_build directory with dune's shared cache off and compiler temporaries
kept under _build, so nothing is written outside the checkout.  Build
output goes to stderr; a failed build exits 2 without a result line.
The arguments are handed to perfbench/main.exe, which this process then
becomes (see main.ml for what it prints).
"""

import os
import subprocess
import sys

root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
tmp = os.path.join(root, "_build", "tmp")
os.makedirs(tmp, exist_ok=True)
env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
build = subprocess.run(
    ["dune", "build", "--root", root, "--display", "quiet", "./perfbench/main.exe"],
    cwd=root,
    env=env,
    stdout=sys.stderr,
)
if build.returncode != 0:
    sys.exit(2)
exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
os.chdir(root)
os.execv(exe, [exe] + sys.argv[1:])
