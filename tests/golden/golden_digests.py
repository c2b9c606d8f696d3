#!/usr/bin/env python3
"""Golden artifact digests: the reproduction's bytes, pinned in ctest.

Usage: golden_digests.py ROWPRESS [--update]

Runs the two `rowpress run` invocations in RUNS into a temporary
directory and compares the sha256 of every artifact with
tests/golden/digests.txt.  The digest rule is perfbench's
(`artifact_digests` in perfbench/run.py: every file's bytes, except
that result.json drops its "config" member, which records the thread
count).  The runs get the environment minus every RP_/ROWPRESS_ knob
(perfbench's `child_env`), so a stray RP_FAULT_POINTS or RP_CACHE_DIR
cannot change what is run.

Prints one line per differing, missing or extra path.  Exits 0 when
every digest matches, 1 when any differs, and 2 on a usage error or a
failed run.  With --update it rewrites digests.txt from this build's
artifacts instead; a change that moves an artifact byte commits the
new file and says why.
"""

import os
import subprocess
import sys
import tempfile

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from run import artifact_digests, child_env  # noqa: E402

GOLDEN = os.path.join(HERE, "digests.txt")

# The full reproduction at a reduced size (95 files) and the three
# fuzz.* searches at small budgets (6 files).
RUNS = [
    ["fig*", "table*", "ablation", "--locations", "4", "--scale", "0.25"],
    ["fuzz.*", "--trials", "6", "--population", "4", "--budget", "3",
     "--seed", "7"],
]
THREADS = "4"


def generate(rowpress, out):
    """Run every RUNS entry into out; returns an error text or None."""
    for args in RUNS:
        cmd = ([rowpress, "run"] + args +
               ["--threads", THREADS, "--format", "csv,json", "--out", out])
        proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            return "%s exited %d: %s" % (" ".join(cmd), proc.returncode,
                                         proc.stderr.strip())
    return None


def read_golden(path):
    digests = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line and not line.startswith("#"):
                digest, rel = line.split(None, 1)
                digests[rel] = digest
    return digests


def write_golden(path, digests):
    with open(path, "w") as f:
        f.write("# sha256 of every artifact of the runs in "
                "tests/golden/golden_digests.py,\n"
                "# by perfbench/run.py:artifact_digests.  Rewrite with "
                "golden_digests.py ROWPRESS --update.\n")
        for rel in sorted(digests):
            f.write("%s  %s\n" % (digests[rel], rel))


def differences(expected, actual):
    found = []
    for rel in sorted(set(expected) | set(actual)):
        if rel not in actual:
            found.append("missing: %s" % rel)
        elif rel not in expected:
            found.append("extra: %s" % rel)
        elif expected[rel] != actual[rel]:
            found.append("differs: %s" % rel)
    return found


def main(argv):
    args = argv[1:]
    update = "--update" in args
    args = [a for a in args if a != "--update"]
    if len(args) != 1 or not os.access(args[0], os.X_OK):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="rp_golden_") as out:
        error = generate(args[0], out)
        if error:
            print("golden_digests: " + error, file=sys.stderr)
            return 2
        actual = artifact_digests(out, sorted(os.listdir(out)))
    if update:
        write_golden(GOLDEN, actual)
        print("golden_digests: wrote %d digests to %s"
              % (len(actual), GOLDEN))
        return 0
    found = differences(read_golden(GOLDEN), actual)
    for line in found:
        print(line)
    print("golden_digests: %d file(s), %d difference(s)"
          % (len(actual), len(found)))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
