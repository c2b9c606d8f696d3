#!/usr/bin/env python3
"""Check that two artifact trees hold the same results.

Usage: same_artifacts.py A B

Each tree holds one directory of artifacts per experiment, as
`rowpress run --out` writes it.  Both trees must hold the same files
with the same digests under perfbench/run.py's rule
(`artifact_digests`): every file's bytes, except that `result.json`
drops its top-level "config" member.  That member records the
resolved run config, thread count included, which does not change any
result.

Prints one line per difference.  Exits 0 when the trees agree, 1 when
they differ, and 2 on a usage error.
"""

import os
import sys

sys.dont_write_bytecode = True
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from run import artifact_digests  # noqa: E402


def experiments(*roots):
    """The union of the experiment directories under every root."""
    return sorted({name for root in roots for name in os.listdir(root)
                   if os.path.isdir(os.path.join(root, name))})


def differences(a, b):
    exps = experiments(a, b)
    digests_a, digests_b = artifact_digests(a, exps), artifact_digests(b, exps)
    found = []
    for rel in sorted(set(digests_a) - set(digests_b)):
        found.append("only in %s: %s" % (a, rel))
    for rel in sorted(set(digests_b) - set(digests_a)):
        found.append("only in %s: %s" % (b, rel))
    for rel in sorted(set(digests_a) & set(digests_b)):
        if digests_a[rel] != digests_b[rel]:
            found.append("differs: %s" % rel)
    return found


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    for root in argv[1:]:
        if not os.path.isdir(root):
            print("same_artifacts: not a directory: %s" % root,
                  file=sys.stderr)
            return 2
    found = differences(argv[1], argv[2])
    for line in found:
        print(line)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
