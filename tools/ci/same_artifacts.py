#!/usr/bin/env python3
"""Check that two artifact trees hold the same results.

Usage: same_artifacts.py A B

Both trees must hold the same file paths.  Every file must match byte
for byte, except `result.json`: it must match as a JSON document once
its top-level "config" member is dropped.  That member records the
resolved run config, thread count included, which does not change any
result; perfbench/run.py's artifact digests use the same rule.

Prints one line per difference.  Exits 0 when the trees agree, 1 when
they differ, and 2 on a usage error.
"""

import json
import os
import sys


def file_set(root):
    """Paths of every file under root, relative to it."""
    found = set()
    for dirpath, _, names in os.walk(root):
        for name in names:
            found.add(os.path.relpath(os.path.join(dirpath, name), root))
    return found


def comparable(path):
    """The bytes of path, or for result.json its config-less document."""
    with open(path, "rb") as f:
        data = f.read()
    if os.path.basename(path) == "result.json":
        doc = json.loads(data)
        doc.pop("config", None)
        return doc
    return data


def differences(a, b):
    files_a, files_b = file_set(a), file_set(b)
    found = []
    for rel in sorted(files_a - files_b):
        found.append("only in %s: %s" % (a, rel))
    for rel in sorted(files_b - files_a):
        found.append("only in %s: %s" % (b, rel))
    for rel in sorted(files_a & files_b):
        if comparable(os.path.join(a, rel)) != comparable(os.path.join(b, rel)):
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
