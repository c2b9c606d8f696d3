#!/usr/bin/env python3
"""Compare two checkouts on the repository benchmark, in alternating pairs.

Usage:

    python3 tools/bench/ab.py PARENT CHANGE --workload simulate \\
        --seed 1 --pairs 10 --claim wall_s

Each pair runs `python3 perfbench/run.py --workload W --seed S --seconds N
--trace 0` once in each checkout, N being the `run_seconds` of PARENT's
BENCHMARK.json; the parent runs first in odd pairs and the change in even
ones.  Each checkout builds into its own `.bench_build/` (CARGO_TARGET_DIR
is not passed on).  The report lists every pair, then, for each
end-to-end metric of PARENT's BENCHMARK.json, each side's median and
quartiles, the pairs the change won (ties count for neither side) and a
verdict:

  gain        the --claim metric: over at least 10 pairs, the change won
              at least 90% of them and its median beats the parent's by
              more than the parent's interquartile range;
  holds (<10 pairs)
              the --claim metric meets those two tests over fewer than 10
              pairs: too few to claim a gain, enough to check one on a
              held-out seed;
  not met     the --claim metric otherwise;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound, a fraction of the parent's median;
  unresolved  either side's interquartile range exceeds the bound times
              its median, unless every change run beats every parent run;
  ok          none of these.

The last line of stdout is the whole report as JSON.  Exits 1 when a run
fails or reports `correct` false, 2 on a usage error, 0 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


class AbError(Exception):
    """A run failed or was incorrect: no verdict is possible."""


MIN_PAIRS_FOR_GAIN = 10


def load_benchmark(checkout):
    """@checkout's BENCHMARK.json."""
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(checkout, workload, seed, seconds):
    """One perfbench run in @checkout; returns its metric values."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True,
                          text=True, stdin=subprocess.DEVNULL)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        raise AbError("perfbench failed in %s (exit %d): %s" % (
            checkout, proc.returncode, proc.stderr.strip()[-500:]))
    if result.get("correct") is not True:
        raise AbError("perfbench reported correct=%s in %s: %s" % (
            result.get("correct"), checkout, json.dumps(result)[:500]))
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    """(first quartile, median, third quartile) of @values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def better(a, b, direction):
    """True when value @a beats value @b for a metric of @direction."""
    return a < b if direction == "lower" else a > b


def judge(metric, pairs, claimed):
    """Summary and verdict of one metric over @pairs of
    {"parent": values, "change": values}."""
    name, direction, bound = metric["name"], metric["better"], metric["bound"]
    parent = [p["parent"][name] for p in pairs]
    change = [p["change"][name] for p in pairs]
    p1, pmed, p3 = quartiles(parent)
    c1, cmed, c3 = quartiles(change)
    wins = sum(better(c, p, direction) for p, c in zip(parent, change))
    out = {"metric": name, "unit": metric["unit"], "better": direction,
           "bound": bound, "parent": [p1, pmed, p3],
           "change": [c1, cmed, c3], "wins": wins, "pairs": len(pairs)}
    gap = pmed - cmed if direction == "lower" else cmed - pmed
    if claimed:
        if not (10 * wins >= 9 * len(pairs) and gap > p3 - p1):
            out["verdict"] = "not met"
        elif len(pairs) < MIN_PAIRS_FOR_GAIN:
            out["verdict"] = "holds (<%d pairs)" % MIN_PAIRS_FOR_GAIN
        else:
            out["verdict"] = "gain"
        return out
    worse = -gap / pmed if pmed else -gap
    spread = max((p3 - p1) / pmed if pmed else p3 - p1,
                 (c3 - c1) / cmed if cmed else c3 - c1)
    always_better = all(better(c, p, direction)
                        for c in change for p in parent)
    if worse > bound:
        out["verdict"] = "regressed"
    elif spread > bound and not always_better:
        out["verdict"] = "unresolved"
    else:
        out["verdict"] = "ok"
    return out


def fmt(value):
    return "%.4g" % value


def compare(parent, change, workload, seed, pairs, claim, log=print):
    """Run the pairs and judge every metric; returns the report."""
    benchmark = load_benchmark(parent)
    metrics, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    done = []
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"first": order[0]}
        for side in order:
            pair[side] = run_once(parent if side == "parent" else change,
                                  workload, seed, seconds)
        done.append(pair)
        log("pair %2d (%s first)  %s" % (i + 1, order[0], "  ".join(
            "%s %s/%s" % (m["name"], fmt(pair["parent"][m["name"]]),
                          fmt(pair["change"][m["name"]]))
            for m in metrics)))
    verdicts = [judge(m, done, m["name"] == claim) for m in metrics]
    log("%-13s %-26s %-26s %5s  %s" % ("metric", "parent q1/median/q3",
                                       "change q1/median/q3", "wins",
                                       "verdict"))
    for v in verdicts:
        log("%-13s %-26s %-26s %2d/%-2d  %s%s" % (
            v["metric"], "/".join(map(fmt, v["parent"])),
            "/".join(map(fmt, v["change"])), v["wins"], v["pairs"],
            v["verdict"], "  (claimed)" if v["metric"] == claim else ""))
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "claim": claim, "pairs": done, "verdicts": verdicts}


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--claim", default=None,
                        help="the end-to-end metric the change claims")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    for path in (args.parent, args.change):
        if not os.path.isfile(os.path.join(path, "perfbench", "run.py")):
            parser.error("%s holds no perfbench/run.py" % path)
    if not os.path.isfile(os.path.join(args.parent, "BENCHMARK.json")):
        parser.error("%s holds no BENCHMARK.json" % args.parent)
    names = [m["name"] for m in load_benchmark(args.parent)["end_to_end"]]
    if args.claim is not None and args.claim not in names:
        parser.error("--claim must be one of %s" % ", ".join(names))
    return args


def main(argv=None):
    args = parse_args(argv)
    try:
        report = compare(args.parent, args.change, args.workload, args.seed,
                         args.pairs, args.claim)
    except AbError as e:
        print("ab: %s" % e, file=sys.stderr)
        return 1
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
