#!/usr/bin/env python3
"""The repository benchmark: the rowpress reproduction, timed end to end
and layer by layer.

Run it from the repository root:

    python3 perfbench/run.py --workload sysdemo --seed 1 --seconds 30 --trace 0

Every run first builds `rowpress` and `rp_trace` from source with CMake
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later
runs only check that build.  Then:

--trace 0  starts one cold `rowpress serve --jobs 1` process after
           another for --seconds (at least three): a fresh process, no
           --cache-dir, nproc engine threads.  The workload's jobs are
           submitted over stdio one at a time, as `rowpress run` does,
           every artifact digest is checked, and the medians over the
           processes are reported.
--trace 1  runs one untraced process for reference, then rp_trace
           (perfbench/trace.cc) at nproc threads and again at one
           thread, checks that the exact counts agree, and reports the
           per-layer metrics.

The last line of stdout is the result JSON and the line before it
records the settings of the run.  Work files go under .bench_out/.

    python3 perfbench/run.py --workload W --seed S --write-digests

records the expected artifact digests of one workload and seed in
perfbench/digests.json.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")

CHARACTERIZATION = ["fig01", "fig06", "fig08", "fig09", "fig10", "fig12",
                    "fig13", "fig15", "fig17", "fig19", "fig22", "fig25",
                    "fig42", "fig46", "table5"]

# Together the workloads are the full reproduction (`rowpress run 'fig*'
# 'table*' ablation`), split by experiment category; `config` sizes
# each so that one cold process takes seconds, and `probe` names the
# layer probe of the traced run.
WORKLOADS = {
    "sysdemo": {"experiments": ["fig23", "fig24"],
                "config": {"scale": "0.25"}, "probe": "sys"},
    "characterize": {"experiments": CHARACTERIZATION + ["ablation"],
                     "config": {"locations": "30"}, "probe": "chr"},
    "simulate": {"experiments": ["fig38", "fig40", "fig41", "table3"],
                 "config": {"scale": "2"}, "probe": "sim"},
}

END_TO_END = [("wall_s", "s", "lower"), ("setup_s", "s", "lower"),
              ("cpu_s", "s", "lower"), ("peak_rss_mb", "MB", "lower"),
              ("success_rate", "frac", "higher")]


def per_layer_metrics():
    """(name, unit, better) of every per-layer metric, in report order."""
    ids = [e for w in WORKLOADS.values() for e in w["experiments"]]
    return ([("api.dispatch_ms", "ms", "lower"),
             ("api.sink_render_ms", "ms", "lower")] +
            [("job.%s_s" % e, "s", "lower") for e in ids] +
            [("core.busy_frac", "frac", "higher")] +
            [("core.busy_frac.%s" % e, "frac", "higher") for e in ids] +
            [("core.tasks", "count", "lower"),
             ("core.task_ms.p50", "ms", "lower"),
             ("core.task_ms.max", "ms", "lower"),
             ("sys.host_ns_per_act", "ns/act", "lower"),
             ("sys.acts", "count", "lower"),
             ("sys.trr_refreshes", "count", "lower"),
             ("sys.bitflips", "count", "lower"),
             ("sys.rows_with_bitflips", "count", "lower"),
             ("device.store_build_s", "s", "lower"),
             ("device.store_misses", "count", "lower"),
             ("device.candidate_rows", "count", "lower"),
             ("device.wordmask_rows", "count", "lower"),
             ("device.store_mb", "MB", "lower"),
             ("chr.acmin_sweep_ms", "ms", "lower"),
             ("chr.ber_attempts_ms", "ms", "lower"),
             ("chr.error_words", "count", "lower"),
             ("sim.host_ns_per_instr", "ns/instr", "lower"),
             ("sim.instrs", "count", "lower"),
             ("sim.acts", "count", "lower"),
             ("sim.row_hit_rate", "frac", "higher"),
             ("sim.preventive_acts", "count", "lower"),
             ("mitigation.overhead_frac", "frac", "lower"),
             ("trace.overhead_frac", "frac", "lower")])


# Counts a speed-only change must leave identical.  The traced run
# compares them between nproc threads and one thread.
EXACT_COUNTS = ["sys.acts", "sys.trr_refreshes", "sys.bitflips",
                "sys.rows_with_bitflips", "sim.instrs", "sim.acts",
                "device.candidate_rows", "chr.error_words"]

MIN_PROCESSES = 3
# Once built, a run ends within 180 s; this leaves room to clean up.
RUN_BUDGET_S = 165.0


class BenchError(Exception):
    """Stops a run before it has a result: stderr, exit code 2."""


def nproc():
    return len(os.sched_getaffinity(0))


def child_env():
    """The environment minus every RP_/ROWPRESS_ knob, so that a run is
    a function of its command line."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith(("RP_", "ROWPRESS_"))}


def job_config(workload, seed, threads):
    config = dict(WORKLOADS[workload]["config"])
    config.update(seed=str(seed), threads=str(threads))
    return config


# ---- build ----------------------------------------------------------------

def build_dir(root):
    return os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"), "perfbench")


def build(root, out):
    """Build both binaries from the sources in @root; returns paths."""
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(root, "src"))):
        raise BenchError("no rowpress sources in %s: run from the "
                         "repository root" % root)
    bdir = build_dir(root)
    log_path = os.path.join(out, "build.log")
    steps = [["cmake", "--build", bdir, "-j", str(nproc()),
              "--target", "rowpress_cli", "rp_trace"]]
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", bdir,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    with open(log_path, "ab") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL).returncode != 0:
                raise BenchError("build failed: see %s" % log_path)
    return {"rowpress": os.path.join(bdir, "rowpress", "bench", "rowpress"),
            "trace": os.path.join(bdir, "rp_trace")}


def build_info(root):
    """Build type and compiler of the build, from CMake's own files."""
    bdir = build_dir(root)
    info = {"build_type": None, "compiler": None}
    with open(os.path.join(bdir, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                info["build_type"] = line.split("=", 1)[1].strip()
    files = os.path.join(bdir, "CMakeFiles")
    for entry in sorted(os.listdir(files)):
        path = os.path.join(files, entry, "CMakeCXXCompiler.cmake")
        if os.path.isfile(path):
            fields = {}
            with open(path) as f:
                for line in f:
                    parts = line.strip().split(" ", 1)
                    if len(parts) == 2 and parts[0].startswith("set("):
                        fields[parts[0][4:]] = parts[1].rstrip(")").strip('"')
            info["compiler"] = "%s %s" % (fields.get("CMAKE_CXX_COMPILER_ID"),
                                          fields.get("CMAKE_CXX_COMPILER_VERSION"))
    return info


def source_identity(root):
    """The commit when @root is a git checkout, and always a digest of
    the sources the benchmark builds."""
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              stdin=subprocess.DEVNULL)
        commit = proc.stdout.strip() or None
    h = hashlib.sha256()
    paths = [os.path.join(root, "CMakeLists.txt")]
    for top in ("src", "bench", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            paths += [os.path.join(dirpath, n) for n in sorted(filenames)]
    for path in paths:
        h.update(os.path.relpath(path, root).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return commit, h.hexdigest()


# ---- correctness ----------------------------------------------------------

def artifact_digests(out_dir, experiments):
    """sha256 of every artifact under out_dir/<experiment>/.  The
    resolved-config block of result.json is left out: it names the
    thread count, which does not change any result."""
    digests = {}
    for exp in experiments:
        exp_dir = os.path.join(out_dir, exp)
        if not os.path.isdir(exp_dir):
            continue
        for name in sorted(os.listdir(exp_dir)):
            with open(os.path.join(exp_dir, name), "rb") as f:
                data = f.read()
            if name == "result.json":
                doc = json.loads(data)
                doc.pop("config", None)
                data = json.dumps(doc, sort_keys=True,
                                  separators=(",", ":")).encode()
            digests["%s/%s" % (exp, name)] = hashlib.sha256(data).hexdigest()
    return digests


def failed_jobs(experiments, exit_code, states, digests, expected):
    """Jobs that failed: the process exited non-zero, the job did not
    reach Finished, or its artifacts differ from @expected (None: no
    reference yet, so only the states count)."""
    def of(d, exp):
        return {k: v for k, v in d.items() if k.split("/", 1)[0] == exp}
    return [exp for exp in experiments
            if exit_code != 0 or states.get(exp) != "finished" or
            (expected is not None and of(digests, exp) != of(expected, exp))]


def committed_digests(workload, seed):
    with open(DIGESTS) as f:
        return json.load(f).get(workload, {}).get(str(seed))


class Checker:
    """Counts attempted and failed jobs against one reference: the
    committed digests of (workload, seed), or else the artifacts of the
    first clean process of this run, so that a seed without committed
    digests is still checked for repeatability."""

    def __init__(self, workload, seed):
        self.experiments = WORKLOADS[workload]["experiments"]
        self.expected = committed_digests(workload, seed)
        self.golden = self.expected is not None
        self.attempted = 0
        self.failed = 0

    def check(self, out_dir, exit_code, states):
        digests = artifact_digests(out_dir, self.experiments)
        bad = failed_jobs(self.experiments, exit_code, states, digests,
                          self.expected)
        if self.expected is None and not bad:
            self.expected = digests
        self.attempted += len(self.experiments)
        self.failed += len(bad)
        return bad


# ---- end-to-end run -------------------------------------------------------

def read_lines(proc, deadline):
    """Yield (arrival time, JSON) for each line @proc writes to stdout."""
    fd = proc.stdout.fileno()
    buf = b""
    while True:
        left = deadline - time.perf_counter()
        if left <= 0:
            raise TimeoutError("process ran past the run budget")
        if not select.select([fd], [], [], left)[0]:
            continue
        chunk = os.read(fd, 1 << 16)
        now = time.perf_counter()
        if not chunk:
            return
        *lines, buf = (buf + chunk).split(b"\n")
        for line in lines:
            if line.strip():
                yield now, json.loads(line)


def serve_process(binary, experiments, config, out_dir, deadline):
    """One cold `rowpress serve --jobs 1` process that runs the jobs one
    after another over stdio; returns its timings and job states."""
    os.makedirs(out_dir)
    pending = list(experiments)
    states = {}
    first = {}
    last_finished = None
    with open(os.path.join(out_dir, "serve.log"), "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen([binary, "serve", "--jobs", "1"],
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=log, cwd=out_dir, env=child_env())

        def submit_next():
            if pending:
                exp = pending.pop(0)
                msg = {"op": "submit", "tag": exp, "experiment": exp,
                       "config": config, "formats": ["csv", "json"],
                       "out": "."}
            else:
                msg = {"op": "shutdown"}
            proc.stdin.write((json.dumps(msg) + "\n").encode())
            proc.stdin.flush()

        ended = False
        try:
            submit_next()
            for now, msg in read_lines(proc, deadline):
                event = msg.get("event")
                if event in ("queued", "started"):
                    first.setdefault(event, now)
                elif event == "finished":
                    states[msg["experiment"]] = msg["state"]
                    last_finished = now
                    submit_next()
                elif msg.get("op") == "submit" and not msg.get("ok"):
                    states[msg["tag"]] = "rejected"
                    submit_next()
            ended = True
        except (OSError, TimeoutError, ValueError) as e:
            print("perfbench: %s" % e, file=sys.stderr)
        finally:
            if not ended:
                proc.kill()
            exit_code, usage = reap(proc, deadline)
        end = time.perf_counter()
    return {
        "exit_code": exit_code,
        "states": states,
        "setup_s": first["started"] - t0 if "started" in first else None,
        "wall_s": last_finished - first["queued"]
        if "queued" in first and last_finished else None,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "duration_s": end - t0,
    }


def reap(proc, deadline):
    """Wait for @proc, killing it at @deadline; returns its exit code and
    resource usage."""
    for stream in (proc.stdin, proc.stdout):
        try:
            stream.close()
        except OSError:
            pass
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage
        if time.perf_counter() > deadline:
            proc.kill()
        time.sleep(0.005)


def median_of(samples, key):
    values = [s[key] for s in samples if s[key] is not None]
    return statistics.median(values) if values else 0.0


def end_to_end(bins, workload, seed, seconds, work, deadline):
    experiments = WORKLOADS[workload]["experiments"]
    config = job_config(workload, seed, nproc())
    checker = Checker(workload, seed)
    samples = []
    start = time.perf_counter()
    while True:
        out_dir = os.path.join(work, "p%d" % len(samples))
        sample = serve_process(bins["rowpress"], experiments, config,
                               out_dir, deadline)
        sample["failed_jobs"] = checker.check(out_dir, sample["exit_code"],
                                              sample["states"])
        if not sample["failed_jobs"]:
            shutil.rmtree(out_dir)
        samples.append(sample)
        now = time.perf_counter()
        if now + sample["duration_s"] > deadline:
            break
        if (len(samples) >= MIN_PROCESSES and
                now - start + sample["duration_s"] > seconds):
            break
    metrics = {name: median_of(samples, name) for name, _, _ in END_TO_END
               if name != "success_rate"}
    metrics["success_rate"] = 1.0 - checker.failed / checker.attempted
    return metrics, checker, samples, []


# ---- traced run -----------------------------------------------------------

def self_times(spans):
    """Each span's duration minus the part of it its children cover;
    children may overlap (engine tasks run in parallel)."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            children[s["parent"]].append(i)
    own = []
    for i, s in enumerate(spans):
        lo, hi = s["start_ns"], s["end_ns"]
        covered = 0
        cur_lo = cur_hi = None
        for a, b in sorted((max(lo, spans[c]["start_ns"]),
                            min(hi, spans[c]["end_ns"])) for c in children[i]):
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        own.append(hi - lo - covered)
    return own


def root_of(spans, i):
    while spans[i]["parent"] >= 0:
        i = spans[i]["parent"]
    return spans[i]["name"]


def span_summary(spans):
    """Count, total and self milliseconds per (root span, span name)."""
    own = self_times(spans)
    out = {}
    for i, (s, self_ns) in enumerate(zip(spans, own)):
        key = "%s/%s" % (root_of(spans, i), s["name"])
        entry = out.setdefault(key, {"count": 0, "total_ms": 0.0,
                                     "self_ms": 0.0})
        entry["count"] += 1
        entry["total_ms"] += (s["end_ns"] - s["start_ns"]) / 1e6
        entry["self_ms"] += self_ns / 1e6
    return out


def layer_metrics(doc, threads):
    """Per-layer metrics of one rp_trace document.  A metric of a layer
    the workload does not run reads 0."""
    spans, jobs, counts = doc["spans"], doc["jobs"], doc["counters"]
    metrics = {name: 0.0 for name, _, _ in per_layer_metrics()}
    own = self_times(spans)

    def duration(s):
        return s["end_ns"] - s["start_ns"]

    single = {}
    for i, s in enumerate(spans):
        single[s["name"]] = duration(s)
        if root_of(spans, i) != "pass.cold":
            continue
        if s["name"].startswith("job."):
            # Submit -> Finished minus dispatch and sink render: the
            # experiment's own compute.
            metrics[s["name"] + "_s"] = own[i] / 1e9
        elif s["name"] == "api.dispatch":
            metrics["api.dispatch_ms"] += duration(s) / 1e6
        elif s["name"] == "api.sink_render":
            metrics["api.sink_render_ms"] += duration(s) / 1e6

    def wall(j):
        return (j["finished_ns"] - j["started_ns"]) / 1e9

    cold = [j for j in jobs if j["pass"] == "cold"]
    warm = [j for j in jobs if j["pass"] == "warm"]
    for j in cold:
        metrics["core.busy_frac." + j["experiment"]] = \
            j["cpu_ns"] / 1e9 / (threads * wall(j))
    if cold:
        metrics["core.busy_frac"] = (sum(j["cpu_ns"] for j in cold) / 1e9 /
                                     (threads * sum(wall(j) for j in cold)))
    if warm:
        metrics["device.store_build_s"] = (sum(wall(j) for j in cold) -
                                           sum(wall(j) for j in warm))
    for name in ("device.store_misses", "device.candidate_rows",
                 "device.wordmask_rows", "sys.acts", "sys.trr_refreshes",
                 "sys.bitflips", "sys.rows_with_bitflips", "chr.error_words",
                 "sim.instrs", "sim.acts", "sim.preventive_acts"):
        metrics[name] = counts.get(name, 0)
    metrics["device.store_mb"] = counts.get("device.store_bytes", 0) / 1e6

    tasks = [duration(s) for s in spans if s["name"] == "sys.runDemo"]
    if tasks:
        metrics["core.tasks"] = len(tasks)
        metrics["core.task_ms.p50"] = statistics.median(tasks) / 1e6
        metrics["core.task_ms.max"] = max(tasks) / 1e6
        metrics["sys.host_ns_per_act"] = sum(tasks) / max(1, counts["sys.acts"])
    if "chr.acmin_sweep" in single:
        metrics["chr.acmin_sweep_ms"] = single["chr.acmin_sweep"] / 1e6
        metrics["chr.ber_attempts_ms"] = single["chr.ber_attempts"] / 1e6
    if "sim.run_systems" in single:
        base = single["sim.run_systems"]
        metrics["sim.host_ns_per_instr"] = \
            base / max(1, counts["sim.instrs_unmitigated"])
        looked_up = counts["sim.row_hits"] + counts["sim.row_misses"]
        metrics["sim.row_hit_rate"] = counts["sim.row_hits"] / max(1, looked_up)
        metrics["mitigation.overhead_frac"] = (
            (single["mitigation.graphene"] + single["mitigation.para"]) /
            (2.0 * base) - 1.0)
    return metrics


def run_trace(binary, workload, seed, threads, passes, out_dir, deadline):
    spec = WORKLOADS[workload]
    cmd = [binary, "--experiments", ",".join(spec["experiments"]),
           "--passes", str(passes), "--probe", spec["probe"], "--out", out_dir]
    for key, value in job_config(workload, seed, threads).items():
        cmd += ["--set", "%s=%s" % (key, value)]
    os.makedirs(out_dir)
    with open(os.path.join(out_dir, "trace.log"), "wb") as log:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=log,
                              stdin=subprocess.DEVNULL, env=child_env(),
                              timeout=max(1.0, deadline - time.perf_counter()))
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout)


def traced(bins, workload, seed, work, deadline):
    experiments = WORKLOADS[workload]["experiments"]
    checker = Checker(workload, seed)
    problems = []

    # Untraced reference for trace.overhead_frac (and the digests of a
    # seed that has none committed).
    ref_dir = os.path.join(work, "untraced")
    ref = serve_process(bins["rowpress"], experiments,
                        job_config(workload, seed, nproc()), ref_dir, deadline)
    checker.check(ref_dir, ref["exit_code"], ref["states"])

    docs = {}
    for label, threads, passes in (("nproc", nproc(), 2), ("one", 1, 1)):
        out_dir = os.path.join(work, "trace-" + label)
        try:
            doc = run_trace(bins["trace"], workload, seed, threads, passes,
                            out_dir, deadline)
        except subprocess.TimeoutExpired:
            doc = None
        for pass_name in ("cold", "warm")[:passes]:
            states = {j["experiment"]: j["state"] for j in
                      (doc["jobs"] if doc else []) if j["pass"] == pass_name}
            checker.check(os.path.join(out_dir, pass_name),
                          0 if doc else 1, states)
        if doc is None:
            problems.append("rp_trace failed at %d thread(s)" % threads)
            return {}, checker, docs, problems
        docs[label] = doc

    differ = [k for k in EXACT_COUNTS if docs["nproc"]["counters"].get(k) !=
              docs["one"]["counters"].get(k)]
    if differ:
        problems.append("exact counts differ between %d threads and 1: %s"
                        % (nproc(), ", ".join(differ)))
    metrics = layer_metrics(docs["nproc"], nproc())
    cold = [s for s in docs["nproc"]["spans"] if s["name"] == "pass.cold"][0]
    if ref["wall_s"]:
        metrics["trace.overhead_frac"] = \
            (cold["end_ns"] - cold["start_ns"]) / 1e9 / ref["wall_s"] - 1.0
    return metrics, checker, docs, problems


# ---- main -----------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true",
                        help="record this workload's artifact digests for "
                             "--seed in perfbench/digests.json")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 31:
        parser.error("--seed must be in [0, 2^31)")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def write_digests(bins, workload, seed, work, deadline):
    experiments = WORKLOADS[workload]["experiments"]
    out_dir = os.path.join(work, "digests")
    sample = serve_process(bins["rowpress"], experiments,
                           job_config(workload, seed, nproc()), out_dir,
                           deadline)
    if failed_jobs(experiments, sample["exit_code"], sample["states"], {},
                   None):
        raise BenchError("a job failed; digests not written")
    with open(DIGESTS) as f:
        table = json.load(f)
    table.setdefault(workload, {})[str(seed)] = \
        artifact_digests(out_dir, experiments)
    with open(DIGESTS, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")


def cpu_ticks():
    """(busy, steal) jiffies of the whole machine, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return sum(fields[:3]) + sum(fields[5:7]), fields[7]


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    out = os.path.join(root, ".bench_out")
    work = os.path.join(out, "%s-s%d-t%d-%d" % (args.workload, args.seed,
                                                args.trace, os.getpid()))
    try:
        os.makedirs(out, exist_ok=True)
        bins = build(root, out)
        deadline = time.perf_counter() + RUN_BUDGET_S
        os.makedirs(work)
        if args.write_digests:
            write_digests(bins, args.workload, args.seed, work, deadline)
            shutil.rmtree(work)
            return 0
        ticks = cpu_ticks()
        if args.trace:
            metrics, checker, detail, problems = traced(
                bins, args.workload, args.seed, work, deadline)
            units = per_layer_metrics()
        else:
            metrics, checker, detail, problems = end_to_end(
                bins, args.workload, args.seed, args.seconds, work, deadline)
            units = END_TO_END
        busy, steal = (b - a for a, b in zip(ticks, cpu_ticks()))
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    # Keep the artifacts of a failed run for inspection.
    if checker.failed == 0 and not problems:
        shutil.rmtree(work)

    commit, sources = source_identity(root)
    record = dict(workload=args.workload, seed=args.seed, trace=args.trace,
                  threads=nproc(), nproc=os.cpu_count(), commit=commit,
                  source_sha256=sources, cold=True, cache_dir=None,
                  golden_digests=checker.golden,
                  fail_rate=checker.failed / max(1, checker.attempted),
                  steal_frac=steal / max(1, busy + steal),
                  problems=problems, **build_info(root))
    if args.trace:
        record["spans"] = {label: span_summary(doc["spans"])
                           for label, doc in detail.items()}
    else:
        record["processes"] = detail
    with open(os.path.join(out, "%s-s%d-t%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump({"record": record, "metrics": metrics}, f, indent=1)
    result = {
        "correct": checker.failed == 0 and not problems and bool(metrics),
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit, _ in units},
    }
    print(json.dumps({"record": {k: v for k, v in record.items()
                                 if k not in ("spans", "processes")}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
