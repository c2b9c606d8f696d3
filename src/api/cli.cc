#include "api/cli.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>
#include <sstream>

#include "api/config.h"
#include "api/context.h"
#include "api/protocol.h"
#include "api/registry.h"
#include "api/service.h"
#include "api/sink.h"
#include "core/engine.h"
#include "core/fault.h"
#include "persist/cache.h"

namespace rp::api {

namespace {

const char *const kUsage =
    "usage: rowpress <command> [options]\n"
    "\n"
    "commands:\n"
    "  list [glob]          list registered experiments\n"
    "  run <id|glob>...     run experiments by name\n"
    "  serve                long-lived service: jobs over NDJSON on\n"
    "                       stdin/stdout\n"
    "  cache <verb>         snapshot-cache maintenance: ls | gc |\n"
    "                       export DEST | import FILE...\n"
    "  help                 show this message\n"
    "\n"
    "list options:\n"
    "  --format FMT         table (ASCII, default) or json (machine-\n"
    "                       readable ids + full option schemas)\n"
    "\n"
    "run options:\n"
    "  --all                select every registered experiment\n"
    "  --out DIR            artifact directory (default: artifacts)\n"
    "  --format LIST        comma list of table, csv, json (default: table)\n"
    "  --time               an elapsed-time line per experiment and a\n"
    "                       total summary line, in any format (off by\n"
    "                       default: timing output is non-deterministic)\n"
    "  --locations N        tested row locations per module (default: 10)\n"
    "  --dies SET           default | all | comma-separated die ids\n"
    "  --seed S             root seed for module construction\n"
    "  --threads N          engine worker threads (0 = hardware)\n"
    "  --scale X            effort multiplier for heavy experiments\n"
    "  --deadline-ms N      wall budget per job; exceeding it ends the\n"
    "                       run as deadline_exceeded (0 = none)\n"
    "\n"
    "cache options (directory: --cache-dir or RP_CACHE_DIR):\n"
    "  ls [--format FMT]    verified listing (table or json)\n"
    "  gc [--max-bytes N]   drop undecodable snapshots, then LRU down\n"
    "                       to N bytes (no N = invalid-only sweep)\n"
    "  export DEST          copy valid snapshots into directory DEST\n"
    "  import FILE...       validate and install snapshot files\n"
    "\n"
    "serve options:\n"
    "  --jobs N             concurrent jobs in flight, 1-256\n"
    "                       (default: 2)\n"
    "  --queue-max N        pending-queue admission bound; a full\n"
    "                       queue rejects with queue_full (default:\n"
    "                       64, 0 = unbounded)\n"
    "  --grace-ms N         SIGTERM/SIGINT drain budget before\n"
    "                       in-flight jobs are cancelled (default:\n"
    "                       5000; exit 3 = drained, 4 = cancelled)\n"
    "\n"
    "run and serve options:\n"
    "  --cache-dir DIR      on-disk ThresholdStore snapshot cache for\n"
    "                       every job of the process, shared across\n"
    "                       runs and processes (also RP_CACHE_DIR;\n"
    "                       empty = no persistence)\n"
    "\n"
    "Fault injection (testing): set RP_FAULT_POINTS to inject\n"
    "deterministic faults at named points; see docs for the grammar\n"
    "and the point registry.\n"
    "\n"
    "Experiments may declare further options (e.g. fig06 --temp,\n"
    "fig15 --temp-step); an option not declared by every selected\n"
    "experiment is rejected.  `run` and `serve` share one execution\n"
    "path (rp::api::Service), so a job's artifacts are byte-identical\n"
    "whichever front-end produced them.\n";

struct Flag
{
    std::string key;
    std::string value;
};

/** Lexical scan of a run/list argument list. */
struct ParsedArgs
{
    std::vector<std::string> positionals;
    std::vector<Flag> flags;
    bool all = false;
    bool time = false;
    std::string out = "artifacts";
    std::string format = "table";
    bool outSet = false;    ///< --out given explicitly.
    bool formatSet = false; ///< --format given explicitly.
};

ParsedArgs
parseArgs(const std::vector<std::string> &args, std::size_t first)
{
    ParsedArgs parsed;
    for (std::size_t i = first; i < args.size(); ++i) {
        const std::string &tok = args[i];
        if (tok.rfind("--", 0) != 0) {
            parsed.positionals.push_back(tok);
            continue;
        }
        if (tok == "--all") {
            parsed.all = true;
            continue;
        }
        if (tok == "--time") {
            parsed.time = true;
            continue;
        }
        std::string key = tok.substr(2), value;
        const auto eq = key.find('=');
        if (eq != std::string::npos) {
            value = key.substr(eq + 1);
            key = key.substr(0, eq);
        } else {
            if (i + 1 >= args.size())
                throw ConfigError("flag --" + key +
                                  " expects a value");
            value = args[++i];
        }
        if (key.empty())
            throw ConfigError("malformed flag '" + tok + "'");
        if (key == "out") {
            parsed.out = value;
            parsed.outSet = true;
        } else if (key == "format") {
            parsed.format = value;
            parsed.formatSet = true;
        } else {
            parsed.flags.push_back({key, value});
        }
    }
    return parsed;
}

std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

std::vector<const Experiment *>
selectExperiments(const ParsedArgs &parsed)
{
    auto &registry = ExperimentRegistry::instance();
    std::vector<std::string> patterns = parsed.positionals;
    if (parsed.all)
        patterns.push_back("*");
    if (patterns.empty())
        throw ConfigError(
            "no experiments selected (name one, use a glob, or pass "
            "--all; see 'rowpress list')");

    std::vector<const Experiment *> selected;
    for (const auto &pattern : patterns) {
        const auto matches = registry.match({pattern});
        if (matches.empty())
            throw ConfigError("no experiment matches '" + pattern +
                              "' (see 'rowpress list')");
        for (const Experiment *exp : matches) {
            bool dup = false;
            for (const Experiment *s : selected)
                dup = dup || s == exp;
            if (!dup)
                selected.push_back(exp);
        }
    }
    return selected;
}

/**
 * Peel every --cache-dir off @p flags.  Returns the snapshot-cache
 * directory of this process: the last --cache-dir, else RP_CACHE_DIR,
 * else "" (no cache).
 */
std::string
takeCacheDir(std::vector<Flag> &flags)
{
    std::string dir;
    if (const char *env = std::getenv("RP_CACHE_DIR"))
        dir = env;
    std::vector<Flag> rest;
    for (Flag &flag : flags) {
        if (flag.key == "cache-dir")
            dir = flag.value;
        else
            rest.push_back(std::move(flag));
    }
    flags = std::move(rest);
    return dir;
}

std::vector<std::pair<std::string, std::string>>
overlayOf(const std::vector<Flag> &flags)
{
    std::vector<std::pair<std::string, std::string>> overlay;
    overlay.reserve(flags.size());
    for (const Flag &flag : flags)
        overlay.emplace_back(flag.key, flag.value);
    return overlay;
}

int
cmdList(const std::vector<std::string> &args, std::ostream &out)
{
    const ParsedArgs parsed = parseArgs(args, 1);
    if (!parsed.flags.empty())
        throw ConfigError("list does not accept --" +
                          parsed.flags.front().key);
    if (parsed.outSet || parsed.time)
        throw ConfigError(std::string("list does not accept --") +
                          (parsed.outSet ? "out" : "time"));
    std::vector<std::string> patterns = parsed.positionals;
    if (patterns.empty() || parsed.all)
        patterns.push_back("*");

    if (parsed.format == "json") {
        // Machine-readable listing (ids, categories, and the full
        // option schema of every experiment) — the same document the
        // serve protocol's `list` verb returns.
        writeJson(out, experimentListJson(patterns), 2);
        out << "\n";
        return 0;
    }
    if (parsed.format != "table")
        throw ConfigError("list --format: expected table or json, got "
                          "'" + parsed.format + "'");

    Dataset table("Registered experiments");
    table.header({"id", "category", "title", "paper reference"});
    for (const Experiment *exp :
         ExperimentRegistry::instance().match(patterns))
        table.row({exp->info.id, exp->info.category, exp->info.title,
                   exp->info.paperRef});
    out << table.renderAscii();
    out << table.rows.size() << " experiment(s)\n";
    return 0;
}

/**
 * `rowpress run`: a thin in-process client of the Service — one job
 * per selected experiment, submitted and awaited in order, tables on
 * @p out.  Exactly the execution path `rowpress serve` uses, so run
 * and serve artifacts cannot diverge.
 */
int
cmdRun(const std::vector<std::string> &args, std::ostream &out,
       std::ostream &err)
{
    ParsedArgs parsed = parseArgs(args, 1);
    const auto selected = selectExperiments(parsed);
    const std::string cache_dir = takeCacheDir(parsed.flags);

    // Peel the job-policy flag off before the rest becomes the
    // config overlay: a deadline is service semantics, not an
    // experiment option, so no experiment schema declares it
    // (Service::submit range-checks it).
    int deadline_ms = 0;
    {
        std::vector<Flag> config_flags;
        for (const Flag &flag : parsed.flags) {
            if (flag.key == "deadline-ms")
                deadline_ms = parseInt32(flag.value, "--deadline-ms");
            else
                config_flags.push_back(flag);
        }
        parsed.flags = std::move(config_flags);
    }
    const auto overlay = overlayOf(parsed.flags);

    const std::vector<std::string> formats = splitList(parsed.format);
    if (formats.empty())
        throw ConfigError("--format: no formats in '" + parsed.format +
                          "'");

    // Validate every selected experiment's config up front, so a
    // flag one of them rejects fails the whole invocation before any
    // experiment has run.
    for (const Experiment *exp : selected)
        (void)Service::resolveConfig(*exp, overlay);

    // The cache is process state: armed (or, with "", disarmed) once,
    // before any job can acquire a store.
    persist::SnapshotCache::instance().configure(cache_dir);
    Service service(Service::Options{/*workers=*/1});
    double total_secs = 0.0;
    int threads = 0;
    for (const Experiment *exp : selected) {
        JobRequest request;
        request.experiment = exp->info.id;
        request.overlay = overlay;
        request.formats = formats;
        request.outDir = parsed.out;
        request.tableStream = &out;
        request.deadlineMs = deadline_ms;

        const JobStatus status = service.wait(service.submit(request));
        if (status.state == JobState::Failed) {
            if (status.configError) {
                err << "rowpress: " << status.error << "\n";
                return 2;
            }
            err << "rowpress: experiment '" << exp->info.id
                << "' failed: " << status.error << "\n";
            return 1;
        }
        if (status.state != JobState::Finished) {
            // Cancelled or deadline_exceeded: policy ended the run.
            err << "rowpress: experiment '" << exp->info.id << "' "
                << jobStateName(status.state) << "\n";
            return 1;
        }
        total_secs += status.elapsedMs / 1e3;
        threads = status.engineThreads;
        char line[160];
        if (parsed.time) {
            std::snprintf(line, sizeof(line), "elapsed: %.1f ms\n",
                          status.elapsedMs);
            out << line;
        }
        std::snprintf(line, sizeof(line),
                      "[rowpress] %s completed in %.2f s on %d engine "
                      "thread(s)\n\n",
                      exp->info.id.c_str(), status.elapsedMs / 1e3,
                      status.engineThreads);
        out << line;
    }
    if (parsed.time) {
        char line[160];
        std::snprintf(line, sizeof(line),
                      "[rowpress] total: %.2f s for %zu experiment(s) "
                      "on %d engine thread(s)\n",
                      total_secs, selected.size(), threads);
        out << line;
    }
    return 0;
}

/**
 * `rowpress cache`: offline maintenance of a snapshot cache
 * directory.  Every verb works on explicit paths (no Service, no
 * stores), so it is safe to run next to live serve processes: it
 * installs files under the cache's own publish lock and atomic
 * rename, and reads snapshot files whole, as the cache does.
 */
int
cmdCache(const std::vector<std::string> &args, std::ostream &out,
         std::ostream &err)
{
    ParsedArgs parsed = parseArgs(args, 1);
    if (parsed.positionals.empty())
        throw ConfigError(
            "cache: expected a verb (ls | gc | export | import)");
    const std::string &verb = parsed.positionals.front();
    const std::vector<std::string> operands(
        parsed.positionals.begin() + 1, parsed.positionals.end());
    if (parsed.all || parsed.time || parsed.outSet)
        throw ConfigError(std::string("cache does not accept --") +
                          (parsed.all    ? "all"
                           : parsed.time ? "time"
                                         : "out"));
    if (parsed.formatSet && verb != "ls")
        throw ConfigError("cache " + verb + " does not accept --format");

    const std::string dir = takeCacheDir(parsed.flags);
    long long max_bytes = -1;
    for (const Flag &flag : parsed.flags) {
        if (flag.key == "max-bytes" && verb == "gc") {
            max_bytes = parseInt(flag.value, "--max-bytes");
            if (max_bytes < 0)
                throw ConfigError("--max-bytes: must be >= 0");
        } else {
            throw ConfigError("cache " + verb +
                              " does not accept --" + flag.key);
        }
    }
    if (dir.empty())
        throw ConfigError("cache: no directory (pass --cache-dir or "
                          "set RP_CACHE_DIR)");

    if (verb == "ls") {
        if (!operands.empty())
            throw ConfigError("cache ls takes no arguments");
        const auto entries = persist::SnapshotCache::listDir(dir);
        if (parsed.format == "json") {
            JsonValue v = JsonValue::object();
            v.add("dir", JsonValue::string(dir));
            JsonValue list = JsonValue::array();
            for (const auto &e : entries) {
                JsonValue item = JsonValue::object();
                item.add("file", JsonValue::string(e.file));
                item.add("bytes", JsonValue::number((long long)e.bytes));
                item.add("valid", JsonValue::makeBool(e.info.valid));
                if (e.info.valid) {
                    item.add("die", JsonValue::string(e.info.dieId));
                    item.add("bits_per_row",
                             JsonValue::number(
                                 (long long)e.info.bitsPerRow));
                    item.add("seed",
                             JsonValue::number((long long)e.info.seed));
                    item.add("candidate_rows",
                             JsonValue::number(
                                 (long long)e.info.candidateRows));
                    item.add("word_mask_rows",
                             JsonValue::number(
                                 (long long)e.info.wordMaskRows));
                } else {
                    item.add("error", JsonValue::string(e.info.error));
                }
                list.push(std::move(item));
            }
            v.add("snapshots", std::move(list));
            writeJson(out, v, 2);
            out << "\n";
            return 0;
        }
        if (parsed.format != "table")
            throw ConfigError(
                "cache ls --format: expected table or json, got "
                "'" + parsed.format + "'");
        Dataset table("Snapshot cache " + dir);
        table.header({"file", "bytes", "status", "die", "bits",
                      "seed", "cand rows", "mask rows"});
        for (const auto &e : entries) {
            if (e.info.valid)
                table.row({e.file, std::to_string(e.bytes), "ok",
                           e.info.dieId,
                           std::to_string(e.info.bitsPerRow),
                           std::to_string(e.info.seed),
                           std::to_string(e.info.candidateRows),
                           std::to_string(e.info.wordMaskRows)});
            else
                table.row({e.file, std::to_string(e.bytes),
                           "invalid: " + e.info.error, "", "", "",
                           "", ""});
        }
        out << table.renderAscii();
        out << entries.size() << " snapshot(s)\n";
        return 0;
    }
    if (verb == "gc") {
        if (!operands.empty())
            throw ConfigError("cache gc takes no arguments");
        const auto result = persist::SnapshotCache::gcDir(
            dir, max_bytes < 0 ? std::uintmax_t(-1)
                               : std::uintmax_t(max_bytes));
        out << "removed " << result.removed << " file(s), "
            << result.removedBytes << " byte(s); kept "
            << result.keptBytes << " byte(s)\n";
        return 0;
    }
    if (verb == "export") {
        if (operands.size() != 1)
            throw ConfigError(
                "cache export: expected one destination directory");
        std::size_t installed = 0, skipped = 0;
        for (const auto &e : persist::SnapshotCache::listDir(dir)) {
            if (!e.info.valid) {
                err << "rowpress: cache export: skipping "
                    << e.file << " (" << e.info.error << ")\n";
                ++skipped;
                continue;
            }
            const std::string src =
                (std::filesystem::path(dir) / e.file).string();
            if (persist::SnapshotCache::installFile(src, operands.front()))
                ++installed;
            else
                ++skipped;
        }
        out << "exported " << installed << " snapshot(s) to "
            << operands.front() << " (" << skipped << " skipped)\n";
        return 0;
    }
    if (verb == "import") {
        if (operands.empty())
            throw ConfigError("cache import: expected snapshot file(s)");
        std::size_t installed = 0, skipped = 0;
        for (const std::string &src : operands) {
            if (persist::SnapshotCache::installFile(src, dir))
                ++installed;
            else
                ++skipped;
        }
        out << "imported " << installed << " snapshot(s) into "
            << dir << " (" << skipped << " already covered)\n";
        return 0;
    }
    throw ConfigError("cache: unknown verb '" + verb +
                      "' (ls | gc | export | import)");
}

int
cmdServe(const std::vector<std::string> &args, std::ostream &out)
{
    ParsedArgs parsed = parseArgs(args, 1);
    if (!parsed.positionals.empty())
        throw ConfigError(
            "serve takes no experiment arguments (submit jobs over "
            "the protocol instead)");
    // The run-mode flags parseArgs absorbs generically are not serve
    // options — rejecting them beats silently writing artifacts
    // somewhere other than where the user asked.
    if (parsed.outSet || parsed.formatSet)
        throw ConfigError("serve does not accept --out/--format; each "
                          "job carries its own \"out\"/\"formats\"");
    if (parsed.time || parsed.all)
        throw ConfigError(std::string("serve does not accept --") +
                          (parsed.time ? "time" : "all"));
    const std::string cache_dir = takeCacheDir(parsed.flags);
    int jobs = 2;
    std::size_t queue_max = 64;
    int grace_ms = 5000;
    for (const Flag &flag : parsed.flags) {
        if (flag.key == "jobs") {
            // Each job slot is a scheduler thread, started before
            // the first request is read.
            jobs = parseInt32(flag.value, "--jobs");
            if (jobs < 1)
                throw ConfigError("--jobs: must be >= 1");
            if (jobs > kMaxThreads)
                throw ConfigError("--jobs: value " + std::to_string(jobs) +
                                  " is above the maximum of " +
                                  std::to_string(kMaxThreads));
        } else if (flag.key == "queue-max") {
            const long long v = parseInt(flag.value, "--queue-max");
            if (v < 0)
                throw ConfigError("--queue-max: must be >= 0");
            queue_max = std::size_t(v);
        } else if (flag.key == "grace-ms") {
            grace_ms = parseInt32(flag.value, "--grace-ms");
            if (grace_ms < 0)
                throw ConfigError("--grace-ms: must be >= 0");
        } else {
            throw ConfigError("serve does not accept --" + flag.key);
        }
    }

    persist::SnapshotCache::instance().configure(cache_dir);
    // A client that stops reading (e.g. `... | rowpress serve |
    // head`) must surface as a stream error, not kill the server
    // mid-job by the default SIGPIPE action.
    std::signal(SIGPIPE, SIG_IGN);
    Service service(Service::Options{jobs, queue_max});
    return serveFd(service, /*in_fd=*/0, out, grace_ms);
}

} // namespace

int
runCli(const std::vector<std::string> &args, std::ostream &out,
       std::ostream &err)
{
    try {
        // Chaos drills set RP_FAULT_POINTS before spawning the CLI;
        // a production process (no env) leaves the injector disarmed
        // and every fault point a single relaxed load.
        core::FaultInjector::instance().armFromEnv();
        if (args.empty() || args[0] == "help" || args[0] == "--help" ||
            args[0] == "-h") {
            out << kUsage;
            return args.empty() ? 2 : 0;
        }
        if (args[0] == "list")
            return cmdList(args, out);
        if (args[0] == "run")
            return cmdRun(args, out, err);
        if (args[0] == "serve")
            return cmdServe(args, out);
        if (args[0] == "cache")
            return cmdCache(args, out, err);
        err << "rowpress: unknown command '" << args[0] << "'\n\n"
            << kUsage;
        return 2;
    } catch (const ConfigError &e) {
        err << "rowpress: " << e.what() << "\n";
        return 2;
    } catch (const persist::CacheError &e) {
        // An unusable cache directory or a rejected import: a user
        // error, so the same exit code as any other bad flag.
        err << "rowpress: " << e.what() << "\n";
        return 2;
    } catch (const std::exception &e) {
        err << "rowpress: " << e.what() << "\n";
        return 1;
    }
}

int
cliMain(int argc, char **argv)
{
    std::vector<std::string> args;
    for (int i = 1; i < argc; ++i)
        args.emplace_back(argv[i]);
    return runCli(args, std::cout, std::cerr);
}

} // namespace rp::api
