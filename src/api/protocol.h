/**
 * @file
 * The `rowpress serve` wire protocol: line-delimited JSON over
 * stdin/stdout (and, optionally, a TCP socket).
 *
 * Requests are one JSON object per line with an "op" member:
 *
 *   {"op":"submit","experiment":"fig06","config":{"temp":"65"},
 *    "formats":["csv","json"],"out":"artifacts/job1"}
 *   {"op":"status"}            {"op":"status","job":3}
 *   {"op":"list","glob":"fig*"}
 *   {"op":"cancel","job":3}
 *   {"op":"cache"}             {"op":"cache","evict":true}
 *   {"op":"shutdown"}          {"op":"shutdown","force":true}
 *
 * Every request gets exactly one single-line response object with
 * "ok" (and "error" when false); an optional "tag" member is echoed
 * verbatim for client-side correlation.  Job lifecycle is streamed
 * asynchronously as event lines ({"event":"queued"|"started"|
 * "progress"|"dataset"|"note"|"artifact"|"finished",...}) interleaved
 * between responses; lines are atomic, so a line-oriented client
 * never sees a torn message.  Messages are api/json.h JsonValues.
 */

#ifndef ROWPRESS_API_PROTOCOL_H
#define ROWPRESS_API_PROTOCOL_H

#include <iosfwd>
#include <string>
#include <vector>

#include "api/job.h"
#include "api/json.h"

namespace rp::api {

class Service;

/**
 * Machine-readable experiment/option listing: every registered
 * experiment matching any of @p patterns (globs), with its full
 * option schema (base + declared).  Shared by `rowpress list
 * --format json` and the serve protocol's `list` verb.
 */
JsonValue experimentListJson(const std::vector<std::string> &patterns);

/** The event line for @p event (no trailing newline). */
std::string jobEventLine(const JobEvent &event);

/**
 * Run one protocol session: read request lines from @p in until EOF
 * or a shutdown request, writing responses and the job-event stream
 * to @p out.  EOF and plain shutdown drain in-flight jobs before
 * returning (so `printf ... | rowpress serve` runs everything);
 * {"op":"shutdown","force":true} cancels instead.  Returns the
 * process exit code (0, or 1 after an I/O failure on @p out).
 */
int serveSession(Service &service, std::istream &in, std::ostream &out);

/** Supervision knobs of the TCP front-end (`rowpress serve` flags). */
struct ServeOptions
{
    /** Listen port on 127.0.0.1. */
    int port = 0;

    /**
     * Per-session cap on jobs submitted and not yet terminal; a
     * submit past it is rejected with AdmissionError
     * ("session_limit").  0 = uncapped.  Bounds what one client can
     * pin in the service regardless of the global queue bound.
     */
    int sessionMaxInflight = 8;

    /**
     * Disconnect a session whose client sends nothing for this long
     * (its in-flight jobs keep running; only the event stream ends).
     * 0 = never.
     */
    int idleTimeoutMs = 0;

    /**
     * SIGTERM/SIGINT drain budget: the server stops accepting, sheds
     * new submissions, and gives in-flight jobs this long to finish
     * before cancelling whatever remains.
     */
    int graceMs = 5000;
};

/**
 * Serve over TCP: accept connections on 127.0.0.1:opts.port, one
 * concurrent protocol session per connection, each on its own thread
 * with its own client id (a session streams only its own jobs'
 * events).  The Service outlives sessions, so warm caches and job
 * history persist across them.  accept() fd exhaustion (EMFILE/
 * ENFILE/ENOBUFS) retries with bounded backoff instead of exiting.
 *
 * Returns the process exit code:
 *   0 — a client's shutdown op drained the service cleanly;
 *   1 — unrecoverable socket/accept failure;
 *   3 — SIGTERM/SIGINT, and in-flight jobs drained within graceMs;
 *   4 — SIGTERM/SIGINT, and the grace expired (remaining jobs were
 *       cancelled).
 *
 * Only built on POSIX; throws ConfigError elsewhere or when the port
 * cannot be bound.
 */
int serveTcp(Service &service, const ServeOptions &opts,
             std::ostream &log);

} // namespace rp::api

#endif // ROWPRESS_API_PROTOCOL_H
