/**
 * @file
 * The `rowpress serve` wire protocol: line-delimited JSON over
 * stdin/stdout.
 *
 * Requests are one JSON object per line with an "op" member:
 *
 *   {"op":"submit","experiment":"fig06","config":{"temp":"65"},
 *    "formats":["csv","json"],"out":"artifacts/job1"}
 *   {"op":"status"}            {"op":"status","job":3}
 *   {"op":"wait","job":3}      {"op":"wait","job":3,"timeout_ms":500}
 *   {"op":"list","glob":"fig*"}
 *   {"op":"cancel","job":3}
 *   {"op":"cache"}             {"op":"cache","evict":true}
 *   {"op":"shutdown"}          {"op":"shutdown","force":true}
 *
 * Every request gets exactly one single-line response object with
 * "ok" (and "error" when false); an optional "tag" member is echoed
 * verbatim for client-side correlation.  Job lifecycle is streamed
 * asynchronously as event lines ({"event":"queued"|"started"|
 * "progress"|"dataset"|"note"|"artifact"|"finished",...})
 * interleaved between responses; lines are atomic, so a
 * line-oriented client never sees a torn message.  Messages are
 * api/json.h JsonValues.
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

/**
 * `rowpress serve`: serveSession over the file descriptor @p in_fd
 * (stdin), supervised by SIGTERM/SIGINT.  A signal wakes the request
 * reader at once, whichever thread received it; serveFd then stops
 * reading, gives in-flight jobs @p grace_ms, cancels whatever
 * remains, and writes every queued event line.  The caller's handlers
 * are restored as soon as reading stops, so a second signal acts as
 * it would without serve.  A `wait` request in progress is answered
 * (after at most its timeout_ms) before the drain starts.
 *
 * Returns the process exit code: 0 or 1 as serveSession does after
 * EOF or a shutdown op; after a signal, 3 when in-flight jobs drained
 * within @p grace_ms, 4 when the grace expired and the rest were
 * cancelled.
 */
int serveFd(Service &service, int in_fd, std::ostream &out,
            int grace_ms);

} // namespace rp::api

#endif // ROWPRESS_API_PROTOCOL_H
