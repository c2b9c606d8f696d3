#include "core/fault.h"

#include <cstdlib>

namespace rp::core {

namespace {

std::string
trim(const std::string &s)
{
    const auto b = s.find_first_not_of(" \t\n\r");
    if (b == std::string::npos)
        return "";
    const auto e = s.find_last_not_of(" \t\n\r");
    return s.substr(b, e - b + 1);
}

/** The argument of an `xcount` / `@skip` suffix: 1 to 9 digits. */
int
parseSuffix(const std::string &arg, const std::string &what)
{
    if (arg.empty() || arg.size() > 9 ||
        arg.find_first_not_of("0123456789") != std::string::npos)
        throw std::invalid_argument("RP_FAULT_POINTS: bad " + what +
                                    " '" + arg + "'");
    return std::stoi(arg);
}

} // namespace

const std::vector<std::string> &
FaultInjector::knownPoints()
{
    // THE registry.  Adding an instrumented site means adding its
    // name here; arm() rejects anything else, so a typo in a test or
    // RP_FAULT_POINTS fails loudly instead of injecting nothing.
    static const std::vector<std::string> points = {
        "core.engine.task",           // before each engine task runs
        "service.worker.pre_dispatch",// job start, before Started
        "sink.render",                // per-sink event delivery
        "persist.snapshot.read",      // warm-start snapshot loads
        "persist.snapshot.write",     // snapshot cache publication
    };
    return points;
}

FaultInjector::FaultInjector()
{
    points_.reserve(knownPoints().size());
    for (const std::string &name : knownPoints())
        points_.push_back(PointState{name, 0, 0, {}});
}

FaultInjector &
FaultInjector::instance()
{
    static FaultInjector injector;
    return injector;
}

FaultInjector::PointState *
FaultInjector::findPoint(const std::string &name)
{
    for (PointState &p : points_)
        if (p.name == name)
            return &p;
    return nullptr;
}

void
FaultInjector::arm(std::vector<FaultSpec> specs)
{
    LockGuard lock(mutex_);
    for (PointState &p : points_) {
        p.hits = 0;
        p.fires = 0;
        p.specs.clear();
    }
    for (FaultSpec &spec : specs) {
        PointState *point = findPoint(spec.point);
        if (!point)
            throw std::invalid_argument(
                "fault point '" + spec.point +
                "' is not registered (see "
                "core::FaultInjector::knownPoints)");
        if (spec.skip < 0)
            throw std::invalid_argument(
                "fault spec for '" + spec.point +
                "': skip must be >= 0");
        point->specs.push_back(ArmedSpec{std::move(spec), 0});
    }
    armed_.store(true, std::memory_order_release);
}

void
FaultInjector::armFromEnv()
{
    // getenv is read-only here and armFromEnv runs from main() before
    // any worker thread exists, so the mt-unsafe concern doesn't apply.
    const char *points_env =
        std::getenv("RP_FAULT_POINTS"); // NOLINT(concurrency-mt-unsafe): startup-only, pre-thread
    if (!points_env || trim(points_env).empty())
        return;

    std::vector<FaultSpec> specs;
    std::string rest = points_env;
    while (!rest.empty()) {
        const auto comma = rest.find(',');
        std::string entry = trim(rest.substr(0, comma));
        rest = comma == std::string::npos ? "" : rest.substr(comma + 1);
        if (entry.empty())
            continue;

        const auto eq = entry.find('=');
        if (eq == std::string::npos)
            throw std::invalid_argument(
                "RP_FAULT_POINTS: entry '" + entry +
                "' is not point=throw[...]");
        FaultSpec spec;
        spec.point = trim(entry.substr(0, eq));
        std::string body = trim(entry.substr(eq + 1));

        // Peel the optional suffixes xcount and @skip, in either
        // order: the rightmost mark is always the next suffix, since
        // the kind (throw) contains neither.
        for (auto at = body.find_last_of("x@");
             at != std::string::npos && at != 0;
             at = body.find_last_of("x@")) {
            const bool count = body[at] == 'x';
            (count ? spec.count : spec.skip) = parseSuffix(
                trim(body.substr(at + 1)), count ? "count" : "skip");
            body = trim(body.substr(0, at));
        }

        if (body != "throw")
            throw std::invalid_argument(
                "RP_FAULT_POINTS: unknown kind '" + body +
                "' (the only kind is throw)");
        specs.push_back(std::move(spec));
    }
    if (!specs.empty())
        arm(std::move(specs));
}

void
FaultInjector::disarm()
{
    LockGuard lock(mutex_);
    armed_.store(false, std::memory_order_release);
    for (PointState &p : points_) {
        p.hits = 0;
        p.fires = 0;
        p.specs.clear();
    }
}

std::vector<FaultInjector::PointStats>
FaultInjector::stats() const
{
    LockGuard lock(mutex_);
    std::vector<PointStats> out;
    out.reserve(points_.size());
    for (const PointState &p : points_)
        out.push_back(PointStats{p.name, p.hits, p.fires});
    return out;
}

void
FaultInjector::onHit(const char *point)
{
    // Decide under the lock (counters + plan), throw outside it: the
    // throw must not unwind with the mutex held.
    bool fire = false;
    {
        LockGuard lock(mutex_);
        if (!armed_.load(std::memory_order_relaxed))
            return;
        PointState *state = findPoint(point);
        if (!state)
            return; // unregistered call site: never inject
        const std::uint64_t hit = state->hits++;
        for (ArmedSpec &armed : state->specs) {
            const FaultSpec &spec = armed.spec;
            if (hit < std::uint64_t(spec.skip))
                continue;
            if (spec.count >= 0 &&
                armed.fired >= std::uint64_t(spec.count))
                continue;
            ++armed.fired;
            ++state->fires;
            fire = true;
            break;
        }
    }
    if (fire)
        throw InjectedFault(point);
}

} // namespace rp::core
