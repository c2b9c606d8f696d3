#include "core/fault.h"

#include <cstdlib>

#include "common/rng.h"

namespace rp::core {

namespace {

/** FNV-1a over the point name: a stable per-point hash input. */
std::uint64_t
pointHash(const std::string &name)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : name) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
trim(const std::string &s)
{
    const auto b = s.find_first_not_of(" \t\n\r");
    if (b == std::string::npos)
        return "";
    const auto e = s.find_last_not_of(" \t\n\r");
    return s.substr(b, e - b + 1);
}

long long
parsePlanInt(const std::string &text, const std::string &what)
{
    std::size_t used = 0;
    long long v = 0;
    try {
        v = std::stoll(text, &used);
    } catch (const std::exception &) {
        used = std::string::npos;
    }
    if (used != text.size() || text.empty())
        throw std::invalid_argument("RP_FAULT_POINTS: " + what +
                                    ": bad integer '" + text + "'");
    return v;
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
FaultInjector::arm(std::uint64_t seed, std::vector<FaultSpec> specs)
{
    LockGuard lock(mutex_);
    for (PointState &p : points_) {
        p.hits = 0;
        p.fires = 0;
        p.specs.clear();
    }
    seed_ = seed;
    for (FaultSpec &spec : specs) {
        PointState *point = findPoint(spec.point);
        if (!point)
            throw std::invalid_argument(
                "fault point '" + spec.point +
                "' is not registered (see "
                "core::FaultInjector::knownPoints)");
        if (spec.probability <= 0.0 || spec.probability > 1.0)
            throw std::invalid_argument(
                "fault spec for '" + spec.point +
                "': probability must be in (0, 1]");
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

    std::uint64_t seed = 1;
    if (const char *seed_env =
            std::getenv("RP_FAULT_SEED")) // NOLINT(concurrency-mt-unsafe): startup-only, pre-thread
        seed = std::uint64_t(
            parsePlanInt(trim(seed_env), "RP_FAULT_SEED"));

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

        // Peel the optional suffixes ~prob, xcount, @skip from the
        // right (order-independent grammar, applied right-to-left).
        for (bool peeled = true; peeled;) {
            peeled = false;
            for (const char mark : {'~', 'x', '@'}) {
                const auto at = body.find_last_of(mark);
                if (at == std::string::npos || at == 0)
                    continue;
                // 'x' also appears in no suffix context; only treat
                // it as a suffix when what follows parses as its arg.
                const std::string arg = trim(body.substr(at + 1));
                if (mark == '~') {
                    char *end = nullptr;
                    const double p =
                        std::strtod(arg.c_str(), &end);
                    if (!end || *end != '\0' || arg.empty())
                        throw std::invalid_argument(
                            "RP_FAULT_POINTS: bad probability '" +
                            arg + "'");
                    spec.probability = p;
                } else {
                    bool numeric = !arg.empty();
                    for (char c : arg)
                        numeric = numeric && c >= '0' && c <= '9';
                    if (!numeric) {
                        if (mark == '@')
                            throw std::invalid_argument(
                                "RP_FAULT_POINTS: bad skip '" + arg +
                                "'");
                        continue; // an 'x' inside the kind body
                    }
                    const long long v = parsePlanInt(
                        arg, mark == 'x' ? "count" : "skip");
                    if (mark == 'x')
                        spec.count = int(v);
                    else
                        spec.skip = int(v);
                }
                body = trim(body.substr(0, at));
                peeled = true;
                break;
            }
        }

        if (body != "throw")
            throw std::invalid_argument(
                "RP_FAULT_POINTS: unknown kind '" + body +
                "' (the only kind is throw)");
        specs.push_back(std::move(spec));
    }
    if (!specs.empty())
        arm(seed, std::move(specs));
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
            if (spec.probability < 1.0) {
                // Pure function of (seed, point, hit): replayable,
                // independent across points.
                const std::uint64_t h = hashU64(
                    seed_, pointHash(spec.point), hit);
                const double u =
                    double(h >> 11) * (1.0 / 9007199254740992.0);
                if (u >= spec.probability)
                    continue;
            }
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
