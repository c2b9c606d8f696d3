/**
 * @file
 * Deterministic fault injection for the serve/robustness stack.
 *
 * Real serving failures — a worker thread throwing mid-job, a sink
 * that cannot render, a snapshot cache that cannot be written — are
 * rare and timing-dependent, which makes the code paths that handle
 * them the least-tested code in the system.  The FaultInjector turns
 * them into ordinary ctest suites:
 * production code is instrumented with *named fault points*
 * (`faultPoint("sink.render")`), which cost one relaxed atomic load
 * when the injector is disarmed (the production state) and, when
 * armed, consult a deterministic plan of where to throw.
 *
 * Determinism contract: a fault plan is a pure function of
 * (point name, per-point hit index).  The hit index is a per-point
 * counter, so "fire on the 3rd hit of service.worker.pre_dispatch"
 * reproduces exactly whenever the schedule of hits at that point is
 * itself deterministic (one job in flight, or a fault that fires on
 * every hit), and two points never perturb each other's decisions.
 *
 * One fault kind: a firing point throws InjectedFault, which fails
 * the job it hits (or, at the snapshot-cache points, degrades to a
 * cold build or a skipped publish).
 *
 * Arming: programmatic (tests call `arm(specs)`) or from the
 * environment — `RP_FAULT_POINTS`, a comma list of
 * `point=throw[@skip][xcount]`, e.g.
 *
 *   RP_FAULT_POINTS='service.worker.pre_dispatch=throw x1,
 *                    persist.snapshot.write=throw@2'
 *
 * Point names are validated against a fixed registry (knownPoints),
 * so a typo'd point errors instead of silently injecting nothing.
 */

#ifndef ROWPRESS_CORE_FAULT_H
#define ROWPRESS_CORE_FAULT_H

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/thread_annotations.h"

namespace rp::core {

/** Thrown by a firing fault point; the message names it. */
class InjectedFault : public std::runtime_error
{
  public:
    explicit InjectedFault(const std::string &point)
        : std::runtime_error("injected fault at " + point)
    {
    }
};

/** Where and when to throw at one named point. */
struct FaultSpec
{
    std::string point;       ///< Must name a registered point.
    int skip = 0;            ///< Ignore the first N hits of the point.
    int count = -1;          ///< Fire at most N times (-1 = always).
};

/**
 * Process-wide injector.  Disarmed by default; `faultPoint()` is the
 * only call production code makes and costs one relaxed atomic load
 * until something arms a plan.
 */
class FaultInjector
{
  public:
    static FaultInjector &instance();

    /**
     * The fixed registry of instrumented points.  arm() validates
     * every spec against it; the serve documentation lists it.
     */
    static const std::vector<std::string> &knownPoints();

    /**
     * Install a plan (replacing any previous one) and arm.  Throws
     * std::invalid_argument for an unregistered point name or a
     * negative skip.
     */
    void arm(std::vector<FaultSpec> specs);

    /**
     * Arm from `RP_FAULT_POINTS`.  A missing/empty value leaves the
     * injector disarmed.  Spec grammar per comma-separated entry
     * (whitespace ignored):
     *   point=throw[@skip][xcount]
     * Throws std::invalid_argument on malformed input.
     */
    void armFromEnv();

    /** Drop the plan and reset every per-point counter. */
    void disarm();

    bool armed() const
    {
        return armed_.load(std::memory_order_relaxed);
    }

    /** Hit/fire counters per instrumented point (test assertions). */
    struct PointStats
    {
        std::string point;
        std::uint64_t hits = 0;
        std::uint64_t fires = 0;
    };
    std::vector<PointStats> stats() const;

    /**
     * Slow path behind faultPoint(): record a hit at @p point and
     * apply the armed plan; throws InjectedFault when a spec fires.
     */
    void onHit(const char *point);

  private:
    FaultInjector();

    /** One armed spec plus how often it has fired. */
    struct ArmedSpec
    {
        FaultSpec spec;
        std::uint64_t fired = 0;
    };

    /** Per-registered-point runtime state. */
    struct PointState
    {
        std::string name;
        std::uint64_t hits = 0;
        std::uint64_t fires = 0;
        std::vector<ArmedSpec> specs;
    };

    PointState *findPoint(const std::string &name)
        RP_REQUIRES(mutex_);

    mutable Mutex mutex_;      ///< Guards plan swaps + counters.
    std::vector<PointState> points_ RP_GUARDED_BY(mutex_);
    std::atomic<bool> armed_{false}; ///< Lock-free fast-path gate.
};

/**
 * THE instrumentation call: returns when disarmed or when no fault
 * fires, and throws InjectedFault when one does.
 */
inline void
faultPoint(const char *point)
{
    FaultInjector &fi = FaultInjector::instance();
    if (fi.armed())
        fi.onHit(point);
}

} // namespace rp::core

#endif // ROWPRESS_CORE_FAULT_H
