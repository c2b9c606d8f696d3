/**
 * @file
 * ExperimentContext: everything a registered experiment's emit
 * function needs, bundled — its validated Config, the job's
 * core::ExperimentEngine, the root seed, and the job-event emitter
 * that carries every emitted result to the attached output backends.
 *
 * The context also centralizes the helpers the old per-figure
 * binaries each re-implemented (die-set selection, ModuleConfig
 * construction, effort scaling) and the emission wrappers that route
 * the chr/export tidy-CSV writers into the CSV sink.
 */

#ifndef ROWPRESS_API_CONTEXT_H
#define ROWPRESS_API_CONTEXT_H

#include <string>
#include <vector>

#include "api/config.h"
#include "api/dataset.h"
#include "api/job.h"
#include "api/registry.h"
#include "chr/experiments.h"
#include "chr/overlap.h"
#include "core/engine.h"
#include "device/die_config.h"

namespace rp::api {

/**
 * The ceiling of --threads (a job's engine threads) and of serve's
 * --jobs (its scheduler threads).
 */
constexpr int kMaxThreads = 256;

/**
 * The base options every experiment accepts (--locations, --dies,
 * --seed, --threads, --scale; --temp is per-experiment).
 */
ConfigSchema baseSchema();

class ExperimentContext
{
  public:
    /**
     * @p emit receives every result the experiment produces as a
     * typed JobEvent (Dataset / Note / RawCsv) — the Service stamps
     * the job identity and fans the stream out to the attached
     * ResultSinks and protocol observers.  The context never talks
     * to a sink directly; the event stream is the one output path.
     */
    ExperimentContext(ExperimentInfo info, Config config,
                      core::ExperimentEngine &engine,
                      JobEventEmitter emit);

    const ExperimentInfo &info() const { return info_; }
    Config &config() { return config_; }
    const Config &config() const { return config_; }
    core::ExperimentEngine &engine() { return engine_; }

    // ---- configuration conveniences ---------------------------------

    /** Tested locations per module (--locations). */
    int locations() const;

    /** Effort multiplier for the heavy experiments (--scale). */
    double scale() const;

    /** Root seed of module construction (--seed). */
    std::uint64_t seed() const;

    /**
     * Die set from the resolved "dies" option (--dies): "default" ->
     * the three representative manufacturers, "all" -> all twelve
     * revisions, otherwise a comma-separated list of die ids.
     */
    std::vector<device::DieConfig> dies() const;

    /**
     * Same, but with an experiment-specific default set (used by the
     * figures that compare die revisions); any "dies" value other
     * than "default" overrides it.
     */
    std::vector<device::DieConfig>
    dies(const std::vector<device::DieConfig> &dflt) const;

    /**
     * True when the resolved "dies" option is "all" — the switch the
     * figures with an extra all-dies variant key their extended
     * sweeps on.
     */
    bool allDiesSelected() const;

    /** ModuleConfig for (@p die, @p temp_c) honouring --locations/--seed. */
    chr::ModuleConfig moduleConfig(const device::DieConfig &die,
                                   double temp_c) const;

    // ---- result emission --------------------------------------------

    void emit(const Dataset &d);
    void note(const std::string &text);
    void notef(const char *fmt, ...)
#if defined(__GNUC__)
        __attribute__((format(printf, 2, 3)))
#endif
        ;
    void rawCsv(const std::string &name,
                const std::function<void(std::ostream &)> &writer);

    /** Tidy ACmin sweep artifact via chr::writeAcminSweepCsv. */
    void emitAcminSweepRaw(const std::string &name,
                           const std::string &die_id, double temp_c,
                           chr::AccessKind kind, chr::DataPattern pattern,
                           const std::vector<chr::SweepPoint> &sweep);

    /** Tidy tAggONmin artifact via chr::writeTAggOnMinCsv. */
    void emitTAggOnMinRaw(const std::string &name,
                          const std::string &die_id, double temp_c,
                          const std::vector<chr::TAggOnMinPoint> &points);

    /** Tidy overlap artifact via chr::writeOverlapCsv. */
    void emitOverlapRaw(const std::string &name,
                        const std::string &die_id,
                        const std::vector<chr::OverlapResult> &results);

  private:
    ExperimentInfo info_;
    Config config_;
    core::ExperimentEngine &engine_;
    JobEventEmitter emit_;
};

} // namespace rp::api

#endif // ROWPRESS_API_CONTEXT_H
