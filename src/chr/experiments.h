/**
 * @file
 * Characterization experiment drivers (paper sections 4 and 5).
 *
 * A Module wraps one simulated DIMM (platform + the set of tested row
 * locations); the free functions below run the paper's experiments
 * over it and return structured results that the bench binaries format
 * into the corresponding tables/figures.
 */

#ifndef ROWPRESS_CHR_EXPERIMENTS_H
#define ROWPRESS_CHR_EXPERIMENTS_H

#include <memory>
#include <vector>

#include "chr/acmin.h"
#include "chr/patterns.h"
#include "common/stats.h"
#include "core/engine.h"

namespace rp::chr {

/** Construction parameters of a module under test. */
struct ModuleConfig
{
    device::DieConfig die;
    int numLocations = 32;      ///< Tested aggressor locations.
    int bank = 1;               ///< Paper: bank 1.
    double temperatureC = 50.0;
    std::uint64_t seed = 1;
    int rowStride = 16;         ///< Spacing between tested locations.
    int firstRow = 64;
};

/** Tested base rows implied by a module configuration. */
std::vector<int> baseRowsOf(const ModuleConfig &cfg);

/**
 * Largest numLocations for which every layout of @p cfg's locations
 * fits the bank: the last base row plus the farthest row a layout
 * reaches (base + 5, double-sided) stays below
 * dram::Organization{}.rows.
 */
int maxLocations(const ModuleConfig &cfg = {});

/**
 * Copy of @p cfg that tests only the single location @p row.  The
 * engine-parallel drivers below run every grid cell (one location at
 * one search point) as its own task on a fresh Module built from such
 * a config, so each task is a pure function of (config, row,
 * experiment parameters) — independent of scheduling and thread
 * count.
 */
ModuleConfig locationConfig(const ModuleConfig &cfg, int row);

/** One simulated DIMM under characterization. */
class Module
{
  public:
    explicit Module(const ModuleConfig &cfg);

    bender::TestPlatform &platform() { return *platform_; }
    const bender::TestPlatform &platform() const { return *platform_; }
    const ModuleConfig &config() const { return cfg_; }
    const device::DieConfig &die() const { return cfg_.die; }

    /** Base rows of the tested locations. */
    const std::vector<int> &baseRows() const { return baseRows_; }

    void setTemperature(double c) { platform_->setTemperature(c); }

  private:
    ModuleConfig cfg_;
    std::unique_ptr<bender::TestPlatform> platform_;
    std::vector<int> baseRows_;
};

/** The tAggON values swept by the characterization (paper x-axes). */
const std::vector<Time> &standardTAggOnSweep();

/** The representative tAggON subset of the data-pattern study. */
const std::vector<Time> &dataPatternTAggOnSweep();

/** Per-location outcome of an ACmin search. */
struct LocationResult
{
    int row = 0;
    bool flipped = false;
    std::uint64_t acmin = 0;
    std::vector<VictimFlip> flips; ///< Flips at the reported ACmin.
};

/** All locations of a module at one (tAggON, pattern) point. */
struct SweepPoint
{
    Time tAggOn = 0;
    std::vector<LocationResult> locations;

    /** Box summary of ACmin over locations that flipped. */
    BoxSummary acminSummary() const;
    /** Fraction of tested locations with at least one flip. */
    double fractionFlipped() const;
    /** Fraction of observed flips whose direction is 1 -> 0. */
    double fractionOneToZero() const;
    /** Mean ACmin over flipped locations (0 if none). */
    double meanAcmin() const;
};

/**
 * ACmin search for one location (the per-location task body), from
 * the module's current state.
 */
LocationResult acminAtLocation(Module &module, int row, Time t_agg_on,
                               AccessKind kind, DataPattern pattern,
                               const SearchConfig &cfg);

/**
 * ACmin at one tAggON for every tested location, one search after
 * another on the module's platform: each starts from the state the
 * previous one left.
 */
SweepPoint acminPoint(Module &module, Time t_agg_on, AccessKind kind,
                      DataPattern pattern = DataPattern::CheckerBoard,
                      const SearchConfig &cfg = {});

/**
 * Engine-parallel form: one task per location, each on a fresh
 * single-location Module (see locationConfig).
 */
SweepPoint acminPoint(const ModuleConfig &mc,
                      core::ExperimentEngine &engine, Time t_agg_on,
                      AccessKind kind,
                      DataPattern pattern = DataPattern::CheckerBoard,
                      const SearchConfig &cfg = {});

/** Full ACmin-vs-tAggON sweep (Figs. 6, 8, 12, 13, 14, 17). */
std::vector<SweepPoint>
acminSweep(Module &module, const std::vector<Time> &t_agg_ons,
           AccessKind kind,
           DataPattern pattern = DataPattern::CheckerBoard,
           const SearchConfig &cfg = {});

/**
 * Engine-parallel sweep: one task per (tAggON, location) cell,
 * indexed point-major (point x locations + location), each search on
 * a fresh single-location Module, so the task set scales with the
 * grid rather than the location count.
 */
std::vector<SweepPoint>
acminSweep(const ModuleConfig &mc, core::ExperimentEngine &engine,
           const std::vector<Time> &t_agg_ons, AccessKind kind,
           DataPattern pattern = DataPattern::CheckerBoard,
           const SearchConfig &cfg = {});

/** Per-location tAggONmin at a fixed activation count (Figs. 9, 15). */
struct TAggOnMinPoint
{
    std::uint64_t acts = 0;
    std::vector<std::pair<int, TAggOnMinResult>> locations;

    BoxSummary summary() const;   ///< Over flipped locations (us).
};

TAggOnMinPoint tAggOnMinPoint(Module &module, std::uint64_t acts,
                              AccessKind kind,
                              DataPattern pattern =
                                  DataPattern::CheckerBoard,
                              const SearchConfig &cfg = {});

/**
 * Engine-parallel form: one task per tested location, each on a fresh
 * single-location Module.
 */
TAggOnMinPoint tAggOnMinPoint(const ModuleConfig &mc,
                              core::ExperimentEngine &engine,
                              std::uint64_t acts, AccessKind kind,
                              DataPattern pattern =
                                  DataPattern::CheckerBoard,
                              const SearchConfig &cfg = {});

/**
 * Retention-failure test: fill the victim rows, disable refresh for
 * @p seconds at @p temp_c, and report the failed cells (paper
 * footnote 12 methodology).
 */
std::vector<VictimFlip> retentionFailures(Module &module, double seconds,
                                          double temp_c);

/**
 * BER of the ONOFF pattern at maximum activation count (Fig. 22):
 * returns the highest per-victim-row bit error rate over
 * @p repeats attempts.
 */
double onOffBer(Module &module, int location_idx, AccessKind kind,
                Time delta_a2a, double on_fraction, int repeats = 3);

/**
 * Max-activation-count press attempt (used by BER/ECC experiments);
 * full-scan inspection of all victim rows.
 */
AttemptResult maxActivationAttempt(Module &module, int location_idx,
                                   AccessKind kind, DataPattern pattern,
                                   Time t_agg_on);

/**
 * Engine-parallel max-activation attempts over @p rows (one result
 * per row, in order).  One task per (victim, location) cell, indexed
 * victim-major: each replays the (cheap, fast-forwarded) attempt
 * program on a fresh single-location Module and full-scans its one
 * victim row.  Rows materialize independently, so a location's cells
 * concatenated in victim order are bit-identical to the serial
 * per-location scan (maxActivationAttempt).
 */
std::vector<AttemptResult>
maxActivationAttempts(const ModuleConfig &mc,
                      core::ExperimentEngine &engine,
                      const std::vector<int> &rows, AccessKind kind,
                      DataPattern pattern, Time t_agg_on);

/** Bits per victim row of a module (BER denominators). */
int bitsPerRow(const Module &module);

} // namespace rp::chr

#endif // ROWPRESS_CHR_EXPERIMENTS_H
