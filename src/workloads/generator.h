/**
 * @file
 * Synthetic workload trace generation.
 *
 * Substitution: the paper evaluates its mitigations on SPEC
 * CPU2006/2017, TPC-H, and YCSB traces.  Those traces are
 * proprietary / machine-specific; mitigation overhead,
 * however, is a function of the request stream's statistics - memory
 * intensity (misses per kilo-instruction), row-buffer locality, write
 * fraction, and bank spread - which these generators reproduce.  Each
 * preset is named after the paper workload it stands in for.
 */

#ifndef ROWPRESS_WORKLOADS_GENERATOR_H
#define ROWPRESS_WORKLOADS_GENERATOR_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dram/address.h"

namespace rp::workloads {

/** Statistical profile of one workload. */
struct WorkloadParams
{
    std::string name;
    double mpki = 10.0;        ///< LLC misses per kilo-instruction.
    double rowLocality = 0.4;  ///< P(next access hits the same row).
    double writeFrac = 0.25;   ///< Fraction of misses that are writes.
    int hotRowsPerBank = 512;  ///< Row working-set per bank.
    char category = 'H';       ///< 'H'igh / 'L'ow memory intensity.
};

/** One trace record: CPU bubbles followed by one memory access. */
struct TraceItem
{
    int bubbles;               ///< Non-memory instructions before.
    std::uint64_t addr;        ///< Physical byte address.
    bool write;
};

/** Deterministic, endless trace stream for one core. */
class TraceGen
{
  public:
    TraceGen(const WorkloadParams &params, const dram::AddressMapper &map,
             std::uint64_t seed);

    const WorkloadParams &params() const { return params_; }

    TraceItem next();

  private:
    WorkloadParams params_;
    const dram::AddressMapper *map_;
    Rng rng_;
    dram::Address last_;
    bool haveLast_ = false;
};

} // namespace rp::workloads

#endif // ROWPRESS_WORKLOADS_GENERATOR_H
