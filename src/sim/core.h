/**
 * @file
 * Trace-driven out-of-order core model (the standard Ramulator-style
 * processor front end): a fixed-size instruction window retires up to
 * `issueWidth` instructions per cycle in order; reads block retirement
 * until their data returns, writes are fire-and-forget.
 */

#ifndef ROWPRESS_SIM_CORE_H
#define ROWPRESS_SIM_CORE_H

#include <deque>

#include "sim/controller.h"
#include "workloads/generator.h"

namespace rp::sim {

/** Core configuration (paper Table 7: 4 GHz, 4-wide, 128-entry). */
struct CoreConfig
{
    int windowSize = 128;
    int issueWidth = 4;
    std::uint64_t instrLimit = 500000;
};

/** One simulated core executing a synthetic trace. */
class Core
{
  public:
    Core(workloads::TraceGen gen, Controller &mem, CoreConfig cfg);

    /** Advance one CPU cycle at wall-clock @p now. */
    void tick(Time now);

    bool done() const { return retired_ >= cfg_.instrLimit; }
    std::uint64_t retired() const { return retired_; }
    std::uint64_t cycles() const { return cycles_; }

    double
    ipc() const
    {
        return cycles_ ? double(retired_) / double(cycles_) : 0.0;
    }

    const workloads::WorkloadParams &
    workload() const
    {
        return gen_.params();
    }

  private:
    struct WinEntry
    {
        Request::Slot slot;   ///< doneAt >= 0 means ready.
    };

    void issue();
    void retire(Time now);

    workloads::TraceGen gen_;
    Controller *mem_;
    CoreConfig cfg_;
    dram::AddressMapper mapper_;

    std::deque<WinEntry> window_;
    std::uint64_t retired_ = 0;
    std::uint64_t cycles_ = 0;

    // Current trace item being issued.
    workloads::TraceItem item_{};
    bool haveItem_ = false;
    int bubblesLeft_ = 0;
};

} // namespace rp::sim

#endif // ROWPRESS_SIM_CORE_H
