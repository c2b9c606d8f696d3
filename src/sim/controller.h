/**
 * @file
 * Trace-driven DDR4 memory controller for the mitigation evaluation
 * (paper section 7 / Appendix D): FR-FCFS scheduling, open-row /
 * capped / minimally-open row policies (t_mro), rank-level refresh,
 * and ACT- and REF-triggered mitigation hooks with modeled
 * preventive-refresh cost.
 */

#ifndef ROWPRESS_SIM_CONTROLLER_H
#define ROWPRESS_SIM_CONTROLLER_H

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "dram/address.h"
#include "dram/bank.h"
#include "dram/timing.h"
#include "mitigation/mitigation.h"

namespace rp::sim {

/** One memory request from a core. */
struct Request
{
    /** Completion slot owned by the issuing core's window entry. */
    struct Slot
    {
        Time doneAt = -1;
    };

    bool write = false;
    dram::Address addr;
    Slot *slot = nullptr;   ///< Null for writes (fire-and-forget).
    /** Set once the request was classified as a row miss (its ACT). */
    bool classifiedMiss = false;
};

/** Controller configuration (paper Table 7 baseline). */
struct ControllerConfig
{
    dram::Organization org;
    dram::TimingParams timing = dram::ddr4_3200();
    std::size_t queueSize = 64;

    /**
     * Maximum row-open time enforced by the row policy; 0 means
     * unbounded (the baseline open-row policy).  timing.tRAS yields
     * the minimally-open-row policy of Appendix D.1.
     */
    Time tMro = 0;

    /** Optional mitigation (not owned). */
    mitigation::Mitigation *mitigation = nullptr;

    ControllerConfig() { org.ranks = 2; }
};

/** Aggregate controller statistics. */
struct ControllerStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;
    std::uint64_t acts = 0;
    std::uint64_t refreshes = 0;
    std::uint64_t preventiveActs = 0;
    std::uint64_t forcedPrecharges = 0;  ///< PREs forced by t_mro.
    std::uint64_t maxRowActs = 0;        ///< Max ACTs to any one row.

    double
    rowHitRate() const
    {
        const auto total = rowHits + rowMisses;
        return total ? double(rowHits) / double(total) : 0.0;
    }
};

/** Single-channel FR-FCFS memory controller. */
class Controller
{
  public:
    explicit Controller(ControllerConfig cfg);

    const ControllerConfig &config() const { return cfg_; }
    const ControllerStats &stats() const { return stats_; }

    bool canEnqueue(bool write) const;
    void enqueue(Request req);

    /** Advance to time @p now and issue at most one command. */
    void tick(Time now);

    /** True if no requests are queued and all banks are idle. */
    bool drained() const;

    /** Activation count of a specific row (Fig. 38 analysis). */
    std::uint64_t rowActCount(int flat_bank, int row) const;

  private:
    struct BankState
    {
        dram::Bank bank;
        std::deque<int> victimQueue;  ///< Pending preventive refreshes.
        bool refreshingVictim = false;

        explicit BankState(const dram::TimingParams &t) : bank(t) {}
    };

    struct RankState
    {
        Time nextRef = 0;
        bool refPending = false;
    };

    bool tickRefresh(Time now);
    bool tickVictimRefresh(Time now);
    bool tickMro(Time now);
    bool tickQueue(std::deque<Request> &queue, Time now);
    void recordAct(int flat_bank, int row);
    /** Queue the in-range rows of victims_ for preventive refresh. */
    void queueVictims(BankState &bs);
    void issueAct(BankState &bs, int flat_bank, int row, Time at,
                  bool preventive);

    ControllerConfig cfg_;
    ControllerStats stats_;

    std::vector<BankState> banks_;
    std::vector<RankState> ranks_;
    std::deque<Request> readQ_;
    std::deque<Request> writeQ_;
    bool drainingWrites_ = false;
    Time nextRefWindow_ = 0;
    std::vector<int> victims_; ///< Reused victim buffer of the hooks.
    /** Queued victim rows plus banks with refreshingVictim set. */
    std::size_t victimWork_ = 0;

    std::unordered_map<std::uint64_t, std::uint64_t> rowActs_;
};

} // namespace rp::sim

#endif // ROWPRESS_SIM_CONTROLLER_H
