#include "sim/controller.h"

#include <algorithm>

#include "common/logging.h"

namespace rp::sim {

Controller::Controller(ControllerConfig cfg) : cfg_(std::move(cfg))
{
    banks_.reserve(std::size_t(cfg_.org.totalBanks()));
    for (int b = 0; b < cfg_.org.totalBanks(); ++b)
        banks_.emplace_back(cfg_.timing);
    ranks_.resize(std::size_t(cfg_.org.ranks));
    for (int r = 0; r < cfg_.org.ranks; ++r)
        ranks_[std::size_t(r)].nextRef = cfg_.timing.tREFI * (r + 1) /
                                         std::max(1, cfg_.org.ranks);
    nextRefWindow_ = cfg_.timing.tREFW;
}

bool
Controller::canEnqueue(bool write) const
{
    const auto &q = write ? writeQ_ : readQ_;
    return q.size() < cfg_.queueSize;
}

void
Controller::enqueue(Request req)
{
    auto &q = req.write ? writeQ_ : readQ_;
    q.push_back(std::move(req));
}

std::uint64_t
Controller::rowActCount(int flat_bank, int row) const
{
    const std::uint64_t key =
        (std::uint64_t(std::uint32_t(flat_bank)) << 32) |
        std::uint32_t(row);
    auto it = rowActs_.find(key);
    return it != rowActs_.end() ? it->second : 0;
}

void
Controller::recordAct(int flat_bank, int row)
{
    const std::uint64_t key =
        (std::uint64_t(std::uint32_t(flat_bank)) << 32) |
        std::uint32_t(row);
    const std::uint64_t n = ++rowActs_[key];
    stats_.maxRowActs = std::max(stats_.maxRowActs, n);
}

void
Controller::issueAct(BankState &bs, int flat_bank, int row, Time at,
                     bool preventive)
{
    bs.bank.act(row, at);
    ++stats_.acts;
    recordAct(flat_bank, row);
    if (preventive) {
        ++stats_.preventiveActs;
        return;
    }
    if (cfg_.mitigation) {
        victims_.clear();
        cfg_.mitigation->onActivate(flat_bank, row, victims_);
        queueVictims(bs);
    }
}

void
Controller::queueVictims(BankState &bs)
{
    for (int v : victims_) {
        if (v >= 0 && v < cfg_.org.rows) {
            bs.victimQueue.push_back(v);
            ++victimWork_;
        }
    }
}

bool
Controller::tickRefresh(Time now)
{
    if (now >= nextRefWindow_) {
        if (cfg_.mitigation)
            cfg_.mitigation->onRefreshWindow();
        nextRefWindow_ += cfg_.timing.tREFW;
    }

    for (int r = 0; r < cfg_.org.ranks; ++r) {
        RankState &rank = ranks_[std::size_t(r)];
        if (now < rank.nextRef && !rank.refPending)
            continue;
        rank.refPending = true;

        // Precharge any open bank of the rank (one command per tick).
        const int base = r * cfg_.org.banksPerRank();
        bool all_closed = true;
        Time ref_ready = now;
        for (int b = base; b < base + cfg_.org.banksPerRank(); ++b) {
            auto &bs = banks_[std::size_t(b)];
            if (bs.bank.isOpen()) {
                all_closed = false;
                if (bs.bank.canIssue(dram::Command::PRE, now)) {
                    bs.bank.pre(now);
                    if (bs.refreshingVictim) {
                        bs.refreshingVictim = false;
                        --victimWork_;
                    }
                    return true;
                }
            } else {
                ref_ready = std::max(
                    ref_ready, bs.bank.earliest(dram::Command::REF));
            }
        }
        if (!all_closed || ref_ready > now)
            return true; // waiting on PRE/tRP; rank blocked.

        for (int b = base; b < base + cfg_.org.banksPerRank(); ++b) {
            auto &bs = banks_[std::size_t(b)];
            bs.bank.ref(now);
            if (cfg_.mitigation) {
                victims_.clear();
                cfg_.mitigation->onRefresh(b, victims_);
                queueVictims(bs);
            }
        }
        ++stats_.refreshes;
        rank.refPending = false;
        rank.nextRef += cfg_.timing.tREFI;
        return true;
    }
    return false;
}

bool
Controller::tickVictimRefresh(Time now)
{
    if (victimWork_ == 0)
        return false;
    for (int b = 0; b < cfg_.org.totalBanks(); ++b) {
        auto &bs = banks_[std::size_t(b)];
        // Finish an in-flight victim refresh with a PRE.
        if (bs.refreshingVictim &&
            bs.bank.canIssue(dram::Command::PRE, now)) {
            bs.bank.pre(now);
            bs.refreshingVictim = false;
            --victimWork_;
            return true;
        }
        if (bs.victimQueue.empty() || bs.refreshingVictim)
            continue;
        if (bs.bank.isOpen()) {
            if (bs.bank.canIssue(dram::Command::PRE, now)) {
                bs.bank.pre(now);
                return true;
            }
            continue;
        }
        if (bs.bank.canIssue(dram::Command::ACT, now)) {
            const int victim = bs.victimQueue.front();
            bs.victimQueue.pop_front();
            issueAct(bs, b, victim, now, /*preventive=*/true);
            bs.refreshingVictim = true;
            return true;
        }
    }
    return false;
}

bool
Controller::tickMro(Time now)
{
    if (cfg_.tMro <= 0)
        return false;
    for (int b = 0; b < cfg_.org.totalBanks(); ++b) {
        auto &bs = banks_[std::size_t(b)];
        if (!bs.bank.isOpen() || bs.refreshingVictim)
            continue;
        if (now - bs.bank.openedAt() >= cfg_.tMro &&
            bs.bank.canIssue(dram::Command::PRE, now)) {
            bs.bank.pre(now);
            ++stats_.forcedPrecharges;
            return true;
        }
    }
    return false;
}

bool
Controller::tickQueue(std::deque<Request> &queue, Time now)
{
    // FR-FCFS pass 1: oldest row-hit request whose column command is
    // ready.
    for (auto it = queue.begin(); it != queue.end(); ++it) {
        const int b = it->addr.flatBank(cfg_.org);
        auto &bs = banks_[std::size_t(b)];
        if (bs.refreshingVictim || !bs.bank.isOpen() ||
            bs.bank.openRow() != it->addr.row)
            continue;
        // A t_mro-expired row must not serve further hits.
        if (cfg_.tMro > 0 && now - bs.bank.openedAt() >= cfg_.tMro)
            continue;
        const auto cmd = it->write ? dram::Command::WR
                                   : dram::Command::RD;
        if (!bs.bank.canIssue(cmd, now))
            continue;
        if (!it->classifiedMiss)
            ++stats_.rowHits;
        if (it->write) {
            bs.bank.write(now);
            ++stats_.writes;
        } else {
            const Time ready = bs.bank.read(now);
            if (it->slot)
                it->slot->doneAt = ready;
            ++stats_.reads;
        }
        queue.erase(it);
        return true;
    }

    // FR-FCFS pass 2: oldest request; open its row (PRE + ACT).
    for (auto it = queue.begin(); it != queue.end(); ++it) {
        const int b = it->addr.flatBank(cfg_.org);
        auto &bs = banks_[std::size_t(b)];
        if (bs.refreshingVictim)
            continue;
        const int rank = it->addr.rank;
        if (ranks_[std::size_t(rank)].refPending)
            continue;
        if (bs.bank.isOpen()) {
            if (bs.bank.openRow() == it->addr.row)
                continue; // hit, but column not ready yet.
            if (bs.bank.canIssue(dram::Command::PRE, now)) {
                bs.bank.pre(now);
                return true;
            }
            continue;
        }
        if (bs.bank.canIssue(dram::Command::ACT, now)) {
            issueAct(bs, b, it->addr.row, now, /*preventive=*/false);
            if (!it->classifiedMiss) {
                it->classifiedMiss = true;
                ++stats_.rowMisses;
            }
            return true;
        }
    }
    return false;
}

void
Controller::tick(Time now)
{
    if (tickRefresh(now))
        return;
    if (tickVictimRefresh(now))
        return;
    if (tickMro(now))
        return;

    // Write-drain policy: serve writes when the write queue is nearly
    // full or there is nothing else to do.
    if (drainingWrites_) {
        if (writeQ_.empty() || readQ_.size() >= cfg_.queueSize / 2)
            drainingWrites_ = false;
    } else if (writeQ_.size() >= cfg_.queueSize * 7 / 8 ||
               (readQ_.empty() && !writeQ_.empty())) {
        drainingWrites_ = true;
    }

    if (drainingWrites_) {
        if (tickQueue(writeQ_, now))
            return;
        tickQueue(readQ_, now);
    } else {
        if (tickQueue(readQ_, now))
            return;
        tickQueue(writeQ_, now);
    }
}

bool
Controller::drained() const
{
    return readQ_.empty() && writeQ_.empty() && victimWork_ == 0;
}

} // namespace rp::sim
