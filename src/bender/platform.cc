#include "bender/platform.h"

#include <algorithm>

#include "common/logging.h"

namespace rp::bender {

TestPlatform::TestPlatform(PlatformConfig cfg) : cfg_(std::move(cfg))
{
    chip_ = std::make_unique<device::Chip>(cfg_.die, cfg_.org, cfg_.timing,
                                           cfg_.seed);
    chip_->setTemperature(cfg_.temperatureC);
    // A fast-forwarded loop runs three iterations concretely and
    // extrapolates count - 3, which wraps around below 3; the
    // chr::AttemptOracle's model of the last iteration needs at least
    // one extrapolated iteration.
    if (cfg_.fastForwardThreshold < 4)
        fatal("fastForwardThreshold must be at least 4 (got %llu)",
              (unsigned long long)cfg_.fastForwardThreshold);
}

void
TestPlatform::setTemperature(double temp_c)
{
    chip_->setTemperature(temp_c);
}

Time
TestPlatform::run(const Program &program)
{
    const Time start = nextFree_;
    execNodes(program.nodes());
    return nextFree_ - start;
}

void
TestPlatform::execNodes(const std::vector<ProgramNode> &nodes)
{
    for (const ProgramNode &n : nodes) {
        switch (n.kind) {
          case ProgramNode::Kind::Cmd:
            execCmd(n);
            break;
          case ProgramNode::Kind::Wait:
            // Timed waits are measured from the previous command's
            // issue time, so ACT + wait(tAggON) + PRE yields an exact
            // aggressor-on time.
            nextFree_ = std::max(nextFree_, lastIssue_ + n.duration);
            break;
          case ProgramNode::Kind::Loop:
            execLoop(n);
            break;
        }
    }
}

void
TestPlatform::execCmd(const ProgramNode &n)
{
    Time t = nextFree_;
    switch (n.cmd) {
      case dram::Command::ACT:
        t = std::max(t, chip_->bank(n.bank).earliest(dram::Command::ACT));
        chip_->act(n.bank, n.row, t);
        break;
      case dram::Command::PRE:
        t = std::max(t, chip_->bank(n.bank).earliest(dram::Command::PRE));
        chip_->pre(n.bank, t);
        break;
      case dram::Command::RD:
        t = std::max(t, chip_->bank(n.bank).earliest(dram::Command::RD));
        chip_->read(n.bank, n.column, t);
        break;
      case dram::Command::WR:
        t = std::max(t, chip_->bank(n.bank).earliest(dram::Command::WR));
        chip_->write(n.bank, n.column, t);
        break;
      case dram::Command::REF:
        for (int b = 0; b < cfg_.org.totalBanks(); ++b)
            t = std::max(t, chip_->bank(b).earliest(dram::Command::REF));
        chip_->refresh(t);
        break;
      case dram::Command::PREA:
      case dram::Command::NOP:
        break;
    }
    lastIssue_ = t;
    nextFree_ = t + cfg_.cmdGap;
}

bool
TestPlatform::containsRef(const std::vector<ProgramNode> &nodes)
{
    for (const auto &n : nodes) {
        if (n.kind == ProgramNode::Kind::Cmd &&
            n.cmd == dram::Command::REF)
            return true;
        if (n.kind == ProgramNode::Kind::Loop && containsRef(n.body))
            return true;
    }
    return false;
}

void
TestPlatform::collectActRows(const std::vector<ProgramNode> &nodes,
                             std::vector<std::pair<int, int>> &out)
{
    for (const auto &n : nodes) {
        if (n.kind == ProgramNode::Kind::Cmd &&
            n.cmd == dram::Command::ACT)
            out.emplace_back(n.bank, n.row);
        else if (n.kind == ProgramNode::Kind::Loop)
            collectActRows(n.body, out);
    }
}

void
TestPlatform::execLoop(const ProgramNode &n)
{
    // Loops containing REF mutate global refresh state and cannot be
    // extrapolated; short loops are not worth it.
    if (n.count < cfg_.fastForwardThreshold || containsRef(n.body)) {
        for (std::uint64_t i = 0; i < n.count; ++i)
            execNodes(n.body);
        return;
    }

    // Iteration 1: warm-up (establishes tAggOFF history).
    execNodes(n.body);

    // Iteration 2: measured steady-state iteration.
    const auto before = chip_->fault().snapshotDoses();
    const Time iter_start = nextFree_;
    execNodes(n.body);
    const Time iter_dur = nextFree_ - iter_start;

    // Iterations 3 .. count-1: extrapolated.
    const double extra = double(n.count - 3);
    chip_->fault().scaleDoseDelta(before, extra);
    const Time jump = Time(double(iter_dur) * extra);

    std::vector<std::pair<int, int>> act_rows;
    collectActRows(n.body, act_rows);
    std::sort(act_rows.begin(), act_rows.end());
    act_rows.erase(std::unique(act_rows.begin(), act_rows.end()),
                   act_rows.end());
    fastForwardBy(jump, act_rows);

    // Final iteration: concrete, ends at the true completion time.
    execNodes(n.body);
}

void
TestPlatform::fastForwardBy(Time jump,
                            const std::vector<std::pair<int, int>>
                                &act_rows)
{
    nextFree_ += jump;
    lastIssue_ += jump;
    for (const auto &[b, r] : act_rows)
        chip_->fault().shiftRowHistory(b, r, jump);
}

TestPlatform::TracedRun
TestPlatform::runTraced(const Program &program)
{
    // Loops are rejected: the fast-forward path scales doses in bulk
    // (scaleDoseDelta) without emitting per-op records, so a traced
    // loop would silently return an incomplete op list.  Callers
    // trace loop bodies segment by segment instead.
    for (const ProgramNode &n : program.nodes()) {
        if (n.kind == ProgramNode::Kind::Loop)
            fatal("runTraced: programs with loops cannot be traced "
                  "op-exactly; trace the loop body iteration by "
                  "iteration");
    }

    TracedRun traced;
    chip_->fault().setDoseOpRecorder(&traced.ops);
    traced.duration = run(program);
    chip_->fault().setDoseOpRecorder(nullptr);
    return traced;
}

void
TestPlatform::copyStateOf(const TestPlatform &src, int bank,
                          const std::vector<int> &rows, Time shift)
{
    nextFree_ = src.nextFree_ + shift;
    lastIssue_ = src.lastIssue_ + shift;
    chip_->bank(bank).copyStateOf(src.chip_->bank(bank), shift);
    const auto moved = [shift](Time t) {
        return t == device::FaultModel::kNever ? t : t + shift;
    };
    const device::FaultModel &from = src.chip_->fault();
    for (int row : rows)
        chip_->fault().setRowHistory(bank, row,
                                     moved(from.lastClose(bank, row)),
                                     moved(from.lastRestore(bank, row)));
}

void
TestPlatform::fillRow(int bank, int row, std::uint8_t fill)
{
    chip_->fillRow(bank, row, fill, nextFree_);
}

std::vector<device::FlipRecord>
TestPlatform::checkRow(int bank, int row, bool full_scan)
{
    return chip_->materializeRow(bank, row, nextFree_, full_scan);
}

void
TestPlatform::checkRowInto(int bank, int row, bool full_scan,
                           std::vector<device::FlipRecord> &out)
{
    chip_->materializeRowInto(bank, row, nextFree_, full_scan, out);
}

} // namespace rp::bender
