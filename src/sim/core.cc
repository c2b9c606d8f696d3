#include "sim/core.h"

namespace rp::sim {

Core::Core(workloads::TraceGen gen, Controller &mem, CoreConfig cfg)
    : gen_(std::move(gen)), mem_(&mem), cfg_(cfg),
      mapper_(mem.config().org)
{
}

void
Core::issue()
{
    int budget = cfg_.issueWidth;
    while (budget > 0) {
        if (int(window_.size()) >= cfg_.windowSize)
            return; // window full

        if (!haveItem_) {
            item_ = gen_.next();
            bubblesLeft_ = item_.bubbles;
            haveItem_ = true;
        }

        if (bubblesLeft_ > 0) {
            // Non-memory instructions complete immediately.
            window_.emplace_back();
            window_.back().slot.doneAt = 0;
            --bubblesLeft_;
            --budget;
            continue;
        }

        // The memory access of the current trace item.
        if (!mem_->canEnqueue(item_.write))
            return; // back-pressure

        window_.emplace_back();
        WinEntry &entry = window_.back();

        Request req;
        req.write = item_.write;
        req.addr = mapper_.decode(item_.addr);
        if (item_.write) {
            entry.slot.doneAt = 0; // fire-and-forget
            req.slot = nullptr;
        } else {
            entry.slot.doneAt = -1;
            req.slot = &entry.slot;
        }
        mem_->enqueue(std::move(req));

        haveItem_ = false;
        --budget;
    }
}

void
Core::retire(Time now)
{
    int n = 0;
    while (n < cfg_.issueWidth && retired_ < cfg_.instrLimit &&
           !window_.empty()) {
        const Request::Slot &slot = window_.front().slot;
        if (slot.doneAt < 0 || slot.doneAt > now)
            break;
        window_.pop_front();
        ++retired_;
        ++n;
    }
}

void
Core::tick(Time now)
{
    if (done())
        return;
    ++cycles_;
    retire(now);
    issue();
}

} // namespace rp::sim
