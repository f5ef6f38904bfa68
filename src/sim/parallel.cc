#include "src/sim/parallel.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cassert>
#include <thread>
#include <utility>

namespace perfiso {

namespace {

// Partition whose window is executing on this thread; -1 on the orchestrator
// thread, during setup, and at barrier merges.
thread_local int tls_current_partition = -1;

}  // namespace

// One (src, dst) message buffer. Appended only by src's thread while src's
// window runs; drained single-threaded at the barrier. Posting order within
// the buffer is the deterministic per-source order the merge preserves. A
// message's callback moves into the destination's event record at the merge.
struct ParallelSimulation::Mailbox {
  struct Msg {
    SimTime deliver;
    EventCallback fn;
  };
  std::vector<Msg> msgs;
};

// Persistent worker pool. Each window is one round trip: the orchestrator
// publishes the cap and arrives at `start`; workers run their assigned
// partitions and arrive at `end`. Both barriers count every worker plus the
// orchestrator, and each arrive_and_wait synchronizes memory between them, so
// plain (non-atomic) fields written before the release barrier are visible
// after it.
struct ParallelSimulation::Workers {
  explicit Workers(int count)
      : start(count + 1), end(count + 1) {}

  std::barrier<> start;
  std::barrier<> end;
  std::atomic<bool> stop{false};
  SimTime cap = 0;
  std::vector<std::thread> threads;
};

ParallelSimulation::ParallelSimulation(const Options& options) {
  assert(options.partitions >= 1);
  const int partitions = std::max(1, options.partitions);
  if (partitions > 1) {
    assert(options.window > 0 && "lockstep windows need a positive width (the PDES lookahead)");
  }
  window_ = options.window;
  sims_.reserve(static_cast<size_t>(partitions));
  for (int p = 0; p < partitions; ++p) {
    sims_.push_back(std::make_unique<Simulator>());
  }
  if (partitions == 1) {
    num_threads_ = 1;
    return;
  }
  outboxes_.reserve(static_cast<size_t>(partitions) * static_cast<size_t>(partitions));
  for (int i = 0; i < partitions * partitions; ++i) {
    outboxes_.push_back(std::make_unique<Mailbox>());
  }
  int threads = options.threads;
  if (threads <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw == 0 ? 1 : static_cast<int>(hw);
  }
  num_threads_ = std::clamp(threads, 1, partitions);
  if (num_threads_ == 1) {
    return;  // single-threaded lockstep: same windows, no pool
  }
  workers_ = std::make_unique<Workers>(num_threads_);
  workers_->threads.reserve(static_cast<size_t>(num_threads_));
  for (int w = 0; w < num_threads_; ++w) {
    workers_->threads.emplace_back([this, w] {
      for (;;) {
        workers_->start.arrive_and_wait();
        if (workers_->stop.load(std::memory_order_relaxed)) {
          return;
        }
        RunAssignedPartitions(w, workers_->cap);
        workers_->end.arrive_and_wait();
      }
    });
  }
}

ParallelSimulation::~ParallelSimulation() {
  if (workers_ != nullptr) {
    workers_->stop.store(true, std::memory_order_relaxed);
    workers_->start.arrive_and_wait();
    for (std::thread& t : workers_->threads) {
      t.join();
    }
  }
}

void ParallelSimulation::Post(int dst, SimTime deliver_time, EventCallback fn) {
  assert(dst >= 0 && dst < num_partitions());
  const int src = tls_current_partition;
  if (src < 0 || src == dst || !in_window_) {
    // Setup-time scheduling (single-threaded by contract) or a partition
    // talking to itself: no mailbox needed.
    ++stats_.setup_posts;
    sims_[static_cast<size_t>(dst)]->Schedule(deliver_time, std::move(fn));
    return;
  }
  // The conservative-lookahead contract: a cross-partition message must not
  // deliver inside the window that produced it. A violation means the window
  // was configured wider than the real cross-partition latency floor.
  assert(deliver_time >= window_end_ &&
         "cross-partition message inside its own window: window width exceeds the lookahead");
  if (deliver_time < window_end_) {
    deliver_time = window_end_;
  }
  Mailbox& box =
      *outboxes_[static_cast<size_t>(src) * static_cast<size_t>(num_partitions()) +
                 static_cast<size_t>(dst)];
  box.msgs.push_back(Mailbox::Msg{deliver_time, std::move(fn)});
}

SimTime ParallelSimulation::GlobalNextEventTime() const {
  SimTime next = Simulator::kNoPendingEvent;
  for (const auto& sim : sims_) {
    next = std::min(next, sim->NextEventTime());
  }
  return next;
}

void ParallelSimulation::RunAssignedPartitions(int worker_index, SimTime cap) {
  const int partitions = num_partitions();
  for (int p = worker_index; p < partitions; p += num_threads_) {
    tls_current_partition = p;
    sims_[static_cast<size_t>(p)]->RunUntil(cap);
    tls_current_partition = -1;
  }
}

void ParallelSimulation::RunPartitionsTo(SimTime cap) {
  if (workers_ == nullptr) {
    RunAssignedPartitions(0, cap);
    return;
  }
  workers_->cap = cap;
  workers_->start.arrive_and_wait();
  workers_->end.arrive_and_wait();
}

void ParallelSimulation::MergeMailboxes() {
  // Per destination: gather every source's messages, order by (delivery
  // time, source partition, posting order), and schedule. The sort key never
  // ties — (src, index) is unique — so the order is total and independent of
  // which threads ran which partitions. Scheduling here also fixes the
  // destination's (time, seq) order for same-timestamp events: barrier-k
  // messages always order before the destination's own window-k schedules.
  struct Entry {
    SimTime deliver;
    int src;
    size_t index;
    Mailbox::Msg* msg;
  };
  const int partitions = num_partitions();
  std::vector<Entry> entries;
  bool any = false;
  for (int dst = 0; dst < partitions; ++dst) {
    entries.clear();
    for (int src = 0; src < partitions; ++src) {
      Mailbox& box = *outboxes_[static_cast<size_t>(src) * static_cast<size_t>(partitions) +
                                static_cast<size_t>(dst)];
      for (size_t i = 0; i < box.msgs.size(); ++i) {
        entries.push_back(Entry{box.msgs[i].deliver, src, i, &box.msgs[i]});
      }
    }
    if (entries.empty()) {
      continue;
    }
    any = true;
    std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
      if (a.deliver != b.deliver) {
        return a.deliver < b.deliver;
      }
      if (a.src != b.src) {
        return a.src < b.src;
      }
      return a.index < b.index;
    });
    Simulator& sim = *sims_[static_cast<size_t>(dst)];
    for (const Entry& e : entries) {
      sim.Schedule(e.deliver, std::move(e.msg->fn));
      ++stats_.messages_posted;
    }
  }
  if (any) {
    ++stats_.merge_batches;
    for (auto& box : outboxes_) {
      box->msgs.clear();
    }
  }
}

void ParallelSimulation::RunUntil(SimTime until) {
  if (num_partitions() == 1) {
    sims_[0]->RunUntil(until);
    return;
  }
  for (;;) {
    // Skip-ahead: the next window is the one containing the earliest pending
    // event anywhere (mailboxes are empty here). Provably idle windows cost
    // nothing; this is what makes W = one fabric hop affordable over a
    // simulated day.
    const SimTime next = GlobalNextEventTime();
    if (next == Simulator::kNoPendingEvent || next > until) {
      break;
    }
    const SimTime window_start = next - (next % window_);
    window_end_ = window_start + window_;
    const SimTime cap = std::min(window_end_ - 1, until);
    in_window_ = true;
    RunPartitionsTo(cap);
    in_window_ = false;
    MergeMailboxes();
    ++stats_.windows_run;
  }
  // Nothing pending at or before `until`: advance every clock to it (same
  // postcondition as Simulator::RunUntil). No events fire, so this needs no
  // window structure or pool.
  for (auto& sim : sims_) {
    sim->RunUntil(until);
  }
}

uint64_t ParallelSimulation::TotalEventsExecuted() const {
  uint64_t total = 0;
  for (const auto& sim : sims_) {
    total += sim->EventsExecuted();
  }
  return total;
}

}  // namespace perfiso
