#include "src/net/netdev.h"

#include <algorithm>
#include <cassert>

namespace perfiso {

Link::Link(Simulator* sim, double rate_bps, int64_t chunk_bytes, Discipline discipline,
           FlowSink sink)
    : sim_(sim),
      rate_bps_(rate_bps),
      chunk_bytes_(chunk_bytes),
      discipline_(discipline),
      sink_(std::move(sink)) {
  assert(rate_bps_ > 0);
  assert(chunk_bytes_ > 0);
  assert(sink_);
}

void Link::Enqueue(std::unique_ptr<Flow> flow) {
  assert(flow != nullptr);
  assert(flow->bytes > 0);
  flow->remaining_on_link = flow->bytes;
  flow->arrival_seq = next_arrival_seq_++;
  queued_bytes_ += flow->bytes;
  stats_.max_queued_bytes = std::max(stats_.max_queued_bytes, queued_bytes_);
  const auto qi = static_cast<size_t>(flow->net_class);
  queues_[qi].push_back(std::move(flow));
  Pump();
}

int Link::PickQueue() const {
  const bool p = !queues_[0].empty();
  const bool s = !queues_[1].empty();
  if (!p && !s) {
    return -1;
  }
  if (p && s && discipline_ == Discipline::kFifo) {
    // Arrival order across classes; a partially-serialized flow keeps its
    // original seq and therefore stays in front.
    return queues_[0].front()->arrival_seq < queues_[1].front()->arrival_seq ? 0 : 1;
  }
  return p ? 0 : 1;  // strict priority (or only one queue occupied)
}

void Link::Pump() {
  if (busy_) {
    return;
  }
  const int queue = PickQueue();
  if (queue < 0) {
    return;
  }
  const Flow* flow = queues_[static_cast<size_t>(queue)].front().get();
  int64_t chunk = std::min(chunk_bytes_, flow->remaining_on_link);
  const SimTime now = sim_->Now();
  // TX links shape secondary chunks through the machine's egress bucket.
  // Tokens may become available before the wake fires (PerfIso can raise the
  // cap), so re-pump on every enqueue as well.
  if (queue == 1 && egress_bucket_) {
    if (TokenBucket* bucket = egress_bucket_()) {
      // A bucket whose burst is below the chunk size could never satisfy
      // NextAvailable — serve smaller chunks rather than livelock.
      chunk = std::max<int64_t>(1, std::min(chunk, static_cast<int64_t>(bucket->burst())));
      const SimTime available = bucket->NextAvailable(static_cast<double>(chunk), now);
      if (available > now) {
        // Arm the wake, or pull an armed one earlier when PerfIso raised the
        // cap (or the head shrank) and tokens are due sooner. The callback
        // drops its own handle first: it has just fired, and a lingering
        // stale handle would alias whatever recycles the slot.
        sim_->ScheduleOrTighten(retry_event_, available, [this] {
          retry_event_ = EventHandle();
          Pump();
        });
        return;
      }
      bucket->ForceConsume(static_cast<double>(chunk), now);
    }
  }
  // A chunk is going out, and its completion re-pumps; a pending bucket wake
  // is stale, so remove it from the queue eagerly.
  sim_->CancelOwned(retry_event_);
  busy_ = true;
  const auto tx_time = static_cast<SimDuration>(static_cast<double>(chunk) / EffectiveRate() *
                                                static_cast<double>(kSecond));
  sim_->ScheduleAfter(tx_time, [this, queue, chunk] { OnChunkDone(queue, chunk); });
}

void Link::OnChunkDone(int queue, int64_t chunk) {
  busy_ = false;
  auto& q = queues_[static_cast<size_t>(queue)];
  Flow* flow = q.front().get();
  flow->remaining_on_link -= chunk;
  queued_bytes_ -= chunk;
  ++stats_.chunks;
  stats_.bytes_serialized[queue] += chunk;
  stats_.busy_ns += static_cast<SimDuration>(static_cast<double>(chunk) / EffectiveRate() *
                                             static_cast<double>(kSecond));
  if (flow->remaining_on_link == 0) {
    ++stats_.flows_completed[queue];
    // Pop and start the next chunk before the flow moves on, so the next
    // hop's events order after this link's.
    std::unique_ptr<Flow> done = std::move(q.front());
    q.pop_front();
    Pump();
    sink_(std::move(done), sim_->Now());
    return;
  }
  Pump();
}

NetDev::NetDev(Simulator* sim, double link_rate_bps, int64_t chunk_bytes,
               Link::FlowSink tx_sink, Link::FlowSink rx_sink)
    : tx_(sim, link_rate_bps, chunk_bytes, Link::Discipline::kStrictPriority, std::move(tx_sink)),
      rx_(sim, link_rate_bps, chunk_bytes, Link::Discipline::kFifo, std::move(rx_sink)) {}

}  // namespace perfiso
