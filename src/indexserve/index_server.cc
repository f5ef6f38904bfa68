#include "src/indexserve/index_server.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace perfiso {

namespace {

// Scales a microsecond cost by the query's size factor; at least 1 us.
SimDuration ScaledUs(double us, double size_factor) {
  return FromMicros(std::max(1.0, us * size_factor));
}

}  // namespace

IndexServer::IndexServer(SimMachine* machine, IoScheduler* ssd, IoScheduler* hdd,
                         const IndexServeConfig& config, uint64_t seed)
    : machine_(machine), ssd_(ssd), hdd_(hdd), config_(config), rng_(seed), seed_(seed) {
  assert(machine_ != nullptr && ssd_ != nullptr);
  job_ = machine_->CreateJob("indexserve");
  (void)machine_->AddJobMemory(job_, config_.working_set_bytes);
  ssd_->RegisterOwner(kIoOwnerIndexData, "indexserve-data", /*priority=*/0, /*weight=*/8);
  if (hdd_ != nullptr) {
    hdd_->RegisterOwner(kIoOwnerIndexLog, "indexserve-log", /*priority=*/0, /*weight=*/4);
  }
}

void IndexServer::ResetStats() {
  stats_ = Stats{};
  inflight_at_reset_ = inflight_;
}

void IndexServer::EnableTracing(Tracer* tracer, int process) {
  tracer_ = tracer;
  track_ = tracer->RegisterTrack(process, "indexserve");
}

IndexServer::QueryState& IndexServer::AcquireSlot() {
  uint32_t slot = static_cast<uint32_t>(queries_.size());
  if (free_slots_.empty()) {
    queries_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  QueryState& q = queries_[slot];
  // Fresh per-query fields; the generation and the chunk vector's capacity
  // carry over from the slot's previous occupant.
  const uint32_t generation = q.id.generation;
  std::vector<ChunkSlot> chunks = std::move(q.chunks);
  q = QueryState{};
  q.id = {slot, generation};
  q.live = true;
  q.seq = next_seq_++;
  q.chunks = std::move(chunks);
  return q;
}

IndexServer::QueryState* IndexServer::Find(QueryId id) {
  QueryState& q = queries_[id.slot];
  return q.id.generation == id.generation ? &q : nullptr;
}

void IndexServer::QueryState::CancelTimers(Simulator* sim) {
  for (ChunkSlot& slot : chunks) {
    sim->CancelOwned(slot.hedge_event);
    sim->CancelOwned(slot.retry_event);
  }
  sim->CancelOwned(deadline_event);
}

IndexServer::QueryDoneFn IndexServer::Release(QueryState& q) {
  q.CancelTimers(machine_->sim());
  --inflight_;
  QueryDoneFn done = std::move(q.done);
  q.live = false;
  ++q.id.generation;
  free_slots_.push_back(q.id.slot);
  return done;
}

void IndexServer::SubmitQuery(const QueryWork& work, QueryDoneFn done) {
  ++stats_.submitted;
  if (crashed_) {
    // No events are delivered to a crashed machine: the connection is simply
    // refused. The cluster counts the leaf as failed for this query.
    ++stats_.dropped_crash;
    if (tracer_ != nullptr && work.trace_ctx == 0) {
      const SimTime now = machine_->sim()->Now();
      tracer_->EndTrace(tracer_->BeginTrace("isq", now), now, /*dropped=*/true);
    }
    if (done) {
      QueryResult result;
      result.id = work.id;
      result.submit_time = machine_->sim()->Now();
      result.finish_time = result.submit_time;
      result.dropped = true;
      result.chunks_total = work.fanout;
      done(result);
    }
    return;
  }
  if (inflight_ >= config_.max_inflight) {
    ++stats_.dropped_admission;
    if (tracer_ != nullptr && work.trace_ctx == 0) {
      // Zero-length dropped trace so rejected queries appear in summaries.
      const SimTime now = machine_->sim()->Now();
      tracer_->EndTrace(tracer_->BeginTrace("isq", now), now, /*dropped=*/true);
    }
    if (done) {
      QueryResult result;
      result.id = work.id;
      result.submit_time = machine_->sim()->Now();
      result.finish_time = result.submit_time;
      result.dropped = true;
      done(result);
    }
    return;
  }
  ++inflight_;
  QueryState& q = AcquireSlot();
  q.work = work;
  q.done = std::move(done);
  // Mix in the server identity: each machine holds a different index
  // partition, so the same query does *different* work on each leaf. This is
  // what makes the MLA see a max over independent leaf latencies [15].
  q.rng = Rng(work.seed ^ (seed_ * 0x9e3779b97f4a7c15ULL));
  q.arrival = machine_->sim()->Now();
  if (work.trace_ctx != 0) {
    q.trace_ctx = work.trace_ctx;
  } else if (tracer_ != nullptr) {
    q.trace_ctx = tracer_->BeginTrace("isq", q.arrival);
    q.owns_trace = true;
  }
  q.chunks_left = work.fanout;
  ChunkSlot fresh;
  fresh.attempts = config_.chunk_retry.enabled ? 1 : 0;
  q.chunks.assign(static_cast<size_t>(work.fanout), fresh);

  // Network receive path runs in kernel context (OS tenant, outside the job).
  machine_->SpawnThread(
      TenantClass::kOs, JobId{}, ScaledUs(config_.receive_cpu_us, 1.0),
      [this, id = q.id](SimTime) {
        if (QueryState* live = Find(id)) {
          StartParse(*live);
        }
      },
      q.trace_ctx);
}

bool IndexServer::ExpireIfOverdue(QueryState& q) {
  // Server-side shedding: once a query is past its deadline, further work is
  // wasted; the paper observes that heavy drops *reduce* primary CPU
  // utilization (§6.1.2), which implies abandoned processing.
  const SimTime now = machine_->sim()->Now();
  if (now - q.arrival <= config_.timeout) {
    return false;
  }
  ++stats_.dropped_timeout;
  QueryResult result;
  result.id = q.work.id;
  result.submit_time = q.arrival;
  result.finish_time = now;
  result.latency_ms = ToMillis(now - q.arrival);
  result.dropped = true;
  const bool owns_trace = q.owns_trace;
  const uint64_t trace_ctx = q.trace_ctx;
  QueryDoneFn done = Release(q);
  if (done) {
    done(result);
  }
  if (owns_trace) {
    tracer_->EndTrace(trace_ctx, now, /*dropped=*/true);
  }
  return true;
}

void IndexServer::StartParse(QueryState& q) {
  if (ExpireIfOverdue(q)) {
    return;
  }
  // Parse and query-understanding run as one burst on the same pool thread
  // (no intermediate wake point).
  machine_->SpawnThread(
      TenantClass::kPrimary, job_,
      ScaledUs(config_.parse_cpu_us + config_.understand_cpu_us, q.work.size_factor),
      [this, id = q.id](SimTime) {
        if (QueryState* live = Find(id)) {
          StartFanout(*live);
        }
      },
      q.trace_ctx);
}

void IndexServer::StartFanout(QueryState& q) {
  if (ExpireIfOverdue(q)) {
    return;
  }
  // All chunk workers wake within the same instant — this is the burst the
  // buffer cores exist to absorb.
  for (int chunk = 0; chunk < q.work.fanout; ++chunk) {
    StartChunk(q, chunk, /*is_hedge=*/false);
  }
  if (config_.degrade_deadline > 0) {
    const SimTime deadline = q.arrival + config_.degrade_deadline;
    if (deadline > machine_->sim()->Now()) {
      q.deadline_event = machine_->sim()->Schedule(deadline, [this, id = q.id] {
        if (QueryState* live = Find(id)) {
          live->deadline_event = EventHandle();
          MaybeDegrade(*live);
        }
      });
    }
  }
}

void IndexServer::MaybeDegrade(QueryState& q) {
  if (q.fanout_closed || q.chunks_left == 0) {
    return;
  }
  const int total = q.work.fanout;
  const int served = total - q.chunks_left;
  if (static_cast<double>(served) < config_.min_chunk_coverage * static_cast<double>(total)) {
    // Below the k-of-n floor: keep waiting — hedges/retries may still recover
    // the missing chunks, and the client timeout is the backstop.
    return;
  }
  q.fanout_closed = true;
  q.degraded = true;
  q.chunks_served_at_close = served;
  // The open attempts are abandoned: their timers leave the event queue and
  // late completions are ignored by the fanout_closed guard.
  q.CancelTimers(machine_->sim());
  if (tracer_ != nullptr) {
    tracer_->Instant("query.degraded", track_, machine_->sim()->Now());
  }
  StartRank(q);
}

void IndexServer::StartChunk(QueryState& q, int chunk, bool is_hedge) {
  const SimDuration cpu = FromMicros(std::max(
      1.0, q.rng.LogNormal(std::log(config_.chunk_cpu_median_us), config_.chunk_cpu_sigma) *
               q.work.size_factor));
  const bool miss = q.rng.Bernoulli(config_.chunk_miss_rate);

  machine_->SpawnThread(
      TenantClass::kPrimary, job_, cpu,
      [this, id = q.id, chunk, miss](SimTime) {
        QueryState* live = Find(id);
        if (live == nullptr) {
          return;
        }
        if (!miss) {
          ChunkDone(*live, chunk);
          return;
        }
        IoRequest read;
        read.owner = kIoOwnerIndexData;
        read.op = IoOp::kRead;
        read.bytes = config_.chunk_read_bytes;
        read.sequential = false;
        read.trace_ctx = live->trace_ctx;
        // The post-read burst runs even if the query has finished by the time
        // the read completes, so its cost and trace context are captured now
        // rather than read back through a slot that may have been reused.
        read.on_complete = [this, id, chunk, size_factor = live->work.size_factor,
                            trace_ctx = live->trace_ctx](SimTime) {
          machine_->SpawnThread(
              TenantClass::kPrimary, job_, ScaledUs(config_.chunk_post_read_cpu_us, size_factor),
              [this, id, chunk](SimTime) {
                if (QueryState* done = Find(id)) {
                  ChunkDone(*done, chunk);
                }
              },
              trace_ctx);
        };
        ssd_->Submit(std::move(read));
      },
      q.trace_ctx);

  if (!is_hedge) {
    ++chunks_started_;
    if (config_.chunk_retry.enabled) {
      ArmRetryTimer(q, chunk);
    }
  }
  // Hedge slow lookups once: if this chunk has not completed after
  // hedge_delay, launch a duplicate lookup and take whichever finishes first.
  // The hedge budget caps the added load under systemic slowness.
  if (!is_hedge && config_.hedging_enabled) {
    q.chunks[static_cast<size_t>(chunk)].hedge_event =
        machine_->sim()->ScheduleAfter(config_.hedge_delay, [this, id = q.id, chunk] {
          QueryState* live = Find(id);
          if (live == nullptr) {
            return;
          }
          ChunkSlot& slot = live->chunks[static_cast<size_t>(chunk)];
          slot.hedge_event = EventHandle();
          const bool budget_ok =
              static_cast<double>(stats_.hedges_issued) <
              config_.hedge_budget_fraction * static_cast<double>(chunks_started_);
          if (!slot.done && !slot.hedged && budget_ok) {
            slot.hedged = true;
            ++stats_.hedges_issued;
            if (tracer_ != nullptr) {
              tracer_->Instant("hedge.issued", track_, machine_->sim()->Now());
            }
            StartChunk(*live, chunk, /*is_hedge=*/true);
          }
        });
  }
}

void IndexServer::ChunkDone(QueryState& q, int chunk) {
  ChunkSlot& slot = q.chunks[static_cast<size_t>(chunk)];
  if (q.fanout_closed || slot.done) {
    return;  // degraded, or the other copy of a hedged lookup finished
  }
  slot.done = true;
  // The lookup beat its hedge timer (the common case): pull the timer out of
  // the event queue instead of letting it fire as a dead no-op, and drop the
  // handle so a later CancelTimers sweep doesn't cancel it twice.
  machine_->sim()->CancelOwned(slot.hedge_event);
  machine_->sim()->CancelOwned(slot.retry_event);
  if (--q.chunks_left == 0) {
    machine_->sim()->CancelOwned(q.deadline_event);
    StartRank(q);
  }
}

void IndexServer::ArmRetryTimer(QueryState& q, int chunk) {
  q.chunks[static_cast<size_t>(chunk)].retry_event =
      machine_->sim()->ScheduleAfter(config_.chunk_retry.timeout, [this, id = q.id, chunk] {
        if (QueryState* live = Find(id)) {
          OnChunkTimeout(*live, chunk);
        }
      });
}

void IndexServer::OnChunkTimeout(QueryState& q, int chunk) {
  ChunkSlot& slot = q.chunks[static_cast<size_t>(chunk)];
  slot.retry_event = EventHandle();  // the per-attempt timer that just fired
  if (q.fanout_closed || slot.done) {
    return;
  }
  ++stats_.timeouts_detected;
  const RetryPolicy& policy = config_.chunk_retry;
  if (slot.attempts >= policy.max_attempts) {
    ++stats_.retry_exhausted;
    return;  // budget spent; the degrade deadline / client timeout take over
  }
  // Capped exponential backoff with jitter from the query's own stream.
  const SimDuration delay = ComputeBackoff(policy, slot.attempts - 1, &q.rng);
  if (machine_->sim()->Now() + delay >= q.arrival + config_.timeout) {
    // A retry that cannot answer before the client gives up is wasted work.
    ++stats_.retries_suppressed_deadline;
    return;
  }
  slot.retry_event =
      machine_->sim()->ScheduleAfter(delay, [this, id = q.id, chunk] {
        QueryState* live = Find(id);
        if (live == nullptr) {
          return;
        }
        ChunkSlot& fired = live->chunks[static_cast<size_t>(chunk)];
        fired.retry_event = EventHandle();
        if (live->fanout_closed || fired.done) {
          return;
        }
        ++stats_.retries_issued;
        ++fired.attempts;
        if (tracer_ != nullptr) {
          tracer_->Instant("chunk.retry", track_, machine_->sim()->Now());
        }
        // Re-issue as a duplicate lookup (like a hedge: no budget increment,
        // first answer wins) and arm the next per-attempt timeout.
        StartChunk(*live, chunk, /*is_hedge=*/true);
        ArmRetryTimer(*live, chunk);
      });
}

void IndexServer::StartRank(QueryState& q) {
  if (ExpireIfOverdue(q)) {
    return;
  }
  const SimDuration cpu = FromMicros(std::max(
      1.0, q.rng.LogNormal(std::log(config_.rank_cpu_median_us), config_.rank_cpu_sigma) *
               q.work.size_factor));
  machine_->SpawnThread(
      TenantClass::kPrimary, job_, cpu,
      [this, id = q.id](SimTime) {
        if (QueryState* live = Find(id)) {
          StartSnippets(*live);
        }
      },
      q.trace_ctx);
}

void IndexServer::StartSnippets(QueryState& q) {
  if (ExpireIfOverdue(q)) {
    return;
  }
  if (config_.snippet_reads <= 0) {
    FinishQuery(q);
    return;
  }
  // Dependent document lookups: each read's target comes from the previous
  // one, so they serialize (this is deliberately on the critical path).
  q.snippet_reads_left = config_.snippet_reads;
  SubmitSnippetRead(q);
}

void IndexServer::SubmitSnippetRead(QueryState& q) {
  IoRequest read;
  read.owner = kIoOwnerIndexData;
  read.op = IoOp::kRead;
  read.bytes = config_.snippet_read_bytes;
  read.sequential = false;
  read.trace_ctx = q.trace_ctx;
  read.on_complete = [this, id = q.id](SimTime) {
    QueryState* live = Find(id);
    if (live == nullptr) {
      return;
    }
    if (--live->snippet_reads_left > 0) {
      SubmitSnippetRead(*live);
      return;
    }
    machine_->SpawnThread(
        TenantClass::kPrimary, job_, ScaledUs(config_.snippet_cpu_us, live->work.size_factor),
        [this, id](SimTime) {
          if (QueryState* done = Find(id)) {
            FinishQuery(*done);
          }
        },
        live->trace_ctx);
  };
  ssd_->Submit(std::move(read));
}

void IndexServer::FinishQuery(QueryState& q) {
  // Completion requires a log append; if the log pipeline is backed up past
  // its cap (HDD saturated), the query stalls here until space frees up.
  if (hdd_ != nullptr &&
      log_buffered_bytes_ + log_inflight_bytes_ >= config_.log_buffer_cap_bytes) {
    ++stats_.log_stalls;
    if (tracer_ != nullptr) {
      tracer_->Instant("log.stall", track_, machine_->sim()->Now());
    }
    log_waiters_.push_back(q.id);
    return;
  }
  AppendLog(q);
  CompleteNow(q);
}

void IndexServer::CompleteNow(QueryState& q) {
  QueryResult result;
  result.id = q.work.id;
  result.submit_time = q.arrival;
  result.finish_time = machine_->sim()->Now();
  const SimDuration latency = result.finish_time - q.arrival;
  result.latency_ms = ToMillis(latency);
  result.dropped = latency > config_.timeout;
  result.chunks_total = q.work.fanout;
  result.chunks_served = q.fanout_closed ? q.chunks_served_at_close : q.work.fanout;
  result.degraded = q.degraded;
  const bool owns_trace = q.owns_trace;
  const uint64_t trace_ctx = q.trace_ctx;
  QueryDoneFn done = Release(q);
  if (crashed_) {
    // Invariant violation recorded for the checker: a crashed server must not
    // deliver completions (Crash() fails every live query first).
    ++stats_.completions_while_crashed;
  }
  // Network send path (OS tenant).
  machine_->SpawnThread(TenantClass::kOs, JobId{}, ScaledUs(config_.send_cpu_us, 1.0), nullptr);

  if (result.dropped) {
    ++stats_.dropped_timeout;
  } else {
    ++stats_.completed;
    stats_.latency_ms.Add(result.latency_ms);
    stats_.coverage.Add(result.Coverage());
    if (result.degraded) {
      ++stats_.completed_degraded;
    }
  }
  if (owns_trace) {
    tracer_->EndTrace(trace_ctx, result.finish_time, result.dropped);
  }
  if (done) {
    done(result);
  }
}

void IndexServer::AppendLog(const QueryState& q) {
  if (hdd_ == nullptr) {
    return;
  }
  log_buffered_bytes_ +=
      static_cast<int64_t>(static_cast<double>(config_.log_bytes_per_query) *
                           q.work.size_factor);
  MaybeFlushLog();
}

void IndexServer::MaybeFlushLog() {
  while (log_buffered_bytes_ >= config_.log_flush_bytes) {
    const int64_t flush_bytes = config_.log_flush_bytes;
    log_buffered_bytes_ -= flush_bytes;
    log_inflight_bytes_ += flush_bytes;
    IoRequest write;
    write.owner = kIoOwnerIndexLog;
    write.op = IoOp::kWrite;
    write.bytes = flush_bytes;
    write.sequential = true;
    write.on_complete = [this, flush_bytes](SimTime) {
      log_inflight_bytes_ -= flush_bytes;
      // Admit stalled completions now that buffer space is available.
      while (!log_waiters_.empty() &&
             log_buffered_bytes_ + log_inflight_bytes_ < config_.log_buffer_cap_bytes) {
        const QueryId waiter = log_waiters_.front();
        log_waiters_.pop_front();
        if (QueryState* q = Find(waiter)) {
          AppendLog(*q);
          CompleteNow(*q);
        }
      }
    };
    hdd_->Submit(std::move(write));
  }
}

void IndexServer::Crash() {
  if (crashed_) {
    return;
  }
  crashed_ = true;
  const SimTime now = machine_->sim()->Now();
  if (tracer_ != nullptr) {
    tracer_->Instant("server.crash", track_, now);
  }
  // Fail every live query exactly once, in admission order: conservation
  // moves each of them to dropped_crash. Snapshot the ids first — done
  // callbacks may re-enter the server (closed-loop clients resubmit on
  // completion), and slots freed here may be reused by such resubmissions.
  std::vector<QueryId> live;
  for (const QueryState& q : queries_) {
    if (q.live) {
      live.push_back(q.id);
    }
  }
  std::sort(live.begin(), live.end(), [this](QueryId a, QueryId b) {
    return queries_[a.slot].seq < queries_[b.slot].seq;
  });
  for (const QueryId id : live) {
    QueryState* q = Find(id);
    if (q == nullptr) {
      continue;
    }
    ++stats_.dropped_crash;
    if (q->owns_trace) {
      tracer_->EndTrace(q->trace_ctx, now, /*dropped=*/true);
    }
    QueryResult result;
    result.id = q->work.id;
    result.submit_time = q->arrival;
    result.finish_time = now;
    result.latency_ms = ToMillis(now - q->arrival);
    result.dropped = true;
    result.chunks_total = q->work.fanout;
    result.chunks_served = q->work.fanout - q->chunks_left;
    QueryDoneFn done = Release(*q);
    if (done) {
      done(result);
    }
  }
  // The log pipeline dies with the process: buffered bytes are lost and
  // stalled completions were failed above. In-flight HDD writes are cancelled
  // by the rig (volume CancelAll), so their completions never fire.
  log_waiters_.clear();
  log_buffered_bytes_ = 0;
  log_inflight_bytes_ = 0;
}

void IndexServer::Restart() {
  if (!crashed_) {
    return;
  }
  crashed_ = false;
  if (tracer_ != nullptr) {
    tracer_->Instant("server.restart", track_, machine_->sim()->Now());
  }
}

}  // namespace perfiso
