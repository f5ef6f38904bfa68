#include "src/net/fabric.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "src/sim/parallel.h"

namespace perfiso {

Status FabricConfig::Validate() const {
  if (link_rate_bps <= 0) {
    return InvalidArgumentError("link_rate_bps must be positive");
  }
  if (uplink_oversubscription < 1.0) {
    return InvalidArgumentError("uplink_oversubscription must be >= 1");
  }
  if (machines_per_rack <= 0) {
    return InvalidArgumentError("machines_per_rack must be positive");
  }
  if (base_latency <= 0) {
    return InvalidArgumentError(
        "base_latency must be positive: it is the fabric's one-way "
        "propagation delay and the PDES lookahead for partitioned runs "
        "(zero lookahead means zero-width lockstep windows)");
  }
  if (chunk_bytes <= 0) {
    return InvalidArgumentError("chunk_bytes must be positive");
  }
  if (request_bytes <= 0 || leaf_response_bytes <= 0 || final_response_bytes <= 0) {
    return InvalidArgumentError("RPC payload sizes must be positive");
  }
  return OkStatus();
}

Fabric::Fabric(Simulator* sim, const FabricConfig& config) : sim_(sim), config_(config) {
  assert(sim_ != nullptr);
  // Enforced in release builds too: a non-physical fabric would corrupt
  // every flow, and a zero base_latency would livelock the PDES windows.
  if (Status status = config_.Validate(); !status.ok()) {
    std::fprintf(stderr, "Fabric: invalid FabricConfig: %s\n", status.message().c_str());
    std::abort();
  }
}

Fabric::Fabric(ParallelSimulation* psim, const FabricConfig& config)
    : Fabric(&psim->sim(0), config) {
  psim_ = psim;
}

Simulator* Fabric::SimFor(int partition) {
  if (psim_ == nullptr) {
    assert(partition == 0 && "partitions require the ParallelSimulation constructor");
    return sim_;
  }
  return &psim_->sim(partition);
}

int Fabric::AttachMachine(const std::string& name, int partition) {
  const int endpoint = static_cast<int>(endpoints_.size());
  Simulator* sim = SimFor(partition);
  auto ep = std::make_unique<Endpoint>();
  ep->name = name;
  ep->partition = partition;
  ep->sim = sim;
  ep->dev = std::make_unique<NetDev>(sim, config_.link_rate_bps, config_.chunk_bytes, name);
  if (static_cast<size_t>(partition) >= open_rack_.size()) {
    open_rack_.resize(static_cast<size_t>(partition) + 1, -1);
  }
  int rack = open_rack_[static_cast<size_t>(partition)];
  if (rack < 0 || racks_[static_cast<size_t>(rack)]->machines >= config_.machines_per_rack) {
    rack = static_cast<int>(racks_.size());
    const double uplink_rate = config_.link_rate_bps *
                               static_cast<double>(config_.machines_per_rack) /
                               config_.uplink_oversubscription;
    const std::string prefix = "rack" + std::to_string(rack);
    auto r = std::make_unique<Rack>();
    r->partition = partition;
    r->up = std::make_unique<Link>(sim, uplink_rate, config_.chunk_bytes,
                                   Link::Discipline::kFifo, prefix + "-up");
    r->down = std::make_unique<Link>(sim, uplink_rate, config_.chunk_bytes,
                                     Link::Discipline::kFifo, prefix + "-down");
    racks_.push_back(std::move(r));
    open_rack_[static_cast<size_t>(partition)] = rack;
  }
  ep->rack = rack;
  ++racks_[static_cast<size_t>(rack)]->machines;
  endpoints_.push_back(std::move(ep));
  return endpoint;
}

void Fabric::SetEgressBucketProvider(int endpoint, Link::EgressBucketFn provider) {
  endpoints_[static_cast<size_t>(endpoint)]->dev->SetEgressBucketProvider(std::move(provider));
}

void Fabric::Send(int src, int dst, int64_t bytes, NetClass net_class,
                  Flow::DeliveredFn done, uint64_t trace_ctx) {
  assert(src >= 0 && src < num_endpoints());
  assert(dst >= 0 && dst < num_endpoints());
  Endpoint& src_ep = *endpoints_[static_cast<size_t>(src)];
  auto flow = std::make_shared<Flow>();
  // Flow ids are minted per source endpoint (source id in the high bits) so
  // they are deterministic under partition-parallel execution: each source's
  // sequence depends only on that source's own send order.
  flow->id = (static_cast<uint64_t>(src) + 1) << 40 | ++src_ep.next_flow_seq;
  flow->src = src;
  flow->dst = dst;
  flow->bytes = std::max<int64_t>(bytes, 1);
  flow->net_class = net_class;
  flow->submit_time = src_ep.sim->Now();
  flow->on_delivered = std::move(done);
  flow->trace_ctx = trace_ctx;
  ++src_ep.lifetime_flows_sent;

  const auto cls = static_cast<size_t>(net_class);
  ++src_ep.stats.flows_sent[cls];
  src_ep.stats.bytes_sent[cls] += flow->bytes;

  if (src == dst) {
    // Loopback: never leaves the machine, no serialization or propagation.
    src_ep.sim->ScheduleAfter(0, [this, flow, sim = src_ep.sim] { Deliver(flow, sim->Now()); });
    return;
  }
  RunHop(flow, 0);
}

void Fabric::RunHop(const std::shared_ptr<Flow>& flow, int hop) {
  const Endpoint& src = *endpoints_[static_cast<size_t>(flow->src)];
  const Endpoint& dst = *endpoints_[static_cast<size_t>(flow->dst)];
  const bool cross_rack = src.rack != dst.rack;
  // Source-side hops (TX, uplink) run on src's partition; destination-side
  // hops (downlink, RX) on dst's. In sequential mode these are one simulator.
  Simulator* sim = hop <= 1 ? src.sim : dst.sim;

  // Path: [0] src TX, then (cross-rack only) [1] src rack uplink and [2] dst
  // rack downlink, then propagation, then [3] dst RX, then delivery. For a
  // cross-partition flow the propagation delay is paid on the mailbox hop
  // between [1] and [2] instead (it IS the lookahead), flagged by
  // flow->propagation_paid.
  Link* link = nullptr;
  switch (hop) {
    case 0:
      link = &src.dev->tx();
      break;
    case 1:
      if (!cross_rack) {
        // Intra-rack: the ToR forwards at line rate; skip to propagation.
        // Racks never span partitions, so this stays on one simulator.
        sim->ScheduleAfter(config_.base_latency, [this, flow] { RunHop(flow, 3); });
        return;
      }
      link = racks_[static_cast<size_t>(src.rack)]->up.get();
      break;
    case 2:
      link = racks_[static_cast<size_t>(dst.rack)]->down.get();
      break;
    case 3:
      if (tracer_ != nullptr && flow->trace_ctx != 0 && config_.base_latency > 0 &&
          !flow->propagation_paid) {
        // RunHop(3) fires exactly base_latency after the last switch hop.
        tracer_->Span(flow->trace_ctx, "net.propagate", SpanCategory::kNetTransit,
                      dst.rx_track, sim->Now() - config_.base_latency, sim->Now());
      }
      link = &dst.dev->rx();
      break;
    default:
      assert(false);
      return;
  }
  flow->hop_enter = sim->Now();
  const int next = hop + 1;
  link->Enqueue(flow.get(), [this, flow, hop, next](Flow*, SimTime now) {
    if (tracer_ != nullptr && flow->trace_ctx != 0 && now > flow->hop_enter) {
      EmitHopSpan(*flow, hop, now);
    }
    switch (next) {
      case 1:
        RunHop(flow, next);
        return;
      case 2: {
        const int src_part = endpoints_[static_cast<size_t>(flow->src)]->partition;
        const int dst_part = endpoints_[static_cast<size_t>(flow->dst)]->partition;
        if (src_part == dst_part) {
          RunHop(flow, next);
          return;
        }
        // Cross-partition handoff: the propagation delay is exactly the
        // conservative lookahead, so `now + base_latency` always lands at or
        // beyond the current window's end — the Post is legal by
        // construction. Propagation is paid here, not after the downlink.
        psim_->Post(dst_part, now + config_.base_latency, [this, flow] {
          flow->propagation_paid = true;
          RunHop(flow, 2);
        });
        return;
      }
      case 3:
        if (flow->propagation_paid) {
          RunHop(flow, 3);
          return;
        }
        // Last switch hop done: pay propagation, then serialize into the
        // destination NIC (the incast point).
        endpoints_[static_cast<size_t>(flow->dst)]->sim->ScheduleAfter(
            config_.base_latency, [this, flow] { RunHop(flow, 3); });
        return;
      default:
        Deliver(flow, now);
        return;
    }
  });
}

void Fabric::EmitHopSpan(const Flow& flow, int hop, SimTime now) {
  const Endpoint& src = *endpoints_[static_cast<size_t>(flow.src)];
  const Endpoint& dst = *endpoints_[static_cast<size_t>(flow.dst)];
  switch (hop) {
    case 0:
      tracer_->Span(flow.trace_ctx, "net.tx", SpanCategory::kSerialization,
                    src.tx_track, flow.hop_enter, now);
      break;
    case 1:
      tracer_->Span(flow.trace_ctx, "net.uplink", SpanCategory::kNetTransit,
                    racks_[static_cast<size_t>(src.rack)]->up_track, flow.hop_enter, now);
      break;
    case 2:
      tracer_->Span(flow.trace_ctx, "net.downlink", SpanCategory::kNetTransit,
                    racks_[static_cast<size_t>(dst.rack)]->down_track, flow.hop_enter, now);
      break;
    case 3:
      tracer_->Span(flow.trace_ctx, "net.rx", SpanCategory::kSerialization,
                    dst.rx_track, flow.hop_enter, now);
      break;
    default:
      break;
  }
}

void Fabric::EnableTracing(Tracer* tracer) {
  // Per-hop spans assume one clock and one single-threaded tracer; the
  // harness falls back to a sequential run when tracing is requested.
  assert(psim_ == nullptr && "fabric tracing requires sequential mode");
  tracer_ = tracer;
  const int pid = tracer->RegisterProcess("fabric");
  for (auto& ep : endpoints_) {
    ep->tx_track = tracer->RegisterTrack(pid, ep->name + "-tx");
    ep->rx_track = tracer->RegisterTrack(pid, ep->name + "-rx");
  }
  for (size_t r = 0; r < racks_.size(); ++r) {
    const std::string prefix = "rack" + std::to_string(r);
    racks_[r]->up_track = tracer->RegisterTrack(pid, prefix + "-up");
    racks_[r]->down_track = tracer->RegisterTrack(pid, prefix + "-down");
  }
}

void Fabric::Deliver(const std::shared_ptr<Flow>& flow, SimTime now) {
  Endpoint& dst_ep = *endpoints_[static_cast<size_t>(flow->dst)];
  const auto cls = static_cast<size_t>(flow->net_class);
  ++dst_ep.stats.flows_delivered[cls];
  dst_ep.stats.bytes_received[cls] += flow->bytes;
  dst_ep.flow_latency_ms[cls].Add(ToMillis(now - flow->submit_time));
  ++dst_ep.lifetime_flows_delivered;
  if (flow->on_delivered) {
    // Move the callback out so its captures die with this scope, not with
    // the last shared_ptr reference to the flow.
    Flow::DeliveredFn done = std::move(flow->on_delivered);
    done(now);
  }
}

LatencyRecorder Fabric::FlowLatencyMs(NetClass net_class) const {
  LatencyRecorder merged;
  const auto cls = static_cast<size_t>(net_class);
  for (const auto& ep : endpoints_) {
    merged.Merge(ep->flow_latency_ms[cls]);
  }
  return merged;
}

int64_t Fabric::flows_in_flight() const {
  int64_t sent = 0;
  int64_t delivered = 0;
  for (const auto& ep : endpoints_) {
    sent += ep->lifetime_flows_sent;
    delivered += ep->lifetime_flows_delivered;
  }
  return sent - delivered;
}

void Fabric::ResetStats() {
  for (auto& ep : endpoints_) {
    ep->stats = EndpointStats{};
    ep->dev->tx().ResetStats();
    ep->dev->rx().ResetStats();
    for (auto& rec : ep->flow_latency_ms) {
      rec.Clear();
    }
  }
  for (auto& rack : racks_) {
    rack->up->ResetStats();
    rack->down->ResetStats();
  }
}

}  // namespace perfiso
