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
  ep->dev = std::make_unique<NetDev>(sim, config_.link_rate_bps, config_.chunk_bytes,
                                     LinkSink(), LinkSink());
  if (static_cast<size_t>(partition) >= open_rack_.size()) {
    open_rack_.resize(static_cast<size_t>(partition) + 1, -1);
  }
  int rack = open_rack_[static_cast<size_t>(partition)];
  if (rack < 0 || racks_[static_cast<size_t>(rack)]->machines >= config_.machines_per_rack) {
    rack = static_cast<int>(racks_.size());
    const double uplink_rate = config_.link_rate_bps *
                               static_cast<double>(config_.machines_per_rack) /
                               config_.uplink_oversubscription;
    auto r = std::make_unique<Rack>();
    r->partition = partition;
    r->up = std::make_unique<Link>(sim, uplink_rate, config_.chunk_bytes,
                                   Link::Discipline::kFifo, LinkSink());
    r->down = std::make_unique<Link>(sim, uplink_rate, config_.chunk_bytes,
                                     Link::Discipline::kFifo, LinkSink());
    racks_.push_back(std::move(r));
    open_rack_[static_cast<size_t>(partition)] = rack;
  }
  ep->rack = rack;
  ++racks_[static_cast<size_t>(rack)]->machines;
  endpoints_.push_back(std::move(ep));
  return endpoint;
}

void Fabric::SetEgressBucketProvider(int endpoint, Link::EgressBucketFn provider) {
  endpoints_[static_cast<size_t>(endpoint)]->dev->tx().SetEgressBucketProvider(
      std::move(provider));
}

void Fabric::Send(int src, int dst, int64_t bytes, NetClass net_class,
                  Flow::DeliveredFn done, uint64_t trace_ctx) {
  assert(src >= 0 && src < num_endpoints());
  assert(dst >= 0 && dst < num_endpoints());
  Endpoint& src_ep = *endpoints_[static_cast<size_t>(src)];
  auto flow = std::make_unique<Flow>();
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
    flow->hop = FlowHop::kDeliver;
    src_ep.sim->ScheduleAfter(0, Resume(std::move(flow)));
    return;
  }
  Advance(std::move(flow), src_ep.sim->Now());
}

Link::FlowSink Fabric::LinkSink() {
  return [this](std::unique_ptr<Flow> flow, SimTime now) {
    if (tracer_ != nullptr && flow->trace_ctx != 0 && now > flow->hop_enter) {
      EmitHopSpan(*flow, now);
    }
    flow->hop = static_cast<FlowHop>(static_cast<int>(flow->hop) + 1);
    Advance(std::move(flow), now);
  };
}

EventCallback Fabric::Resume(std::unique_ptr<Flow> flow) {
  return [this, flow = std::move(flow)]() mutable {
    const SimTime now = endpoints_[static_cast<size_t>(flow->dst)]->sim->Now();
    Advance(std::move(flow), now);
  };
}

void Fabric::Advance(std::unique_ptr<Flow> flow, SimTime now) {
  const Endpoint& src = *endpoints_[static_cast<size_t>(flow->src)];
  const Endpoint& dst = *endpoints_[static_cast<size_t>(flow->dst)];
  // Source-side hops (TX, uplink) run on src's partition; destination-side
  // steps (downlink onwards) on dst's. In sequential mode these are one
  // simulator.
  Link* link = nullptr;
  switch (flow->hop) {
    case FlowHop::kTx:
      link = &src.dev->tx();
      break;
    case FlowHop::kUplink:
      if (src.rack != dst.rack) {
        link = racks_[static_cast<size_t>(src.rack)]->up.get();
        break;
      }
      // Intra-rack: the ToR forwards at line rate; skip to propagation.
      // Racks never span partitions, so this stays on one simulator.
      flow->hop = FlowHop::kPropagate;
      [[fallthrough]];
    case FlowHop::kPropagate:
      // Last switch hop done: pay propagation, then serialize into the
      // destination NIC (the incast point).
      flow->hop = FlowHop::kRx;
      if (!flow->propagation_paid) {
        dst.sim->ScheduleAfter(config_.base_latency, Resume(std::move(flow)));
        return;
      }
      [[fallthrough]];
    case FlowHop::kRx:
      if (tracer_ != nullptr && flow->trace_ctx != 0 && !flow->propagation_paid) {
        // Propagation ended just now, base_latency after the last switch hop.
        tracer_->Span(flow->trace_ctx, "net.propagate", SpanCategory::kNetTransit,
                      dst.rx_track, now - config_.base_latency, now);
      }
      link = &dst.dev->rx();
      break;
    case FlowHop::kDownlink:
      if (src.partition != dst.partition && !flow->propagation_paid) {
        // Cross-partition handoff: the propagation delay is exactly the
        // conservative lookahead, so `now + base_latency` always lands at or
        // beyond the current window's end — the Post is legal by
        // construction. Propagation is paid here, not after the downlink.
        flow->propagation_paid = true;
        psim_->Post(dst.partition, now + config_.base_latency, Resume(std::move(flow)));
        return;
      }
      link = racks_[static_cast<size_t>(dst.rack)]->down.get();
      break;
    case FlowHop::kDeliver:
      Deliver(std::move(flow), now);
      return;
  }
  flow->hop_enter = now;
  link->Enqueue(std::move(flow));
}

void Fabric::EmitHopSpan(const Flow& flow, SimTime now) {
  const Endpoint& src = *endpoints_[static_cast<size_t>(flow.src)];
  const Endpoint& dst = *endpoints_[static_cast<size_t>(flow.dst)];
  switch (flow.hop) {
    case FlowHop::kTx:
      tracer_->Span(flow.trace_ctx, "net.tx", SpanCategory::kSerialization,
                    src.tx_track, flow.hop_enter, now);
      break;
    case FlowHop::kUplink:
      tracer_->Span(flow.trace_ctx, "net.uplink", SpanCategory::kNetTransit,
                    racks_[static_cast<size_t>(src.rack)]->up_track, flow.hop_enter, now);
      break;
    case FlowHop::kDownlink:
      tracer_->Span(flow.trace_ctx, "net.downlink", SpanCategory::kNetTransit,
                    racks_[static_cast<size_t>(dst.rack)]->down_track, flow.hop_enter, now);
      break;
    case FlowHop::kRx:
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

void Fabric::Deliver(std::unique_ptr<Flow> flow, SimTime now) {
  Endpoint& dst_ep = *endpoints_[static_cast<size_t>(flow->dst)];
  const auto cls = static_cast<size_t>(flow->net_class);
  ++dst_ep.stats.flows_delivered[cls];
  dst_ep.stats.bytes_received[cls] += flow->bytes;
  dst_ep.flow_latency_ms[cls].Add(ToMillis(now - flow->submit_time));
  ++dst_ep.lifetime_flows_delivered;
  if (flow->on_delivered) {
    flow->on_delivered(now);
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
