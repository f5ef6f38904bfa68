// Flow-level network modeling primitives shared by NetDev and Fabric.
//
// A Flow is one message in flight (an RPC request/response or a bulk block):
// it serializes hop by hop through the links on its path — source NIC TX,
// optionally the ToR uplink pair, then the destination NIC RX — and fires its
// delivery callback when the last byte arrives. Traffic is classed like CPU
// time (§3.2: secondary outbound traffic is "throttled and marked
// low-priority"): primary flows preempt secondary flows in NIC TX queues, and
// secondary flows must drain the machine's egress token bucket.
#ifndef PERFISO_SRC_NET_FLOW_H_
#define PERFISO_SRC_NET_FLOW_H_

#include <cstdint>

#include "src/util/inline_function.h"
#include "src/util/sim_time.h"

namespace perfiso {

// Which service class a flow belongs to. Mirrors TenantClass, but the network
// only distinguishes the two classes a NIC can mark (there is no "OS" band).
enum class NetClass { kPrimary = 0, kSecondary = 1 };

inline constexpr int kNumNetClasses = 2;

// A flow's path cursor: the link it is queued on, or the step it resumes at.
// Intra-rack flows skip the rack links; cross-partition flows skip kPropagate.
enum class FlowHop : uint8_t {
  kTx,         // source NIC TX
  kUplink,     // source rack uplink (cross-rack only)
  kDownlink,   // destination rack downlink (cross-rack only)
  kPropagate,  // one-way propagation delay
  kRx,         // destination NIC RX
  kDeliver,    // last byte arrived
};

// One message in flight. At any moment exactly one link queue, pending event
// or PDES mailbox message owns it (std::unique_ptr); delivery destroys it.
struct Flow {
  using DeliveredFn = InlineFunction<void(SimTime), 48>;

  uint64_t id = 0;
  int src = -1;  // fabric endpoint ids
  int dst = -1;
  int64_t bytes = 0;
  NetClass net_class = NetClass::kPrimary;
  FlowHop hop = FlowHop::kTx;  // path cursor
  // Partitioned runs pay the propagation delay on the cross-partition mailbox
  // hop (it IS the PDES lookahead), so kPropagate must not charge it twice.
  bool propagation_paid = false;
  SimTime submit_time = 0;
  // Query trace this flow belongs to (0 = untraced): each hop becomes a
  // serialization/transit span on the corresponding fabric track.
  uint64_t trace_ctx = 0;
  SimTime hop_enter = 0;  // when the flow entered its current link

  // Per-hop serialization state, reset by each link when the flow enters it.
  int64_t remaining_on_link = 0;
  uint64_t arrival_seq = 0;  // FIFO order within a link

  DeliveredFn on_delivered;
};

}  // namespace perfiso

#endif  // PERFISO_SRC_NET_FLOW_H_
