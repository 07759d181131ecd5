// Messages exchanged between simulated processors.
//
// The network layer is protocol-agnostic: a message body is a `std::any`
// holding a protocol-defined struct; the `type` tag names it for dispatch
// and for per-type metrics. `any_cast` guarantees type-safe extraction.
#ifndef VPART_NET_MESSAGE_H_
#define VPART_NET_MESSAGE_H_

#include <any>
#include <string>
#include <utility>

#include "common/types.h"
#include "sim/time.h"

namespace vp::net {

/// One network message. Value type; the simulated network moves it into
/// the delivery event at send time (only a duplicate is copied).
struct Message {
  ProcessorId src = kInvalidProcessor;
  ProcessorId dst = kInvalidProcessor;
  /// Message-type tag, e.g. "newvp", "commit", "probe", "ack", "read",
  /// "write". Drives dispatch and per-type statistics.
  std::string type;
  /// Protocol-defined payload struct.
  std::any body;
  /// Simulated time at which Send was called (set by the network).
  sim::SimTime sent_at = 0;
  /// Causal trace id (obs/trace.h): assigned per logical transaction (or
  /// view-change attempt) and propagated through physical ops, 2PC
  /// messages, and reliable-channel retransmits. 0 = untraced. Carried
  /// verbatim by the network; never affects routing or delivery.
  uint64_t trace = 0;
};

/// Extracts a typed payload. Aborts the process on a type mismatch, which
/// always indicates a protocol dispatch bug.
template <typename T>
const T& BodyAs(const Message& m) {
  const T* p = std::any_cast<T>(&m.body);
  if (p == nullptr) {
    std::abort();
  }
  return *p;
}

}  // namespace vp::net

#endif  // VPART_NET_MESSAGE_H_
