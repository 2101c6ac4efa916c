// Derived analyses over a recorded trace.
//
// The paper's central performance claim (Sec. V, Fig. 3 context) is that
// cyclo-join hides the ring's network time behind join work. The raw trace
// makes that falsifiable: overlap_by_host() measures how much join-tagged
// core time runs *while* the host's transmitter has a send in flight, and
// critical_path() attributes the makespan of the slowest host to its
// per-tag core activity plus idle gaps.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace cj::obs {

/// A reconstructed span: matched kBegin/kEnd pair on one (host, entity).
struct Span {
  std::int32_t host = 0;
  std::uint32_t entity = 0;
  std::uint32_t name = 0;
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int64_t arg = 0;
  std::uint32_t depth = 0;  ///< nesting level within its (host, entity)
};

/// Pairs up every begin/end on each (host, entity) track. Ends without a
/// matching begin are ignored; begins without an end are closed at the
/// last event timestamp (a trace cut mid-run stays analyzable).
std::vector<Span> extract_spans(const Tracer& trace);

/// Communication/computation overlap of one host.
struct HostOverlap {
  int host = 0;
  /// Union length of this host's transmitter send windows (the "send"
  /// spans on its "tx", "tx1", ... tracks; overlapping sends count once).
  std::int64_t transfer_time = 0;
  /// Join-tagged core-busy time over the whole run (with multiplicity:
  /// two cores joining for 1 ms contribute 2 ms).
  std::int64_t join_busy_total = 0;
  /// The part of join_busy_total that falls inside the transfer windows.
  std::int64_t join_busy_in_transfer = 0;
  /// join_busy_in_transfer / transfer_time; > 1 means several cores kept
  /// joining while the NIC moved data — the paper's "network is hidden".
  double ratio = 0.0;
};

/// Per-host overlap, ordered by host id. Hosts without any tx span (ring
/// of one) report transfer_time = 0 and ratio = 0.
std::vector<HostOverlap> overlap_by_host(const Tracer& trace);

/// Where the makespan went on the host that finishes last.
struct CriticalPath {
  int host = -1;          ///< host whose last core span ends latest
  std::int64_t end = 0;   ///< that host's last span end (the makespan)
  std::int64_t idle = 0;  ///< [0, end] time with no core span active
  /// Core-occupied time attributed to the innermost active span's name
  /// (ties: latest start wins), descending. idle + sum(by_tag) == end.
  std::vector<std::pair<std::string, std::int64_t>> by_tag;
};

CriticalPath critical_path(const Tracer& trace);

}  // namespace cj::obs
