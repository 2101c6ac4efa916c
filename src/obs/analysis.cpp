#include "obs/analysis.h"

#include <algorithm>
#include <map>
#include <set>

namespace cj::obs {

namespace {

/// `prefix` followed only by decimal digits (at least one unless
/// `bare_ok`).
bool is_numbered(std::string_view entity, std::string_view prefix, bool bare_ok) {
  if (!entity.starts_with(prefix)) return false;
  const std::string_view digits = entity.substr(prefix.size());
  if (digits.empty()) return bare_ok;
  for (const char c : digits) {
    if (c < '0' || c > '9') return false;
  }
  return true;
}

bool is_core_entity(std::string_view entity) {
  return is_numbered(entity, "core", /*bare_ok=*/false);
}

/// The transmitter's send tracks: "tx", then "tx1", "tx2", ... for sends
/// that overlap.
bool is_tx_entity(std::string_view entity) {
  return is_numbered(entity, "tx", /*bare_ok=*/true);
}

/// Merges half-open intervals into a sorted disjoint cover.
std::vector<std::pair<std::int64_t, std::int64_t>> merge_intervals(
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::vector<std::pair<std::int64_t, std::int64_t>> merged;
  for (const auto& [start, end] : intervals) {
    if (start >= end) continue;
    if (!merged.empty() && start <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, end);
    } else {
      merged.emplace_back(start, end);
    }
  }
  return merged;
}

std::int64_t overlap_with(
    const std::vector<std::pair<std::int64_t, std::int64_t>>& merged,
    std::int64_t start, std::int64_t end) {
  std::int64_t total = 0;
  // First interval whose end is beyond our start.
  auto it = std::lower_bound(
      merged.begin(), merged.end(), start,
      [](const auto& iv, std::int64_t s) { return iv.second <= s; });
  for (; it != merged.end() && it->first < end; ++it) {
    total += std::min(end, it->second) - std::max(start, it->first);
  }
  return total;
}

}  // namespace

std::vector<Span> extract_spans(const Tracer& trace) {
  std::vector<Span> spans;
  // Per (host, entity): indices of currently-open spans, innermost last.
  std::map<std::pair<std::int32_t, std::uint32_t>, std::vector<std::size_t>> open;
  std::int64_t last_ts = 0;
  for (const TraceEvent& e : trace.events()) {
    last_ts = std::max(last_ts, e.ts);
    if (e.kind == EventKind::kBegin) {
      auto& stack = open[{e.host, e.entity}];
      Span s;
      s.host = e.host;
      s.entity = e.entity;
      s.name = e.name;
      s.start = e.ts;
      s.end = e.ts;
      s.arg = e.arg;
      s.depth = static_cast<std::uint32_t>(stack.size());
      stack.push_back(spans.size());
      spans.push_back(s);
    } else if (e.kind == EventKind::kEnd) {
      auto it = open.find({e.host, e.entity});
      if (it == open.end() || it->second.empty()) continue;  // stray end
      spans[it->second.back()].end = e.ts;
      it->second.pop_back();
    }
  }
  // Close spans the run left open at the final timestamp.
  for (auto& [key, stack] : open) {
    for (const std::size_t idx : stack) spans[idx].end = last_ts;
  }
  return spans;
}

std::vector<HostOverlap> overlap_by_host(const Tracer& trace) {
  const std::vector<Span> spans = extract_spans(trace);
  const std::uint32_t join_name = trace.find_name("join");

  struct HostAcc {
    std::vector<std::pair<std::int64_t, std::int64_t>> tx;
    std::vector<const Span*> join;
  };
  std::map<int, HostAcc> hosts;
  for (const Span& s : spans) {
    if (s.host == kGlobalHost) continue;
    const std::string_view entity = trace.name(s.entity);
    HostAcc& acc = hosts[s.host];
    if (is_tx_entity(entity)) {
      acc.tx.emplace_back(s.start, s.end);
    } else if (is_core_entity(entity) && s.name == join_name) {
      acc.join.push_back(&s);
    }
  }

  std::vector<HostOverlap> out;
  for (auto& [host, acc] : hosts) {
    HostOverlap o;
    o.host = host;
    const auto windows = merge_intervals(std::move(acc.tx));
    for (const auto& [start, end] : windows) o.transfer_time += end - start;
    for (const Span* s : acc.join) {
      o.join_busy_total += s->end - s->start;
      o.join_busy_in_transfer += overlap_with(windows, s->start, s->end);
    }
    if (o.transfer_time > 0) {
      o.ratio = static_cast<double>(o.join_busy_in_transfer) /
                static_cast<double>(o.transfer_time);
    }
    out.push_back(o);
  }
  return out;
}

CriticalPath critical_path(const Tracer& trace) {
  const std::vector<Span> spans = extract_spans(trace);

  CriticalPath cp;
  for (const Span& s : spans) {
    if (s.host == kGlobalHost || !is_core_entity(trace.name(s.entity))) continue;
    if (s.end > cp.end || (s.end == cp.end && cp.host == -1)) {
      cp.end = s.end;
      cp.host = s.host;
    }
  }
  if (cp.host == -1) return cp;

  // Sweep the critical host's core spans: each elementary interval goes to
  // the innermost active span (latest start; ties broken by record order),
  // gaps count as idle. Segments partition [0, end] exactly.
  struct Edge {
    std::int64_t t;
    bool open;
    std::size_t idx;
  };
  std::vector<Edge> edges;
  std::vector<const Span*> host_spans;
  for (const Span& s : spans) {
    if (s.host != cp.host || !is_core_entity(trace.name(s.entity))) continue;
    if (s.start >= s.end) continue;
    const std::size_t idx = host_spans.size();
    host_spans.push_back(&s);
    edges.push_back({s.start, true, idx});
    edges.push_back({s.end, false, idx});
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    if (a.t != b.t) return a.t < b.t;
    return a.open < b.open;  // close before open at the same instant
  });

  std::map<std::string, std::int64_t> by_tag;
  std::set<std::pair<std::int64_t, std::size_t>> active;  // (start, idx)
  std::int64_t cursor = 0;
  for (const Edge& edge : edges) {
    if (edge.t > cursor) {
      if (active.empty()) {
        cp.idle += edge.t - cursor;
      } else {
        const Span* innermost = host_spans[active.rbegin()->second];
        by_tag[std::string(trace.name(innermost->name))] += edge.t - cursor;
      }
      cursor = edge.t;
    }
    const Span* s = host_spans[edge.idx];
    if (edge.open) {
      active.insert({s->start, edge.idx});
    } else {
      active.erase({s->start, edge.idx});
    }
  }
  cp.by_tag.assign(by_tag.begin(), by_tag.end());
  std::sort(cp.by_tag.begin(), cp.by_tag.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  return cp;
}

}  // namespace cj::obs
