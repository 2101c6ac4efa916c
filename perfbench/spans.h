// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded only around the benchmark's own calls into the
// library's public functions; nothing inside the library is instrumented.
// Each span holds a name, a start and end on the steady clock, the span
// that was open when it began (its parent) and the op it belongs to. The
// recorder keeps everything in memory and writes one JSON file at the end.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace cj::perfbench {

class SpanRecorder {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    int op = -1;
  };

  int begin(std::string name, int op) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{std::move(name), now_ns(), 0, parent, op});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void end(int id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span: its duration minus the part of its interval
  /// that its direct children cover.
  std::vector<std::int64_t> self_ns() const {
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
        spans_.size());
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                  s.end_ns);
      }
    }
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      auto& kids = children[i];
      std::sort(kids.begin(), kids.end());
      std::int64_t covered = 0;
      std::int64_t reach = spans_[i].start_ns;
      for (const auto& [lo, hi] : kids) {
        const std::int64_t from = std::max(lo, reach);
        if (hi > from) covered += hi - from;
        reach = std::max(reach, hi);
      }
      self[i] = spans_[i].end_ns - spans_[i].start_ns - covered;
    }
    return self;
  }

  /// Total self time per span name, in seconds.
  std::map<std::string, double> self_seconds_by_name() const {
    std::map<std::string, double> out;
    const std::vector<std::int64_t> self = self_ns();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name] += static_cast<double>(self[i]) / 1e9;
    }
    return out;
  }

  /// Writes {"header":{...},"spans":[...]} to `path`. Returns false when
  /// the file cannot be written.
  bool write_json(const std::string& path, const std::string& header_json) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::vector<std::int64_t> self = self_ns();
    std::fprintf(f, "{\"header\":%s,\"spans\":[", header_json.c_str());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"id\":%zu,\"name\":\"%s\",\"op\":%d,\"parent\":%d,"
                   "\"start_ns\":%lld,\"end_ns\":%lld,\"self_ns\":%lld}",
                   i == 0 ? "" : ",", i, s.name.c_str(), s.op, s.parent,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(self[i]));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_ = std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null recorder (the untraced run) records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, int op)
      : rec_(rec), id_(rec != nullptr ? rec->begin(name, op) : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int id_;
};

}  // namespace cj::perfbench
