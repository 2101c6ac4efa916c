// Tracer: the simulator's observability spine.
//
// Records spans (begin/end), instants and counter samples keyed by
// (host, entity) in *virtual* time, with all strings interned so a hot run
// appends one small POD per event. Exports Chrome trace_event JSON (loads
// in chrome://tracing and Perfetto) and a compact binary form for archival
// and byte-identity tests — see docs/OBSERVABILITY.md for the schema and
// the metric/event name catalog.
//
// Zero overhead when disabled: components reach the tracer through
// Engine::tracer(), which is null by default, and every instrumentation
// site is a single pointer test. Nothing is ever recorded from inside a
// measured execute() closure — instrumentation must not perturb the
// measured CPU time that drives the virtual clock.
//
// Determinism: events are appended in engine order and timestamps are
// integer nanoseconds, so the same seed + config produces a byte-identical
// trace (provided the run uses only analytic costs; measured execute()
// durations vary across machines by design).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cj::obs {

/// Tracing knobs carried by cluster configs. A struct (not a bool) so
/// future options (binary-only, event filters) do not churn call sites.
struct TraceConfig {
  bool enabled = false;
};

/// Host id used for cluster-global events (fault injections, ring repair)
/// that no single host owns.
inline constexpr int kGlobalHost = -1;

enum class EventKind : std::uint8_t {
  kBegin = 0,    ///< span opens on (host, entity)
  kEnd = 1,      ///< innermost open span on (host, entity) closes
  kInstant = 2,  ///< point event
  kCounter = 3,  ///< sampled value of a named series
};

/// One recorded event. Strings live in the tracer's intern table.
struct TraceEvent {
  std::int64_t ts = 0;      ///< virtual time, nanoseconds
  std::int32_t host = 0;    ///< pid in the Chrome export (kGlobalHost = -1)
  std::uint32_t entity = 0; ///< interned entity ("core0", "tx", "qp2", ...)
  std::uint32_t name = 0;   ///< interned event name (unused for kEnd)
  EventKind kind = EventKind::kInstant;
  std::int64_t arg = 0;     ///< payload: bytes, counter value, link id, ...

  bool operator==(const TraceEvent&) const = default;
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // ----- recording ------------------------------------------------------
  //
  // Recording is internally locked: under the rt backend, core workers and
  // several per-host engine threads append concurrently. The sim backend is
  // single-threaded, so the uncontended lock costs a few nanoseconds per
  // event and event order — hence the golden traces — is unchanged.

  void begin(std::int64_t ts, int host, std::string_view entity,
             std::string_view name, std::int64_t arg = 0) {
    std::lock_guard<std::mutex> lk(mu_);
    events_.push_back(TraceEvent{ts, host, intern(entity), intern(name),
                                 EventKind::kBegin, arg});
  }
  void end(std::int64_t ts, int host, std::string_view entity) {
    std::lock_guard<std::mutex> lk(mu_);
    events_.push_back(
        TraceEvent{ts, host, intern(entity), 0, EventKind::kEnd, 0});
  }
  void instant(std::int64_t ts, int host, std::string_view entity,
               std::string_view name, std::int64_t arg = 0) {
    std::lock_guard<std::mutex> lk(mu_);
    events_.push_back(TraceEvent{ts, host, intern(entity), intern(name),
                                 EventKind::kInstant, arg});
  }
  void counter(std::int64_t ts, int host, std::string_view name,
               std::int64_t value) {
    std::lock_guard<std::mutex> lk(mu_);
    const std::uint32_t id = intern(name);
    events_.push_back(TraceEvent{ts, host, id, id, EventKind::kCounter, value});
  }

  // ----- inspection (not locked: read after the recording threads have
  // been joined) ---------------------------------------------------------

  const std::vector<TraceEvent>& events() const { return events_; }
  std::string_view name(std::uint32_t id) const { return names_[id]; }
  std::size_t num_names() const { return names_.size(); }
  std::uint32_t find_name(std::string_view s) const;  ///< kNoName if absent
  static constexpr std::uint32_t kNoName = 0xFFFFFFFFu;

  // ----- export ---------------------------------------------------------

  /// Chrome trace_event JSON ({"traceEvents": [...]}) with deterministic
  /// formatting: integer-derived timestamps, stable event order, interned
  /// names. Loads in chrome://tracing and ui.perfetto.dev.
  std::string chrome_json() const;

  /// Compact binary form ("CJT1" header + intern table + packed events).
  std::vector<std::uint8_t> binary() const;

  /// Parses binary() output back into `out` (which must be empty).
  /// Returns false on any structural error.
  static bool parse_binary(const std::vector<std::uint8_t>& bytes, Tracer& out);

 private:
  std::uint32_t intern(std::string_view s);  ///< caller holds mu_

  std::mutex mu_;
  std::map<std::string, std::uint32_t, std::less<>> ids_;
  std::vector<std::string> names_;
  std::vector<TraceEvent> events_;
};

/// Tracks for spans of one host that may overlap ("tx", "tx1", ...). Each
/// span takes the lowest free track and frees it when it ends, so a track
/// never holds two open spans and, under the innermost-span-closes rule,
/// every span keeps its own end time and arg. Not locked: one owner
/// (a host's engine thread) opens and closes its spans.
class SpanLanes {
 public:
  explicit SpanLanes(std::string base) : base_(std::move(base)) {}

  /// Opens a span on the lowest free track; returns that track's index.
  int begin(Tracer& t, std::int64_t ts, int host, std::string_view name,
            std::int64_t arg) {
    std::size_t lane = 0;
    while (lane < busy_.size() && busy_[lane]) ++lane;
    if (lane == busy_.size()) {
      busy_.push_back(false);
      names_.push_back(lane == 0 ? base_ : base_ + std::to_string(lane));
    }
    busy_[lane] = true;
    t.begin(ts, host, names_[lane], name, arg);
    return static_cast<int>(lane);
  }

  /// Closes the span begin() opened on track `lane`.
  void end(Tracer& t, std::int64_t ts, int host, int lane) {
    const auto idx = static_cast<std::size_t>(lane);
    busy_[idx] = false;
    t.end(ts, host, names_[idx]);
  }

 private:
  std::string base_;
  std::vector<bool> busy_;
  std::vector<std::string> names_;
};

}  // namespace cj::obs
