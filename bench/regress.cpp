// Noise-aware perf-regression gate over the kernel A/B baseline.
//
// Loads a BENCH_kernels.json written by micro_kernels (or by this binary's
// --write_baseline), re-measures the same kernel x variant x size cases
// median-of-N, and compares. Two defenses against noise:
//
//   * machine-speed normalization: the median measured/baseline ratio
//     across all matched cases is treated as this machine's speed relative
//     to the baseline machine, and divided out before judging any single
//     kernel. A checked-in baseline from a different machine (or a
//     thermally throttled run) shifts every kernel together; a real
//     regression shifts one kernel against the rest.
//   * two-sided thresholds: a kernel regresses only if its normalized time
//     exceeds baseline * (1 + tolerance) AND by at least min_abs_ns —
//     relative noise on microsecond kernels and absolute jitter on
//     millisecond kernels both stay below the gate.
//
// Two refusals guard the comparison itself (exit 2, nothing judged): a
// baseline tagged with a different backend (sim vs rt wall time) and a
// baseline row whose recorded SIMD dispatch tier differs from the tier
// this run resolves — cross-tier times are different code paths, not a
// regression signal.
//
// Baseline rows this run does not measure are ignored: they are neither
// judged nor tier-checked, and they do not feed the normalization. That is
// how the checked-in BENCH_kernels.json keeps the frozen numbers of the
// removed pre-optimization kernels ("legacy" rows) next to the gated ones.
//
// Exit codes: 0 clean (improvements included), 1 regression, 2 usage.
// Writes REGRESS_report.json (the verdict table, machine-readable) and
// REGRESS_profile.json (per-phase counters of one profiled rep).
//
// Flags:
//   --baseline=PATH        baseline BENCH_kernels.json (required for gating)
//   --rows=a,b,...         restrict to these sizes (default: all in baseline)
//   --reps=N               median-of-N repetitions        (default 5)
//   --tolerance=F          relative threshold             (default 0.25)
//   --min_abs_ns=N         absolute threshold             (default 50000)
//   --inject_slowdown=kernel[/variant]:PCT   multiply that kernel's measured
//                          time by (1+PCT/100) — gate self-test hook
//   --write_baseline=PATH  measure and write a fresh baseline, no gating
//   --self_check           deterministic in-process test of the gate logic
//   --report_out=PATH      verdict table    (default REGRESS_report.json)
//   --profile_out=PATH     kernel profile   (default REGRESS_profile.json)
#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "common/cputime.h"
#include "common/flags.h"
#include "harness.h"
#include "kernels_ab.h"
#include "obs/prof.h"

namespace {

using namespace cj;

// ----------------------------------------------------------- JSON reader
//
// Minimal recursive-descent parser for the machine-written BENCH_*.json
// files (objects, arrays, strings, numbers, bools, null). Good enough for
// input this binary's sibling wrote; rejects anything malformed.

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue* find(const std::string& key) const {
    auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : p_(text.data()), end_(p_ + text.size()) {}

  std::optional<JsonValue> parse() {
    auto v = value();
    skip_ws();
    if (!v.has_value() || p_ != end_) return std::nullopt;
    return v;
  }

 private:
  void skip_ws() {
    while (p_ != end_ && std::isspace(static_cast<unsigned char>(*p_))) ++p_;
  }
  bool consume(char c) {
    skip_ws();
    if (p_ == end_ || *p_ != c) return false;
    ++p_;
    return true;
  }
  bool literal(const char* lit) {
    const std::size_t n = std::strlen(lit);
    if (static_cast<std::size_t>(end_ - p_) < n || std::memcmp(p_, lit, n) != 0)
      return false;
    p_ += n;
    return true;
  }

  std::optional<JsonValue> value() {
    skip_ws();
    if (p_ == end_) return std::nullopt;
    JsonValue v;
    switch (*p_) {
      case '{': {
        ++p_;
        v.kind = JsonValue::Kind::kObject;
        if (consume('}')) return v;
        while (true) {
          skip_ws();
          auto key = string_body();
          if (!key.has_value() || !consume(':')) return std::nullopt;
          auto member = value();
          if (!member.has_value()) return std::nullopt;
          v.object.emplace(std::move(*key), std::move(*member));
          if (consume(',')) continue;
          if (consume('}')) return v;
          return std::nullopt;
        }
      }
      case '[': {
        ++p_;
        v.kind = JsonValue::Kind::kArray;
        if (consume(']')) return v;
        while (true) {
          auto element = value();
          if (!element.has_value()) return std::nullopt;
          v.array.push_back(std::move(*element));
          if (consume(',')) continue;
          if (consume(']')) return v;
          return std::nullopt;
        }
      }
      case '"': {
        auto s = string_body();
        if (!s.has_value()) return std::nullopt;
        v.kind = JsonValue::Kind::kString;
        v.string = std::move(*s);
        return v;
      }
      case 't':
        if (!literal("true")) return std::nullopt;
        v.kind = JsonValue::Kind::kBool;
        v.boolean = true;
        return v;
      case 'f':
        if (!literal("false")) return std::nullopt;
        v.kind = JsonValue::Kind::kBool;
        return v;
      case 'n':
        if (!literal("null")) return std::nullopt;
        return v;
      default: {
        char* num_end = nullptr;
        v.number = std::strtod(p_, &num_end);
        if (num_end == p_ || num_end > end_) return std::nullopt;
        v.kind = JsonValue::Kind::kNumber;
        p_ = num_end;
        return v;
      }
    }
  }

  std::optional<std::string> string_body() {
    if (p_ == end_ || *p_ != '"') return std::nullopt;
    ++p_;
    std::string out;
    while (p_ != end_ && *p_ != '"') {
      if (*p_ == '\\') {
        ++p_;
        if (p_ == end_) return std::nullopt;
      }
      out += *p_++;
    }
    if (p_ == end_) return std::nullopt;
    ++p_;  // closing quote
    return out;
  }

  const char* p_;
  const char* end_;
};

// ------------------------------------------------------------ gate logic

struct CaseKey {
  std::string kernel;
  std::string variant;
  std::int64_t rows = 0;

  bool operator<(const CaseKey& o) const {
    return std::tie(kernel, variant, rows) < std::tie(o.kernel, o.variant, o.rows);
  }
  std::string to_string() const {
    return kernel + "/" + variant + "@" + std::to_string(rows);
  }
};

struct Sample {
  double cpu_ns = 0;
  int radix_bits = 0;
  std::string tier;  ///< resolved SIMD dispatch tier ("" in pre-tier files)
};

using Table = std::map<CaseKey, Sample>;

std::optional<std::string> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  std::string out;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

/// Parses a BENCH_kernels.json trajectory into a Table (rows that carry a
/// "kernel" label; anything else in the file is ignored). `backend_out`
/// receives the file's top-level "backend" tag; files from before the tag
/// existed are sim measurements, so that is the default.
std::optional<Table> load_baseline(const std::string& path,
                                   std::string* backend_out) {
  auto text = read_file(path);
  if (!text.has_value()) return std::nullopt;
  auto root = JsonParser(*text).parse();
  if (!root.has_value()) return std::nullopt;
  *backend_out = "sim";
  if (const JsonValue* backend = root->find("backend")) {
    if (backend->kind == JsonValue::Kind::kString) {
      *backend_out = backend->string;
    }
  }
  const JsonValue* trajectory = root->find("trajectory");
  if (trajectory == nullptr || trajectory->kind != JsonValue::Kind::kArray)
    return std::nullopt;
  Table table;
  for (const JsonValue& row : trajectory->array) {
    const JsonValue* kernel = row.find("kernel");
    const JsonValue* variant = row.find("variant");
    const JsonValue* rows = row.find("rows");
    const JsonValue* cpu_ns = row.find("cpu_ns");
    if (kernel == nullptr || variant == nullptr || rows == nullptr ||
        cpu_ns == nullptr) {
      continue;
    }
    CaseKey key{kernel->string, variant->string,
                static_cast<std::int64_t>(rows->number)};
    Sample sample;
    sample.cpu_ns = cpu_ns->number;
    if (const JsonValue* bits = row.find("radix_bits")) {
      sample.radix_bits = static_cast<int>(bits->number);
    }
    if (const JsonValue* tier = row.find("tier")) {
      if (tier->kind == JsonValue::Kind::kString) sample.tier = tier->string;
    }
    table.emplace(std::move(key), sample);
  }
  return table;
}

double median(std::vector<double> xs) {
  CJ_CHECK(!xs.empty());
  std::sort(xs.begin(), xs.end());
  const std::size_t mid = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[mid] : 0.5 * (xs[mid - 1] + xs[mid]);
}

/// Median-of-`reps` measurement of every kernel case at the given sizes.
/// Every probe's checksum must equal its sort-merge reference; a mismatch
/// means the hash join is wrong and no timing can be trusted.
/// When `profiler` is non-null, one extra (untimed) profiled rep per case
/// attributes per-phase counters under entity = "kernel/variant".
Table measure(const std::vector<std::int64_t>& sizes, int reps,
              obs::prof::KernelProfiler* profiler) {
  Table out;
  for (const std::int64_t rows : sizes) {
    for (const bench::KernelCase& c : bench::make_kernel_cases(rows)) {
      // Untimed warm-up rep (faults in freshly generated inputs, primes the
      // arena); when profiling, it doubles as the attributed counter rep.
      if (profiler != nullptr) {
        const std::string entity = c.label();
        obs::prof::ScopedContext ctx(profiler, /*host=*/0, entity);
        c.run();
      } else {
        c.run();
      }
      std::vector<double> times;
      times.reserve(static_cast<std::size_t>(reps));
      std::uint64_t checksum = 0;
      for (int i = 0; i < reps; ++i) {
        times.push_back(
            static_cast<double>(measure_cpu([&] { checksum = c.run(); })));
      }
      bench::check_checksum(c, checksum);
      out[CaseKey{c.kernel, c.variant, rows}] =
          Sample{median(times), c.radix_bits, c.tier};
    }
  }
  return out;
}

enum class Status { kOk, kRegression, kImprovement, kNoBaseline };

const char* status_name(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kRegression: return "regression";
    case Status::kImprovement: return "improvement";
    case Status::kNoBaseline: return "no-baseline";
  }
  return "?";
}

struct Verdict {
  CaseKey key;
  double baseline_ns = 0;
  double measured_ns = 0;
  double normalized_ns = 0;  ///< measured / machine speed ratio
  Status status = Status::kOk;
};

struct GateResult {
  double speed_ratio = 1.0;  ///< median measured/baseline over matched cases
  std::vector<Verdict> verdicts;
  int regressions = 0;
  int improvements = 0;
};

GateResult apply_gate(const Table& baseline, const Table& measured,
                      double tolerance, double min_abs_ns) {
  GateResult result;
  std::vector<double> ratios;
  for (const auto& [key, sample] : measured) {
    auto it = baseline.find(key);
    if (it != baseline.end() && it->second.cpu_ns > 0) {
      ratios.push_back(sample.cpu_ns / it->second.cpu_ns);
    }
  }
  if (!ratios.empty()) result.speed_ratio = median(ratios);

  for (const auto& [key, sample] : measured) {
    Verdict v;
    v.key = key;
    v.measured_ns = sample.cpu_ns;
    v.normalized_ns = sample.cpu_ns / result.speed_ratio;
    auto it = baseline.find(key);
    if (it == baseline.end()) {
      v.status = Status::kNoBaseline;  // new case: informational only
    } else {
      v.baseline_ns = it->second.cpu_ns;
      const double delta = v.normalized_ns - v.baseline_ns;
      if (delta > v.baseline_ns * tolerance && delta > min_abs_ns) {
        v.status = Status::kRegression;
        ++result.regressions;
      } else if (-delta > v.baseline_ns * tolerance && -delta > min_abs_ns) {
        v.status = Status::kImprovement;
        ++result.improvements;
      }
    }
    result.verdicts.push_back(std::move(v));
  }
  return result;
}

void print_gate(const GateResult& result, double tolerance, double min_abs_ns) {
  std::printf("machine speed ratio (median measured/baseline): %.3f\n",
              result.speed_ratio);
  std::printf("thresholds: +%.0f%% relative AND +%.0f us absolute\n\n",
              tolerance * 100.0, min_abs_ns * 1e-3);
  std::printf("%-28s %12s %12s %12s %8s  %s\n", "case", "baseline_ns",
              "measured_ns", "normalized", "ratio", "status");
  for (const Verdict& v : result.verdicts) {
    const double ratio =
        v.baseline_ns > 0 ? v.normalized_ns / v.baseline_ns : 0.0;
    std::printf("%-28s %12.0f %12.0f %12.0f %7.2fx  %s\n",
                v.key.to_string().c_str(), v.baseline_ns, v.measured_ns,
                v.normalized_ns, ratio, status_name(v.status));
  }
  std::printf("\n%d regression(s), %d improvement(s) over %zu case(s)\n",
              result.regressions, result.improvements, result.verdicts.size());
}

void append_double(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

void write_report(const std::string& path, const std::string& baseline_path,
                  const GateResult& result, double tolerance, double min_abs_ns) {
  if (path.empty()) return;
  std::string out = "{\"baseline\":\"" + baseline_path + "\",\"speed_ratio\":";
  append_double(out, result.speed_ratio);
  out += ",\"tolerance\":";
  append_double(out, tolerance);
  out += ",\"min_abs_ns\":";
  append_double(out, min_abs_ns);
  out += ",\"regressions\":" + std::to_string(result.regressions);
  out += ",\"improvements\":" + std::to_string(result.improvements);
  out += ",\"cases\":[";
  bool first = true;
  for (const Verdict& v : result.verdicts) {
    if (!first) out += ",";
    first = false;
    out += "{\"kernel\":\"" + v.key.kernel + "\",\"variant\":\"" +
           v.key.variant + "\",\"rows\":" + std::to_string(v.key.rows) +
           ",\"baseline_ns\":";
    append_double(out, v.baseline_ns);
    out += ",\"measured_ns\":";
    append_double(out, v.measured_ns);
    out += ",\"normalized_ns\":";
    append_double(out, v.normalized_ns);
    out += ",\"status\":\"";
    out += status_name(v.status);
    out += "\"}";
  }
  out += "]}\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

/// Writes a fresh baseline in the exact BENCH_kernels.json row schema
/// micro_kernels emits, so either binary can produce the file the other
/// consumes.
void write_baseline_file(const std::string& path, const Table& measured) {
  std::string out = "{\"figure\":\"kernels\",\"backend\":\"sim\",\"trajectory\":[";
  bool first = true;
  for (const auto& [key, sample] : measured) {
    if (!first) out += ",";
    first = false;
    out += "{\"kernel\":\"" + key.kernel + "\",\"variant\":\"" + key.variant +
           "\",\"tier\":\"" + sample.tier +
           "\",\"rows\":" + std::to_string(key.rows) +
           ",\"radix_bits\":" + std::to_string(sample.radix_bits) + ",\"cpu_ns\":";
    append_double(out, sample.cpu_ns);
    out += ",\"items_per_sec\":";
    append_double(out, static_cast<double>(key.rows) / (sample.cpu_ns * 1e-9));
    out += "}";
  }
  out += "]}\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  CJ_CHECK_MSG(f != nullptr, "cannot write baseline file");
  std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
  std::printf("wrote baseline %s (%zu cases)\n", path.c_str(), measured.size());
}

/// --inject_slowdown=kernel[/variant]:PCT — multiplies the matching
/// measured times. Returns false on a malformed spec.
bool apply_injection(Table& measured, const std::string& spec) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0) return false;
  const std::string target = spec.substr(0, colon);
  char* end = nullptr;
  const double pct = std::strtod(spec.c_str() + colon + 1, &end);
  if (end == nullptr || *end != '\0') return false;
  const double factor = 1.0 + pct / 100.0;
  bool matched = false;
  for (auto& [key, sample] : measured) {
    if (key.kernel == target || key.kernel + "/" + key.variant == target) {
      sample.cpu_ns *= factor;
      matched = true;
    }
  }
  if (matched) {
    std::printf("injected %+.0f%% slowdown into '%s'\n", pct, target.c_str());
  } else {
    std::fprintf(stderr, "inject_slowdown: no case matches '%s'\n",
                 target.c_str());
  }
  return matched;
}

/// First measured case whose baseline row was recorded at a different SIMD
/// tier, or nullptr. Baseline rows without a "tier" key (pre-tier files)
/// and rows this run does not measure are exempt.
const CaseKey* tier_mismatch(const Table& baseline, const Table& measured) {
  for (const auto& [key, sample] : measured) {
    auto it = baseline.find(key);
    if (it == baseline.end() || it->second.tier.empty()) continue;
    if (it->second.tier != sample.tier) return &key;
  }
  return nullptr;
}

/// Checks that `gate` flagged exactly the hash_build cases, one per size,
/// and nothing else.
bool only_hash_build_flagged(const GateResult& gate, std::size_t sizes) {
  bool ok = gate.regressions == static_cast<int>(sizes);
  for (const Verdict& v : gate.verdicts) {
    if (v.status == Status::kRegression && v.key.kernel != "hash_build") {
      std::printf("FAIL: '%s' flagged but was not injected\n",
                  v.key.to_string().c_str());
      ok = false;
    }
  }
  if (!ok) print_gate(gate, 0.10, 1000.0);
  return ok;
}

/// Deterministic in-process test of the gate logic itself (registered as a
/// ctest): one set of measurements serves as its own baseline — the clean
/// compare must pass with ratio exactly 1 — then a +20% injection into one
/// kernel must be flagged even though the tolerance is 10%. The same must
/// hold against a baseline that also carries rows this run does not
/// measure (the frozen legacy-kernel rows of BENCH_kernels.json, at another
/// tier): they are ignored, with no tier refusal. No file I/O, no
/// dependence on machine speed.
int self_check(const std::vector<std::int64_t>& sizes, int reps) {
  std::printf("== regress --self_check ==\n");
  const Table baseline = measure(sizes, reps, nullptr);

  GateResult clean = apply_gate(baseline, baseline, /*tolerance=*/0.10,
                                /*min_abs_ns=*/1000.0);
  if (clean.regressions != 0 || clean.improvements != 0 ||
      clean.speed_ratio != 1.0) {
    std::printf("FAIL: self-compare not clean (ratio %.3f, %d regressions, "
                "%d improvements)\n",
                clean.speed_ratio, clean.regressions, clean.improvements);
    return 1;
  }
  std::printf("clean self-compare: ok (%zu cases)\n", clean.verdicts.size());

  Table injected = baseline;
  CJ_CHECK(apply_injection(injected, "hash_build:20"));
  // The injection must not drag other kernels over the line via the
  // normalization (median ratio stays at the unslowed majority).
  if (!only_hash_build_flagged(apply_gate(baseline, injected, 0.10, 1000.0),
                               sizes.size())) {
    std::printf("FAIL: injected +20%% on hash_build not isolated\n");
    return 1;
  }
  std::printf("injected +20%% on hash_build: flagged %zu/%zu case(s)\n",
              sizes.size(), sizes.size());

  // Frozen rows: every kernel of the removed legacy variant, 3x slower and
  // tagged scalar, plus a kernel this run has no case for at all. Were
  // they judged or normalized, the clean compare would shift by 3x.
  Table frozen = baseline;
  for (const std::int64_t rows : sizes) {
    for (const char* kernel : {"radix_cluster", "hash_build", "hash_build_staged",
                               "probe_partition", "probe_cached"}) {
      const Sample& like = baseline.at(CaseKey{"probe_cached", "optimized", rows});
      frozen.emplace(CaseKey{kernel, "legacy", rows},
                     Sample{3.0 * like.cpu_ns, like.radix_bits, "scalar"});
    }
    frozen.emplace(CaseKey{"hash_build_staged", "optimized", rows},
                   Sample{1.0, 0, "avx2"});
  }
  if (const CaseKey* key = tier_mismatch(frozen, baseline)) {
    std::printf("FAIL: tier refusal on unmeasured row '%s'\n",
                key->to_string().c_str());
    return 1;
  }
  GateResult frozen_clean = apply_gate(frozen, baseline, 0.10, 1000.0);
  if (frozen_clean.regressions != 0 || frozen_clean.improvements != 0 ||
      frozen_clean.speed_ratio != 1.0 ||
      frozen_clean.verdicts.size() != baseline.size()) {
    std::printf("FAIL: unmeasured baseline rows were judged or normalized "
                "(ratio %.3f, %zu verdicts for %zu cases)\n",
                frozen_clean.speed_ratio, frozen_clean.verdicts.size(),
                baseline.size());
    return 1;
  }
  if (!only_hash_build_flagged(apply_gate(frozen, injected, 0.10, 1000.0),
                               sizes.size())) {
    std::printf("FAIL: injection not isolated against the frozen baseline\n");
    return 1;
  }
  std::printf("baseline with %zu unmeasured row(s): ignored, injection "
              "still isolated\nPASS\n",
              frozen.size() - baseline.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  cj::bench::pin_allocator_for_measurement();
  auto flags = bench::parse_flags_or_die(argc, argv);
  const std::string baseline_path = flags.get_string("baseline", "");
  const auto rows_flag = flags.get_int_list("rows", {});
  const int reps = static_cast<int>(flags.get_int("reps", 5));
  const double tolerance = flags.get_double("tolerance", 0.25);
  const double min_abs_ns = flags.get_double("min_abs_ns", 50000.0);
  const std::string inject = flags.get_string("inject_slowdown", "");
  const std::string write_baseline = flags.get_string("write_baseline", "");
  const bool run_self_check = flags.get_bool("self_check", false);
  const std::string report_out =
      flags.get_string("report_out", "REGRESS_report.json");
  const std::string profile_out =
      flags.get_string("profile_out", "REGRESS_profile.json");
  bench::check_unused_flags(flags);

  std::vector<std::int64_t> sizes(rows_flag.begin(), rows_flag.end());

  if (run_self_check) {
    if (sizes.empty()) sizes = {1 << 14};
    return self_check(sizes, reps);
  }

  if (!write_baseline.empty()) {
    if (sizes.empty()) sizes = {1 << 16, 1 << 20, 1 << 22, bench::kRunnerShapeRows};
    write_baseline_file(write_baseline, measure(sizes, reps, nullptr));
    return 0;
  }

  if (baseline_path.empty()) {
    std::fprintf(stderr,
                 "usage: regress --baseline=BENCH_kernels.json "
                 "[--rows=...] [--reps=N] [--tolerance=F] [--min_abs_ns=N]\n"
                 "       regress --write_baseline=PATH [--rows=...]\n"
                 "       regress --self_check\n");
    return 2;
  }
  std::string baseline_backend;
  auto baseline = load_baseline(baseline_path, &baseline_backend);
  if (!baseline.has_value() || baseline->empty()) {
    std::fprintf(stderr, "cannot load baseline from %s\n",
                 baseline_path.c_str());
    return 2;
  }
  // The gate re-measures sim-backend kernel costs; judging them against a
  // wall-clock (rt) baseline would compare different quantities and either
  // mask real regressions or flag phantom ones. Refuse outright.
  if (baseline_backend != "sim") {
    std::fprintf(stderr,
                 "baseline %s is tagged backend=\"%s\" but this gate "
                 "measures sim-backend kernels; refusing to cross-compare "
                 "(re-create the baseline without --backend=rt)\n",
                 baseline_path.c_str(), baseline_backend.c_str());
    return 2;
  }
  if (sizes.empty()) {
    // Default: every size the baseline covers.
    std::vector<std::int64_t> all;
    for (const auto& [key, sample] : *baseline) all.push_back(key.rows);
    std::sort(all.begin(), all.end());
    all.erase(std::unique(all.begin(), all.end()), all.end());
    sizes = std::move(all);
  } else {
    // Gate only the sizes we will measure.
    for (auto it = baseline->begin(); it != baseline->end();) {
      const std::int64_t r = it->first.rows;
      if (std::find(sizes.begin(), sizes.end(), r) == sizes.end()) {
        it = baseline->erase(it);
      } else {
        ++it;
      }
    }
  }

  std::printf("== perf-regression gate (median of %d, thread CPU time) ==\n",
              reps);
  obs::prof::KernelProfiler profiler;
  std::printf("counters: %s\n\n", profiler.hardware() ? "hw" : "fallback");
  Table measured = measure(sizes, reps, &profiler);
  if (!inject.empty() && !apply_injection(measured, inject)) return 2;

  // Cross-tier refusal, the SIMD sibling of the backend refusal above: a
  // baseline measured at one dispatch tier (say avx2) judged against a
  // re-measurement at another (a scalar-forced CI job, a different
  // machine) compares different code paths, and the machine-speed
  // normalization would silently absorb most of the difference. Refuse.
  if (const CaseKey* key = tier_mismatch(*baseline, measured)) {
    const std::string& base_tier = baseline->at(*key).tier;
    std::fprintf(stderr,
                 "baseline case %s was measured at SIMD tier \"%s\" but "
                 "this run dispatches to \"%s\"; refusing to cross-compare "
                 "(re-create the baseline at this tier, or match it via "
                 "CJ_SIMD=%s)\n",
                 key->to_string().c_str(), base_tier.c_str(),
                 measured.at(*key).tier.c_str(), base_tier.c_str());
    return 2;
  }

  GateResult result = apply_gate(*baseline, measured, tolerance, min_abs_ns);
  print_gate(result, tolerance, min_abs_ns);
  write_report(report_out, baseline_path, result, tolerance, min_abs_ns);
  if (!profile_out.empty()) {
    const std::string json = profiler.snapshot().to_json();
    std::FILE* f = std::fopen(profile_out.c_str(), "w");
    if (f != nullptr) {
      std::fwrite(json.data(), 1, json.size(), f);
      std::fputc('\n', f);
      std::fclose(f);
      std::printf("wrote %s\n", profile_out.c_str());
    }
  }
  return result.regressions > 0 ? 1 : 0;
}
