// Staged setup kernels: one kernel, run inline or spread over a host's cores.
//
// A setup kernel (sort_into, radix_cluster, HashJoinStationary::build, the
// ChunkWriter) appends its work to a StagedJob as a sequence of stages.
// Inside a stage the tasks are independent: task t of T works on its own
// slice of the input, or its own range of clusters, partitions or chunks.
// A stage starts only after every task of the stage before it returned.
// Between two stages a job may run serial steps (prefix sums over the
// per-task histograms, an allocation, a chunk layout); the task that
// finishes a stage last runs them, so they are billed to a core like the
// rest of the kernel and need no extra dispatch.
//
// The single-threaded entry points build a one-task job and run it inline
// (run_inline), so every kernel has exactly one implementation, and the
// staged outputs are byte-identical for every task count: every scatter is
// stable (per-task histograms, prefix-summed in task order), and every
// later step works on whole clusters or partitions whose contents do not
// depend on the split.
//
// The cyclo-join runner (cyclo/cyclo_join.cpp) runs each host's jobs with
// one task per core: a stage's tasks go to the host's CorePool at once, and
// the jobs of the rotating and the stationary side run side by side.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <deque>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "common/assert.h"

namespace cj::join {

class StagedJob {
 public:
  /// A job whose every stage has `tasks` tasks.
  explicit StagedJob(int tasks) : tasks_(tasks) {
    CJ_CHECK_MSG(tasks >= 1, "a staged job needs at least one task per stage");
  }
  StagedJob(const StagedJob&) = delete;
  StagedJob& operator=(const StagedJob&) = delete;

  int tasks() const { return tasks_; }
  std::size_t stages() const { return stages_.size(); }

  /// Appends a stage: fn(t) for every task t in [0, tasks()).
  void add_stage(std::function<void(int task)> fn) {
    stages_.emplace_back(std::move(fn), tasks_);
  }

  /// Appends serial work that runs after every stage appended so far and
  /// before any stage appended later: the last task of the current last
  /// stage to finish runs it (of an empty stage, if the job has none yet).
  void add_serial(std::function<void()> fn) {
    if (stages_.empty()) add_stage([](int) {});
    stages_.back().serial.push_back(std::move(fn));
  }

  /// Runs task `task` of stage `stage`; the stage's last finisher then runs
  /// its serial work. The tasks of one stage may run concurrently, on any
  /// threads; the caller orders the stages.
  void run(std::size_t stage, int task) {
    CJ_CHECK(stage < stages_.size() && task >= 0 && task < tasks_);
    Stage& s = stages_[stage];
    s.fn(task);
    if (s.pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      for (auto& fn : s.serial) fn();
    }
  }

  /// Runs every task of every stage in order on the calling thread.
  void run_inline() {
    for (std::size_t s = 0; s < stages_.size(); ++s) {
      for (int t = 0; t < tasks_; ++t) run(s, t);
    }
  }

 private:
  struct Stage {
    Stage(std::function<void(int)> f, int tasks)
        : fn(std::move(f)), pending(tasks) {}
    std::function<void(int)> fn;
    std::vector<std::function<void()>> serial;
    std::atomic<int> pending;
  };

  int tasks_;
  std::deque<Stage> stages_;  ///< never moves a stage: a deque appends in place
};

/// Task t's share [begin, end) of n items split into `tasks` near-even
/// contiguous slices.
inline std::pair<std::size_t, std::size_t> task_slice(std::size_t n, int t,
                                                      int tasks) {
  const auto T = static_cast<std::size_t>(tasks);
  const auto i = static_cast<std::size_t>(t);
  return {n * i / T, n * (i + 1) / T};
}

/// Turns per-task histograms into the write cursors of a stable scatter.
/// `cursor` holds `buckets` counts per task, task t's at [t * buckets,
/// (t + 1) * buckets). Afterwards each slot is where task t writes its
/// first tuple of that bucket: within a bucket, the tasks' slices follow
/// each other in task order, as in a one-pass scatter of the whole input.
/// Returns the bucket bounds (buckets + 1 offsets).
template <typename Count>
std::vector<Count> prefix_cursors(std::vector<Count>& cursor,
                                  std::size_t buckets, int tasks) {
  std::vector<Count> bounds(buckets + 1, 0);
  Count acc = 0;
  for (std::size_t b = 0; b < buckets; ++b) {
    for (std::size_t t = 0; t < static_cast<std::size_t>(tasks); ++t) {
      Count& slot = cursor[t * buckets + b];
      const Count count = slot;
      slot = acc;
      acc += count;
    }
    bounds[b + 1] = acc;
  }
  return bounds;
}

/// Splits items 0..k-1, where item j spans [bounds[j], bounds[j+1]) of a
/// prefix-summed weight, into `tasks` contiguous groups of near-equal
/// weight. Returns tasks + 1 item indices: group t is [first[t],
/// first[t+1]). An item goes to the group its first unit of weight falls
/// in, so one heavy item is never split.
template <typename Offset>
std::vector<std::size_t> split_by_weight(std::span<const Offset> bounds,
                                         int tasks) {
  CJ_CHECK(!bounds.empty());
  const std::size_t items = bounds.size() - 1;
  const auto total = static_cast<std::size_t>(bounds.back() - bounds.front());
  std::vector<std::size_t> first(static_cast<std::size_t>(tasks) + 1, items);
  first[0] = 0;
  for (int t = 1; t < tasks; ++t) {
    const std::size_t target = static_cast<std::size_t>(bounds.front()) +
                               task_slice(total, t, tasks).first;
    // First item starting at or past the target.
    const auto it = std::lower_bound(bounds.begin(), bounds.end() - 1, target,
                                     [](Offset b, std::size_t v) {
                                       return static_cast<std::size_t>(b) < v;
                                     });
    first[static_cast<std::size_t>(t)] =
        std::max(first[static_cast<std::size_t>(t) - 1],
                 static_cast<std::size_t>(it - bounds.begin()));
  }
  return first;
}

}  // namespace cj::join
