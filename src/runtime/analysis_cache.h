// The one analysis cache behind harness::Session, MultiJobRunner,
// ClusterSweep and sched::SchedulerService (DESIGN.md §5). TicTac's
// transfer order is a pure function of (model, cluster spec, contended
// bandwidth scale W_j/T, policy), so an analyzed Runner (graph build +
// PropertyIndex) is keyed by the first three and a schedule by all four.
// Keys are text: the model name, ClusterSpec::ToString() and
// FormatDouble(scale) joined by '\n' (which neither can contain;
// FormatDouble round-trips exactly), so they never alias.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/schedule.h"
#include "runtime/runner.h"
#include "runtime/spec.h"

namespace tictac::runtime {

class AnalysisCache {
 public:
  struct ScheduleEntry {
    core::Schedule schedule;
    bool covers_all_recvs = false;  // §5.1 gates can be enforced
  };

  // A build is a lookup that ran the construction; every other
  // successful lookup is a hit.
  struct Counters {
    std::uint64_t runner_builds = 0;
    std::uint64_t runner_hits = 0;
    std::uint64_t schedule_builds = 0;
    std::uint64_t schedule_hits = 0;
  };

  AnalysisCache() = default;
  // Lookups hand out references into the cache.
  AnalysisCache(const AnalysisCache&) = delete;
  AnalysisCache& operator=(const AnalysisCache&) = delete;

  // The Runner for the spec's (model, cluster) with the platform
  // bandwidth multiplied by `bandwidth_scale`, built on first use and
  // valid for the cache's lifetime. A construction that throws leaves no
  // entry, so a later lookup builds again. Thread-safe: different keys
  // build concurrently; a lookup of a key under construction waits for
  // that entry only.
  const Runner& runner(const ExperimentSpec& spec,
                       double bandwidth_scale = 1.0);

  // The spec.policy schedule of runner(spec, bandwidth_scale); a miss
  // makes exactly one runner lookup. Same rules as runner().
  const ScheduleEntry& schedule(const ExperimentSpec& spec,
                                double bandwidth_scale = 1.0);

  Counters counters() const;
  std::size_t runners() const;  // distinct Runners held

 private:
  template <typename T>
  struct Slot {
    std::once_flag once;
    std::unique_ptr<const T> value;
  };
  template <typename T>
  using Slots = std::unordered_map<std::string, std::shared_ptr<Slot<T>>>;

  template <typename T, typename Build>
  const T& Lookup(Slots<T>& slots, const std::string& key,
                  std::uint64_t Counters::*builds,
                  std::uint64_t Counters::*hits, Build build);

  mutable std::mutex mu_;
  Slots<Runner> runners_;
  Slots<ScheduleEntry> schedules_;
  Counters counters_;
};

}  // namespace tictac::runtime
