#include "runtime/analysis_cache.h"

#include "models/zoo.h"

namespace tictac::runtime {
namespace {

std::string RunnerKey(const ExperimentSpec& spec, double bandwidth_scale) {
  return spec.model + '\n' + spec.cluster.ToString() + '\n' +
         FormatDouble(bandwidth_scale);
}

}  // namespace

template <typename T, typename Build>
const T& AnalysisCache::Lookup(Slots<T>& slots, const std::string& key,
                               std::uint64_t Counters::*builds,
                               std::uint64_t Counters::*hits, Build build) {
  std::shared_ptr<Slot<T>> slot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::shared_ptr<Slot<T>>& entry = slots[key];
    if (!entry) entry = std::make_shared<Slot<T>>();
    slot = entry;
  }
  // Built outside mu_, under the slot's once_flag.
  bool built = false;
  try {
    std::call_once(slot->once, [&] {
      slot->value = build();
      built = true;
    });
  } catch (...) {
    // Drop the dead slot (unless a retry already replaced it). Failures
    // are a function of the key (unknown model or policy, invalid
    // cluster), so a waiter on this slot fails the same way.
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = slots.find(key);
    if (it != slots.end() && it->second == slot) slots.erase(it);
    throw;
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++(counters_.*(built ? builds : hits));
  return *slot->value;
}

const Runner& AnalysisCache::runner(const ExperimentSpec& spec,
                                    double bandwidth_scale) {
  return Lookup(runners_, RunnerKey(spec, bandwidth_scale),
                &Counters::runner_builds, &Counters::runner_hits, [&] {
                  ClusterConfig config = spec.BuildCluster();
                  config.platform.bandwidth_bps *= bandwidth_scale;
                  return std::make_unique<const Runner>(
                      models::FindModel(spec.model), std::move(config));
                });
}

const AnalysisCache::ScheduleEntry& AnalysisCache::schedule(
    const ExperimentSpec& spec, double bandwidth_scale) {
  return Lookup(schedules_,
                RunnerKey(spec, bandwidth_scale) + '\n' + spec.policy,
                &Counters::schedule_builds, &Counters::schedule_hits, [&] {
                  const Runner& analyzed = runner(spec, bandwidth_scale);
                  const core::Graph& graph = analyzed.worker_graph();
                  core::Schedule schedule = analyzed.MakeSchedule(spec.policy);
                  const bool covers = schedule.size() == graph.size() &&
                                      schedule.CoversAllRecvs(graph);
                  return std::make_unique<const ScheduleEntry>(
                      ScheduleEntry{std::move(schedule), covers});
                });
}

AnalysisCache::Counters AnalysisCache::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

std::size_t AnalysisCache::runners() const {
  std::lock_guard<std::mutex> lock(mu_);
  return runners_.size();
}

}  // namespace tictac::runtime
