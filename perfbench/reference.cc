// The benchmark's reference kernel: a fixed amount of work, independent of
// libtictac, that tells how fast the host runs right now.
//
//   perfbench_reference
//
// runs the kernel five times and prints one JSON line
// {"reference_s": [<seconds of each run>], "checksum": <n>}.
//
// The kernel is a list-scheduling discrete-event simulation of a fixed
// random task DAG (150k tasks with up to three preds each, 48 resources,
// a ready heap per resource and one completion heap): the same kind of
// heap-, pointer- and branch-heavy work as the library's simulator and
// TAC. On a shared VM other tenants slow such code by up to 1.9x for
// minutes at a time, far more than they slow plain arithmetic; they slow
// this kernel by about the same factor as the workloads. perfbench/run.py
// scales each run's times by the kernel's smallest time in that run. The
// kernel must never change: the host-speed correction of every later
// measurement rests on it doing the same work, which its checksum shows.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

namespace {

struct XorShift {
  std::uint64_t state;
  std::uint64_t Next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
};

// Runs the simulation once; returns the sum of completion times, which
// is the same on every run.
double Simulate() {
  constexpr int kTasks = 150000;
  constexpr int kResources = 48;
  constexpr int kWindow = 2000;  // preds lie at most this far back
  XorShift rng{0x9e3779b97f4a7c15ull};

  std::vector<int> resource(kTasks);
  std::vector<int> pending(kTasks, 0);
  std::vector<double> duration(kTasks);
  std::vector<double> priority(kTasks);
  std::vector<std::pair<int, int>> edges;
  for (int t = 0; t < kTasks; ++t) {
    resource[t] = static_cast<int>(rng.Next() % kResources);
    duration[t] = 1e-3 * static_cast<double>(1 + rng.Next() % 1000);
    priority[t] = static_cast<double>(rng.Next() % 4096);
    const int preds = t == 0 ? 0 : 1 + static_cast<int>(rng.Next() % 3);
    for (int i = 0; i < preds; ++i) {
      const int back = 1 + static_cast<int>(rng.Next() % std::min(t, kWindow));
      edges.emplace_back(t - back, t);
    }
  }
  // Successor lists in CSR form.
  std::vector<int> first(kTasks + 1, 0);
  for (const auto& [pred, succ] : edges) {
    ++first[pred + 1];
    ++pending[succ];
  }
  for (int t = 0; t < kTasks; ++t) first[t + 1] += first[t];
  std::vector<int> succs(edges.size());
  std::vector<int> fill(first.begin(), first.end() - 1);
  for (const auto& [pred, succ] : edges) succs[fill[pred]++] = succ;

  using Entry = std::pair<double, int>;
  std::vector<std::priority_queue<Entry>> ready(kResources);
  std::vector<char> busy(kResources, 0);
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> done;
  double now = 0.0;
  double checksum = 0.0;
  const auto dispatch = [&](int r) {
    if (busy[r] || ready[r].empty()) return;
    const int t = ready[r].top().second;
    ready[r].pop();
    busy[r] = 1;
    done.emplace(now + duration[t], t);
  };
  for (int t = 0; t < kTasks; ++t) {
    if (pending[t] == 0) ready[resource[t]].emplace(priority[t], t);
  }
  for (int r = 0; r < kResources; ++r) dispatch(r);
  while (!done.empty()) {
    const auto [time, t] = done.top();
    done.pop();
    now = time;
    checksum += now;
    busy[resource[t]] = 0;
    for (int e = first[t]; e < first[t + 1]; ++e) {
      const int s = succs[e];
      if (--pending[s] == 0) ready[resource[s]].emplace(priority[s], s);
    }
    dispatch(resource[t]);
    for (int e = first[t]; e < first[t + 1]; ++e) dispatch(resource[succs[e]]);
  }
  return checksum;
}

}  // namespace

int main() {
  constexpr int kRepeats = 5;
  std::string seconds;
  double checksum = 0.0;
  for (int i = 0; i < kRepeats; ++i) {
    const auto start = std::chrono::steady_clock::now();
    checksum = Simulate();
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    char number[32];
    std::snprintf(number, sizeof number, "%s%.9f", i == 0 ? "" : ", ", elapsed);
    seconds += number;
  }
  std::printf("{\"reference_s\": [%s], \"checksum\": %.6f}\n",
              seconds.c_str(), checksum);
  return 0;
}
