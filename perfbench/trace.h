// Span recording and the independent simulation-trace check used by the
// benchmark's traced runs.
#pragma once

#include <chrono>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "sim/task.h"

namespace perfbench {

// Records spans (name, start, end, parent) in memory, from the
// benchmark's side of each call into a layer. Single-threaded: spans
// nest strictly, and the innermost open span is the parent of the next.
class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    const char* name;  // a string literal, e.g. "sim.run"
    double start_s;    // seconds since the tracer was created
    double end_s;
    int parent;  // index into spans(), -1 for a top-level span
  };

  // Opens a span on construction and closes it on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_;
  };

  Tracer() : origin_(Clock::now()) {}

  // Ends the traced region; Wall() is measured up to this point.
  void Stop() { wall_s_ = Now(); }
  double Wall() const { return wall_s_; }

  const std::vector<Span>& spans() const { return spans_; }

  // Per span name: total span duration minus the part covered by child
  // spans. The self times plus Unattributed() sum to Wall().
  std::map<std::string, double> SelfTimes() const;
  double Unattributed() const;
  // Longest single span with this name, in seconds (0 when none).
  double MaxSpan(const char* name) const;

  // Chrome trace-event JSON ("X" events, microseconds), with each span's
  // parent index in its args.
  std::string ToChromeJson() const;

 private:
  double Now() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  double wall_s_ = 0.0;
};

// Result of CheckTrace: how many violations, and the first few described.
struct TraceCheck {
  std::size_t violations = 0;
  std::vector<std::string> messages;
  bool ok() const { return violations == 0; }
};

// Independent check of one simulated iteration against the task list the
// engine ran: every start/end is finite with end >= start, each resource
// runs one task at a time, and no task starts before each of its preds
// ends. Written apart from the engine; shares only the data types.
TraceCheck CheckTrace(const std::vector<tictac::sim::Task>& tasks,
                      const tictac::sim::SimResult& run);

}  // namespace perfbench
