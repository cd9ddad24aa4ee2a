#include "trace.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <tuple>

#include "runtime/spec.h"
#include "util/json.h"

namespace perfbench {

using tictac::runtime::FormatDouble;

double Tracer::Now() const {
  return std::chrono::duration<double>(Clock::now() - origin_).count();
}

Tracer::Scope::Scope(Tracer& tracer, const char* name)
    : tracer_(tracer), index_(static_cast<int>(tracer.spans_.size())) {
  const int parent = tracer.open_.empty() ? -1 : tracer.open_.back();
  tracer.spans_.push_back(Span{name, tracer.Now(), 0.0, parent});
  tracer.open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  tracer_.spans_[static_cast<std::size_t>(index_)].end_s = tracer_.Now();
  tracer_.open_.pop_back();
}

std::map<std::string, double> Tracer::SelfTimes() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_s - spans_[i].start_s;
    if (spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -=
          spans_[i].end_s - spans_[i].start_s;
    }
  }
  std::map<std::string, double> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    by_name[spans_[i].name] += self[i];
  }
  return by_name;
}

double Tracer::Unattributed() const {
  double covered = 0.0;
  for (const Span& span : spans_) {
    if (span.parent < 0) covered += span.end_s - span.start_s;
  }
  return wall_s_ - covered;
}

double Tracer::MaxSpan(const char* name) const {
  double longest = 0.0;
  for (const Span& span : spans_) {
    if (std::strcmp(span.name, name) == 0) {
      longest = std::max(longest, span.end_s - span.start_s);
    }
  }
  return longest;
}

std::string Tracer::ToChromeJson() const {
  std::string json = "{\"traceEvents\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    json += i == 0 ? "\n" : ",\n";
    json += "{\"name\": \"" + tictac::util::JsonEscape(span.name) +
            "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": " +
            std::to_string(span.start_s * 1e6) +
            ", \"dur\": " + std::to_string((span.end_s - span.start_s) * 1e6) +
            ", \"args\": {\"id\": " + std::to_string(i) +
            ", \"parent\": " + std::to_string(span.parent) + "}}";
  }
  json += "\n]}\n";
  return json;
}

TraceCheck CheckTrace(const std::vector<tictac::sim::Task>& tasks,
                      const tictac::sim::SimResult& run) {
  TraceCheck check;
  const auto report = [&check](std::string message) {
    ++check.violations;
    if (check.messages.size() < 5) check.messages.push_back(std::move(message));
  };
  const std::size_t n = tasks.size();
  if (run.start.size() != n || run.end.size() != n) {
    report("result covers " + std::to_string(run.start.size()) + "/" +
           std::to_string(run.end.size()) + " start/end entries for " +
           std::to_string(n) + " tasks");
    return check;
  }

  int num_resources = 0;
  for (std::size_t t = 0; t < n; ++t) {
    num_resources = std::max(num_resources, tasks[t].resource + 1);
    if (!std::isfinite(run.start[t]) || !std::isfinite(run.end[t]) ||
        run.end[t] < run.start[t]) {
      report("task " + std::to_string(t) + " has interval [" +
             FormatDouble(run.start[t]) + ", " + FormatDouble(run.end[t]) +
             "]");
    }
    for (const tictac::sim::TaskId pred : tasks[t].preds) {
      const auto p = static_cast<std::size_t>(pred);
      if (p >= n) {
        report("task " + std::to_string(t) + " names pred " +
               std::to_string(pred) + " outside the graph");
      } else if (run.start[t] < run.end[p]) {
        report("task " + std::to_string(t) + " starts at " +
               FormatDouble(run.start[t]) + " before pred " +
               std::to_string(pred) + " ends at " + FormatDouble(run.end[p]));
      }
    }
  }

  // Bucket tasks by resource (counting sort), then walk each bucket in
  // start order: a task must not start while an earlier one still runs.
  std::vector<std::size_t> offset(static_cast<std::size_t>(num_resources) + 1);
  for (const auto& task : tasks) {
    if (task.resource < 0) {
      report("a task names negative resource " + std::to_string(task.resource));
      return check;
    }
    ++offset[static_cast<std::size_t>(task.resource) + 1];
  }
  std::partial_sum(offset.begin(), offset.end(), offset.begin());
  std::vector<std::size_t> order(n);
  {
    std::vector<std::size_t> fill(offset.begin(), offset.end() - 1);
    for (std::size_t t = 0; t < n; ++t) {
      order[fill[static_cast<std::size_t>(tasks[t].resource)]++] = t;
    }
  }
  for (std::size_t r = 0; r + 1 < offset.size(); ++r) {
    const auto first = order.begin() + static_cast<std::ptrdiff_t>(offset[r]);
    const auto last = order.begin() + static_cast<std::ptrdiff_t>(offset[r + 1]);
    std::sort(first, last, [&run](std::size_t a, std::size_t b) {
      return std::tie(run.start[a], run.end[a], a) <
             std::tie(run.start[b], run.end[b], b);
    });
    std::size_t busy = n;  // the task whose end is latest so far
    for (auto it = first; it != last; ++it) {
      const std::size_t t = *it;
      if (busy != n && run.start[t] < run.end[busy]) {
        report("resource " + std::to_string(r) + " starts task " +
               std::to_string(t) + " at " + FormatDouble(run.start[t]) +
               " while task " + std::to_string(busy) + " runs until " +
               FormatDouble(run.end[busy]));
      }
      if (busy == n || run.end[t] > run.end[busy]) busy = t;
    }
  }
  return check;
}

}  // namespace perfbench
