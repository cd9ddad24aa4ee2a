#include "trace/tracer.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/json.h"

namespace tictac::trace {

std::vector<Span> CollectSpans(const runtime::Lowering& lowering,
                               const sim::SimResult& result,
                               const core::Graph& worker_graph) {
  std::vector<Span> spans;
  spans.reserve(lowering.tasks.size());
  for (std::size_t t = 0; t < lowering.tasks.size(); ++t) {
    const sim::Task& task = lowering.tasks[t];
    Span span;
    span.resource = task.resource;
    span.worker = task.worker;
    span.kind = task.kind;
    span.start = result.start[t];
    span.end = result.end[t];
    if (task.op != core::kInvalidOp) {
      span.name = worker_graph.op(task.op).name;
      if (task.worker >= 0) {
        std::string name = "w";
        name += std::to_string(task.worker);
        name += '/';
        name += span.name;
        span.name = std::move(name);
      }
    } else {
      span.name = std::string("ps/") + core::ToString(task.kind);
    }
    spans.push_back(std::move(span));
  }
  return spans;
}

std::string ToChromeTraceJson(const std::vector<Span>& spans) {
  std::ostringstream os;
  os << "[\n";
  bool first = true;
  for (const Span& span : spans) {
    if (!first) os << ",\n";
    first = false;
    // Span names embed op names from user-loaded graphs (core/io), so
    // they may contain '"', '\' or control characters; emitting them
    // verbatim would produce JSON chrome://tracing rejects.
    os << R"({"name":")" << util::JsonEscape(span.name)
       << R"(","ph":"X","pid":0,"tid":)" << span.resource << R"(,"ts":)"
       << span.start * 1e6 << R"(,"dur":)" << (span.end - span.start) * 1e6
       << R"(,"cat":")" << util::JsonEscape(core::ToString(span.kind))
       << R"("})";
  }
  os << "\n]\n";
  return os.str();
}

void WriteChromeTrace(const std::vector<Span>& spans,
                      const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open trace file " + path);
  out << ToChromeTraceJson(spans);
}

}  // namespace tictac::trace
