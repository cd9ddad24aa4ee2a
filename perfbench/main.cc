// One execution of one benchmark workload, reported as a JSON line.
//
//   perfbench --workload <name> --seed <n> --mode measure|setup|trace
//             [--output FILE] [--spans FILE]
//
// measure: set up once, run the workload's public entry point, check its
// outputs, and report setup_s, wall_s (set-up plus run), each part's run
// time (parts_s), peak RSS, the simulated results and the work counters
// the library itself reports.
// setup: only the set-up part of measure. Each process sets up once, cold,
// so first-call costs count; perfbench/run.py combines the processes.
// trace: run the traced decomposition instead and report per-layer self
// times and counters. --output writes the canonical simulated output;
// --spans writes the traced run's spans as Chrome trace-event JSON.
// perfbench/run.py drives this binary.
//
// Refuses to measure a non-Release build unless PERFBENCH_ALLOW_DEBUG=1.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "runtime/spec.h"
#include "util/json.h"
#include "workloads.h"

namespace {

using perfbench::Counters;
using perfbench::Outcome;
using tictac::runtime::FormatDouble;
using tictac::util::JsonEscape;

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Every span name a traced run may record, as its per-layer metric. A
// span outside this list would break the self-time sum, so it is an
// error.
const std::vector<std::string>& LayerSpans() {
  static const std::vector<std::string> names = {
      "runtime.parse", "models.graph",       "core.chunk",
      "core.index",    "core.tac",           "core.tic",
      "ir.lower",      "sim.build",          "sim.run",
      "runtime.stats", "runtime.sweep_build", "runtime.fabric_build",
      "runtime.sweep_run", "sched.run",      "bench.check"};
  return names;
}

const std::vector<std::string>& CounterNames() {
  static const std::vector<std::string> names = {
      "sim.tasks_run",      "core.schedules",   "core.recvs",
      "ir.tasks",           "core.index_builds", "models.ops",
      "sched.index_builds", "sched.relowerings", "sched.sim_runs",
      "sched.queued"};
  return names;
}

double Ratio(double part, double whole) { return whole > 0.0 ? part / whole : 0.0; }

std::string Hex(std::uint64_t value) {
  static const char* digits = "0123456789abcdef";
  std::string hex(16, '0');
  for (int i = 15; i >= 0; --i, value >>= 4) hex[static_cast<std::size_t>(i)] = digits[value & 15];
  return hex;
}

std::string Digest(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const unsigned char c : text) hash = (hash ^ c) * 0x100000001b3ull;
  return Hex(hash);
}

std::string Number(double value) {
  return std::isfinite(value) ? FormatDouble(value) : "null";
}

// `"key": value` pairs joined into a JSON object.
std::string Object(const std::vector<std::pair<std::string, std::string>>& fields) {
  std::string json = "{";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + JsonEscape(fields[i].first) +
            "\": " + fields[i].second;
  }
  return json + "}";
}

std::string Quote(const std::string& text) { return "\"" + JsonEscape(text) + "\""; }

std::string CounterObject(const Counters& counters) {
  std::vector<std::pair<std::string, std::string>> fields;
  for (const auto& [name, value] : counters) fields.emplace_back(name, Number(value));
  return Object(fields);
}

std::string OutcomeFields(const Outcome& outcome) {
  std::string failures = "[";
  for (std::size_t i = 0; i < outcome.failures.size(); ++i) {
    failures += (i == 0 ? "" : ", ") + Quote(outcome.failures[i]);
  }
  failures += "]";
  std::vector<std::pair<std::string, std::string>> simulated;
  for (const perfbench::Metric& metric : outcome.simulated) {
    simulated.emplace_back(metric.name, Object({{"value", Number(metric.value)},
                                                {"unit", Quote(metric.unit)}}));
  }
  return "\"attempted\": " + std::to_string(outcome.attempted) +
         ", \"failed\": " + std::to_string(outcome.failed) +
         ", \"failures\": " + failures +
         ", \"digest\": " + Quote(Digest(outcome.output)) +
         ", \"simulated\": " + Object(simulated);
}

std::string Context() {
  return Object({{"build_type", Quote(PERFBENCH_BUILD_TYPE)},
                 {"compiler", Quote(PERFBENCH_COMPILER)},
                 {"hardware_threads",
                  std::to_string(std::thread::hardware_concurrency())},
                 {"held_out_seed", std::to_string(perfbench::kHeldOutSeed)}});
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  return static_cast<bool>(out);
}

int Usage() {
  std::cerr << "usage: perfbench --workload <name> --seed <n> --mode "
               "measure|setup|trace [--output FILE] "
               "[--spans FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc ||
        (flag != "--workload" && flag != "--seed" && flag != "--mode" &&
         flag != "--output" && flag != "--spans")) {
      return Usage();
    }
    args[flag] = argv[i + 1];
  }
  const std::string mode = args["--mode"];
  if (args["--workload"].empty() || args["--seed"].empty() ||
      (mode != "measure" && mode != "setup" && mode != "trace")) {
    return Usage();
  }
  const char* allow_debug = std::getenv("PERFBENCH_ALLOW_DEBUG");
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0 &&
      !(allow_debug != nullptr && std::strcmp(allow_debug, "1") == 0)) {
    std::cerr << "perfbench: this is a '" << PERFBENCH_BUILD_TYPE
              << "' build; timings are only meaningful from Release (set "
                 "PERFBENCH_ALLOW_DEBUG=1 to run anyway)\n";
    return 1;
  }

  try {
    std::size_t consumed = 0;
    const std::uint64_t seed = std::stoull(args["--seed"], &consumed);
    if (consumed != args["--seed"].size()) return Usage();
    const auto workload =
        perfbench::MakeWorkload(args["--workload"], seed, perfbench::Size::kFull);

    std::string fields;
    Outcome outcome;
    if (mode == "measure" || mode == "setup") {
      const Clock::time_point start = Clock::now();
      workload->Setup();
      fields = "\"setup_s\": " + Number(Since(start));
      if (mode == "measure") {
        const std::vector<double> parts = workload->Run();
        const double wall = Since(start);
        rusage usage{};
        getrusage(RUSAGE_SELF, &usage);
        outcome = workload->Finish();
        std::string cli = "[";
        for (const std::string& arg : workload->CliArgs()) {
          cli += (cli.size() == 1 ? "" : ", ") + Quote(arg);
        }
        std::string parts_s = "[";
        for (const double part : parts) {
          parts_s += (parts_s.size() == 1 ? "" : ", ") + Number(part);
        }
        fields += ", \"cli\": " + cli + "], \"wall_s\": " + Number(wall) +
                  ", \"parts_s\": " + parts_s + "]" +
                  ", \"peak_rss_mb\": " +
                  Number(static_cast<double>(usage.ru_maxrss) / 1024.0) +
                  ", \"work\": " + CounterObject(workload->LibraryWork());
      }
    } else {
      perfbench::Tracer tracer;
      Counters counters;
      outcome = workload->Traced(tracer, counters);
      tracer.Stop();
      const std::map<std::string, double> self = tracer.SelfTimes();
      std::vector<std::pair<std::string, std::string>> layers;
      for (const std::string& name : LayerSpans()) {
        const auto it = self.find(name);
        layers.emplace_back(name + "_s", Number(it == self.end() ? 0.0 : it->second));
      }
      for (const auto& [name, value] : self) {
        if (std::find(LayerSpans().begin(), LayerSpans().end(), name) ==
            LayerSpans().end()) {
          throw std::logic_error("span '" + name + "' is not a listed layer");
        }
      }
      for (const std::string& name : CounterNames()) {
        layers.emplace_back(name, Number(counters[name]));
      }
      const double sim_run = self.count("sim.run") ? self.at("sim.run") : 0.0;
      layers.emplace_back("sim.tasks_per_s",
                          Number(Ratio(counters["sim.tasks_run"], sim_run)));
      layers.emplace_back("core.tac_max_ms", Number(1e3 * tracer.MaxSpan("core.tac")));
      layers.emplace_back("harness.runner_hit_rate",
                          Number(Ratio(counters["harness.runner_hits"],
                                       counters["harness.runner_lookups"])));
      layers.emplace_back("sched.schedule_hit_rate",
                          Number(Ratio(counters["sched.schedule_hits"],
                                       counters["sched.schedule_lookups"])));
      layers.emplace_back("unattributed_s", Number(tracer.Unattributed()));
      layers.emplace_back("traced_wall_s", Number(tracer.Wall()));
      if (!args["--spans"].empty() &&
          !WriteFile(args["--spans"], tracer.ToChromeJson())) {
        throw std::runtime_error("cannot write " + args["--spans"]);
      }
      fields = "\"spans\": " + std::to_string(tracer.spans().size()) +
               ", \"layers\": " + Object(layers) +
               ", \"counters\": " + CounterObject(counters);
    }
    if (!args["--output"].empty() && !WriteFile(args["--output"], outcome.output)) {
      throw std::runtime_error("cannot write " + args["--output"]);
    }
    std::cout << "{\"workload\": " << Quote(args["--workload"])
              << ", \"mode\": " << Quote(mode) << ", \"seed\": " << seed << ", "
              << fields << ", " << OutcomeFields(outcome)
              << ", \"context\": " << Context() << "}" << std::endl;
    return outcome.failed == 0 ? 0 : 1;
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 1;
  }
}
