// nsc_perfbench — the wire-to-engine benchmark.
//
//   nsc_perfbench --workload edit|solve|durable --seed N --seconds S
//                 --trace 0|1 [--work-dir DIR]
//   nsc_perfbench --smoke [--seed N] [--work-dir DIR]
//
// One process stands up the whole serving stack (exec pool, program cache,
// WorkbenchService, net::Server on loopback) and drives it through one
// nsc::Client connection in a closed loop, checking every answer.  A run
// is: set-up (repeated cold starts, timed: setup_s), one-off reference
// checks, warm-up rounds, then whole rounds until --seconds have passed.
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// the first half untraced and the second half with outside calls into each
// layer under spans, and reports the per-layer metrics and the tracing
// overhead.  The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status: 0 when every check passed, 1 when one failed, 2 on bad
// arguments.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/env.h"
#include "harness.h"
#include "workload.h"

namespace perfbench {

namespace {

constexpr int kColdStarts = 21;
constexpr double kWarmupSeconds = 1.0;
// A reply "waited a tick" when the client saw it this much later than the
// server's queue + run time and the codec work account for.
constexpr double kFastReplyMicros = 250.0;

const std::vector<std::string>& layerNames() {
  static const std::vector<std::string> names = {"wire", "net", "service",
                                                 "editor", "microcode", "sim"};
  return names;
}

struct Metric {
  std::string name;
  double value = 0;
  const char* unit = "";
};

std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       std::uint64_t seed) {
  if (name == "edit") return makeEdit(seed);
  if (name == "solve") return makeSolve(seed);
  if (name == "durable") return makeDurable(seed);
  return nullptr;
}

// A clean directory under `root`; empty string when it cannot be made.
std::string freshDir(const std::filesystem::path& root,
                     const std::string& name) {
  std::error_code ec;
  const std::filesystem::path dir = root / name;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  return ec ? std::string() : dir.string();
}

// "median 1.23 ms, p90 1.50 ms (n=412)": the highest of p90/p99/p99.9 with
// at least ten samples beyond it, and none below forty samples.
std::string describe(const std::vector<double>& values, double scale,
                     const char* unit) {
  char text[160];
  const std::size_t n = values.size();
  int used = std::snprintf(text, sizeof(text), "median %.4g %s",
                           median(values) * scale, unit);
  double tail = 0;
  const char* label = nullptr;
  if (n >= 40) {
    for (const auto& [q, name] :
         {std::pair{0.999, "p99.9"}, std::pair{0.99, "p99"},
          std::pair{0.9, "p90"}}) {
      if (static_cast<double>(n) * (1.0 - q) >= 10.0) {
        tail = quantile(values, q);
        label = name;
        break;
      }
    }
  }
  if (label != nullptr) {
    used += std::snprintf(text + used,
                          sizeof(text) - static_cast<std::size_t>(used),
                          ", %s %.4g %s", label, tail * scale, unit);
  }
  std::snprintf(text + used, sizeof(text) - static_cast<std::size_t>(used),
                " (n=%zu)", n);
  return text;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double total = 0;
  for (double v : values) total += v;
  return total / static_cast<double>(values.size());
}

std::vector<Metric> endToEnd(const Bench& bench,
                             const std::vector<double>& setup) {
  return {
      {"setup_s", median(setup), "s"},
      {"job_ms", median(bench.jobs(Phase::kTimed)), "ms"},
      {"key_request_ms", median(bench.keyLatencies(Phase::kTimed)) / 1000.0,
       "ms"},
  };
}

std::vector<Metric> perLayer(const Bench& bench) {
  const auto& notes = bench.notes();
  auto noted = [&](const std::string& name) -> const std::vector<double>& {
    static const std::vector<double> none;
    const auto it = notes.find(name);
    return it == notes.end() ? none : it->second;
  };
  std::vector<Metric> out;
  auto add = [&](std::string name, double value, const char* unit) {
    out.push_back({std::move(name), value, unit});
  };

  // net: what the client saw beyond the server's own time and the codec.
  std::vector<double> settle;
  double covered = 0, latency = 0, run = 0;
  for (const Sample& s : bench.samples()) {
    if (s.phase != Phase::kTraced) continue;
    settle.push_back(s.latency_us - s.queue_us - s.run_us - s.codec_us);
    covered += s.codec_us + s.queue_us + s.run_us;
    latency += s.latency_us;
    run += s.run_us;
  }
  std::size_t fast = 0;
  for (double wait : settle) fast += wait < kFastReplyMicros;
  add("net.settle_wait_us", median(settle), "us");
  add("net.fast_reply_share",
      settle.empty() ? 0.0
                     : static_cast<double>(fast) /
                           static_cast<double>(settle.size()),
      "share");
  for (const char* name : {"net.request_encode_us", "net.request_decode_us",
                           "net.reply_encode_us", "net.reply_decode_us"}) {
    add(name, mean(noted(name)), "us");
  }
  for (const char* prefix : {"net.request_bytes.", "net.reply_bytes."}) {
    for (int k = 0; k < kKinds; ++k) {
      const std::string name = prefix + std::string(kindName(Kind(k)));
      add(name, median(noted(name)), "bytes");
    }
  }

  // service
  for (const char* prefix : {"service.queue_us.", "service.run_us."}) {
    for (int k = 0; k < kKinds; ++k) {
      const std::string name = prefix + std::string(kindName(Kind(k)));
      add(name, median(noted(name)), "us");
    }
  }
  // Mean, not median: the snapshot after the run command, which carries
  // the node's planes, dwarfs the seven before it.
  add("service.snapshot_us", mean(noted("service.snapshot_us")), "us");
  add("service.snapshot_bytes", mean(noted("service.snapshot_bytes")), "bytes");
  for (const char* name : {"service.checkpoint_write_us",
                           "service.checkpoint_read_us"}) {
    add(name, median(noted(name)), "us");
  }
  add("service.restore_us", median(noted("service.restore_us")), "us");
  add("service.peak_rss_mb", peakRssMiB(), "MiB");

  // editor, microcode, sim
  add("editor.replay_us", median(noted("editor.replay_us")), "us");
  add("editor.checker_hits", mean(noted("editor.checker_hits")), "count");
  add("microcode.generate_us", median(noted("microcode.generate_us")), "us");
  add("sim.cache_hit_ratio",
      bench.cacheLookups() == 0
          ? 0.0
          : static_cast<double>(bench.cacheHits()) /
                static_cast<double>(bench.cacheLookups()),
      "share");
  add("sim.compile_us", median(noted("sim.compile_us")), "us");
  add("sim.node_run_us", median(noted("sim.node_run_us")), "us");
  add("sim.ensemble_us", median(noted("sim.ensemble_us")), "us");
  add("sim.replicas_batched", median(noted("sim.replicas_batched")), "count");
  add("sim.system_phase_us", median(noted("sim.system_phase_us")), "us");
  add("sim.nodes_batched", median(noted("sim.nodes_batched")), "count");

  // trace: how much of the client's time the layer times explain, how much
  // of the server's run time the outside layer calls explain, and what
  // tracing cost the key request.
  double layer_us = 0;
  std::size_t operations = 0;
  for (const Span& span : bench.spans().spans()) {
    const std::string layer = span.name.substr(0, span.name.find('.'));
    if (layer == "editor" || layer == "microcode" || layer == "sim" ||
        layer == "service") {
      layer_us += static_cast<double>(span.end_ns - span.start_ns) / 1000.0;
    }
    operations += span.parent == 0;
  }
  add("trace.coverage", latency > 0 ? covered / latency : 0.0, "share");
  add("trace.service_coverage", run > 0 ? layer_us / run : 0.0, "share");
  const double untraced = median(bench.keyLatencies(Phase::kTimed));
  const double traced = median(bench.keyLatencies(Phase::kTraced));
  add("trace.overhead", untraced > 0 ? traced / untraced - 1.0 : 0.0, "share");
  const std::map<std::string, double> self = bench.spans().selfMicrosByLayer();
  for (const std::string& layer : layerNames()) {
    const auto it = self.find(layer);
    add("trace.self_us." + layer,
        it == self.end() || operations == 0
            ? 0.0
            : it->second / static_cast<double>(operations),
        "us");
  }
  return out;
}

void printCounts(const Bench& bench) {
  std::printf("  %-10s %10s %8s\n", "request", "attempted", "failed");
  for (int k = 0; k < kKinds; ++k) {
    const Kind kind = static_cast<Kind>(k);
    if (bench.attempted(kind) == 0) continue;
    std::printf("  %-10s %10llu %8llu\n", kindName(kind),
                static_cast<unsigned long long>(bench.attempted(kind)),
                static_cast<unsigned long long>(bench.failedOf(kind)));
  }
}

std::string resultLine(const Bench& bench, const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += bench.correct() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(bench.attempted());
  line += ", \"failed\": " + std::to_string(bench.failed());
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.12g", metrics[i].value);
    line += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  return line;
}

// One run of one workload; returns the process exit status.
int runOnce(const RunOptions& options) {
  std::unique_ptr<Workload> workload =
      makeWorkload(options.workload, options.seed);
  Bench bench(options);
  const std::filesystem::path work =
      std::filesystem::path(options.work_dir) /
      (options.workload + "-" + std::to_string(::getpid()));

  // Set-up: cold starts to the first correct reply, each on an empty
  // program cache and (durable) an empty checkpoint directory.
  std::vector<double> setup;
  for (int i = 0; i < kColdStarts && bench.correct(); ++i) {
    const std::string dir = freshDir(work, "cold" + std::to_string(i));
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<Stack> stack = startStack(bench, workload->config(dir));
    if (stack == nullptr) break;
    workload->firstReply(bench, *stack);
    setup.push_back(microsSince(t0) / 1e6);
  }

  const StackConfig config = workload->config(freshDir(work, "live"));
  std::unique_ptr<Stack> stack = startStack(bench, config);
  double timed_seconds = 0;
  std::uint64_t rounds = 0;
  if (stack != nullptr && bench.correct()) {
    workload->checkOnce(bench, *stack);
    const Clock::time_point warm = Clock::now();
    do {
      workload->round(bench, stack, config);
    } while (stack != nullptr && microsSince(warm) < kWarmupSeconds * 1e6);

    // Timed rounds; a traced run spends its second half traced.
    const double budget_us = options.seconds * 1e6;
    std::vector<std::pair<Phase, double>> halves = {{Phase::kTimed, budget_us}};
    if (options.trace) {
      halves = {{Phase::kTimed, budget_us / 2},
                {Phase::kTraced, budget_us / 2}};
    }
    for (const auto& [phase, length_us] : halves) {
      bench.setPhase(phase);
      const Clock::time_point t0 = Clock::now();
      do {
        workload->round(bench, stack, config);
        ++rounds;
      } while (stack != nullptr && microsSince(t0) < length_us);
      if (phase == Phase::kTimed) timed_seconds = microsSince(t0) / 1e6;
    }
    bench.setPhase(Phase::kUntimed);
  }
  if (stack == nullptr) bench.fail("the serving stack did not (re)start");
  stack.reset();
  std::error_code ec;
  std::filesystem::remove_all(work, ec);

  std::printf("perfbench %s: seed %llu, %d s, trace %d, %llu timed rounds\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, static_cast<unsigned long long>(rounds));
  printCounts(bench);
  std::vector<Metric> metrics;
  if (!options.trace) {
    std::size_t requests = 0;
    for (const Sample& s : bench.samples()) {
      requests += s.phase == Phase::kTimed;
    }
    std::printf("  setup_s                 %s\n",
                describe(setup, 1.0, "s").c_str());
    std::printf("  job: %-18s %s\n", workload->jobLabel(),
                describe(bench.jobs(Phase::kTimed), 1.0, "ms").c_str());
    std::printf("  key: %-18s %s\n", workload->keyLabel(),
                describe(bench.keyLatencies(Phase::kTimed), 1e-3, "ms")
                    .c_str());
    if (timed_seconds > 0) {
      std::printf("  over the timed rounds: %.1f requests/s, %.4g simulated "
                  "Mcycles/s\n",
                  static_cast<double>(requests) / timed_seconds,
                  static_cast<double>(bench.cyclesIn(Phase::kTimed)) /
                      timed_seconds / 1e6);
      metrics = endToEnd(bench, setup);
    }
  } else {
    const std::string path = (std::filesystem::path(options.work_dir) /
                              ("trace-" + options.workload + ".json"))
                                 .string();
    if (bench.spans().writeJson(path)) {
      std::printf("  %zu spans written to %s\n", bench.spans().spans().size(),
                  path.c_str());
    }
    metrics = perLayer(bench);
  }
  for (const Metric& m : metrics) {
    std::printf("  %-28s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  if (metrics.empty() && bench.correct()) {
    bench.fail("the run measured nothing");
  }
  std::printf("%s\n", resultLine(bench, metrics).c_str());
  std::fflush(stdout);
  return bench.correct() ? 0 : 1;
}

// Confines this thread, and so every thread it later starts, to one CPU:
// the last the process may use.  Spread over CPUs, each request crossed
// three of them, so every hop woke a halted virtual CPU, and the run's
// figures followed the host's steal time; left to the scheduler, where the
// server thread and the shards landed also decided whether replies waited
// for the server's 1 ms poll tick, and that flipped between runs
// (README.md, "Noise").
void useOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    ::sched_setaffinity(0, sizeof(one), &one);
    return;
  }
}

void usage() {
  std::fprintf(stderr,
               "usage: nsc_perfbench --workload edit|solve|durable --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR]\n"
               "       nsc_perfbench --smoke [--seed N] [--work-dir DIR]\n");
}

}  // namespace

std::unique_ptr<Stack> startStack(Bench& bench, const StackConfig& config) {
  auto stack = std::make_unique<Stack>(config);
  const nsc::common::Status started = stack->start();
  if (!started.isOk()) {
    bench.fail("stack start: " + started.message());
    return nullptr;
  }
  return stack;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  options.work_dir = ".bench_build/perfbench-work";
  bool smoke = false;
  bool have_workload = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    auto number = [&](long long lo, long long hi) -> std::optional<long long> {
      if (value == nullptr) return std::nullopt;
      const auto parsed = nsc::common::parseInt(value);
      if (!parsed || *parsed < lo || *parsed > hi) return std::nullopt;
      ++i;
      return parsed;
    };
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--workload" && value != nullptr) {
      options.workload = value;
      have_workload = true;
      ++i;
    } else if (arg == "--work-dir" && value != nullptr) {
      options.work_dir = value;
      ++i;
    } else if (arg == "--seed") {
      const auto v = number(0, (1LL << 62));
      if (!v) return usage(), 2;
      options.seed = static_cast<std::uint64_t>(*v);
    } else if (arg == "--seconds") {
      const auto v = number(1, 600);
      if (!v) return usage(), 2;
      options.seconds = static_cast<int>(*v);
      have_seconds = true;
    } else if (arg == "--trace") {
      const auto v = number(0, 1);
      if (!v) return usage(), 2;
      options.trace = *v == 1;
    } else {
      return usage(), 2;
    }
  }
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  useOneCpu();

  if (smoke) {
    // Every workload, untraced and traced, for one second each: all the
    // checks, in seconds.
    int status = 0;
    for (const char* name : {"edit", "solve", "durable"}) {
      for (bool trace : {false, true}) {
        RunOptions run = options;
        run.workload = name;
        run.seconds = 1;
        run.trace = trace;
        status = std::max(status, runOnce(run));
      }
    }
    std::printf("perfbench smoke: %s\n",
                status == 0 ? "all checks passed" : "FAILED");
    return status;
  }
  if (!have_workload || !have_seconds ||
      (options.workload != "edit" && options.workload != "solve" &&
       options.workload != "durable")) {
    usage();
    return 2;
  }
  return runOnce(options);
}
