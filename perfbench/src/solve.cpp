// The solve workload: a batch user alternating RunEnsemble (64 replicas of
// the Figure-11 program, default SoA lanes) and RunSystemPhases (the
// paper's 64-node NSC, d = 6, for 8 phases) on one connection.  The seed
// picks the relaxation constant of the run's script; it is compiled once
// during set-up, so every timed compile hits the cache.
#include "layers.h"
#include "reference.h"
#include "workload.h"

namespace perfbench {

namespace {

constexpr int kReplicas = 64;
constexpr int kDimension = 6;
constexpr int kNodes = 1 << kDimension;
constexpr int kPhases = 8;

class SolveWorkload : public Workload {
 public:
  explicit SolveWorkload(std::uint64_t seed)
      : script_(figure11Script(kFigure11Constant *
                               (1.0 + derivedRng(seed, 0).uniform(0.0, 0.01)))),
        shadow_(StackConfig{}.pool_threads) {}

  const char* jobLabel() const override { return "pair_ms"; }
  const char* keyLabel() const override { return "ensemble_ms"; }

  StackConfig config(const std::string&) const override { return {}; }

  void firstReply(Bench& bench, Stack& stack) override {
    auto reply =
        bench.call(stack.client(), Kind::kEnsemble, ensemble(kReplicas, 0));
    if (!reply) return;
    if (reply->ensemble.size() != kReplicas) {
      bench.fail("RunEnsemble returned the wrong number of replicas");
      return;
    }
    for (const nsc::sim::RunStats& run : reply->ensemble) {
      if (!sameRun(run, reply->ensemble.front())) {
        bench.fail("RunEnsemble replicas of one program differ");
        return;
      }
    }
  }

  // The references every timed reply is compared against, and the
  // properties they must have: one replica and one node-phase on the
  // scalar engines set the per-run figures; the default-lane replies must
  // equal the lanes = 1 / node_lanes = 1 ones; flops scale exactly with
  // replicas and with nodes x phases.
  void checkOnce(Bench& bench, Stack& stack) override {
    nsc::Client& client = stack.client();
    auto single = bench.call(client, Kind::kEnsemble, ensemble(1, 1));
    auto scalar = bench.call(client, Kind::kEnsemble, ensemble(kReplicas, 1));
    auto batched = bench.call(client, Kind::kEnsemble, ensemble(kReplicas, 0));
    auto one_node = bench.call(client, Kind::kSystem, system(0, 1, 1));
    auto scalar_system =
        bench.call(client, Kind::kSystem, system(kDimension, kPhases, 1));
    auto batched_system =
        bench.call(client, Kind::kSystem, system(kDimension, kPhases, 0));
    if (!single || !scalar || !batched || !one_node || !scalar_system ||
        !batched_system) {
      bench.fail("a reference request failed");
      return;
    }
    if (single->ensemble.size() != 1) {
      bench.fail("a one-replica RunEnsemble returned the wrong count");
      return;
    }
    replica_ = single->ensemble.front();
    for (const auto* reply : {&*scalar, &*batched}) {
      std::uint64_t flops = 0;
      bool same = reply->ensemble.size() == kReplicas;
      for (const nsc::sim::RunStats& run : reply->ensemble) {
        same = same && sameRun(run, replica_);
        flops += run.total_flops;
      }
      if (!same) {
        bench.fail("ensemble replicas differ from the one-replica scalar run");
      }
      if (flops != kReplicas * replica_.total_flops) {
        bench.fail("ensemble flops do not scale with the replica count");
      }
    }
    system_ = scalar_system->system;
    if (!sameSystem(batched_system->system, system_)) {
      bench.fail("RunSystemPhases differs between node_lanes 1 and default");
    }
    const std::uint64_t node_phase_flops = one_node->system.total_flops;
    if (node_phase_flops == 0 ||
        system_.total_flops != node_phase_flops * kNodes * kPhases) {
      bench.fail("system flops do not scale with nodes x phases");
    }
    references_ = true;
  }

  void round(Bench& bench, std::unique_ptr<Stack>& stack,
             const StackConfig&) override {
    const Clock::time_point t0 = Clock::now();
    runEnsemble(bench, *stack);
    runSystem(bench, *stack);
    bench.job(microsSince(t0) / 1000.0);
  }

 private:
  svc::RunEnsemble ensemble(int replicas, int lanes) const {
    svc::RunEnsemble request;
    request.script = script_;
    request.replicas = replicas;
    request.lanes = lanes;
    return request;
  }

  svc::RunSystemPhases system(int dimension, int phases, int node_lanes) const {
    svc::RunSystemPhases request;
    request.script = script_;
    request.dimension = dimension;
    request.phases = phases;
    request.node_lanes = node_lanes;
    return request;
  }

  void runEnsemble(Bench& bench, Stack& stack) {
    Scope op(bench.tracer(), "op.ensemble");
    auto reply = bench.call(stack.client(), Kind::kEnsemble,
                            ensemble(kReplicas, 0), op.id(), true);
    if (!reply) return;
    bool same = references_ && reply->ensemble.size() == kReplicas;
    std::uint64_t cycles = 0;
    for (const nsc::sim::RunStats& run : reply->ensemble) {
      same = same && sameRun(run, replica_);
      cycles += run.total_cycles;
    }
    if (!same) bench.fail("an ensemble replica differs from the reference run");
    bench.cycles(cycles);
    bench.cacheOutcome(reply->stats.program_cache_hit);
    if (bench.tracer() == nullptr) return;
    bench.note("sim.replicas_batched",
               static_cast<double>(reply->stats.replicas_batched));
    nsc::WorkbenchCore core(shadow_.context());
    shadowReplay(bench, core, script_, op.id());
    const auto program = shadowCompile(bench, core, op.id());
    if (program == nullptr) return;
    Scope span(bench.tracer(), "sim.ensemble", op.id());
    const auto outcome =
        core.runReplicas(program, kReplicas, nsc::EnsembleOptions{});
    bench.note("sim.ensemble_us", span.micros());
    if (outcome.runs.size() != kReplicas ||
        !sameRun(outcome.runs.front(), replica_)) {
      bench.fail("in-process ensemble differs from the reference run");
    }
  }

  void runSystem(Bench& bench, Stack& stack) {
    Scope op(bench.tracer(), "op.system");
    auto reply = bench.call(stack.client(), Kind::kSystem,
                            system(kDimension, kPhases, 0), op.id());
    if (!reply) return;
    if (!references_ || !sameSystem(reply->system, system_)) {
      bench.fail("RunSystemPhases differs from the scalar reference");
    }
    std::uint64_t cycles = 0;
    for (const nsc::sim::RunStats& run : reply->system.node_stats) {
      cycles += run.total_cycles;
    }
    bench.cycles(cycles);
    bench.cacheOutcome(reply->stats.program_cache_hit);
    if (bench.tracer() == nullptr) return;
    bench.note("sim.nodes_batched",
               static_cast<double>(reply->stats.nodes_batched));
    nsc::WorkbenchCore core(shadow_.context());
    shadowReplay(bench, core, script_, op.id());
    const auto program = shadowCompile(bench, core, op.id());
    if (program == nullptr) return;
    nsc::sim::HypercubeSystem machine =
        core.makeSystem(kDimension, nsc::sim::SystemOptions{});
    machine.loadAll(program);
    nsc::sim::SystemStats stats;
    for (int phase = 0; phase < kPhases; ++phase) {
      if (phase > 0) machine.restartAll();
      Scope span(bench.tracer(), "sim.system_phase", op.id());
      machine.runPhase(stats);
      bench.note("sim.system_phase_us", span.micros());
    }
    if (!sameSystem(stats, system_)) {
      bench.fail("in-process system phases differ from the scalar reference");
    }
  }

  std::string script_;
  ShadowContext shadow_;
  bool references_ = false;
  nsc::sim::RunStats replica_;
  nsc::sim::SystemStats system_;
};

}  // namespace

std::unique_ptr<Workload> makeSolve(std::uint64_t seed) {
  return std::make_unique<SolveWorkload>(seed);
}

}  // namespace perfbench
