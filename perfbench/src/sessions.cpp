// The session workloads.
//
// edit: remote users editing Figure-11 sessions one after another on one
//   connection.  Each session opens, sends the script in 8 command batches
//   (the last deposits the input planes, generates, runs and reads back
//   plane 4 and the residual word), then closes.  Per round: 8 sessions, 4
//   of which edit the relaxation constant to one of 2 constants new to the
//   round, so the compiled-program cache misses twice and hits six times.
//
// durable: the same traffic over 4 interleaved live sessions with
//   checkpointing and last-good recovery on.  Midway through every round
//   the service restarts: stop spills every session to disk and each one
//   resumes from its checkpoint on its next command.  Per round 2 of the 4
//   sessions share one edited constant; the restarted service starts with
//   an empty program cache, so the cache misses twice and hits twice.
#include <algorithm>
#include <numeric>

#include "layers.h"
#include "reference.h"
#include "workload.h"

namespace perfbench {

namespace {

constexpr int kChunks = 8;
constexpr int kRunChunk = kChunks - 1;

// One session's generated inputs: its relaxation constant, the script cut
// into command batches, its problem data and the reference read-back.
struct SessionPlan {
  std::vector<std::string> chunks;
  JacobiCase data;
  JacobiExpect expect;
};

SessionPlan makePlan(nsc::common::Rng& rng, double constant) {
  SessionPlan plan;
  plan.chunks = figure11Chunks(constant, kChunks);
  plan.data = makeJacobiCase(rng, constant);
  plan.expect = referenceSweep(plan.data);
  return plan;
}

// The sessions of round `round`: `edited` of them use one of `fresh`
// constants no earlier round used (each fresh constant by edited/fresh
// sessions), the rest the script's own.  The seed picks which sessions edit,
// the constants and the problem data; the counts are fixed, so every round
// of every seed has the same compiled-program cache hits and misses.
std::vector<SessionPlan> roundPlans(std::uint64_t seed, std::uint64_t round,
                                    int sessions, int edited, int fresh) {
  nsc::common::Rng rng = derivedRng(seed, round + 1);
  const double offset = derivedRng(seed, 0).uniform(0.0, 0.01);
  std::vector<int> order(static_cast<std::size_t>(sessions));
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  std::vector<double> constants(static_cast<std::size_t>(sessions),
                                kFigure11Constant);
  for (int e = 0; e < edited; ++e) {
    const double index =
        static_cast<double>(round * static_cast<std::uint64_t>(fresh) +
                            static_cast<std::uint64_t>(e % fresh) + 1);
    constants[static_cast<std::size_t>(order[static_cast<std::size_t>(e)])] =
        kFigure11Constant * (1.0 + offset + 1e-6 * index);
  }
  std::vector<SessionPlan> plans;
  plans.reserve(constants.size());
  for (double constant : constants) plans.push_back(makePlan(rng, constant));
  return plans;
}

svc::SessionCommand sessionCommand(std::uint64_t id, const SessionPlan& plan,
                                   int chunk) {
  svc::SessionCommand command;
  command.session = id;
  command.script = plan.chunks[static_cast<std::size_t>(chunk)];
  if (chunk == kRunChunk) {
    command.run = true;
    command.inputs = jacobiInputs(plan.data);
    command.outputs = jacobiOutputs();
  }
  return command;
}

// A live session as the benchmark tracks it.
struct LiveSession {
  const SessionPlan* plan = nullptr;
  std::uint64_t id = 0;
  bool open = false;
  // The traced phase's in-process twin of the session's core.
  std::unique_ptr<nsc::WorkbenchCore> shadow;
};

class SessionWorkload : public Workload {
 public:
  SessionWorkload(std::uint64_t seed, bool durable)
      : seed_(seed), durable_(durable), shadow_(StackConfig{}.pool_threads) {}

  StackConfig config(const std::string& dir) const override {
    StackConfig config;
    if (durable_) {
      config.checkpoint_dir = dir;
      config.recover = true;
    }
    return config;
  }

  // A whole session in two requests: open with the full script, then run.
  void firstReply(Bench& bench, Stack& stack) override {
    nsc::common::Rng rng = derivedRng(seed_, ~0ull);
    const SessionPlan plan = makePlan(rng, kFigure11Constant);
    auto opened =
        bench.call(stack.client(), Kind::kOpen,
                   svc::OpenSession{figure11Script(kFigure11Constant)});
    if (!opened) return;
    svc::SessionCommand run = sessionCommand(opened->stats.session, plan,
                                             kRunChunk);
    run.script.clear();
    auto reply = bench.call(stack.client(), Kind::kRun, std::move(run));
    if (reply) checkRun(bench, plan, *reply);
  }

  void checkOnce(Bench&, Stack&) override {}

 protected:
  void open(Bench& bench, Stack& stack, LiveSession& session) {
    Scope op(bench.tracer(), "op.open");
    auto reply = bench.call(stack.client(), Kind::kOpen, svc::OpenSession{},
                            op.id());
    if (!reply) return;
    session.id = reply->stats.session;
    session.open = true;
    if (bench.tracer() != nullptr) {
      session.shadow = std::make_unique<nsc::WorkbenchCore>(shadow_.context());
    }
  }

  // Sends batch `chunk`; `resumed` marks the session's first command after
  // a restart, which must (and only which must) restore from disk.
  void command(Bench& bench, Stack& stack, LiveSession& session, int chunk,
               bool key, bool resumed) {
    if (!session.open) return;
    const bool run = chunk == kRunChunk;
    Scope op(bench.tracer(), run ? "op.run" : "op.edit");
    auto reply = bench.call(stack.client(), run ? Kind::kRun : Kind::kEdit,
                            sessionCommand(session.id, *session.plan, chunk),
                            op.id(), key);
    if (!reply) return;
    if (reply->stats.restored_from_disk != resumed) {
      bench.fail(resumed ? "a session's first command after the restart was "
                           "not restored from disk"
                         : "a session command restored from disk unexpectedly");
    }
    if (session.shadow != nullptr) {
      shadowCommand(bench, session, chunk, resumed, *reply, op.id());
    }
    if (run) checkRun(bench, *session.plan, *reply);
  }

  void close(Bench& bench, Stack& stack, LiveSession& session) {
    if (!session.open) return;
    Scope op(bench.tracer(), "op.close");
    bench.call(stack.client(), Kind::kClose, svc::CloseSession{session.id},
               op.id());
    session.open = false;
  }

  // The durable workload's restart: spill (stop), then a new stack adopting
  // the checkpoint directory.
  void restart(Bench& bench, std::unique_ptr<Stack>& stack,
               const StackConfig& config, std::vector<LiveSession>& live) {
    if (bench.tracer() != nullptr) {
      Scope op(bench.tracer(), "op.restart");
      for (LiveSession& session : live) {
        if (session.shadow == nullptr) continue;
        shadowCheckpointWrite(bench, shadowStore(config), session.id,
                              session.shadow->serializeState(), op.id());
      }
    }
    stack.reset();
    stack = startStack(bench, config);
  }

  std::uint64_t seed_;
  bool durable_;
  std::uint64_t rounds_ = 0;

 private:
  static void checkRun(Bench& bench, const SessionPlan& plan,
                       const svc::ServiceReply& reply) {
    const std::string mismatch = compareSweep(reply.outputs, plan.expect);
    if (!mismatch.empty()) bench.fail("Jacobi read-back: " + mismatch);
    bench.cycles(reply.run.total_cycles);
    bench.cacheOutcome(reply.stats.program_cache_hit);
  }

  void shadowCommand(Bench& bench, LiveSession& session, int chunk,
                     bool resumed, const svc::ServiceReply& reply,
                     std::uint64_t op) {
    if (resumed) {
      session.shadow = shadowResume(bench, *shadow_store_, session.id,
                                    shadow_.context(), op);
      if (session.shadow == nullptr) return;
    }
    shadowReplay(bench, *session.shadow,
                 session.plan->chunks[static_cast<std::size_t>(chunk)], op);
    if (chunk == kRunChunk) {
      const auto program = shadowCompile(bench, *session.shadow, op);
      if (program != nullptr) {
        const auto read = shadowNodeRun(bench, *session.shadow, program,
                                        jacobiInputs(session.plan->data),
                                        jacobiOutputs(), op);
        if (read != reply.outputs) {
          bench.fail("in-process read-back differs from the wire reply");
        }
      }
    }
    if (durable_) shadowSnapshot(bench, *session.shadow, op);
  }

  nsc::svc::CheckpointStore& shadowStore(const StackConfig& config) {
    if (shadow_store_ == nullptr) {
      shadow_store_ = std::make_unique<nsc::svc::CheckpointStore>(
          config.checkpoint_dir + "-outside");
    }
    return *shadow_store_;
  }

  ShadowContext shadow_;
  std::unique_ptr<nsc::svc::CheckpointStore> shadow_store_;
};

class EditWorkload : public SessionWorkload {
 public:
  explicit EditWorkload(std::uint64_t seed) : SessionWorkload(seed, false) {}

  const char* jobLabel() const override { return "session_ms"; }
  const char* keyLabel() const override { return "run_cmd_ms"; }

  void round(Bench& bench, std::unique_ptr<Stack>& stack,
             const StackConfig&) override {
    const std::vector<SessionPlan> plans =
        roundPlans(seed_, rounds_++, kSessions, kEdited, kFresh);
    for (const SessionPlan& plan : plans) {
      const Clock::time_point t0 = Clock::now();
      LiveSession session;
      session.plan = &plan;
      open(bench, *stack, session);
      for (int chunk = 0; chunk < kChunks; ++chunk) {
        command(bench, *stack, session, chunk, chunk == kRunChunk, false);
      }
      close(bench, *stack, session);
      bench.job(microsSince(t0) / 1000.0);
    }
  }

 private:
  static constexpr int kSessions = 8;
  static constexpr int kEdited = 4;
  static constexpr int kFresh = 2;
};

class DurableWorkload : public SessionWorkload {
 public:
  explicit DurableWorkload(std::uint64_t seed) : SessionWorkload(seed, true) {}

  const char* jobLabel() const override { return "round_ms"; }
  const char* keyLabel() const override { return "resume_ms"; }

  void round(Bench& bench, std::unique_ptr<Stack>& stack,
             const StackConfig& config) override {
    const std::vector<SessionPlan> plans =
        roundPlans(seed_, rounds_++, kLive, kEdited, kFresh);
    const Clock::time_point t0 = Clock::now();
    std::vector<LiveSession> live(plans.size());
    for (std::size_t i = 0; i < plans.size(); ++i) {
      live[i].plan = &plans[i];
      open(bench, *stack, live[i]);
    }
    for (int chunk = 0; chunk < kRestartAfter; ++chunk) {
      for (LiveSession& session : live) {
        command(bench, *stack, session, chunk, false, false);
      }
    }
    restart(bench, stack, config, live);
    if (stack == nullptr) return;
    for (int chunk = kRestartAfter; chunk < kChunks; ++chunk) {
      for (LiveSession& session : live) {
        const bool resumed = chunk == kRestartAfter;
        command(bench, *stack, session, chunk, resumed, resumed);
      }
    }
    for (LiveSession& session : live) close(bench, *stack, session);
    bench.job(microsSince(t0) / 1000.0);
  }

 private:
  static constexpr int kLive = 4;
  static constexpr int kEdited = 2;
  static constexpr int kFresh = 1;
  static constexpr int kRestartAfter = kChunks / 2;
};

}  // namespace

std::unique_ptr<Workload> makeEdit(std::uint64_t seed) {
  return std::make_unique<EditWorkload>(seed);
}

std::unique_ptr<Workload> makeDurable(std::uint64_t seed) {
  return std::make_unique<DurableWorkload>(seed);
}

}  // namespace perfbench
