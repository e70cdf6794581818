// The benchmark harness: one cold-started serving stack (pool, program
// cache, WorkbenchService, net::Server, nsc::Client) driven in a closed
// loop from this process, plus the bookkeeping every workload shares —
// per-request-type attempted/failed counts, latency samples, correctness
// failures, and (in a traced run) spans around outside calls into each
// layer.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "client/client.h"
#include "exec/thread_pool.h"
#include "net/server.h"
#include "service/service.h"
#include "sim/program_cache.h"

namespace perfbench {

namespace svc = nsc::svc;

using Clock = std::chrono::steady_clock;

inline double microsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

// Median of `values` (0 when empty).
double median(std::vector<double> values);
// Nearest-rank quantile q in [0, 1] of `values` (0 when empty).
double quantile(std::vector<double> values, double q);

// The request types counts and per-type layer metrics are keyed on.  A
// SessionCommand is `edit` when it only replays script and `run` when it
// also deposits inputs, generates, runs and reads back.
enum class Kind : int { kOpen, kEdit, kRun, kClose, kEnsemble, kSystem };
inline constexpr int kKinds = 6;
const char* kindName(Kind kind);

// ---------------------------------------------------------------------------
// The serving stack.
// ---------------------------------------------------------------------------

struct StackConfig {
  int shards = 2;
  // Workers + the calling thread.  The whole process runs on one CPU
  // (main.cpp), so one thread: pool tasks run inline on the shard.
  int pool_threads = 1;
  std::string checkpoint_dir;  // non-empty: evict-to-disk on
  bool recover = false;
};

// Everything a server process stands up, in construction order; the
// destructor tears it down in reverse (client, server drain, service stop —
// which spills live sessions when checkpointing is on — cache, pool).
class Stack {
 public:
  explicit Stack(const StackConfig& config);
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  // Binds the server and connects the client; an error leaves the stack
  // unusable.
  nsc::common::Status start();

  nsc::Client& client() { return *client_; }

 private:
  std::unique_ptr<nsc::exec::ThreadPool> pool_;
  std::unique_ptr<nsc::sim::CompiledProgramCache> cache_;
  std::unique_ptr<svc::WorkbenchService> service_;
  std::unique_ptr<nsc::net::Server> server_;
  std::unique_ptr<nsc::Client> client_;
};

// ---------------------------------------------------------------------------
// Spans of the traced run.
// ---------------------------------------------------------------------------

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   // 0 = root
  std::uint64_t request = 0;  // spans of one operation share this id
  std::string name;           // "<layer>.<call>"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  // Opens a span and returns its id; close() stamps its end.  A root span
  // (parent 0) starts a new operation id; a child inherits its parent's.
  std::uint64_t open(const std::string& name, std::uint64_t parent);
  void close(std::uint64_t id);

  const std::vector<Span>& spans() const { return spans_; }
  // Self time (duration minus the part covered by child spans), summed per
  // layer (the span name up to its first '.'), in microseconds.
  std::map<std::string, double> selfMicrosByLayer() const;
  // Writes every span as one JSON document.
  bool writeJson(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::uint64_t requests_ = 0;
};

// RAII span; inert when the tracer is null.
class Scope {
 public:
  Scope(Tracer* tracer, const std::string& name, std::uint64_t parent = 0)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->open(name, parent) : 0),
        t0_(Clock::now()) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::uint64_t id() const { return id_; }
  double micros() const { return microsSince(t0_); }

 private:
  Tracer* tracer_;
  std::uint64_t id_;
  Clock::time_point t0_;
};

// ---------------------------------------------------------------------------
// Run bookkeeping.
// ---------------------------------------------------------------------------

// Which part of the run a sample belongs to.  Only kTimed and kTraced
// samples feed metrics; set-up, checks and warm-up are counted as attempted
// operations but never timed.
enum class Phase : int { kUntimed, kTimed, kTraced };

struct Sample {
  Kind kind = Kind::kOpen;
  Phase phase = Phase::kUntimed;
  double latency_us = 0;  // client call, send to decoded reply
  double queue_us = 0;    // RequestStats::queue_us
  double run_us = 0;      // RequestStats::run_us
  double codec_us = -1;   // traced: request + reply encode/decode; else -1
  bool key = false;       // the workload's key request (see Workload)
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string work_dir;  // scratch space inside the checkout
};

class Bench {
 public:
  explicit Bench(RunOptions options) : options_(std::move(options)) {}

  const RunOptions& options() const { return options_; }

  Phase phase() const { return phase_; }
  void setPhase(Phase phase) { phase_ = phase; }
  // The tracer while the traced half of a traced run is running, else null.
  Tracer* tracer() { return phase_ == Phase::kTraced ? &tracer_ : nullptr; }
  const Tracer& spans() const { return tracer_; }

  // Sends `request` over the wire, times it and counts it.  A transport
  // error or a reply whose ok() is false counts as failed and returns
  // nullopt.  In the traced phase, the request and reply are also run
  // through the codec layer from outside (net.* spans and samples), under
  // the operation span `op` (0 opens none).
  std::optional<svc::ServiceReply> call(nsc::Client& client, Kind kind,
                                        svc::Request request,
                                        std::uint64_t op = 0,
                                        bool key = false);

  // A correctness failure: the run reports correct=false and exits 1.
  void fail(const std::string& what);
  bool correct() const { return failures_ == 0; }

  // A per-layer sample (traced phase only; ignored otherwise).
  void note(const std::string& metric, double value);
  // A job (whole unit of user work) wall time, in ms.
  void job(double ms);
  // Simulated cycles completed by a timed request.
  void cycles(std::uint64_t count);
  // A compile-carrying request's cache outcome (RequestStats).
  void cacheOutcome(bool hit);

  // Aggregates for the result line.
  std::uint64_t attempted() const;
  std::uint64_t failed() const;
  std::uint64_t attempted(Kind kind) const {
    return attempted_[static_cast<int>(kind)];
  }
  std::uint64_t failedOf(Kind kind) const {
    return failed_[static_cast<int>(kind)];
  }
  std::vector<double> keyLatencies(Phase phase) const;
  std::vector<double> jobs(Phase phase) const;
  const std::vector<Sample>& samples() const { return samples_; }
  const std::map<std::string, std::vector<double>>& notes() const {
    return notes_;
  }
  std::uint64_t cyclesIn(Phase phase) const {
    return cycles_[static_cast<int>(phase)];
  }
  std::uint64_t cacheHits() const { return cache_hits_; }
  std::uint64_t cacheLookups() const { return cache_lookups_; }

 private:
  RunOptions options_;
  Phase phase_ = Phase::kUntimed;
  Tracer tracer_;
  std::uint64_t attempted_[kKinds] = {};
  std::uint64_t failed_[kKinds] = {};
  int failures_ = 0;
  std::vector<Sample> samples_;
  std::vector<std::pair<Phase, double>> jobs_;
  std::map<std::string, std::vector<double>> notes_;
  std::uint64_t cycles_[3] = {};
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_lookups_ = 0;
};

// Peak resident set of this process (client, server and service together),
// in MiB.
double peakRssMiB();

}  // namespace perfbench
