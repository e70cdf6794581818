// A workload: the traffic one closed-loop client connection sends, split
// into whole rounds of identical make-up so every run attempts the same
// operations in the same proportions whatever its length.
#pragma once

#include <memory>
#include <string>

#include "harness.h"

namespace perfbench {

class Workload {
 public:
  virtual ~Workload() = default;

  // What a job (the unit job_ms times) and the key request are here.
  virtual const char* jobLabel() const = 0;
  virtual const char* keyLabel() const = 0;

  // The stack this workload runs against; `dir` is an empty directory the
  // stack may use for checkpoints.
  virtual StackConfig config(const std::string& dir) const = 0;

  // The first request(s) a freshly started stack must answer correctly;
  // setup_s times a cold start up to the end of this.
  virtual void firstReply(Bench& bench, Stack& stack) = 0;

  // Side requests whose replies are checked once per run, untimed.
  virtual void checkOnce(Bench& bench, Stack& stack) = 0;

  // One whole round.  A workload that restarts the service replaces
  // `stack` with a new one built from `config`.
  virtual void round(Bench& bench, std::unique_ptr<Stack>& stack,
                     const StackConfig& config) = 0;
};

// Builds and starts a stack; null (and a failed check) on error.
std::unique_ptr<Stack> startStack(Bench& bench, const StackConfig& config);

std::unique_ptr<Workload> makeEdit(std::uint64_t seed);
std::unique_ptr<Workload> makeDurable(std::uint64_t seed);
std::unique_ptr<Workload> makeSolve(std::uint64_t seed);

}  // namespace perfbench
