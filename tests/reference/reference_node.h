// ReferenceNode: the legacy per-cycle interpreter of one NSC node, kept as
// the semantic reference for the execution engine (sim/batch.h).
//
// It re-walks the decoded InstrPlans of a CompiledProgram cycle by cycle —
// no lowering, no steady-state blocks, no structure-of-arrays — over its own
// plain scalar state (eagerly allocated planes and caches, condition
// registers, loop counters).  The golden, property, and verifier suites run
// every program through both this node and the engine and require identical
// InstrStats, fu_launches, trace frames, and memory contents; the hypercube
// goldens drive one per node through multi-phase SPMD runs.  Test-only:
// linked by the test suites and the engine A/B bench, never by the
// libraries.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "arch/machine.h"
#include "microcode/generator.h"
#include "sim/batch.h"
#include "sim/compiled.h"
#include "sim/stats.h"

namespace nsc::sim {

class ReferenceNode final : public ReplicaStore {
 public:
  explicit ReferenceNode(const arch::Machine& machine,
                         NodeOptions options = {});

  void load(const mc::Executable& exe);
  void load(std::shared_ptr<const CompiledProgram> program);

  // ---- Memory access (host/loader side; NodeSim semantics) ----
  void writePlane(arch::PlaneId plane, std::uint64_t base,
                  std::span<const double> values) override;
  std::vector<double> readPlane(arch::PlaneId plane, std::uint64_t base,
                                std::uint64_t count) const;
  double readPlaneWord(arch::PlaneId plane, std::uint64_t addr) const;
  void writeCache(arch::CacheId cache, int buffer, std::uint64_t base,
                  std::span<const double> values) override;
  void readCacheInto(arch::CacheId cache, int buffer, std::uint64_t base,
                     std::span<double> out) const;

  bool cond(int reg) const {
    return cond_regs_.at(static_cast<std::size_t>(reg));
  }
  int pc() const { return pc_; }
  bool halted() const { return halted_; }

  // Re-arms the sequencer at instruction 0 without touching memory (pc,
  // halt flag, condition registers, loop counters): the phase boundary of
  // a multi-phase SPMD run.
  void restart();

  // Runs from the current pc until halt, error, or the instruction budget.
  RunStats run();

  void setTraceSink(TraceSink sink) { trace_ = std::move(sink); }

 private:
  InstrStats execute(const InstrPlan& plan, int instr_index,
                     const std::string& name);
  void applySequencer(const InstrPlan& plan);
  void ensurePlaneSize(arch::PlaneId plane, std::uint64_t needed);

  const arch::Machine& machine_;
  NodeOptions options_;
  std::shared_ptr<const CompiledProgram> program_;

  std::vector<std::vector<double>> planes_;
  std::vector<std::vector<std::vector<double>>> caches_;  // [cache][buffer]
  std::vector<bool> cond_regs_;
  std::vector<std::optional<int>> loop_counters_;  // per instruction slot
  int pc_ = 0;
  bool halted_ = false;
  std::vector<std::uint64_t> fu_launches_;

  TraceSink trace_;
};

}  // namespace nsc::sim
