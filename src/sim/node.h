// NodeSim: cycle-level simulator of one Navier-Stokes Computer node.
//
// The NSC was never completed; this simulator is the substitute backend
// (see DESIGN.md, Section 2).  It executes the microcode produced by
// mc::Generator — decoding the same bit fields — and models, per cycle:
//
//   * 32 functional units with per-op pipeline latencies, register-file
//     constant supply, circular-queue delays, and accumulator feedback;
//   * the crossbar switch network (one-cycle hop, registered);
//   * 16 memory-plane DMA engines with two-level strided addressing;
//   * 16 double-buffered caches;
//   * 2 shift/delay units re-forming one stream into delayed copies;
//   * the condition latch, completion detection ("an elaborate interrupt
//     scheme is used to signal pipeline completions"), and the central
//     sequencer (next/jump/branch/loop/halt).
//
// Programs load as an immutable sim::CompiledProgram (decode + lowering run
// once; SPMD systems share one image across all nodes).  There is one
// execution engine, the SoA ReplicaBatch (sim/batch.h): a NodeSim is a
// width-1 batch behind a checked, single-node interface.  The per-cycle
// plan interpreter is the test-only reference (tests/reference) the golden
// tests in test_compiled.cpp compare against: identical InstrStats, trace
// frames, and memory contents.
//
// Determinism: the simulator is single-threaded and fully deterministic;
// all state is reset per instruction except memory planes, caches,
// condition registers, loop counters, and register-file images.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "arch/machine.h"
#include "microcode/generator.h"
#include "sim/batch.h"
#include "sim/compiled.h"
#include "sim/stats.h"

namespace nsc::sim {

class NodeSim {
 public:
  using Options = NodeOptions;
  using Snapshot = NodeSnapshot;

  explicit NodeSim(const arch::Machine& machine, Options options = {});

  const arch::Machine& machine() const { return batch_.machine(); }

  // Compiles microcode + register-file images, loads the result, and
  // resets the sequencer.  For many nodes running the same executable,
  // compile once and use the shared overload instead.
  void load(const mc::Executable& exe);

  // Loads an already-compiled program (shared, immutable).  All SPMD nodes
  // of a system load the same image; nothing is copied per node.
  void load(std::shared_ptr<const CompiledProgram> program) {
    batch_.load(std::move(program));
  }

  const std::shared_ptr<const CompiledProgram>& program() const {
    return batch_.program();
  }

  // ---- Memory access (host/loader side) ----
  // Plane and cache ids are checked: an id outside the machine config
  // throws std::out_of_range.
  void writePlane(arch::PlaneId plane, std::uint64_t base,
                  std::span<const double> values) {
    batch_.writePlane(0, plane, base, values);
  }
  std::vector<double> readPlane(arch::PlaneId plane, std::uint64_t base,
                                std::uint64_t count) const {
    return batch_.readPlane(0, plane, base, count);
  }
  // Copy-free variant: fills `out` (out.size() words starting at `base`),
  // zero-filling words beyond the simulated backing store.
  void readPlaneInto(arch::PlaneId plane, std::uint64_t base,
                     std::span<double> out) const {
    batch_.readPlaneInto(0, plane, base, out);
  }
  double readPlaneWord(arch::PlaneId plane, std::uint64_t addr) const;

  void writeCache(arch::CacheId cache, int buffer, std::uint64_t base,
                  std::span<const double> values) {
    batch_.writeCache(0, cache, buffer, base, values);
  }
  std::vector<double> readCache(arch::CacheId cache, int buffer,
                                std::uint64_t base, std::uint64_t count) const {
    return batch_.readCache(0, cache, buffer, base, count);
  }
  void readCacheInto(arch::CacheId cache, int buffer, std::uint64_t base,
                     std::span<double> out) const {
    batch_.readCacheInto(0, cache, buffer, base, out);
  }

  bool cond(int reg) const { return batch_.cond(0, reg); }
  int pc() const { return batch_.pc(); }
  bool halted() const { return batch_.halted(); }

  // Runs from the current pc until halt, error, or the instruction budget.
  RunStats run() { return std::move(batch_.run().runs[0]); }

  // Re-arms the sequencer at instruction 0 without touching memory.
  void restart() { batch_.restart(); }

  // ---- Durable-state hand-off (service durability layer) ----
  Snapshot snapshot() const { return batch_.snapshot(0); }
  // Restores a snapshot taken from a node on the same machine config.  The
  // node afterwards has no loaded program (callers load before running,
  // exactly as the service request paths always do); memory reads and a
  // subsequent load+run behave bit-identically to the snapshotted node.
  void restoreSnapshot(Snapshot snapshot) {
    batch_.restoreSnapshot(std::move(snapshot));
  }

  void setTraceSink(TraceSink sink) { batch_.setTraceSink(std::move(sink)); }

 private:
  ReplicaBatch batch_;
};

// Adapter: a NodeSim as a ReplicaStore (problem loaders and ensemble-style
// init callbacks seed a lone node through it).
class NodeReplicaStore final : public ReplicaStore {
 public:
  explicit NodeReplicaStore(NodeSim& node) : node_(node) {}
  void writePlane(arch::PlaneId plane, std::uint64_t base,
                  std::span<const double> values) override {
    node_.writePlane(plane, base, values);
  }
  void writeCache(arch::CacheId cache, int buffer, std::uint64_t base,
                  std::span<const double> values) override {
    node_.writeCache(cache, buffer, base, values);
  }

 private:
  NodeSim& node_;
};

}  // namespace nsc::sim
