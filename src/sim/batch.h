// ReplicaBatch: the node execution engine.  One CompiledProgram steps W
// lanes of node state in structure-of-arrays form; a single node is simply
// a width-1 batch (NodeSim, sim/node.h, is that facade).
//
// Every lane runs the *same* compiled instruction stream over different
// data: ensemble replicas (runEnsemble), the nodes of one SPMD hypercube
// phase (HypercubeSystem lane groups), or one node on its own.  In this
// machine the timing of every token — validity, last-element marks, DMA
// cursor positions, ring offsets, launch decisions, completion interrupts —
// is data-independent: only token *values*, accumulator contents, and
// latched condition booleans depend on the data.  The engine exploits that
// split.  Per-node state is packed as structure-of-arrays (a plane word
// `addr` holds lanes at `mem[addr * W + w]`), one value-free *shape* copy of
// every token stream is stepped once per cycle in blocked
// fill/steady/drain form, and only the value arithmetic runs as W-wide
// inner loops — no per-lane dispatch, auto-vectorizable, one CompiledInstr
// stepping all lanes per cycle inside the verifier-proven steady blocks.
//
// Lanes run in exact lockstep until the *sequencer* consults a condition
// register (kBranchIf / kBranchNot) whose per-lane values disagree.  At
// that instruction boundary the batch keeps the largest agreeing lane group
// and retires every other lane into a private width-1 batch — seeded with
// an exact de-interleaved copy of the lane's memory, condition registers,
// and loop counters — which finishes the run on the same engine.  Faults
// (compile-time DMA bounds, cycle timeouts) are shape-level and hit every
// lockstep lane identically, exactly as the same replicas would fault one
// by one.  The golden tests in test_compiled.cpp pin every lane's
// InstrStats, fu_launches, planes, and caches bit-identical to the test-only
// reference interpreter (tests/reference) run one replica at a time.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "arch/machine.h"
#include "sim/compiled.h"
#include "sim/stats.h"
#include "sim/token.h"

namespace nsc::sim {

// One cycle of observable dataflow, for the visual debugger (paper,
// Section 6: "each new instruction would display the corresponding pipeline
// diagram, annotated to show data values flowing through the pipeline").
struct TraceFrame {
  int instruction = 0;
  std::uint64_t cycle = 0;
  // Token per switch source endpoint, indexed like Machine::sources().
  std::vector<Token> source_tokens;
};
using TraceSink = std::function<void(const TraceFrame&)>;

struct NodeOptions {
  std::uint64_t max_cycles_per_instruction = 64ull * 1024 * 1024;
  std::uint64_t max_instructions = 1ull << 20;
};

// Everything that survives between instructions and is observable by a
// later request: plane/cache memory images, condition registers, and the
// sequencer position.  The loaded program is deliberately absent — it is
// immutable, shared, and re-resolved through the compiled-program cache by
// the next load(); loop counters are re-armed by load() as well.  Every
// cache buffer is stored whole (cacheWords() words, zeros if untouched).
struct NodeSnapshot {
  std::vector<std::vector<double>> planes;                // [plane][word]
  std::vector<std::vector<std::vector<double>>> caches;   // [cache][buf][w]
  std::vector<bool> cond_regs;
  int pc = 0;
  bool halted = false;
};

// Host-side seeding interface over one node's memory (a NodeSim, one lane
// of a ReplicaBatch, one node of a HypercubeSystem), so a single
// per-replica init callback seeds any of them identically.
class ReplicaStore {
 public:
  virtual void writePlane(arch::PlaneId plane, std::uint64_t base,
                          std::span<const double> values) = 0;
  virtual void writeCache(arch::CacheId cache, int buffer, std::uint64_t base,
                          std::span<const double> values) = 0;

 protected:
  ~ReplicaStore() = default;
};

struct BatchRunResult {
  std::vector<RunStats> runs;  // runs[w] is lane w's full-run stats
  // Lanes that left the batch at a divergence point and executed at least
  // one instruction in their own width-1 continuation batch.
  int drained_scalar = 0;
};

class ReplicaBatch {
 public:
  static constexpr int kMaxLanes = 64;

  ReplicaBatch(const arch::Machine& machine, int lanes,
               NodeOptions options = {});

  int lanes() const { return lanes_; }
  const arch::Machine& machine() const { return machine_; }
  const std::shared_ptr<const CompiledProgram>& program() const {
    return program_;
  }

  // Loads a compiled program (shared, immutable) and re-arms the sequencer;
  // lane memory is untouched.  Lanes already retired to continuation
  // batches load the same image (with a fresh instruction budget).
  void load(std::shared_ptr<const CompiledProgram> program);

  // Re-arms the sequencer at instruction 0 without touching lane memory
  // (pc, halt flag, condition registers, loop counters).  Retired lanes
  // restart their continuation batches with the full per-run instruction
  // budget restored; multi-phase SPMD drivers call this between phases.
  void restart();

  // Sequencer state shared by the lockstep lanes (for a width-1 batch: the
  // node's own).
  int pc() const { return pc_; }
  bool halted() const { return halted_; }
  bool cond(int lane, int reg) const;

  // ---- Per-lane host memory access ----
  // Plane, cache, and buffer ids are checked (std::out_of_range), so a bad
  // id from a request is an error, never an out-of-bounds access.  Plane
  // backing stores grow on demand (geometric, capped at sim_plane_words);
  // writes beyond the cap are dropped and reads beyond a lane's store
  // zero-fill.
  void writePlane(int lane, arch::PlaneId plane, std::uint64_t base,
                  std::span<const double> values);
  void writeCache(int lane, arch::CacheId cache, int buffer,
                  std::uint64_t base, std::span<const double> values);
  std::vector<double> readPlane(int lane, arch::PlaneId plane,
                                std::uint64_t base, std::uint64_t count) const;
  // Copy-free gather of one lane's plane words — the exchange staging path
  // of hypercube systems reads halo vectors this way.
  void readPlaneInto(int lane, arch::PlaneId plane, std::uint64_t base,
                     std::span<double> out) const;
  std::vector<double> readCache(int lane, arch::CacheId cache, int buffer,
                                std::uint64_t base, std::uint64_t count) const;
  void readCacheInto(int lane, arch::CacheId cache, int buffer,
                     std::uint64_t base, std::span<double> out) const;
  // The seeding view of one lane (for EnsembleOptions::init callbacks).
  class LaneStore final : public ReplicaStore {
   public:
    LaneStore(ReplicaBatch& batch, int lane) : batch_(batch), lane_(lane) {}
    void writePlane(arch::PlaneId plane, std::uint64_t base,
                    std::span<const double> values) override {
      batch_.writePlane(lane_, plane, base, values);
    }
    void writeCache(arch::CacheId cache, int buffer, std::uint64_t base,
                    std::span<const double> values) override {
      batch_.writeCache(lane_, cache, buffer, base, values);
    }

   private:
    ReplicaBatch& batch_;
    int lane_;
  };

  // De-interleaved copy of one lane's durable state.
  NodeSnapshot snapshot(int lane) const;
  // Width-1 batches only: adopts a snapshot taken on the same machine
  // config.  The batch afterwards has no loaded program; memory reads and a
  // subsequent load+run behave bit-identically to the snapshotted node.
  void restoreSnapshot(NodeSnapshot snapshot);

  // Receives one frame per simulated cycle, built from the shape tokens and
  // lane 0's values (the debugger's node).
  void setTraceSink(TraceSink sink) { trace_ = std::move(sink); }

  // Runs every lane from the current pc to halt / error / budget, batched
  // while lanes agree and in width-1 continuations after divergence.
  // Per-lane results are index-stable.  Re-runnable across load()/restart()
  // boundaries: each call reports that run only, and lanes retired in an
  // earlier run continue in their continuation batches (counted in
  // BatchRunResult::drained_scalar), so a multi-phase SPMD driver can
  // restart() + run() per phase with per-phase stats identical to lone
  // nodes.
  BatchRunResult run();

 private:
  // Value-free token: the data-independent half of a sim::Token.  Lane
  // values travel separately in the `*_vals` columns.
  struct Shape {
    std::int32_t index = -1;
    bool valid = false;
    bool last = false;
  };

  // One CompiledInstr across all lanes (shape stepped once, values W-wide).
  // Dispatches to the KW-specialized body so the common widths (1 included)
  // run with compile-time-constant lane loops; KW = 0 is the runtime-width
  // body for other lane counts.
  InstrStats execute(const CompiledInstr& ci, int instr_index,
                     const std::string& name);
  template <int KW>
  InstrStats executeT(const CompiledInstr& ci, int instr_index,
                      const std::string& name);
  void emitTrace(int instr_index, std::uint64_t cycle) const;
  void checkLane(int lane) const;
  void checkPlane(int lane, arch::PlaneId plane) const;
  void checkCache(int lane, arch::CacheId cache, int buffer) const;
  // Cache buffers allocate lazily on first write (host or DMA); empty means
  // all-zero.
  std::vector<double>& cacheStore(std::size_t cache, std::size_t buffer);
  // Grows plane SoA backing, tracking each lane's own logical size (the
  // size a lone node's backing store would have), so per-lane growth
  // history stays observable exactly as if each lane ran alone.
  void ensurePlaneSize(arch::PlaneId plane, std::uint64_t needed);
  // Moves lane `w` into a private width-1 batch carrying the lane's exact
  // mid-run state; the continuation finishes the run on its own.
  std::unique_ptr<ReplicaBatch> extractLane(int w, int lane_pc,
                                            bool lane_halted,
                                            std::uint64_t executed) const;

  const arch::Machine& machine_;
  NodeOptions options_;
  const int lanes_;

  std::shared_ptr<const CompiledProgram> program_;

  // ---- Persistent per-lane machine state, SoA ----
  // planes_[p] holds plane_words_[p] * W doubles, address-major.
  std::vector<std::vector<double>> planes_;
  std::vector<std::uint64_t> plane_words_;  // shared physical words per plane
  // Each lane's logical backing-store size (lane_plane_words_[p][w]); host
  // reads/writes, snapshots, and lane extraction use it.  DMA in-range
  // checks may use the shared physical size: both sizes cover every
  // non-wrapped DMA address (plane_grows ran), so the comparisons agree.
  std::vector<std::vector<std::uint64_t>> lane_plane_words_;
  // [c][buf]: SoA, lazily allocated (empty buffer == all zeros).
  std::vector<std::vector<std::vector<double>>> caches_;
  std::vector<std::uint8_t> cond_;  // [reg * W + w]
  std::vector<std::optional<int>> loop_counters_;  // shared: lanes in lockstep
  int pc_ = 0;
  bool halted_ = false;

  // Shared run accounting (identical for every lockstep lane).
  std::vector<std::uint64_t> fu_launches_;

  // Lanes retired mid-run (divergence): the continuation holds the lane's
  // memory from then on, so host access routes through it.
  std::vector<std::unique_ptr<ReplicaBatch>> retired_;
  std::vector<std::uint8_t> active_;
  std::vector<RunStats> runs_;

  TraceSink trace_;

  // ---- Reusable per-instruction execution state ----
  // Shapes per switch source / destination / ring slot; `*_vals` carry the
  // per-lane token values (endpoint- or slot-major, W contiguous lanes).
  // Capacity survives across instructions, so steady-state stepping never
  // allocates.
  struct Scratch {
    std::vector<Shape> src_out, dst_in, arena;
    std::vector<double> src_vals, dst_vals, arena_vals;
    struct FuRun {
      std::uint32_t pipe_pos = 0;
      std::uint32_t rfq_pos = 0;
    };
    std::vector<FuRun> fu;
    std::vector<double> acc;  // [fu_slot * W + w]
    struct DmaRun {
      std::uint64_t element = 0;
      std::uint64_t row = 0;
      std::uint64_t in_row = 0;
    };
    std::vector<DmaRun> reads, writes;
    std::vector<std::uint32_t> sd_pos;
  };
  Scratch scratch_;
};

// Resolves the effective ensemble lane width: an explicit request >= 1 wins
// (clamped to kMaxLanes), else the NSC_ENSEMBLE_LANES environment variable,
// else kDefaultEnsembleLanes.  1 runs every replica as its own width-1
// batch.
inline constexpr int kDefaultEnsembleLanes = 8;
int resolveEnsembleLanes(int requested);

}  // namespace nsc::sim
