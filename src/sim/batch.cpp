// The node execution engine: ReplicaBatch::execute and the run loop.
//
// One value-free shape copy of every token stream is stepped per cycle —
// DMA cursors, ring positions, validity/last/index tags, launch decisions —
// while token *values* live in contiguous per-lane columns
// (`vals[slot * W + w]`) advanced by W-wide inner loops.  Shape state is
// data-independent, so it is identical for every lockstep lane; the value
// loops are the only per-lane work and carry no branches on lane data, so
// they auto-vectorize (and at W = 1 collapse to plain scalar code).
#include "sim/batch.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/env.h"
#include "common/strings.h"

namespace nsc::sim {

namespace {

// Condition registers per node.
constexpr std::size_t kCondRegs = 4;

// W-wide evalOp: the opcode switch hoisted out of the lane loop.  Each case
// must compute exactly what arch::evalOp computes per lane; rare opcodes
// fall back to the scalar call (bit-identical, just not vectorized).  KW > 0
// makes the trip count a compile-time constant (see executeT).
template <int KW>
void evalLanes(arch::OpCode op, const double* a, const double* b, double* out,
               int rw) {
  const int w = KW > 0 ? KW : rw;
  using arch::OpCode;
  switch (op) {
    case OpCode::kPass:
      for (int i = 0; i < w; ++i) out[i] = a[i];
      return;
    case OpCode::kAdd:
      for (int i = 0; i < w; ++i) out[i] = a[i] + b[i];
      return;
    case OpCode::kSub:
      for (int i = 0; i < w; ++i) out[i] = a[i] - b[i];
      return;
    case OpCode::kMul:
      for (int i = 0; i < w; ++i) out[i] = a[i] * b[i];
      return;
    case OpCode::kDiv:
      for (int i = 0; i < w; ++i) out[i] = a[i] / b[i];
      return;
    case OpCode::kNeg:
      for (int i = 0; i < w; ++i) out[i] = -a[i];
      return;
    case OpCode::kAbs:
      for (int i = 0; i < w; ++i) out[i] = std::fabs(a[i]);
      return;
    case OpCode::kCmpLt:
      for (int i = 0; i < w; ++i) out[i] = a[i] < b[i] ? 1.0 : 0.0;
      return;
    case OpCode::kCmpLe:
      for (int i = 0; i < w; ++i) out[i] = a[i] <= b[i] ? 1.0 : 0.0;
      return;
    case OpCode::kCmpEq:
      for (int i = 0; i < w; ++i) out[i] = a[i] == b[i] ? 1.0 : 0.0;
      return;
    case OpCode::kMin:
      for (int i = 0; i < w; ++i) out[i] = a[i] < b[i] ? a[i] : b[i];
      return;
    case OpCode::kMax:
      for (int i = 0; i < w; ++i) out[i] = a[i] > b[i] ? a[i] : b[i];
      return;
    default:
      for (int i = 0; i < w; ++i) out[i] = arch::evalOp(op, a[i], b[i]);
      return;
  }
}

}  // namespace

int resolveEnsembleLanes(int requested) {
  const auto clamped = [](long v) {
    return static_cast<int>(
        std::clamp<long>(v, 1, ReplicaBatch::kMaxLanes));
  };
  if (requested > 0) return clamped(requested);
  // Strict parse (common/env.h): non-numeric, negative, zero, or overflowed
  // NSC_ENSEMBLE_LANES values warn once and fall back to the default
  // instead of silently running a different experiment.
  if (const std::optional<long long> v =
          common::envInt("NSC_ENSEMBLE_LANES", 1, ReplicaBatch::kMaxLanes)) {
    return clamped(static_cast<long>(*v));
  }
  return kDefaultEnsembleLanes;
}

ReplicaBatch::ReplicaBatch(const arch::Machine& machine, int lanes,
                           NodeOptions options)
    : machine_(machine),
      options_(options),
      lanes_(std::clamp(lanes, 1, kMaxLanes)) {
  const arch::MachineConfig& cfg = machine_.config();
  const auto n_planes = static_cast<std::size_t>(cfg.num_memory_planes);
  const auto w = static_cast<std::size_t>(lanes_);
  planes_.resize(n_planes);
  plane_words_.assign(n_planes, 0);
  lane_plane_words_.assign(n_planes, std::vector<std::uint64_t>(w, 0));
  // Cache buffers stay empty until first touched: most programs use few (or
  // no) caches, and eagerly zeroing num_caches * cache_buffers * W words
  // would dominate the cost of running a small ensemble.
  caches_.resize(static_cast<std::size_t>(cfg.num_caches));
  for (auto& cache : caches_) {
    cache.resize(static_cast<std::size_t>(cfg.cache_buffers));
  }
  cond_.assign(kCondRegs * w, 0);
  fu_launches_.assign(static_cast<std::size_t>(cfg.numFus()), 0);
  retired_.resize(w);
}

void ReplicaBatch::load(std::shared_ptr<const CompiledProgram> program) {
  program_ = std::move(program);
  loop_counters_.assign(program_ ? program_->size() : 0, std::nullopt);
  pc_ = 0;
  halted_ = false;
  std::fill(cond_.begin(), cond_.end(), 0);
  for (auto& lane : retired_) {
    if (lane == nullptr) continue;
    // A continuation was created with the budget that remained at its
    // retirement; a fresh load grants the full per-run budget again.
    lane->options_.max_instructions = options_.max_instructions;
    lane->load(program_);
  }
}

void ReplicaBatch::restart() {
  // The lockstep lanes share one sequencer, so one reset covers them all;
  // memory is untouched.
  pc_ = 0;
  halted_ = false;
  std::fill(cond_.begin(), cond_.end(), 0);
  std::fill(loop_counters_.begin(), loop_counters_.end(), std::nullopt);
  for (auto& lane : retired_) {
    if (lane == nullptr) continue;
    lane->options_.max_instructions = options_.max_instructions;
    lane->restart();
  }
}

bool ReplicaBatch::cond(int lane, int reg) const {
  checkLane(lane);
  if (reg < 0 || static_cast<std::size_t>(reg) >= kCondRegs) {
    throw std::out_of_range(
        common::strFormat("condition register %d out of range", reg));
  }
  const auto l = static_cast<std::size_t>(lane);
  if (retired_[l] != nullptr) return retired_[l]->cond(0, reg);
  return cond_[static_cast<std::size_t>(reg) * static_cast<std::size_t>(lanes_) +
               l] != 0;
}

void ReplicaBatch::checkLane(int lane) const {
  if (lane < 0 || lane >= lanes_) {
    throw std::out_of_range(
        common::strFormat("lane %d out of range (%d lanes)", lane, lanes_));
  }
}

void ReplicaBatch::checkPlane(int lane, arch::PlaneId plane) const {
  checkLane(lane);
  if (plane < 0 || static_cast<std::size_t>(plane) >= planes_.size()) {
    throw std::out_of_range(common::strFormat(
        "plane %d out of range (%zu planes)", plane, planes_.size()));
  }
}

void ReplicaBatch::checkCache(int lane, arch::CacheId cache,
                              int buffer) const {
  checkLane(lane);
  if (cache < 0 || static_cast<std::size_t>(cache) >= caches_.size()) {
    throw std::out_of_range(common::strFormat(
        "cache %d out of range (%zu caches)", cache, caches_.size()));
  }
  const std::size_t buffers = caches_[static_cast<std::size_t>(cache)].size();
  if (buffer < 0 || static_cast<std::size_t>(buffer) >= buffers) {
    throw std::out_of_range(common::strFormat(
        "cache buffer %d out of range (%zu buffers)", buffer, buffers));
  }
}

// Each lane's logical size grows geometrically (capped at the simulated
// capacity), so a program whose instructions extend the touched range step
// by step reallocates O(log n) times; the shared SoA store then extends to
// the widest lane.  The layout is address-major, so a plain resize keeps
// existing words in place and zero-fills the growth.
void ReplicaBatch::ensurePlaneSize(arch::PlaneId plane, std::uint64_t needed) {
  const std::uint64_t cap = machine_.config().sim_plane_words;
  const auto p = static_cast<std::size_t>(plane);
  std::uint64_t widest = plane_words_[p];
  for (std::uint64_t& words : lane_plane_words_[p]) {
    if (words >= needed || needed > cap) continue;
    words = std::min<std::uint64_t>(
        cap, std::max<std::uint64_t>(needed, words * 2));
    widest = std::max(widest, words);
  }
  if (widest > plane_words_[p]) {
    plane_words_[p] = widest;
    planes_[p].resize(widest * static_cast<std::uint64_t>(lanes_), 0.0);
  }
}

std::vector<double>& ReplicaBatch::cacheStore(std::size_t cache,
                                              std::size_t buffer) {
  std::vector<double>& mem = caches_[cache][buffer];
  if (mem.empty()) {
    mem.assign(machine_.config().cacheWords() *
                   static_cast<std::size_t>(lanes_),
               0.0);
  }
  return mem;
}

void ReplicaBatch::writePlane(int lane, arch::PlaneId plane,
                              std::uint64_t base,
                              std::span<const double> values) {
  checkPlane(lane, plane);
  const auto l = static_cast<std::size_t>(lane);
  if (retired_[l] != nullptr) {
    retired_[l]->writePlane(0, plane, base, values);
    return;
  }
  const auto p = static_cast<std::size_t>(plane);
  const auto w = static_cast<std::size_t>(lanes_);
  // Words beyond the simulated capacity are dropped, mirroring the DMA
  // engines' in-range stores (a backing store never exceeds the cap).
  ensurePlaneSize(plane, base + values.size());
  const std::uint64_t words = lane_plane_words_[p][l];
  const std::uint64_t start = std::min<std::uint64_t>(base, words);
  const std::uint64_t fit =
      std::min<std::uint64_t>(values.size(), words - start);
  double* mem = planes_[p].data();
  for (std::uint64_t i = 0; i < fit; ++i) {
    mem[(start + i) * w + l] = values[i];
  }
}

void ReplicaBatch::writeCache(int lane, arch::CacheId cache, int buffer,
                              std::uint64_t base,
                              std::span<const double> values) {
  checkCache(lane, cache, buffer);
  const auto l = static_cast<std::size_t>(lane);
  if (retired_[l] != nullptr) {
    retired_[l]->writeCache(0, cache, buffer, base, values);
    return;
  }
  const std::uint64_t words = machine_.config().cacheWords();
  const auto w = static_cast<std::size_t>(lanes_);
  double* mem = cacheStore(static_cast<std::size_t>(cache),
                           static_cast<std::size_t>(buffer))
                    .data();
  for (std::size_t i = 0; i < values.size() && base + i < words; ++i) {
    mem[(base + i) * w + l] = values[i];
  }
}

std::vector<double> ReplicaBatch::readPlane(int lane, arch::PlaneId plane,
                                            std::uint64_t base,
                                            std::uint64_t count) const {
  checkPlane(lane, plane);
  std::vector<double> out(count, 0.0);
  readPlaneInto(lane, plane, base, out);
  return out;
}

void ReplicaBatch::readPlaneInto(int lane, arch::PlaneId plane,
                                 std::uint64_t base,
                                 std::span<double> out) const {
  checkPlane(lane, plane);
  const auto l = static_cast<std::size_t>(lane);
  if (retired_[l] != nullptr) {
    retired_[l]->readPlaneInto(0, plane, base, out);
    return;
  }
  const auto p = static_cast<std::size_t>(plane);
  const auto w = static_cast<std::size_t>(lanes_);
  const std::uint64_t words = lane_plane_words_[p][l];
  const double* mem = planes_[p].data();
  for (std::size_t i = 0; i < out.size(); ++i) {
    const std::uint64_t addr = base + i;
    out[i] = addr < words ? mem[addr * w + l] : 0.0;
  }
}

std::vector<double> ReplicaBatch::readCache(int lane, arch::CacheId cache,
                                            int buffer, std::uint64_t base,
                                            std::uint64_t count) const {
  checkCache(lane, cache, buffer);
  std::vector<double> out(count, 0.0);
  readCacheInto(lane, cache, buffer, base, out);
  return out;
}

void ReplicaBatch::readCacheInto(int lane, arch::CacheId cache, int buffer,
                                 std::uint64_t base,
                                 std::span<double> out) const {
  checkCache(lane, cache, buffer);
  const auto l = static_cast<std::size_t>(lane);
  if (retired_[l] != nullptr) {
    retired_[l]->readCacheInto(0, cache, buffer, base, out);
    return;
  }
  const std::uint64_t words = machine_.config().cacheWords();
  const auto w = static_cast<std::size_t>(lanes_);
  const std::vector<double>& store = caches_[static_cast<std::size_t>(cache)]
                                            [static_cast<std::size_t>(buffer)];
  for (std::size_t i = 0; i < out.size(); ++i) {
    const std::uint64_t addr = base + i;
    // An untouched buffer (empty store) reads as all zeros.
    out[i] = addr < words && !store.empty() ? store[addr * w + l] : 0.0;
  }
}

NodeSnapshot ReplicaBatch::snapshot(int lane) const {
  checkLane(lane);
  const auto l = static_cast<std::size_t>(lane);
  if (retired_[l] != nullptr) return retired_[l]->snapshot(0);
  const auto w = static_cast<std::size_t>(lanes_);
  // Lane `l`'s first `words` words of an SoA store (a plain copy at W = 1).
  const auto column = [w, l](const std::vector<double>& soa,
                             std::size_t words) {
    if (w == 1) return std::vector<double>(soa.begin(), soa.begin() + words);
    std::vector<double> out(words);
    for (std::size_t a = 0; a < words; ++a) out[a] = soa[a * w + l];
    return out;
  };
  NodeSnapshot snap;
  snap.planes.reserve(planes_.size());
  for (std::size_t p = 0; p < planes_.size(); ++p) {
    snap.planes.push_back(column(planes_[p], lane_plane_words_[p][l]));
  }
  const std::size_t cache_words = machine_.config().cacheWords();
  snap.caches.resize(caches_.size());
  for (std::size_t c = 0; c < caches_.size(); ++c) {
    for (const std::vector<double>& soa : caches_[c]) {
      // An untouched buffer is all zeros.
      snap.caches[c].push_back(soa.empty()
                                   ? std::vector<double>(cache_words, 0.0)
                                   : column(soa, cache_words));
    }
  }
  snap.cond_regs.resize(kCondRegs);
  for (std::size_t r = 0; r < kCondRegs; ++r) {
    snap.cond_regs[r] = cond_[r * w + l] != 0;
  }
  snap.pc = pc_;
  snap.halted = halted_;
  return snap;
}

void ReplicaBatch::restoreSnapshot(NodeSnapshot snapshot) {
  if (lanes_ != 1) {
    throw std::logic_error("ReplicaBatch::restoreSnapshot needs a width-1 batch");
  }
  // Shape mismatches (a checkpoint from a different machine config) are the
  // caller's to reject — the serialization layer validates counts against
  // the machine before handing the snapshot over.  At width 1 the SoA
  // layout is the plain one, so the images are adopted wholesale and
  // restored memory is bit-identical to the source node's.
  planes_ = std::move(snapshot.planes);
  plane_words_.resize(planes_.size());
  lane_plane_words_.resize(planes_.size());
  for (std::size_t p = 0; p < planes_.size(); ++p) {
    plane_words_[p] = planes_[p].size();
    lane_plane_words_[p].assign(1, planes_[p].size());
  }
  caches_ = std::move(snapshot.caches);
  cond_.assign(snapshot.cond_regs.begin(), snapshot.cond_regs.end());
  cond_.resize(kCondRegs, 0);
  pc_ = snapshot.pc;
  halted_ = snapshot.halted;
  program_.reset();
  loop_counters_.clear();
}

std::unique_ptr<ReplicaBatch> ReplicaBatch::extractLane(
    int w, int lane_pc, bool lane_halted, std::uint64_t executed) const {
  NodeOptions opts = options_;
  opts.max_instructions = options_.max_instructions - executed;
  auto lane = std::make_unique<ReplicaBatch>(machine_, 1, opts);
  lane->restoreSnapshot(snapshot(w));
  lane->program_ = program_;
  lane->loop_counters_ = loop_counters_;
  lane->pc_ = lane_pc;
  lane->halted_ = lane_halted;
  return lane;
}

void ReplicaBatch::emitTrace(int instr_index, std::uint64_t cycle) const {
  const Scratch& s = scratch_;
  const auto w = static_cast<std::size_t>(lanes_);
  TraceFrame frame;
  frame.instruction = instr_index;
  frame.cycle = cycle;
  frame.source_tokens.resize(s.src_out.size());
  for (std::size_t i = 0; i < s.src_out.size(); ++i) {
    const Shape& shape = s.src_out[i];
    frame.source_tokens[i] =
        Token{s.src_vals[i * w], shape.valid, shape.last, shape.index};
  }
  trace_(frame);
}

InstrStats ReplicaBatch::execute(const CompiledInstr& ci, int instr_index,
                                 const std::string& name) {
  // The common widths get bodies with compile-time-constant lane loops;
  // anything else takes the runtime-width body (KW = 0).
  switch (lanes_) {
    case 1: return executeT<1>(ci, instr_index, name);
    case 4: return executeT<4>(ci, instr_index, name);
    case 8: return executeT<8>(ci, instr_index, name);
    case 16: return executeT<16>(ci, instr_index, name);
    default: return executeT<0>(ci, instr_index, name);
  }
}

// Executes one lowered instruction with the cycle structure
//
//   fill -> steady state -> drain
//
// where the steady-state region runs up to the instruction's
// verifier-proven steady_window cycles back to back (64 when unproven)
// with no per-cycle completion polling: every endpoint index, ring size,
// and route was resolved at compile time (sim/compiled.cpp), and the block
// length is a proven lower bound on the cycles remaining before the
// instruction can complete.  Completion, drain accounting, and the
// condition latch are checked cycle by cycle outside those blocks.
template <int KW>
InstrStats ReplicaBatch::executeT(const CompiledInstr& ci, int instr_index,
                                  const std::string& name) {
  const arch::MachineConfig& cfg = machine_.config();
  const int W = KW > 0 ? KW : lanes_;
  const auto Wz = static_cast<std::size_t>(W);
  // Operand staging: registers at small compile-time widths.
  constexpr int kStage = KW > 0 ? KW : kMaxLanes;
  InstrStats stats;
  stats.instruction = instr_index;
  stats.name = name;

  // Faults proven at compile time surface at issue.
  if (ci.fault.kind != FaultKind::kNone) {
    stats.error = true;
    stats.fault = ci.fault.kind;
    stats.error_message = ci.fault.message;
    return stats;
  }
  for (const auto& [plane, needed] : ci.plane_grows) {
    ensurePlaneSize(plane, needed);
  }
  // Cache write targets must exist before the cycle loop dereferences them
  // (reads of untouched buffers fall through to zero).
  for (const CompiledDma& wr : ci.writes) {
    if (wr.is_cache) {
      cacheStore(static_cast<std::size_t>(wr.unit),
                 static_cast<std::size_t>(wr.buffer));
    }
  }

  // --- Per-instruction state (reused storage, reset content) ---
  Scratch& s = scratch_;
  const std::size_t n_src = machine_.sources().size();
  const std::size_t n_dst = machine_.destinations().size();
  s.src_out.assign(n_src, Shape{});
  s.dst_in.assign(n_dst, Shape{});
  s.arena.assign(ci.ring_slots, Shape{});
  s.src_vals.assign(n_src * Wz, 0.0);
  s.dst_vals.assign(n_dst * Wz, 0.0);
  s.arena_vals.assign(ci.ring_slots * Wz, 0.0);
  s.fu.assign(ci.fus.size(), Scratch::FuRun{});
  s.acc.assign(ci.fus.size() * Wz, 0.0);
  for (std::size_t k = 0; k < ci.fus.size(); ++k) {
    if (ci.fus[k].is_accum) {
      double* acc = s.acc.data() + k * Wz;
      for (int l = 0; l < W; ++l) acc[l] = ci.fus[k].rf_value;
    }
  }
  s.reads.assign(ci.reads.size(), Scratch::DmaRun{});
  s.writes.assign(ci.writes.size(), Scratch::DmaRun{});
  s.sd_pos.assign(ci.sds.size(), 0);

  // Lane columns of one endpoint / ring slot.
  const auto col = [Wz](std::vector<double>& vals, std::size_t slot) {
    return vals.data() + slot * Wz;
  };
  const auto copyCol = [W](double* to, const double* from) {
    for (int l = 0; l < W; ++l) to[l] = from[l];
  };

  const std::uint64_t drain_budget = drainBudget(cfg);
  std::uint64_t drain = 0;
  bool cond_fired = false;

  // One cycle of dataflow across all lanes.
  const auto stepCycle = [&](std::uint64_t cycle) {
    // Phase 1a: DMA read engines produce this cycle's tokens.
    for (std::size_t i = 0; i < ci.reads.size(); ++i) {
      const CompiledDma& rd = ci.reads[i];
      Scratch::DmaRun& run = s.reads[i];
      double* out = col(s.src_vals, static_cast<std::size_t>(rd.endpoint));
      Shape tok;
      if (run.element < rd.total) {
        const std::uint64_t element = run.element;
        const auto addr = static_cast<std::uint64_t>(
            static_cast<std::int64_t>(rd.base) +
            static_cast<std::int64_t>(run.row) * rd.stride2 +
            static_cast<std::int64_t>(run.in_row) * rd.stride);
        ++run.element;
        if (++run.in_row == rd.count) {
          run.in_row = 0;
          ++run.row;
        }
        const std::vector<double>& mem =
            rd.is_cache ? caches_[static_cast<std::size_t>(rd.unit)]
                                 [static_cast<std::size_t>(rd.buffer)]
                        : planes_[static_cast<std::size_t>(rd.unit)];
        // One shared address per cycle: W contiguous lane values.  The
        // in-range check uses the shared SoA extent, which agrees with
        // every lane's own check (both stores cover all non-wrapped DMA
        // addresses once plane_grows ran; wrapped addresses exceed both).
        const std::uint64_t addr_base = addr * static_cast<std::uint64_t>(W);
        if (addr_base < mem.size()) {
          copyCol(out, mem.data() + addr_base);
        } else {
          for (int l = 0; l < W; ++l) out[l] = 0.0;
        }
        tok = Shape{static_cast<std::int32_t>(element), true,
                    run.element == rd.total};
      } else {
        for (int l = 0; l < W; ++l) out[l] = 0.0;
      }
      s.src_out[static_cast<std::size_t>(rd.endpoint)] = tok;
    }

    // Phase 1b: shift/delay taps produce delayed copies.
    for (std::size_t i = 0; i < ci.sds.size(); ++i) {
      const CompiledSd& sd = ci.sds[i];
      const std::uint32_t pos = s.sd_pos[i];
      for (const CompiledSdTap& tap : sd.taps) {
        std::uint32_t at = pos + tap.back;
        if (at >= sd.hist_len) at -= sd.hist_len;
        s.src_out[static_cast<std::size_t>(tap.src)] = s.arena[sd.hist_off + at];
        copyCol(col(s.src_vals, static_cast<std::size_t>(tap.src)),
                col(s.arena_vals, sd.hist_off + at));
      }
    }

    // Phase 1c: functional units consume and launch.
    for (std::size_t k = 0; k < ci.fus.size(); ++k) {
      const CompiledFu& fu = ci.fus[k];
      Scratch::FuRun& st = s.fu[k];
      double* acc = s.acc.data() + k * Wz;

      // Shape returned; lane values land in `out[0..W)`.
      const auto operand = [&](const CompiledOperand& op,
                               double* out) -> Shape {
        Shape tok;
        switch (op.kind) {
          case OperandKind::kSwitch:
            tok = s.dst_in[static_cast<std::size_t>(op.index)];
            copyCol(out, col(s.dst_vals, static_cast<std::size_t>(op.index)));
            break;
          case OperandKind::kChain:
            if (op.index >= 0) {
              tok = s.src_out[static_cast<std::size_t>(op.index)];
              copyCol(out, col(s.src_vals, static_cast<std::size_t>(op.index)));
            } else {
              for (int l = 0; l < W; ++l) out[l] = 0.0;
            }
            break;
          case OperandKind::kConst:
            for (int l = 0; l < W; ++l) out[l] = fu.rf_value;
            return Shape{-1, true, false};
          case OperandKind::kFeedback:
            copyCol(out, acc);
            return Shape{-1, true, false};
          case OperandKind::kNone:
          default:
            for (int l = 0; l < W; ++l) out[l] = 0.0;
            return tok;
        }
        if (op.queue) {
          Shape& queued = s.arena[fu.rfq_off + st.rfq_pos];
          double* q = col(s.arena_vals, fu.rfq_off + st.rfq_pos);
          const Shape delayed = queued;
          queued = tok;
          for (int l = 0; l < W; ++l) {
            const double d = q[l];
            q[l] = out[l];
            out[l] = d;
          }
          st.rfq_pos = st.rfq_pos + 1 == fu.rfq_len ? 0 : st.rfq_pos + 1;
          tok = delayed;
        }
        return tok;
      };

      double a_vals[kStage];
      double b_vals[kStage];
      const Shape a = operand(fu.a, a_vals);
      const Shape b = operand(fu.b, b_vals);

      // The pipe slot leaving this cycle feeds the FU's output endpoint;
      // the launch result enters the same slot.
      const std::size_t pipe_slot = fu.pipe_off + st.pipe_pos;
      double* pipe = col(s.arena_vals, pipe_slot);
      s.src_out[static_cast<std::size_t>(fu.out_src)] = s.arena[pipe_slot];
      copyCol(col(s.src_vals, static_cast<std::size_t>(fu.out_src)), pipe);
      st.pipe_pos = st.pipe_pos + 1 == fu.pipe_len ? 0 : st.pipe_pos + 1;

      // One launch site (so the W-wide evaluation inlines): an accumulator
      // launches on its stream operand into the running value, any other
      // unit on all wired operands into the entering pipe slot.
      Shape result;
      bool launch = false;
      if (fu.is_accum) {
        const Shape& stream = fu.accum_stream_is_a ? a : b;
        launch = stream.valid;
        result = Shape{stream.index, stream.valid && stream.last,
                       stream.valid && stream.last};
      } else {
        launch = fu.a.wired ? a.valid : false;
        if (fu.b.wired) launch = launch && b.valid;
        if (fu.a.stream && fu.b.stream && a.valid != b.valid) ++stats.hazards;
        if (launch) {
          result.valid = true;
          result.last = (fu.a.wired && a.last) || (fu.b.wired && b.last);
          result.index = a.index >= 0 ? a.index : b.index;
        }
      }
      if (launch) {
        evalLanes<KW>(fu.op, a_vals, b_vals, fu.is_accum ? acc : pipe, W);
        if (fu.counts_flop) ++stats.flops;
        ++fu_launches_[static_cast<std::size_t>(fu.fu)];
      }
      if (fu.is_accum) {
        // The unit emits the running value every cycle (valid only on the
        // final element), so the result is always the accumulator.
        copyCol(pipe, acc);
      } else if (!launch) {
        for (int l = 0; l < W; ++l) pipe[l] = 0.0;
      }
      s.arena[pipe_slot] = result;
    }

    // Phase 2a: write engines capture arriving tokens.
    for (std::size_t i = 0; i < ci.writes.size(); ++i) {
      const CompiledDma& wr = ci.writes[i];
      Scratch::DmaRun& run = s.writes[i];
      if (run.element >= wr.total) continue;
      if (!s.dst_in[static_cast<std::size_t>(wr.endpoint)].valid) continue;
      const auto addr = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(wr.base) +
          static_cast<std::int64_t>(run.row) * wr.stride2 +
          static_cast<std::int64_t>(run.in_row) * wr.stride);
      ++run.element;
      if (++run.in_row == wr.count) {
        run.in_row = 0;
        ++run.row;
      }
      std::vector<double>& mem =
          wr.is_cache ? caches_[static_cast<std::size_t>(wr.unit)]
                               [static_cast<std::size_t>(wr.buffer)]
                      : planes_[static_cast<std::size_t>(wr.unit)];
      const std::uint64_t addr_base = addr * static_cast<std::uint64_t>(W);
      if (addr_base < mem.size()) {
        copyCol(mem.data() + addr_base,
                col(s.dst_vals, static_cast<std::size_t>(wr.endpoint)));
      }
    }

    // Phase 2b: condition latch watches the source FU's emerging stream.
    if (ci.cond_enable && ci.cond_src >= 0) {
      const Shape& tok = s.src_out[static_cast<std::size_t>(ci.cond_src)];
      if (tok.valid && tok.last) {
        const double* from =
            col(s.src_vals, static_cast<std::size_t>(ci.cond_src));
        std::uint8_t* regs =
            cond_.data() + static_cast<std::size_t>(ci.cond_reg) * Wz;
        for (int l = 0; l < W; ++l) regs[l] = from[l] > 0.5 ? 1 : 0;
        cond_fired = true;
      }
    }

    if (trace_) emitTrace(instr_index, cycle);

    // Phase 3: switch network transfers (registered: consumers see these
    // tokens next cycle).
    for (const auto& [dst, src] : ci.routes) {
      s.dst_in[static_cast<std::size_t>(dst)] =
          s.src_out[static_cast<std::size_t>(src)];
      copyCol(col(s.dst_vals, static_cast<std::size_t>(dst)),
              col(s.src_vals, static_cast<std::size_t>(src)));
    }

    // Phase 4: shift/delay history advances on the freshly routed input.
    for (std::size_t i = 0; i < ci.sds.size(); ++i) {
      const CompiledSd& sd = ci.sds[i];
      s.arena[sd.hist_off + s.sd_pos[i]] =
          s.dst_in[static_cast<std::size_t>(sd.in_dst)];
      copyCol(col(s.arena_vals, sd.hist_off + s.sd_pos[i]),
              col(s.dst_vals, static_cast<std::size_t>(sd.in_dst)));
      s.sd_pos[i] = s.sd_pos[i] + 1 == sd.hist_len ? 0 : s.sd_pos[i] + 1;
    }
  };

  std::uint64_t cycle = 0;
  bool completed = false;
  while (!completed) {
    if (cycle >= options_.max_cycles_per_instruction) {
      stats.error = true;
      stats.fault = FaultKind::kTimeout;
      stats.error_message = common::strFormat(
          "instruction %d did not complete within %llu cycles", instr_index,
          static_cast<unsigned long long>(options_.max_cycles_per_instruction));
      stats.cycles = cycle;
      return stats;
    }

    // --- Steady state: a lower bound on the cycles left before this
    // instruction can possibly complete; all of them run back to back with
    // no completion polling.  With the condition latch armed, completion
    // can follow the latch within a cycle, so the bound stays at zero and
    // every cycle runs in precise (per-cycle checked) mode instead.
    std::uint64_t block = 0;
    std::uint64_t reads_settle = 0;  // cycle the last read engine finishes
    if (!ci.cond_enable) {
      if (!ci.writes.empty()) {
        // Every engine captures at most one element per cycle.
        std::uint64_t rem = 0;
        for (std::size_t i = 0; i < ci.writes.size(); ++i) {
          rem = std::max(rem, ci.writes[i].total - s.writes[i].element);
        }
        block = rem > 0 ? rem - 1 : 0;
      } else if (!ci.reads.empty()) {
        // Read-only: reads finish 1/cycle unconditionally, then the drain
        // counter must climb from `drain` to drain_budget + 1.
        std::uint64_t rem = 0;
        for (std::size_t i = 0; i < ci.reads.size(); ++i) {
          rem = std::max(rem, ci.reads[i].total - s.reads[i].element);
        }
        reads_settle = std::max<std::uint64_t>(rem, 1);
        block = reads_settle + drain_budget - drain - 1;
      }
    }
    // Cap the block at the verifier-proven safe window for this
    // instruction.  The remaining-element bound above is already a
    // completion-distance proof, so the cap never changes the executed
    // cycle sequence — only how often completion is polled.
    block = std::min<std::uint64_t>(block, ci.steady_window);
    block = std::min(block, options_.max_cycles_per_instruction - cycle - 1);
    if (block > 0) {
      for (std::uint64_t b = 0; b < block; ++b) stepCycle(cycle + b);
      if (ci.writes.empty() && !ci.reads.empty() && block >= reads_settle) {
        // The drain counter climbs at the end of every cycle from the one
        // where the reads settle; account for the block in one step.
        drain += block - reads_settle + 1;
      }
      cycle += block;
      continue;
    }

    // --- Boundary cycle: run one cycle, then the exact completion logic
    // ("an elaborate interrupt scheme is used to signal pipeline
    // completions").
    stepCycle(cycle);
    ++cycle;

    const bool cond_ok = !ci.cond_enable || cond_fired;
    if (!ci.writes.empty()) {
      bool writes_done = true;
      for (std::size_t i = 0; i < ci.writes.size(); ++i) {
        writes_done = writes_done && s.writes[i].element >= ci.writes[i].total;
      }
      completed = writes_done && cond_ok;
    } else if (!ci.reads.empty()) {
      bool reads_done = true;
      for (std::size_t i = 0; i < ci.reads.size(); ++i) {
        reads_done = reads_done && s.reads[i].element >= ci.reads[i].total;
      }
      if (reads_done && cond_ok) {
        completed = ++drain > drain_budget;
      }
    } else {
      completed = true;  // control-only instruction
    }
  }

  // Double-buffered caches swap at instruction end when requested.
  for (const arch::CacheId c : ci.swaps) {
    std::swap(caches_[static_cast<std::size_t>(c)][0],
              caches_[static_cast<std::size_t>(c)][1]);
  }

  stats.cycles = cycle;
  return stats;
}

BatchRunResult ReplicaBatch::run() {
  const int W = lanes_;
  const std::size_t n_fus = fu_launches_.size();
  BatchRunResult out;
  runs_.assign(static_cast<std::size_t>(W), RunStats{});
  for (RunStats& r : runs_) r.fu_launches.assign(n_fus, 0);
  std::fill(fu_launches_.begin(), fu_launches_.end(), 0);
  active_.assign(static_cast<std::size_t>(W), 1);
  int active_count = W;
  std::uint64_t executed = 0;

  // Lanes that left the batch in an earlier run stay in their continuation
  // batches for good: each further run (a new SPMD phase after restart())
  // executes there and reports that run's stats, like any lone node.
  for (int w = 0; w < W; ++w) {
    const auto lane = static_cast<std::size_t>(w);
    if (retired_[lane] == nullptr) continue;
    active_[lane] = 0;
    --active_count;
    RunStats cont = std::move(retired_[lane]->run().runs[0]);
    if (cont.instructions_executed > 0) ++out.drained_scalar;
    runs_[lane] = std::move(cont);
  }

  const auto forActive = [&](auto&& fn) {
    for (int w = 0; w < W; ++w) {
      if (active_[static_cast<std::size_t>(w)]) fn(w);
    }
  };
  // Ends lane `w`'s part in this run with the shared launch counts.
  const auto finish = [&](int w) -> RunStats& {
    RunStats& r = runs_[static_cast<std::size_t>(w)];
    r.fu_launches = fu_launches_;
    active_[static_cast<std::size_t>(w)] = 0;
    --active_count;
    return r;
  };
  // Retires lane `w` into a width-1 continuation that finishes the run; the
  // continuation also keeps the lane's memory for later host access.
  const auto retire = [&](int w, int lane_pc, bool lane_halted) {
    RunStats& r = finish(w);
    auto lane = extractLane(w, lane_pc, lane_halted, executed);
    RunStats cont = std::move(lane->run().runs[0]);
    if (cont.instructions_executed > 0) ++out.drained_scalar;
    r.absorbContinuation(std::move(cont));
    retired_[static_cast<std::size_t>(w)] = std::move(lane);
  };

  const std::size_t program_size = program_ ? program_->size() : 0;
  const auto inRange = [program_size](int pc) {
    return pc >= 0 && static_cast<std::size_t>(pc) < program_size;
  };

  while (active_count > 0) {
    if (halted_) {
      forActive([&](int w) { finish(w).halted = true; });
      break;
    }
    if (program_size == 0) {
      // Nothing to issue and not halted (e.g. a restored node before its
      // next load): every remaining budget step executes an empty
      // instruction, so the run ends with the budget exhausted.
      const std::uint64_t left = options_.max_instructions - executed;
      forActive([&](int w) {
        RunStats& r = finish(w);
        r.instructions_executed += left;
        r.trace.resize(r.trace.size() + left);
        r.error = true;
        r.error_message = "instruction budget exhausted";
      });
      break;
    }
    if (executed >= options_.max_instructions) {
      forActive([&](int w) {
        RunStats& r = finish(w);
        r.error = true;
        r.error_message = "instruction budget exhausted";
      });
      break;
    }

    const int index = pc_;
    const auto slot = static_cast<std::size_t>(index);
    static const std::string kUnnamed;
    const std::string& name =
        slot < program_->names.size() ? program_->names[slot] : kUnnamed;
    InstrStats instr = execute(program_->instrs[slot], index, name);
    ++executed;
    forActive([&](int w) {
      RunStats& r = runs_[static_cast<std::size_t>(w)];
      r.total_cycles += instr.cycles;
      r.total_flops += instr.flops;
      r.total_hazards += instr.hazards;
      ++r.instructions_executed;
      r.trace.push_back(instr);
    });
    if (instr.error) {
      // Shape-level faults hit every lockstep lane identically.  The shared
      // sequencer halts, so a later restart()+run() (the next SPMD phase)
      // replays identically to lone nodes restarted after the same fault.
      halted_ = true;
      forActive([&](int w) {
        RunStats& r = finish(w);
        r.error = true;
        r.fault = instr.fault;
        r.error_message = instr.error_message;
        r.halted = true;
      });
      break;
    }

    // --- Sequencer: next/jump/branch/loop/halt.  A pc leaving the program
    // halts the node (the pc keeps the out-of-range value); only branches
    // consult per-lane condition registers.
    const InstrPlan& plan = program_->plans[slot];
    if (plan.seq_op != arch::SeqOp::kBranchIf &&
        plan.seq_op != arch::SeqOp::kBranchNot) {
      int next = index + 1;
      bool halt = false;
      switch (plan.seq_op) {
        case arch::SeqOp::kJump:
          next = plan.seq_target;
          break;
        case arch::SeqOp::kLoop: {
          // Lockstep lanes share one counter; one decrement covers all.
          auto& counter = loop_counters_[slot];
          if (!counter.has_value()) counter = plan.seq_count;
          if (--*counter > 0) {
            next = plan.seq_target;
          } else {
            counter.reset();
          }
          break;
        }
        case arch::SeqOp::kHalt:
          next = index;
          halt = true;
          break;
        default:
          break;
      }
      pc_ = next;
      halted_ = halt || !inRange(next);
      continue;
    }

    // Per-lane branch: two outcomes, [0] falls through, [1] is taken.
    const int outcome_pc[2] = {index + 1, plan.seq_target};
    const std::uint8_t* regs =
        cond_.data() + static_cast<std::size_t>(plan.seq_cond_reg) *
                           static_cast<std::size_t>(W);
    const bool take_when_set = plan.seq_op == arch::SeqOp::kBranchIf;
    int count[2] = {0, 0};
    int first_lane[2] = {W, W};
    forActive([&](int w) {
      const int t = (regs[w] != 0) == take_when_set ? 1 : 0;
      if (count[t]++ == 0) first_lane[t] = w;
    });
    const auto laneOutcome = [&](int w) {
      return (regs[w] != 0) == take_when_set ? 1 : 0;
    };
    if (count[0] == 0 || count[1] == 0 || outcome_pc[0] == outcome_pc[1]) {
      pc_ = outcome_pc[count[1] > 0 ? 1 : 0];
      halted_ = !inRange(pc_);
      continue;
    }
    // Keep the larger in-range group in the batch (ties favour the group
    // holding the lowest lane); every other lane leaves for a width-1
    // continuation.  Lanes that halt together stay put.
    int keep = -1;
    for (int t = 0; t < 2; ++t) {
      if (!inRange(outcome_pc[t])) continue;
      if (keep < 0 || count[t] > count[keep] ||
          (count[t] == count[keep] && first_lane[t] < first_lane[keep])) {
        keep = t;
      }
    }
    if (keep < 0) {
      pc_ = outcome_pc[laneOutcome(std::min(first_lane[0], first_lane[1]))];
      halted_ = true;
      continue;
    }
    forActive([&](int w) {
      const int t = laneOutcome(w);
      if (t != keep) retire(w, outcome_pc[t], !inRange(outcome_pc[t]));
    });
    pc_ = outcome_pc[keep];
  }

  out.runs = std::move(runs_);
  return out;
}

}  // namespace nsc::sim
