#include "nsc/workbench.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <future>
#include <optional>

#include "common/schema.h"
#include "common/strings.h"
#include "sim/verify.h"

namespace nsc {

namespace {

// The table vocabulary: field, table and the codec kinds.
using namespace common::schema;

// The checkpoint document.  Every double travels as its 16-hex-digit
// IEEE-754 bit pattern (the schema's Words kind): JSON decimal text does not
// round-trip doubles exactly, this does, which is what makes
// checkpoint/restore bit-identical.
struct PlaneEntry {
  int plane = -1;
  std::vector<double> words;
};
struct CacheEntry {
  int cache = -1;
  int buffer = -1;
  std::vector<double> words;
};
struct NodeState {
  int pc = 0;
  bool halted = false;
  std::vector<bool> cond;
  std::vector<PlaneEntry> planes;
  std::vector<CacheEntry> caches;
};
struct CheckpointState {
  std::string format;
  int version = -1;
  std::uint64_t resets = 1;
  std::optional<std::uint64_t> scripts_run;  // absent: one per script
  std::vector<std::string> scripts;
  NodeState node;
};

constexpr auto kPlaneEntry = table<PlaneEntry>("PlaneEntry", {
    field<&PlaneEntry::plane>("plane", "memory plane id"),
    field<&PlaneEntry::words>("words", "the whole backing store"),
});

constexpr auto kCacheEntry = table<CacheEntry>("CacheEntry", {
    field<&CacheEntry::cache>("cache", "cache id"),
    field<&CacheEntry::buffer>("buffer", "buffer of that cache"),
    field<&CacheEntry::words>("words", "the whole buffer"),
});

constexpr auto kNode = table<NodeState>("NodeState", {
    field<&NodeState::pc>("pc", "sequencer position"),
    field<&NodeState::halted>("halted", "the node halted"),
    field<&NodeState::cond>("cond", "condition registers"),
    field<&NodeState::planes, List<Object<kPlaneEntry>>>(
        "planes", "allocated planes; untouched ones are left out"),
    field<&NodeState::caches, List<Object<kCacheEntry>>>(
        "caches", "cache buffers holding a nonzero bit"),
});

constexpr auto kCheckpoint = table<CheckpointState>("Checkpoint", {
    field<&CheckpointState::format>("format", "kStateFormat"),
    field<&CheckpointState::version>("version", "kStateVersion"),
    field<&CheckpointState::resets>("resets", "reset() calls"),
    field<&CheckpointState::scripts_run, Nullable<Int<std::uint64_t>>>(
        "scripts_run", "runSession() calls"),
    field<&CheckpointState::scripts>("scripts", "replay log", kRequired),
    field<&CheckpointState::node, Object<kNode>>("node", "node memory image",
                                                 kRequired),
});

// True when every word is bit-pattern zero (+0.0; -0.0 and denormals count
// as data).  Buffers that still look untouched are omitted from the payload.
bool allZeroBits(const std::vector<double>& words) {
  for (const double w : words) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &w, sizeof(bits));
    if (bits != 0) return false;
  }
  return true;
}

}  // namespace

WorkbenchCore::WorkbenchCore(const WorkbenchContext& context)
    : context_(context) {
  reset();
}

void WorkbenchCore::reset() {
  // Order matters: the runner holds a reference to the editor, so it is
  // re-bound after the editor is reconstructed.
  editor_.emplace(context_.machine());
  runner_.emplace(*editor_);
  node_.emplace(context_.machine());
  script_log_.clear();
  ++resets_;
}

ed::SessionResult WorkbenchCore::runSession(const std::string& script) {
  ++scripts_run_;
  script_log_.push_back(script);
  return runner_->runScript(script);
}

common::Json WorkbenchCore::serializeState() const {
  CheckpointState state;
  state.format = kStateFormat;
  state.version = kStateVersion;
  state.resets = resets_;
  state.scripts_run = scripts_run_;
  state.scripts = script_log_;
  sim::NodeSim::Snapshot snap = node_->snapshot();
  state.node.pc = snap.pc;
  state.node.halted = snap.halted;
  state.node.cond = std::move(snap.cond_regs);
  // Planes allocate on first touch, so untouched planes are empty and left
  // out; allocated planes are stored whole (including trailing zeros) so
  // the restored backing-store sizes match exactly.  The snapshot shows
  // every cache buffer at full size, untouched ones as zeros; all-zero
  // buffers are left out.
  for (std::size_t p = 0; p < snap.planes.size(); ++p) {
    if (snap.planes[p].empty()) continue;
    state.node.planes.push_back(
        {static_cast<int>(p), std::move(snap.planes[p])});
  }
  for (std::size_t c = 0; c < snap.caches.size(); ++c) {
    for (std::size_t b = 0; b < snap.caches[c].size(); ++b) {
      if (allZeroBits(snap.caches[c][b])) continue;
      state.node.caches.push_back({static_cast<int>(c), static_cast<int>(b),
                                   std::move(snap.caches[c][b])});
    }
  }
  return encode(kCheckpoint, state);
}

common::Status WorkbenchCore::restoreState(const common::Json& state) {
  using common::strFormat;
  CheckpointState decoded;
  Decoder decoder;
  decode(decoder, kCheckpoint, state, decoded);
  // Validate the envelope before touching any state, so a wrong-version
  // payload leaves the core exactly as it was.  format and version decode
  // first, so a payload of another format or version is reported as such
  // whatever else it holds.
  if (decoded.format != kStateFormat) {
    return common::Status::error(
        strFormat("checkpoint: unsupported format '%s' (expected '%s')",
                  decoded.format.c_str(), kStateFormat));
  }
  if (decoded.version != kStateVersion) {
    return common::Status::error(strFormat(
        "checkpoint: unsupported version %d (this build reads version %d)",
        decoded.version, kStateVersion));
  }

  // From here on the core is mutated; any failure resets it back to the
  // freshly-constructed state so it stays usable (just empty).
  reset();
  const auto fail = [this](std::string message) {
    reset();
    return common::Status::error(std::move(message));
  };
  if (!decoder.ok()) return fail("checkpoint: " + decoder.error());

  // Editor state restores by replay: PR 5's split-session parity makes the
  // replayed editor (documents, undo history, warm checker sessions)
  // bit-identical to the one that was checkpointed.
  for (const std::string& script : decoded.scripts) runSession(script);

  // Node memory restores by direct image adoption, starting from the fresh
  // node's snapshot so every shape matches this machine config.
  sim::NodeSim::Snapshot snap = node_->snapshot();
  NodeState& node = decoded.node;
  snap.pc = node.pc;
  snap.halted = node.halted;
  if (node.cond.size() != snap.cond_regs.size()) {
    return fail("checkpoint: condition-register count mismatch");
  }
  snap.cond_regs = std::move(node.cond);
  for (PlaneEntry& entry : node.planes) {
    if (entry.plane < 0 ||
        static_cast<std::size_t>(entry.plane) >= snap.planes.size()) {
      return fail(strFormat("checkpoint: plane %d out of range", entry.plane));
    }
    snap.planes[static_cast<std::size_t>(entry.plane)] = std::move(entry.words);
  }
  const std::size_t cache_words = context_.machine().config().cacheWords();
  for (CacheEntry& entry : node.caches) {
    if (entry.cache < 0 ||
        static_cast<std::size_t>(entry.cache) >= snap.caches.size()) {
      return fail(strFormat("checkpoint: cache %d out of range", entry.cache));
    }
    auto& buffers = snap.caches[static_cast<std::size_t>(entry.cache)];
    if (entry.buffer < 0 ||
        static_cast<std::size_t>(entry.buffer) >= buffers.size()) {
      return fail(strFormat("checkpoint: cache buffer %d out of range",
                            entry.buffer));
    }
    if (entry.words.size() != cache_words) {
      return fail(strFormat("checkpoint: cache %d/%d holds %zu words, not %zu",
                            entry.cache, entry.buffer, entry.words.size(),
                            cache_words));
    }
    buffers[static_cast<std::size_t>(entry.buffer)] = std::move(entry.words);
  }
  node_->restoreSnapshot(std::move(snap));

  // Lifetime counters carry over so checkpoint() diffs stay continuous
  // across the migration (the replay above bumped them; overwrite with the
  // source core's values).
  resets_ = decoded.resets;
  scripts_run_ = decoded.scripts_run.value_or(script_log_.size());
  return common::Status::ok();
}

WorkbenchCore::Checkpoint WorkbenchCore::checkpoint() const {
  Checkpoint checkpoint;
  checkpoint.resets = resets_;
  checkpoint.scripts_run = scripts_run_;
  checkpoint.editor = editor_->stats();
  return checkpoint;
}

RunOutcome WorkbenchCore::generateAndRun() {
  return runProgram(editor_->program());
}

CompileOutcome WorkbenchCore::compileProgram(const prog::Program& program) {
  CompileOutcome outcome;
  mc::Generator generator(context_.machine());
  outcome.generation = generator.generate(program);
  if (!outcome.generation.ok) return outcome;
  outcome.program = context_.cache().get(context_.machine(),
                                         outcome.generation.exe,
                                         &outcome.cache_hit);
  // Surface verifier errors next to the generator's own diagnostics (the
  // report itself rides outcome.program->verify).  Warnings stay in the
  // report only; generation.ok is untouched — execution still runs and
  // faults exactly as it always did, the service layer is what gates.
  if (outcome.program != nullptr && outcome.program->verify != nullptr &&
      !outcome.program->verify->clean()) {
    const check::DiagnosticList bridged =
        outcome.program->verify->toDiagnostics();
    for (const check::Diagnostic& d : bridged.all()) {
      if (d.severity == check::Severity::kError) {
        outcome.generation.diagnostics.add(d.rule, d.severity, d.message,
                                           d.pipeline);
      }
    }
  }
  return outcome;
}

RunOutcome WorkbenchCore::runProgram(const prog::Program& program) {
  RunOutcome outcome;
  CompileOutcome compiled = compileProgram(program);
  outcome.generation = std::move(compiled.generation);
  outcome.program = std::move(compiled.program);
  outcome.cache_hit = compiled.cache_hit;
  if (!outcome.generation.ok) return outcome;
  node_->load(outcome.program);
  outcome.run = node_->run();
  return outcome;
}

EnsembleOutcome WorkbenchCore::runEnsemble(const prog::Program& program,
                                           int replicas,
                                           const EnsembleOptions& options) {
  EnsembleOutcome outcome;
  CompileOutcome compiled_outcome = compileProgram(program);
  outcome.generation = std::move(compiled_outcome.generation);
  outcome.program = std::move(compiled_outcome.program);
  outcome.cache_hit = compiled_outcome.cache_hit;
  if (!outcome.generation.ok) return outcome;
  ReplicaRunOutcome replicas_outcome =
      runReplicas(outcome.program, replicas, options);
  outcome.runs = std::move(replicas_outcome.runs);
  outcome.lanes_used = replicas_outcome.lanes_used;
  outcome.replicas_batched = replicas_outcome.replicas_batched;
  outcome.replicas_scalar = replicas_outcome.replicas_scalar;
  return outcome;
}

std::vector<sim::RunStats> WorkbenchCore::runReplicas(
    const std::shared_ptr<const sim::CompiledProgram>& program,
    int replicas) {
  return runReplicas(program, replicas, EnsembleOptions{}).runs;
}

WorkbenchCore::ReplicaRunOutcome WorkbenchCore::runReplicas(
    const std::shared_ptr<const sim::CompiledProgram>& program, int replicas,
    const EnsembleOptions& options) {
  ReplicaRunOutcome outcome;
  if (program == nullptr || replicas <= 0) return outcome;
  const int lanes = sim::resolveEnsembleLanes(options.lanes);
  outcome.lanes_used = lanes;
  // One compiled image shared by every replica (and, through the cache, by
  // every other consumer of the same program); the pool only simulates.
  std::vector<sim::RunStats>& runs = outcome.runs;
  runs.resize(static_cast<std::size_t>(replicas));
  // Replicas partition into contiguous SoA batches of `lanes` width, each
  // an independent submitted task rather than one parallelFor job:
  // concurrent ensembles from different cores (service shards) then
  // interleave batch-by-batch instead of serializing on the pool's
  // one-job-at-a-time range path.  Each result lands in its own slot, so
  // scheduling order cannot affect the outcome.  Width-1 remainders (and
  // every replica under lanes == 1) count as replicas run alone.
  std::atomic<int> scalar_replicas{0};
  std::vector<std::future<void>> pending;
  pending.reserve((runs.size() + static_cast<std::size_t>(lanes) - 1) /
                  static_cast<std::size_t>(lanes));
  for (int base = 0; base < replicas; base += lanes) {
    const int width = std::min(lanes, replicas - base);
    pending.push_back(context_.pool().submit(
        [this, &runs, &program, &options, base, width, &scalar_replicas] {
          sim::ReplicaBatch batch(context_.machine(), width);
          batch.load(program);
          if (options.init) {
            for (int w = 0; w < width; ++w) {
              sim::ReplicaBatch::LaneStore store(batch, w);
              options.init(base + w, store);
            }
          }
          sim::BatchRunResult result = batch.run();
          for (int w = 0; w < width; ++w) {
            runs[static_cast<std::size_t>(base + w)] =
                std::move(result.runs[static_cast<std::size_t>(w)]);
          }
          scalar_replicas.fetch_add(width == 1 ? 1 : result.drained_scalar,
                                    std::memory_order_relaxed);
        }));
  }
  // The caller participates instead of idling: drain queued pool tasks
  // (this ensemble's batches, or anyone else's work) until the queue is
  // empty, then settle the futures.  Every task references
  // `runs`/`program`, so all futures must settle before this frame can
  // unwind — collect the first failure and rethrow only after the whole
  // ensemble has drained.
  while (context_.pool().tryRunOneTask()) {
  }
  std::exception_ptr error;
  for (std::future<void>& f : pending) {
    try {
      f.get();
    } catch (...) {
      if (!error) error = std::current_exception();
    }
  }
  if (error) std::rethrow_exception(error);
  outcome.replicas_scalar = scalar_replicas.load(std::memory_order_relaxed);
  outcome.replicas_batched = replicas - outcome.replicas_scalar;
  return outcome;
}

sim::HypercubeSystem WorkbenchCore::makeSystem(int dimension,
                                               sim::SystemOptions options) {
  return sim::HypercubeSystem(context_.machine(), dimension, options,
                              &context_.pool(), &context_.cache());
}

sim::HypercubeSystem WorkbenchCore::makeSystem(
    int dimension, sim::RouterOptions router,
    sim::NodeSim::Options node_options) {
  return makeSystem(dimension,
                    sim::SystemOptions{.router = router, .node = node_options});
}

ed::Editor editorForProgram(const arch::Machine& machine,
                            const prog::Program& program) {
  ed::Editor editor(machine);
  bool first = true;
  for (const prog::PipelineDiagram& diagram : program.pipelines) {
    if (first) {
      editor.renamePipeline(diagram.name);
      first = false;
    } else {
      editor.insertPipeline(diagram.name);
    }
    // Grid placement: two columns inside the drawing area.
    const ed::WindowLayout& layout = editor.layout();
    int col = 0, row = 0;
    for (const prog::AlsUse& use : diagram.als_uses) {
      const arch::AlsKind kind = machine.als(use.als).kind;
      ed::IconKind icon = ed::IconKind::kSinglet;
      if (kind == arch::AlsKind::kDoublet) {
        icon = use.bypass ? ed::IconKind::kDoubletBypass : ed::IconKind::kDoublet;
      } else if (kind == arch::AlsKind::kTriplet) {
        icon = ed::IconKind::kTriplet;
      }
      const ed::Point pos{layout.drawing.x + 30 + col * 190,
                          layout.drawing.y + 30 + row * 210};
      editor.placeIcon(icon, use.als, pos);
      if (++col == 4) {
        col = 0;
        ++row;
      }
    }
    // Copy the full semantic state (ops, DMA, connections) and rebuild the
    // wires: re-apply connections through the editor for wire geometry,
    // then overwrite the semantic record wholesale so register-file
    // details match exactly.
    for (const prog::Connection& c : diagram.connections) {
      editor.connect(c.from, c.to);
    }
    editor.overwriteSemantic(diagram);
  }
  editor.jumpTo(0);
  return editor;
}

}  // namespace nsc
