// Outside calls into the service's layers for the traced run.  Each helper
// calls a layer's public functions on the workload's own request data, on a
// core of the benchmark's own in-process context, under a span named for
// the layer, and records the layer's per-layer sample.  Nothing here runs
// in the timed (untraced) phase.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "nsc/workbench.h"
#include "service/checkpoint.h"

namespace perfbench {

// The benchmark's own context: the service's machine model, with its own
// pool and program cache so outside calls never touch the service's.
class ShadowContext {
 public:
  explicit ShadowContext(int pool_threads);
  const nsc::WorkbenchContext& context() const { return context_; }

 private:
  nsc::exec::ThreadPool pool_;
  nsc::sim::CompiledProgramCache cache_;
  nsc::WorkbenchContext context_;
};

// editor: WorkbenchCore::runSession (editor.replay_us).
void shadowReplay(Bench& bench, nsc::WorkbenchCore& core,
                  const std::string& script, std::uint64_t op);

// microcode + sim: mc::Generator::generate on the core's edited program
// (microcode.generate_us), then the context's CompiledProgramCache (a miss
// lowers and verifies: sim.compile_us).  Null when generation fails.
std::shared_ptr<const nsc::sim::CompiledProgram> shadowCompile(
    Bench& bench, nsc::WorkbenchCore& core, std::uint64_t op);

// sim: deposit `inputs`, NodeSim::run (sim.node_run_us), read `outputs`.
std::vector<std::vector<double>> shadowNodeRun(
    Bench& bench, nsc::WorkbenchCore& core,
    const std::shared_ptr<const nsc::sim::CompiledProgram>& program,
    const std::vector<svc::PlaneImage>& inputs,
    const std::vector<svc::PlaneRange>& outputs, std::uint64_t op);

// service: serializeState().dump(), the last-good snapshot a recovering
// service takes per session request (service.snapshot_us / _bytes).
void shadowSnapshot(Bench& bench, const nsc::WorkbenchCore& core,
                    std::uint64_t op);

// service: CheckpointStore::write / read and restoreState onto a fresh core
// (service.checkpoint_write_us, service.checkpoint_read_us,
// service.restore_us).  shadowResume returns the restored core, or null on
// failure (which is also a failed check).
void shadowCheckpointWrite(Bench& bench, nsc::svc::CheckpointStore& store,
                           std::uint64_t id, const nsc::common::Json& state,
                           std::uint64_t op);
std::unique_ptr<nsc::WorkbenchCore> shadowResume(
    Bench& bench, nsc::svc::CheckpointStore& store, std::uint64_t id,
    const nsc::WorkbenchContext& context, std::uint64_t op);

}  // namespace perfbench
