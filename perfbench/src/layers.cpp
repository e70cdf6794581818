#include "layers.h"

#include "microcode/generator.h"

namespace perfbench {

ShadowContext::ShadowContext(int pool_threads)
    : pool_(nsc::exec::ExecOptions{.threads = pool_threads}),
      context_(nsc::arch::MachineConfig{}, &pool_, &cache_) {}

void shadowReplay(Bench& bench, nsc::WorkbenchCore& core,
                  const std::string& script, std::uint64_t op) {
  Scope span(bench.tracer(), "editor.replay", op);
  const nsc::ed::SessionResult result = core.runSession(script);
  bench.note("editor.replay_us", span.micros());
  if (!result.clean()) {
    bench.fail("in-process replay of a command batch refused a command");
  }
}

std::shared_ptr<const nsc::sim::CompiledProgram> shadowCompile(
    Bench& bench, nsc::WorkbenchCore& core, std::uint64_t op) {
  const nsc::arch::Machine& machine = core.context().machine();
  const nsc::prog::Program program = core.editor().program();
  nsc::mc::GenerateResult generated;
  {
    Scope span(bench.tracer(), "microcode.generate", op);
    generated = nsc::mc::Generator(machine).generate(program);
    bench.note("microcode.generate_us", span.micros());
  }
  if (!generated.ok) {
    bench.fail("in-process generation failed");
    return nullptr;
  }
  Scope span(bench.tracer(), "sim.cache_get", op);
  bool hit = false;
  auto compiled = core.context().cache().get(machine, generated.exe, &hit);
  if (!hit) bench.note("sim.compile_us", span.micros());
  return compiled;
}

std::vector<std::vector<double>> shadowNodeRun(
    Bench& bench, nsc::WorkbenchCore& core,
    const std::shared_ptr<const nsc::sim::CompiledProgram>& program,
    const std::vector<svc::PlaneImage>& inputs,
    const std::vector<svc::PlaneRange>& outputs, std::uint64_t op) {
  nsc::sim::NodeSim& node = core.node();
  node.load(program);
  for (const svc::PlaneImage& image : inputs) {
    node.writePlane(image.plane, image.base, image.values);
  }
  {
    Scope span(bench.tracer(), "sim.node_run", op);
    const nsc::sim::RunStats stats = node.run();
    bench.note("sim.node_run_us", span.micros());
    if (stats.error) {
      bench.fail("in-process node run faulted: " + stats.error_message);
    }
  }
  std::vector<std::vector<double>> read;
  for (const svc::PlaneRange& range : outputs) {
    read.push_back(node.readPlane(range.plane, range.base, range.count));
  }
  return read;
}

void shadowSnapshot(Bench& bench, const nsc::WorkbenchCore& core,
                    std::uint64_t op) {
  Scope span(bench.tracer(), "service.snapshot", op);
  const std::string text = core.serializeState().dump();
  bench.note("service.snapshot_us", span.micros());
  bench.note("service.snapshot_bytes", static_cast<double>(text.size()));
}

void shadowCheckpointWrite(Bench& bench, nsc::svc::CheckpointStore& store,
                           std::uint64_t id, const nsc::common::Json& state,
                           std::uint64_t op) {
  Scope span(bench.tracer(), "service.checkpoint_write", op);
  const nsc::common::Status wrote = store.write(id, state);
  bench.note("service.checkpoint_write_us", span.micros());
  if (!wrote.isOk()) bench.fail("checkpoint write failed: " + wrote.message());
}

std::unique_ptr<nsc::WorkbenchCore> shadowResume(
    Bench& bench, nsc::svc::CheckpointStore& store, std::uint64_t id,
    const nsc::WorkbenchContext& context, std::uint64_t op) {
  nsc::svc::CheckpointStore::ReadResult loaded;
  {
    Scope span(bench.tracer(), "service.checkpoint_read", op);
    loaded = store.read(id);
    bench.note("service.checkpoint_read_us", span.micros());
  }
  store.remove(id);
  if (!loaded.ok()) {
    bench.fail("checkpoint read failed: " + loaded.message);
    return nullptr;
  }
  auto core = std::make_unique<nsc::WorkbenchCore>(context);
  Scope span(bench.tracer(), "service.restore", op);
  const nsc::common::Status restored = core->restoreState(loaded.payload);
  bench.note("service.restore_us", span.micros());
  if (!restored.isOk()) {
    bench.fail("restore failed: " + restored.message());
    return nullptr;
  }
  return core;
}

}  // namespace perfbench
