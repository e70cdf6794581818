#include "sim/node.h"

namespace nsc::sim {

NodeSim::NodeSim(const arch::Machine& machine, Options options)
    : batch_(machine, 1, options) {}

void NodeSim::load(const mc::Executable& exe) {
  load(CompiledProgram::compile(batch_.machine(), exe));
}

double NodeSim::readPlaneWord(arch::PlaneId plane, std::uint64_t addr) const {
  double word = 0.0;
  batch_.readPlaneInto(0, plane, addr, std::span<double>(&word, 1));
  return word;
}

}  // namespace nsc::sim
