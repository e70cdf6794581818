#include "reference.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "nsc/scripts.h"

namespace perfbench {

namespace {

// The Figure-11 layout on the 8^3 grid: plane words are cells shifted by
// kPad; the sweep window covers cells kLo .. kLo + kWindow - 1 and reads
// neighbours at +-1, +-8 (one row) and +-64 (one layer).
constexpr int kGrid = 8;
constexpr int kPad = 88;
constexpr int kWords = 640;
constexpr int kLo = 73;
constexpr int kWindow = 366;
constexpr int kRow = kGrid;
constexpr int kLayer = kGrid * kGrid;

constexpr const char* kConstantLine = "const fu4 b 0.020408163265306121\n";

}  // namespace

std::string figure11Script(double constant) {
  std::string script = nsc::figure11SessionScript();
  if (constant != kFigure11Constant) {
    const std::size_t at = script.find(kConstantLine);
    char line[64];
    std::snprintf(line, sizeof(line), "const fu4 b %.17g\n", constant);
    script.replace(at, std::char_traits<char>::length(kConstantLine), line);
  }
  return script;
}

std::vector<std::string> figure11Chunks(double constant, int chunks) {
  const std::string script = figure11Script(constant);
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < script.size()) {
    std::size_t end = script.find('\n', start);
    if (end == std::string::npos) end = script.size() - 1;
    lines.push_back(script.substr(start, end - start + 1));
    start = end + 1;
  }
  std::vector<std::string> out(static_cast<std::size_t>(chunks));
  const std::size_t n = lines.size();
  const auto k = static_cast<std::size_t>(chunks);
  for (std::size_t c = 0; c < k; ++c) {
    for (std::size_t i = n * c / k; i < n * (c + 1) / k; ++i) {
      out[c] += lines[i];
    }
  }
  return out;
}

JacobiCase makeJacobiCase(nsc::common::Rng& rng, double constant) {
  JacobiCase c;
  c.constant = constant;
  c.u.resize(kWords);
  c.f.resize(kWords);
  c.mask.assign(kWords, 0.0);
  for (double& v : c.u) v = rng.uniform(-1.0, 1.0);
  for (double& v : c.f) v = rng.uniform(-1.0, 1.0);
  for (int z = 1; z + 1 < kGrid; ++z) {
    for (int y = 1; y + 1 < kGrid; ++y) {
      for (int x = 1; x + 1 < kGrid; ++x) {
        c.mask[static_cast<std::size_t>(kPad + x + kRow * y + kLayer * z)] =
            1.0;
      }
    }
  }
  return c;
}

std::vector<nsc::svc::PlaneImage> jacobiInputs(const JacobiCase& c) {
  std::vector<nsc::svc::PlaneImage> inputs;
  for (nsc::arch::PlaneId plane = 0; plane < 4; ++plane) {
    inputs.push_back(nsc::svc::PlaneImage{plane, 0, c.u});
  }
  inputs.push_back(nsc::svc::PlaneImage{8, 0, c.f});
  inputs.push_back(nsc::svc::PlaneImage{10, 0, c.mask});
  return inputs;
}

std::vector<nsc::svc::PlaneRange> jacobiOutputs() {
  return {nsc::svc::PlaneRange{4, kPad + kLo, kWindow},
          nsc::svc::PlaneRange{9, 0, 1}};
}

JacobiExpect referenceSweep(const JacobiCase& c) {
  JacobiExpect expect;
  expect.next.reserve(kWindow);
  for (int cell = kLo; cell < kLo + kWindow; ++cell) {
    const auto w = static_cast<std::size_t>(kPad + cell);
    const double neighbours = c.u[w - 1] + c.u[w + 1] + c.u[w - kRow] +
                              c.u[w + kRow] + c.u[w - kLayer] +
                              c.u[w + kLayer];
    const double next = (neighbours - c.constant * c.f[w]) / 6.0;
    expect.next.push_back(next);
    expect.residual =
        std::max(expect.residual, c.mask[w] * std::fabs(next - c.u[w]));
  }
  return expect;
}

std::string compareSweep(const std::vector<std::vector<double>>& outputs,
                         const JacobiExpect& expect) {
  // The pipeline sums in another order and multiplies by a rounded 1/6, so
  // agreement is to within a few ulps of the operands, not bit-exact.
  auto close = [](double got, double want) {
    return std::fabs(got - want) <= 1e-12 * (1.0 + std::fabs(want));
  };
  char what[160];
  if (outputs.size() != 2 || outputs[0].size() != expect.next.size() ||
      outputs[1].size() != 1) {
    std::snprintf(what, sizeof(what),
                  "read-back has %zu ranges, not 2 (%zu + 1 words)",
                  outputs.size(), expect.next.size());
    return what;
  }
  for (std::size_t i = 0; i < expect.next.size(); ++i) {
    if (!close(outputs[0][i], expect.next[i])) {
      std::snprintf(what, sizeof(what),
                    "plane 4 word %zu of the window: %.17g, reference %.17g",
                    i, outputs[0][i], expect.next[i]);
      return what;
    }
  }
  if (!close(outputs[1][0], expect.residual)) {
    std::snprintf(what, sizeof(what), "residual %.17g, reference %.17g",
                  outputs[1][0], expect.residual);
    return what;
  }
  return {};
}

bool sameRun(const nsc::sim::RunStats& a, const nsc::sim::RunStats& b) {
  if (a.total_cycles != b.total_cycles || a.total_flops != b.total_flops ||
      a.total_hazards != b.total_hazards ||
      a.instructions_executed != b.instructions_executed ||
      a.fu_launches != b.fu_launches || a.halted != b.halted ||
      a.error != b.error || a.fault != b.fault ||
      a.error_message != b.error_message || a.trace.size() != b.trace.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    const nsc::sim::InstrStats& x = a.trace[i];
    const nsc::sim::InstrStats& y = b.trace[i];
    if (x.instruction != y.instruction || x.name != y.name ||
        x.cycles != y.cycles || x.flops != y.flops ||
        x.hazards != y.hazards || x.error != y.error || x.fault != y.fault) {
      return false;
    }
  }
  return true;
}

bool sameSystem(const nsc::sim::SystemStats& a,
                const nsc::sim::SystemStats& b) {
  if (a.compute_makespan_cycles != b.compute_makespan_cycles ||
      a.comm_cycles != b.comm_cycles || a.total_flops != b.total_flops ||
      a.error != b.error || a.node_stats.size() != b.node_stats.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.node_stats.size(); ++i) {
    if (!sameRun(a.node_stats[i], b.node_stats[i])) return false;
  }
  return true;
}

nsc::common::Rng derivedRng(std::uint64_t seed, std::uint64_t label) {
  nsc::common::Rng mix(seed ^ (label * 0x9e3779b97f4a7c15ull));
  return nsc::common::Rng(mix.next());
}

}  // namespace perfbench
