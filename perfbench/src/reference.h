// Generated inputs and the benchmark's own references: the Figure-11 script
// cut into command batches (optionally with an edited relaxation constant),
// seeded Jacobi problem data, a plain C++ point-Jacobi sweep to check the
// simulator's read-back against, and field-by-field RunStats comparison.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "service/service.h"
#include "sim/hypercube.h"
#include "sim/stats.h"

namespace perfbench {

// The relaxation constant the Figure-11 script multiplies f by (h^2 on the
// 8^3 grid, h = 1/7), as the script spells it.
inline constexpr double kFigure11Constant = 0.020408163265306121;

// The Figure-11 script with `constant` in place of kFigure11Constant, cut
// into `chunks` line-balanced command batches.
std::vector<std::string> figure11Chunks(double constant, int chunks);
std::string figure11Script(double constant);

// Seeded problem data for one Figure-11 sweep, laid out as plane words
// (cell c of the 8^3 grid lives at word kPad + c of every plane).
struct JacobiCase {
  double constant = kFigure11Constant;
  std::vector<double> u;     // solution (planes 0-3)
  std::vector<double> f;     // right-hand side (plane 8)
  std::vector<double> mask;  // 1 on interior cells, else 0 (plane 10)
};
JacobiCase makeJacobiCase(nsc::common::Rng& rng, double constant);

// The run command's deposits and read-backs for `c`.
std::vector<nsc::svc::PlaneImage> jacobiInputs(const JacobiCase& c);
std::vector<nsc::svc::PlaneRange> jacobiOutputs();

// The independent reference: one point-Jacobi sweep over the pipeline's
// linear window, u'(c) = (sum of the six neighbours - constant * f(c)) / 6,
// and the masked residual max |u' - u|.
struct JacobiExpect {
  std::vector<double> next;  // the window's cells, in read-back order
  double residual = 0;
};
JacobiExpect referenceSweep(const JacobiCase& c);

// Empty when `outputs` (a run command's read-backs) match `expect` to
// within rounding; else a description of the first mismatch.
std::string compareSweep(const std::vector<std::vector<double>>& outputs,
                         const JacobiExpect& expect);

// Field-by-field equality of everything a run reports.
bool sameRun(const nsc::sim::RunStats& a, const nsc::sim::RunStats& b);
bool sameSystem(const nsc::sim::SystemStats& a,
                const nsc::sim::SystemStats& b);

// A stream of seeds derived from one workload seed and a label, so every
// generated choice depends on --seed alone.
nsc::common::Rng derivedRng(std::uint64_t seed, std::uint64_t label);

}  // namespace perfbench
