// NLDM characterization: fill a CharLibrary by sweeping every requested
// (cell, implementation) over an input-slew x output-load grid through the
// transistor-level transient engine.
//
// Per (cell, pin, grid point) one core::probe_pin call runs (the pulse
// edge time set to the slew point, the output load to the load point) and
// yields both input-edge arcs of that pin:
//   delay    50%-to-50% propagation
//   out_slew 10-90% output transition / 0.8 (equivalent full-swing ramp,
//            so a propagated slew can be re-applied as a pulse edge time)
//   energy   VDD-rail energy over the half-window of the switching event
// Every point must probe kOk; otherwise the unit fails with the point's
// (slew, load), the pin, the input edge and the typed probe outcome.  The
// arc's output edge direction comes from the cell logic under the
// sensitizing side-input assignment.
//
// Work fans out on runtime::ThreadPool at (cell, impl) granularity with a
// nested per-(pin, grid point) fan-out, and each finished (cell, impl)
// entry is cached in the artifact cache (domain "charlib", payload = the
// single-cell .mlib text) keyed by the model cards, the grid, every
// physics option and the layout rules — so a warm daemon or CI re-run
// skips all transients.  Metrics: charlib.computed / charlib.cache_hit /
// charlib.transients.
#pragma once

#include <utility>
#include <vector>

#include "charlib/library.h"
#include "core/flow.h"
#include "core/ppa.h"
#include "layout/cell_layout.h"
#include "runtime/artifact_cache.h"
#include "runtime/exec_policy.h"

namespace mivtx::charlib {

// Characterization grid (see DESIGN.md §16 for the choice rationale).
struct CharGrid {
  std::vector<double> slews;  // input pulse edge times (s), ascending
  std::vector<double> loads;  // output load caps (F), ascending
};

// 3x3 production grid: slews 4/20/100 ps x loads 0.1/1/8 fF — brackets
// the library's own output slews and light-internal-net..fanout-8 loads.
CharGrid default_char_grid();
// 2x2 grid for tests and the CI mini-library job (4 transients per pin).
CharGrid mini_char_grid();

struct CharOptions {
  CharGrid grid;  // empty axes = default_char_grid()
  // Base physics (vdd, pulse timing, solver core, parasitics).  The
  // characterizer overrides t_edge and parasitics.c_load per grid point.
  core::PpaOptions ppa;
};

class Characterizer {
 public:
  Characterizer(const core::ModelLibrary& library, CharOptions opts = {},
                layout::DesignRules rules = {}, runtime::ExecPolicy exec = {});

  const CharGrid& grid() const { return opts_.grid; }

  // One library entry, through the artifact cache when one is configured.
  CellChar characterize_cell(cells::CellType type,
                             cells::Implementation impl) const;

  // Characterize the given (cell, impl) jobs into one library, fanned out
  // on the policy's pool.  Axes are the grid; entries land in
  // deterministic (impl, cell) map order regardless of pool size.
  CharLibrary characterize(
      const std::vector<std::pair<cells::CellType, cells::Implementation>>&
          jobs) const;

  // All 14 cells x 4 implementations.
  CharLibrary characterize_all() const;

  // Cache key of one (cell, impl) entry (exposed for the serve daemon's
  // single-flight coalescing).
  runtime::CacheKey cell_key(cells::CellType type,
                             cells::Implementation impl) const;

 private:
  CellChar characterize_uncached(cells::CellType type,
                                 cells::Implementation impl) const;

  const core::ModelLibrary& library_;
  CharOptions opts_;
  layout::LayoutModel layout_;
  runtime::ExecPolicy exec_;
};

}  // namespace mivtx::charlib
