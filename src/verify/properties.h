// Property engine: metamorphic and analytic checks on the SPICE core.
//
// Each check states an invariant the physics guarantees independently of
// the implementation, so the oracle is never "the same code again":
//   dcop-superposition      linear circuits: x(V-sources) + x(I-sources)
//                           equals x(all sources) exactly
//   dcop-scaling            x(alpha * sources) == alpha * x(sources)
//   tran-scaling            linear transient response scales with the
//                           stimulus amplitude
//   tran-time-shift         shifting every breakpoint of the stimulus by
//                           dt shifts the response by dt
//   rc-rl-closed-form       RC / RL ramp responses against the analytic
//                           solution, swept over step-control settings
//   dc-sweep-vs-dcop        dc_sweep agrees with an independent operating
//                           point per sweep value
//   ac-vs-transient         AC magnitude/phase against a Fourier projection
//                           of the steady-state transient
//   crossings-oracle        find_crossings / next_crossing against a
//                           brute-force scanner on randomized waveforms
//                           (plateaus, exact hits, endpoint rules)
//   unknown-name-roundtrip  Circuit::unknown_name inverts node_unknown /
//                           branch_unknown on randomized circuits
//   charlib-bilinear        NLDM table lookups: exact at grid points,
//                           corner-hull bounded (hence monotone over
//                           monotone tables) between them, clamped and
//                           flagged beyond the hull; linear_library's
//                           tables reproduce the linear timing model at
//                           random physical (slew, load) without clamps
//   mlib-roundtrip          randomized .mlib libraries reparse equal and
//                           re-serialize byte-stably
//
// Determinism: everything derives from PropertyOptions::seed; there is no
// wall-clock or global state involved, so a failure replays exactly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mivtx::verify {

struct PropertyOptions {
  std::uint64_t seed = 20230913;  // SOCC'23 vibes; any value works
  std::size_t cases = 12;         // randomized instances per property
};

struct PropertyResult {
  std::string name;
  bool pass = true;
  std::size_t cases = 0;   // instances exercised
  double worst = 0.0;      // worst observed error (property-specific units)
  double bound = 0.0;      // the bound `worst` was held to
  std::string detail;      // first failure, or empty
};

// Run every property; results in a fixed order.
std::vector<PropertyResult> run_properties(const PropertyOptions& opts = {});

// True when every result passed (convenience for CLI/test callers).
bool all_passed(const std::vector<PropertyResult>& results);

}  // namespace mivtx::verify
