// Gate-level structural netlists built from the 14-cell library.
//
// Used by the chip-level extensions: static timing analysis over the
// measured cell delays (analyze/libsta.h, with the timing model in
// gatelevel/sta.h) and the per-tier placement study (src/place) that the
// paper's section IV sketches as future work.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cells/celltypes.h"

namespace mivtx::gatelevel {

struct Instance {
  std::string name;
  cells::CellType type = cells::CellType::kInv1;
  std::vector<std::string> inputs;  // nets, in cell pin order
  std::string output;               // driven net
};

// A combinational netlist: primary inputs, primary outputs, cell instances.
// Invariants enforced on finalize(): every net has exactly one driver
// (a primary input or an instance output), every instance input and primary
// output is driven, and the instance graph is acyclic.
class GateNetlist {
 public:
  explicit GateNetlist(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  void add_input(const std::string& net);
  void add_output(const std::string& net);
  // Returns the driven net's name for chaining.
  const std::string& add_instance(cells::CellType type,
                                  const std::string& name,
                                  const std::vector<std::string>& inputs,
                                  const std::string& output);

  // Validate invariants and compute the topological order; must be called
  // before evaluate()/topological_order().  Throws mivtx::Error on a
  // malformed netlist.
  void finalize();
  bool finalized() const { return finalized_; }

  const std::vector<std::string>& primary_inputs() const { return inputs_; }
  const std::vector<std::string>& primary_outputs() const { return outputs_; }
  const std::vector<Instance>& instances() const { return instances_; }
  // Instances in dependency order (drivers before readers).
  const std::vector<std::size_t>& topological_order() const;

  // Number of instances of each cell type (for area/placement rollups).
  std::map<cells::CellType, std::size_t> cell_histogram() const;

  // Fanout count of a net (instance inputs + primary outputs reading it).
  std::size_t fanout(const std::string& net) const;

  // Evaluate the combinational function on a full input assignment.
  std::map<std::string, bool> evaluate(
      const std::map<std::string, bool>& input_values) const;

 private:
  std::string name_;
  std::vector<std::string> inputs_;
  std::vector<std::string> outputs_;
  std::vector<Instance> instances_;
  std::map<std::string, std::size_t> driver_;  // net -> instance index
  std::vector<std::size_t> topo_;
  bool finalized_ = false;
};

// --- Benchmark circuit generators -------------------------------------------

// n-bit ripple-carry adder: inputs a0..a{n-1}, b0..b{n-1}, cin; outputs
// s0..s{n-1}, cout.  Built from XOR2/AND2/OR2 full adders.
GateNetlist ripple_carry_adder(std::size_t bits);

// n-to-2^n decoder with enable: inputs en, a0..a{n-1}; outputs y0..y{2^n-1}.
GateNetlist decoder(std::size_t bits);

// n-input parity tree (n a power of two): inputs d0..d{n-1}, output parity.
GateNetlist parity_tree(std::size_t inputs);

// n-to-1 multiplexer tree (n a power of two) built from MUX2 cells:
// inputs d0..d{n-1}, selects s0..s{log2 n - 1}, output y.
GateNetlist mux_tree(std::size_t inputs);

// 4-bit x "population-count-ish" AOI/OAI mixed logic block exercising the
// complex gates; inputs d0..d3, outputs z0..z2.
GateNetlist aoi_block();

// n-bit 4-function ALU: inputs a0..a{n-1}, b0..b{n-1}, cin, op0, op1;
// outputs y0..y{n-1}, cout.  op selects AND (00), OR (01), XOR (10) or
// ADD (11); cout is the ripple carry out (meaningful for ADD).  9 gates per
// bit — alu_block(64) is the >=500-instance block the analyzer CI gate
// runs on.
GateNetlist alu_block(std::size_t bits);

// Seeded random layered combinational block: `gates` instances drawn
// uniformly from the 14-cell library over a growing net pool (distinct
// input nets per gate, every unread gate output promoted to a primary
// output).  Deterministic for a given (gates, seed) on every platform —
// the circuitgen-style scaling workload for block-level PPA studies.
GateNetlist random_logic_block(std::size_t gates, std::uint64_t seed = 1);

}  // namespace mivtx::gatelevel
