// Replication feasibility (§4.1): given per-flow target rates (typically the
// macro-switch max-min rates), is there a routing of the Clos network in
// which every flow carries its target rate without violating any link
// capacity?
//
// The decision problem is a bin-packing variant (NP-hard in general); we
// solve it exactly by backtracking with capacity pruning and canonical
// symmetry breaking over the interchangeable middle switches. This is the
// tool that *proves* the Theorem 4.2 instances infeasible by exhausting the
// routing space, and exhibits witness routings for feasible instances.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "flow/flow.hpp"
#include "flow/routing.hpp"
#include "net/clos.hpp"
#include "util/rational.hpp"

namespace closfair {

struct ReplicationOptions {
  /// Abort (throw ContractViolation) after this many backtracking nodes.
  std::uint64_t max_nodes = 200'000'000;

  /// Canonical symmetry breaking: a flow may only open the next surviving
  /// middle after some earlier flow uses the one before it. Prunes
  /// factorially many equivalent assignments; applied only when
  /// fault::surviving_middles_symmetric says the survivors are
  /// interchangeable, and ignored otherwise. Dead middles are never tried.
  bool break_symmetry = true;

  /// Use only middles 1..restrict_middles (0 = all of them). The multirate
  /// rearrangeability machinery (routing/rearrange.hpp) binary-searches the
  /// minimum middle count with this knob.
  int restrict_middles = 0;
};

struct ReplicationResult {
  bool feasible = false;
  std::optional<MiddleAssignment> routing;  ///< witness when feasible
  std::uint64_t nodes_explored = 0;
};

/// Decide whether `rates` can be routed feasibly in `net`. Rates must be
/// non-negative; flows with zero rate are trivially routable anywhere.
[[nodiscard]] ReplicationResult find_feasible_routing(const ClosNetwork& net,
                                                      const FlowSet& flows,
                                                      const std::vector<Rational>& rates,
                                                      const ReplicationOptions& options = {});

}  // namespace closfair
