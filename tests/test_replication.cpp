#include "routing/replication.hpp"

#include <gtest/gtest.h>

#include "core/adversarial.hpp"
#include "fairness/waterfill.hpp"
#include "fault/fault.hpp"
#include "flow/allocation.hpp"
#include "util/rng.hpp"
#include "workload/stochastic.hpp"

namespace closfair {
namespace {

TEST(Replication, SingleFlowAlwaysFeasible) {
  const ClosNetwork net = ClosNetwork::paper(2);
  const FlowSet flows = instantiate(net, {FlowSpec{1, 1, 3, 1}});
  const auto result = find_feasible_routing(net, flows, {Rational{1}});
  EXPECT_TRUE(result.feasible);
  ASSERT_TRUE(result.routing.has_value());
}

TEST(Replication, WitnessRoutingIsActuallyFeasible) {
  const ClosNetwork net = ClosNetwork::paper(2);
  // Seed chosen so the (self-flow-free) workload is feasible at rate 1/4.
  Rng rng(4);
  const FlowSet flows = instantiate(
      net, uniform_random(Fabric{net.num_tors(), net.servers_per_tor()}, 10, rng));
  const std::vector<Rational> rates(flows.size(), Rational{1, 4});
  const auto result = find_feasible_routing(net, flows, rates);
  ASSERT_TRUE(result.feasible);
  const Routing routing = expand_routing(net, flows, *result.routing);
  EXPECT_TRUE(is_feasible(net.topology(), routing, Allocation<Rational>(rates)));
}

TEST(Replication, EdgeOversubscriptionFailsFast) {
  // Two rate-1 flows from the same source violate the source link before
  // any routing search.
  const ClosNetwork net = ClosNetwork::paper(2);
  const FlowSet flows = instantiate(net, {FlowSpec{1, 1, 3, 1}, FlowSpec{1, 1, 4, 1}});
  const auto result = find_feasible_routing(net, flows, {Rational{1}, Rational{1}});
  EXPECT_FALSE(result.feasible);
  EXPECT_EQ(result.nodes_explored, 0u);
}

TEST(Replication, InsideCapacityForcesFailure) {
  // n+1 rate-1 flows from the same ToR to distinct servers of another ToR:
  // the n uplinks cannot carry n+1 units.
  const int n = 2;
  const ClosNetwork net = ClosNetwork::paper(n);
  const FlowSet flows = instantiate(net, {FlowSpec{1, 1, 3, 1}, FlowSpec{1, 2, 3, 2},
                                          FlowSpec{2, 1, 3, 1}});
  // Third flow shares t_3^1 — make rates small enough for edge links but too
  // chunky for uplinks: 1, 1, 1/2 with t_3^1 receiving 1 + 1/2 -> edge fails.
  {
    const auto r =
        find_feasible_routing(net, flows, {Rational{1}, Rational{1}, Rational{1, 2}});
    EXPECT_FALSE(r.feasible);
  }
}

TEST(Replication, Example41MacroRatesInfeasibleInC3) {
  // Theorem 4.2's heart, by exhaustive search: the macro-switch max-min
  // rates of the adversarial collection admit NO feasible routing in C_3.
  const AdversarialInstance inst = theorem_4_2_instance(3);
  const ClosNetwork net = ClosNetwork::paper(3);
  const FlowSet flows = instantiate(net, inst.flows);

  // First: the claimed macro rates are indeed the macro max-min allocation.
  const MacroSwitch ms = MacroSwitch::paper(3);
  const auto macro = max_min_fair<Rational>(ms, instantiate(ms, inst.flows));
  EXPECT_EQ(macro.rates(), inst.macro_rates);

  const auto result = find_feasible_routing(net, flows, inst.macro_rates);
  EXPECT_FALSE(result.feasible);
}

TEST(Replication, Example41MinusType3IsFeasible) {
  // Dropping the type 3 flow, the remaining macro rates route fine (the
  // construction of Claim 4.5 exhibits one way).
  const AdversarialInstance inst = theorem_4_2_instance(3);
  const ClosNetwork net = ClosNetwork::paper(3);
  FlowCollection specs = inst.flows;
  std::vector<Rational> rates = inst.macro_rates;
  specs.pop_back();  // remove type 3 (last by construction)
  rates.pop_back();
  const FlowSet flows = instantiate(net, specs);
  const auto result = find_feasible_routing(net, flows, rates);
  EXPECT_TRUE(result.feasible);
}

TEST(Replication, Theorem42InfeasibleForLargerN) {
  // n = 5 is out of reach for exhaustive infeasibility proofs (the type 1
  // placement space alone is ~120^5); n = 4 completes in seconds.
  for (int n : {4}) {
    const AdversarialInstance inst = theorem_4_2_instance(n);
    const ClosNetwork net = ClosNetwork::paper(n);
    const FlowSet flows = instantiate(net, inst.flows);
    const auto result = find_feasible_routing(net, flows, inst.macro_rates);
    EXPECT_FALSE(result.feasible) << "n=" << n;
  }
}

TEST(Replication, ZeroRatesRouteAnywhere) {
  const ClosNetwork net = ClosNetwork::paper(2);
  const FlowSet flows = instantiate(net, {FlowSpec{1, 1, 3, 1}, FlowSpec{1, 1, 3, 1}});
  const auto result = find_feasible_routing(net, flows, {Rational{1}, Rational{0}});
  EXPECT_TRUE(result.feasible);
}

TEST(Replication, NegativeRateThrows) {
  const ClosNetwork net = ClosNetwork::paper(2);
  const FlowSet flows = instantiate(net, {FlowSpec{1, 1, 3, 1}});
  EXPECT_THROW(find_feasible_routing(net, flows, {Rational{-1}}), ContractViolation);
  EXPECT_THROW(find_feasible_routing(net, flows, {}), ContractViolation);
}

TEST(Replication, SymmetryBreakingPreservesAnswer) {
  const ClosNetwork net = ClosNetwork::paper(3);
  Rng rng(23);
  for (int trial = 0; trial < 10; ++trial) {
    const FlowSet flows = instantiate(
        net, uniform_random(Fabric{net.num_tors(), net.servers_per_tor()}, 8, rng));
    std::vector<Rational> rates;
    for (std::size_t f = 0; f < flows.size(); ++f) {
      rates.emplace_back(1, rng.next_int(1, 3));
    }
    ReplicationOptions with_sym;
    ReplicationOptions without_sym;
    without_sym.break_symmetry = false;
    const auto a = find_feasible_routing(net, flows, rates, with_sym);
    const auto b = find_feasible_routing(net, flows, rates, without_sym);
    EXPECT_EQ(a.feasible, b.feasible);
  }
}

/// A random C_2 / C_3 instance with 2-7 flows at rates k/n; four in five
/// get one failed middle or one uplink / downlink derated to 0 or 1/2.
struct DegradedCase {
  ClosNetwork net;
  FlowSet flows;
  std::vector<Rational> rates;
  bool degraded = false;
};

DegradedCase random_degraded_case(Rng& rng) {
  const int n = static_cast<int>(rng.next_int(2, 3));
  DegradedCase c{ClosNetwork::paper(n), {}, {}, false};
  fault::FailureScenario scenario;
  switch (rng.next_below(5)) {
    case 0:
      break;
    case 1:
      scenario.failed_middles = {static_cast<int>(rng.next_int(1, n))};
      break;
    default: {
      fault::LinkDeration link;
      link.stage = rng.next_below(2) == 0 ? fault::LinkStage::kUplink
                                          : fault::LinkStage::kDownlink;
      link.tor = static_cast<int>(rng.next_int(1, c.net.num_tors()));
      link.middle = static_cast<int>(rng.next_int(1, n));
      link.factor = rng.next_below(2) == 0 ? Rational{0} : Rational{1, 2};
      scenario.derated_links = {link};
      break;
    }
  }
  c.degraded = !scenario.empty();
  fault::apply(c.net, scenario);
  const auto tors = c.net.num_tors();
  const auto servers = c.net.servers_per_tor();
  FlowCollection specs;
  const std::int64_t count = rng.next_int(2, 7);
  for (std::int64_t f = 0; f < count; ++f) {
    specs.push_back(FlowSpec{static_cast<int>(rng.next_int(1, tors)),
                             static_cast<int>(rng.next_int(1, servers)),
                             static_cast<int>(rng.next_int(1, tors)),
                             static_cast<int>(rng.next_int(1, servers))});
    c.rates.emplace_back(rng.next_int(1, n), n);
  }
  c.flows = instantiate(c.net, specs);
  return c;
}

TEST(Replication, SymmetryBreakingMatchesPlainSearchOnDegradedFabrics) {
  Rng rng(2024);
  int divergences = 0;
  int degraded_feasible = 0;
  for (int trial = 0; trial < 10'000; ++trial) {
    const DegradedCase c = random_degraded_case(rng);
    ReplicationOptions plain;
    plain.break_symmetry = false;
    const auto canon = find_feasible_routing(c.net, c.flows, c.rates);
    const auto full = find_feasible_routing(c.net, c.flows, c.rates, plain);
    if (canon.feasible != full.feasible) {
      ++divergences;
      continue;
    }
    if (!canon.feasible) continue;
    degraded_feasible += c.degraded ? 1 : 0;
    const Routing routing = expand_routing(c.net, c.flows, *canon.routing);
    EXPECT_TRUE(is_feasible(c.net.topology(), routing, Allocation<Rational>(c.rates)))
        << "trial " << trial;
  }
  EXPECT_EQ(divergences, 0);
  // The generator must actually reach routable degraded instances.
  EXPECT_GT(degraded_feasible, 1000);
}

// Water-fill rates for a routing are replicable by construction (that very
// routing); the searcher must agree.
class ReplicationRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(ReplicationRoundTrip, WaterfillRatesAreFeasible) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 241 + 11);
  const ClosNetwork net = ClosNetwork::paper(2);
  const std::size_t count = 1 + rng.next_below(8);
  const FlowSet flows = instantiate(
      net, uniform_random(Fabric{net.num_tors(), net.servers_per_tor()}, count, rng));
  MiddleAssignment middles(flows.size());
  for (auto& m : middles) m = static_cast<int>(rng.next_below(2)) + 1;
  const auto alloc = max_min_fair<Rational>(net, flows, middles);
  const auto result = find_feasible_routing(net, flows, alloc.rates());
  EXPECT_TRUE(result.feasible);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, ReplicationRoundTrip, ::testing::Range(0, 20));

}  // namespace
}  // namespace closfair
