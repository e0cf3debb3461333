#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "util/rng.hpp"
#include "wire/protocol.hpp"

namespace closfair::e2e {
namespace {

// Phase sizing. A served workload spends 80% of --seconds in its open-loop
// phase; its closed-loop requests number kCapacityShare * seconds at a rate
// near the capacity measured on a 4-core x86 box (bench/e2e/README.md) —
// hot_mix's lower, since its full-stream correctness check costs ~70 us a
// line. Every count follows from --seconds alone, never from a live
// measurement, so a seed always yields the same inputs.
constexpr double kOpenShare = 0.8;
constexpr double kCapacityShare = 0.2;
constexpr double kColdRate = 2000.0;
constexpr double kColdCapacityRps = 13000.0;
constexpr double kHotRate = 4000.0;
constexpr double kHotCapacityRps = 19000.0;
constexpr double kExactCellsPerSecond = 110.0;
constexpr double kSimFlowsPerSecond = 3500.0;
constexpr std::size_t kSimFlowsPerJob = 1500;
constexpr std::size_t kWorkingSet = 2000;

// Workload-seed bands (see workloads.hpp): spec seeds are
// run * 1e9 + band * 1e8 + index, exact in a JSON number.
enum Band : std::uint64_t { kWorkingSetBand = 0, kColdBand = 1, kExactBand = 2 };

std::uint64_t spec_seed(std::uint64_t seed, Band band, std::uint64_t index) {
  return (seed % 1'000'000) * 1'000'000'000 + band * 100'000'000 + index;
}

std::size_t scaled(double rate, double seconds) {
  return std::max<std::size_t>(1, static_cast<std::size_t>(std::llround(rate * seconds)));
}

std::string spec_line(std::uint64_t id, const std::string& canonical) {
  return "{\"id\":" + std::to_string(id) + ",\"spec\":" + canonical + "}";
}

void set_generator(svc::WorkloadSpec& wl, Rng& rng, bool allow_permutation,
                   std::size_t lo, std::size_t hi, int tors) {
  static const char* const kGenerators[] = {"uniform", "zipf", "hotspot", "permutation"};
  wl.generator = kGenerators[rng.next_below(allow_permutation ? 4 : 3)];
  if (wl.generator != "permutation") {
    wl.count = lo + static_cast<std::size_t>(rng.next_below(hi - lo + 1));
  }
  if (wl.generator == "zipf") wl.skew = 1.0;
  if (wl.generator == "hotspot") {
    wl.hot_tor = 1 + static_cast<int>(rng.next_below(static_cast<std::uint64_t>(tors)));
    wl.hot_fraction = 0.5;
  }
}

/// One cheap C_3 cell: ecmp/greedy/local_search/lex_climb over a
/// uniform/zipf/hotspot/permutation workload; 10% under the maxmin_lp
/// objective, 10% on a fabric with one failed middle or one derated link.
/// Flow counts are 12-24, except 6-8 for lex_climb and 4-6 under maxmin_lp:
/// at 12-24 flows those cost ~1 ms and 5-7 ms, and 2,000 requests/s would
/// then load two workers near saturation instead of lightly.
svc::ScenarioSpec cheap_spec(Rng& rng, std::uint64_t workload_seed) {
  static const char* const kPolicies[] = {"ecmp", "greedy", "local_search", "lex_climb"};
  svc::ScenarioSpec spec;
  spec.topology.params = ClosNetwork::Params{3, 6, 3, Rational{1}};
  spec.workload.seed = workload_seed;
  spec.routing.policy = kPolicies[rng.next_below(4)];
  const std::uint64_t family = rng.next_below(10);
  if (family == 0) {
    spec.objective = "maxmin_lp";
    set_generator(spec.workload, rng, false, 4, 6, 6);
  } else if (spec.routing.policy == "lex_climb") {
    set_generator(spec.workload, rng, false, 6, 8, 6);
  } else {
    set_generator(spec.workload, rng, true, 12, 24, 6);
  }
  if (family == 1) {
    if (rng.next_bool()) {
      spec.fault.scenario.failed_middles = {1 + static_cast<int>(rng.next_below(3))};
    } else {
      fault::LinkDeration link;
      link.stage = rng.next_bool() ? fault::LinkStage::kUplink : fault::LinkStage::kDownlink;
      link.tor = 1 + static_cast<int>(rng.next_below(6));
      link.middle = 1 + static_cast<int>(rng.next_below(3));
      link.factor = Rational{1, 2};
      spec.fault.scenario.derated_links = {link};
    }
  }
  return spec;
}

/// Exhaustive C_4 cell number `index`: exhaustive_lex or exhaustive_tput
/// over uniform/hotspot/zipf flows. Of every ten cells eight have 9 flows,
/// one has 10, and one has 8 flows with link_failure_p 0.05, whose broken
/// middle symmetry forces the odometer fallback. The composition is fixed by
/// the index and the seed draws only the instances: a 10-flow cell costs ~4x
/// a 9-flow one, so a drawn mix — or one whose median fell between the two
/// sizes — would move the median cell from seed to seed. exhaustive_tput
/// runs without the sum-of-capacities early exit, whose cost depends on when
/// the instance happens to attain its bound.
svc::ScenarioSpec exact_spec(Rng& rng, std::uint64_t index, std::uint64_t workload_seed) {
  static const char* const kGenerators[] = {"uniform", "hotspot", "zipf"};
  svc::ScenarioSpec spec;
  spec.topology.params = ClosNetwork::Params{4, 8, 4, Rational{1}};
  spec.workload.seed = workload_seed;
  spec.workload.generator = kGenerators[(index / 10) % 3];
  spec.routing.policy = index % 2 == 0 ? "exhaustive_lex" : "exhaustive_tput";
  spec.routing.prune_throughput_bound = index % 2 == 0;
  const std::uint64_t slot = index % 10;
  spec.workload.count = slot < 8 ? 9 : slot < 9 ? 10 : 8;
  if (slot == 9) {
    spec.fault.link_failure_p = 0.05;
    spec.fault.seed = workload_seed;
  }
  if (spec.workload.generator == "zipf") spec.workload.skew = 1.0;
  if (spec.workload.generator == "hotspot") {
    spec.workload.hot_tor = 1 + static_cast<int>(rng.next_below(8));
    spec.workload.hot_fraction = 0.5;
  }
  return spec;
}

/// hot_mix's request stream after the preload: 70% working-set re-requests,
/// 10% back-to-back duplicates, 15% deltas against working-set bases (a
/// third of them a new base/patch pair, the rest repeats of an earlier
/// delta), 5% new cold cells. One generator feeds both measured phases so
/// the capacity phase continues the open-loop stream.
class HotStream {
 public:
  HotStream(std::uint64_t seed, std::vector<std::string> working_set)
      : seed_(seed), rng_(stream_seed(seed, 2)), ws_(std::move(working_set)) {
    for (const std::string& canonical : ws_) {
      ws_hash_.push_back(wire::hash_hex(svc::fnv1a64(canonical)));
      ws_maxmin_.push_back(canonical.find("\"maxmin_lp\"") == std::string::npos);
    }
  }

  std::string next(std::uint64_t id) {
    const std::uint64_t draw = rng_.next_below(100);
    if (draw >= 70 && draw < 80 && !prev_body_.empty()) {
      return envelope(id, prev_is_delta_, prev_body_);
    }
    if (draw >= 80 && draw < 95) {
      std::string body;
      if (deltas_.empty() || rng_.next_below(3) == 0) {
        body = new_delta();
      } else {
        body = deltas_[rng_.next_below(deltas_.size())];
      }
      return remember(id, true, std::move(body));
    }
    if (draw >= 95) {
      return remember(id, false, cheap_spec(cold_rng_, spec_seed(seed_, kColdBand, cold_++))
                                     .canonical());
    }
    return remember(id, false, ws_[rng_.next_below(ws_.size())]);
  }

 private:
  static std::string envelope(std::uint64_t id, bool delta, const std::string& body) {
    return "{\"id\":" + std::to_string(id) + (delta ? ",\"delta\":" : ",\"spec\":") +
           body + "}";
  }

  std::string remember(std::uint64_t id, bool delta, std::string body) {
    prev_is_delta_ = delta;
    prev_body_ = std::move(body);
    return envelope(id, delta, prev_body_);
  }

  /// A base/patch pair not issued before: an objective switch, one failed
  /// middle, or one derated link on a working-set spec.
  std::string new_delta() {
    std::string body;
    for (int attempt = 0; attempt < 16; ++attempt) {
      const std::size_t base = rng_.next_below(ws_.size());
      std::string patch;
      switch (rng_.next_below(3)) {
        case 0:
          patch = ws_maxmin_[base] ? "{\"objective\":\"maxmin_lp\"}" : "{\"objective\":\"maxmin\"}";
          break;
        case 1:
          patch = "{\"fail_middles\":[" + std::to_string(1 + rng_.next_below(3)) + "]}";
          break;
        default:
          patch = std::string("{\"derate_links\":[{\"stage\":\"") +
                  (rng_.next_bool() ? "uplink" : "downlink") +
                  "\",\"tor\":" + std::to_string(1 + rng_.next_below(6)) +
                  ",\"middle\":" + std::to_string(1 + rng_.next_below(3)) +
                  ",\"factor\":\"1/4\"}]}";
      }
      body = "{\"base\":\"" + ws_hash_[base] + "\",\"patch\":" + patch + "}";
      if (issued_.insert(body).second) break;
    }
    deltas_.push_back(body);
    return body;
  }

  std::uint64_t seed_;
  Rng rng_;
  Rng cold_rng_{stream_seed(seed_, 3)};
  std::vector<std::string> ws_;
  std::vector<std::string> ws_hash_;
  std::vector<bool> ws_maxmin_;
  std::uint64_t cold_ = 0;
  std::vector<std::string> deltas_;
  std::unordered_set<std::string> issued_;
  bool prev_is_delta_ = false;
  std::string prev_body_;
};

}  // namespace

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 finalizer over the pair: distinct streams decorrelate.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

const char* family_of(const svc::ScenarioSpec& spec) {
  if (spec.routing.policy.rfind("exhaustive", 0) == 0) return "exhaustive";
  return spec.objective == "maxmin_lp" ? "lp" : "heuristic";
}

ServedInputs cold_mix(std::uint64_t seed, double seconds) {
  ServedInputs in;
  in.open_rate = kColdRate;
  Rng rng(stream_seed(seed, 1));
  std::uint64_t id = 0;
  const std::size_t open = scaled(kColdRate, kOpenShare * seconds);
  const std::size_t capacity = scaled(kColdCapacityRps, kCapacityShare * seconds);
  for (std::size_t i = 0; i < open + capacity; ++i, ++id) {
    const std::string line =
        spec_line(id, cheap_spec(rng, spec_seed(seed, kColdBand, id)).canonical());
    (i < open ? in.open : in.capacity).push_back(line);
  }
  return in;
}

ServedInputs hot_mix(std::uint64_t seed, double seconds) {
  ServedInputs in;
  in.open_rate = kHotRate;
  Rng rng(stream_seed(seed, 1));
  std::vector<std::string> working_set;
  std::uint64_t id = 0;
  for (std::size_t k = 0; k < kWorkingSet; ++k, ++id) {
    working_set.push_back(cheap_spec(rng, spec_seed(seed, kWorkingSetBand, k)).canonical());
    in.preload.push_back(spec_line(id, working_set.back()));
  }
  HotStream stream(seed, std::move(working_set));
  const std::size_t open = scaled(kHotRate, kOpenShare * seconds);
  const std::size_t capacity = scaled(kHotCapacityRps, kCapacityShare * seconds);
  for (std::size_t i = 0; i < open; ++i) in.open.push_back(stream.next(id++));
  for (std::size_t i = 0; i < capacity; ++i) in.capacity.push_back(stream.next(id++));
  return in;
}

ServedInputs exact_sweep(std::uint64_t seed, double seconds) {
  ServedInputs in;
  in.window = 2;
  Rng rng(stream_seed(seed, 1));
  // Whole multiples of 400: closfair_bench's 40 completion blocks then hold
  // whole ten-cell composition periods.
  const std::size_t cells = 400 * scaled(kExactCellsPerSecond / 400.0, seconds);
  for (std::uint64_t id = 0; id < cells; ++id) {
    in.capacity.push_back(
        spec_line(id, exact_spec(rng, id, spec_seed(seed, kExactBand, id)).canonical()));
  }
  return in;
}

std::size_t sim_job_count(double seconds) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(kSimFlowsPerSecond * seconds /
                                               static_cast<double>(kSimFlowsPerJob))));
}

SimJob sim_job(std::uint64_t seed, std::size_t index) {
  TraceParams params;
  params.fabric = Fabric{2 * kSimClosN, kSimClosN};
  // Offered load per server link = arrival_rate * mean_size / servers.
  params.arrival_rate = 0.5 * params.fabric.num_servers();
  params.num_flows = kSimFlowsPerJob;
  params.mean_size = 1.0;
  params.sizes = SizeDistribution::kExponential;
  Rng rng(stream_seed(seed, 100 + index));
  return SimJob{poisson_trace(params, rng), stream_seed(seed, 10'000 + index)};
}

}  // namespace closfair::e2e
