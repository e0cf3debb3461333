#include "svc/service.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>
#include <unordered_map>
#include <utility>

#include "fairness/waterfill.hpp"
#include "fault/fault.hpp"
#include "io/text_format.hpp"
#include "lp/maxmin_lp.hpp"
#include "lp/splittable.hpp"
#include "net/fattree.hpp"
#include "net/macroswitch.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "routing/doom_switch.hpp"
#include "routing/ecmp.hpp"
#include "routing/exhaustive.hpp"
#include "routing/generic.hpp"
#include "routing/greedy.hpp"
#include "routing/local_search.hpp"
#include "routing/lp_rounding.hpp"
#include "routing/replication.hpp"
#include "util/rng.hpp"
#include "workload/stochastic.hpp"

namespace closfair::svc {
namespace {

[[noreturn]] void fail(const std::string& message) { throw SpecError(message); }

std::string hash_hex(std::uint64_t hash) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(hash));
  return std::string{buf};
}

/// Generate the coordinate-level collection (and declared target rates, for
/// inline instances). Generator draws consume `rng`; a subsequent seedless
/// seeded policy continues the same stream — the sweep-bench convention.
FlowCollection make_workload(const WorkloadSpec& wl, const Fabric& fabric, Rng& rng,
                             std::vector<std::optional<Rational>>& targets) {
  targets.clear();
  if (!wl.instance.empty()) {
    const InstanceSpec inst = parse_instance(wl.instance);
    targets = inst.rates;
    return inst.flows;
  }
  if (wl.generator == "uniform") return uniform_random(fabric, wl.count, rng);
  if (wl.generator == "permutation") return random_permutation(fabric, rng);
  if (wl.generator == "zipf") return zipf_destinations(fabric, wl.count, wl.skew, rng);
  if (wl.generator == "hotspot") {
    return hotspot(fabric, wl.count, wl.hot_tor, wl.hot_fraction, rng);
  }
  if (wl.generator == "incast") {
    return incast(fabric, wl.count, wl.dst_tor, wl.dst_server, rng);
  }
  if (wl.generator == "stride") return stride(fabric, wl.stride);
  if (wl.generator == "all_to_all") return tor_all_to_all(fabric);
  fail("unknown workload generator '" + wl.generator + "'");
}

std::vector<double> as_demands(const Allocation<Rational>& macro) {
  std::vector<double> demands;
  demands.reserve(macro.size());
  for (FlowIndex f = 0; f < macro.size(); ++f) {
    demands.push_back(macro.rate(f).to_double());
  }
  return demands;
}

/// Shared tail: ratios of the routed allocation against the macro reference.
void fill_routed(ScenarioResult& result, const Allocation<Rational>& alloc) {
  result.routed = true;
  result.rates = alloc.rates();
  result.throughput = alloc.throughput();
  result.throughput_ratio = result.macro_throughput.is_zero()
                                ? Rational{1}
                                : result.throughput / result.macro_throughput;
  Rational min_ratio{1};
  bool any = false;
  for (FlowIndex f = 0; f < result.rates.size(); ++f) {
    if (result.macro_rates[f].is_zero()) continue;
    const Rational ratio = result.rates[f] / result.macro_rates[f];
    min_ratio = !any || ratio < min_ratio ? ratio : min_ratio;
    any = true;
  }
  result.min_rate_ratio = min_ratio;
}

ScenarioResult evaluate_fattree(const ScenarioSpec& spec) {
  const FatTree ft(spec.topology.fattree_k);
  const Fabric fabric{ft.num_edge_switches(), ft.servers_per_edge()};
  Rng rng(spec.workload.seed);
  std::vector<std::optional<Rational>> targets;
  const FlowCollection specs = make_workload(spec.workload, fabric, rng, targets);

  const MacroSwitch ms(MacroSwitch::Params{fabric.num_tors, fabric.servers_per_tor,
                                           Rational{1}});
  const auto macro = max_min_fair<Rational>(ms, instantiate(ms, specs));

  ScenarioResult result;
  result.num_flows = specs.size();
  result.macro_rates = macro.rates();
  result.macro_throughput = macro.throughput();
  if (spec.routing.policy == "none") return result;

  const FlowSet flows = instantiate(ft, specs);
  PathCandidates candidates;
  candidates.reserve(flows.size());
  for (const Flow& flow : flows) candidates.push_back(ft.paths(flow.src, flow.dst));

  Rng policy_rng = spec.routing.seed.has_value() ? Rng(*spec.routing.seed)
                                                 : std::move(rng);
  Routing routing;
  const std::vector<double> demands = as_demands(macro);
  if (spec.routing.policy == "ecmp") {
    routing = ecmp_paths(candidates, policy_rng);
  } else if (spec.routing.policy == "greedy") {
    routing = greedy_paths(ft.topology(), candidates, demands);
  } else {
    routing = congestion_local_search_paths(ft.topology(), candidates, demands,
                                            greedy_paths(ft.topology(), candidates, demands),
                                            spec.routing.max_moves);
  }
  const auto alloc = spec.objective == "maxmin_lp"
                         ? max_min_fair_lp<Rational>(ft.topology(), flows, routing)
                         : max_min_fair<Rational>(ft.topology(), flows, routing);
  fill_routed(result, alloc);
  return result;
}

ScenarioResult evaluate_clos(const ScenarioSpec& spec) {
  const Fabric fabric{spec.topology.params.num_tors, spec.topology.params.servers_per_tor};
  Rng rng(spec.workload.seed);
  std::vector<std::optional<Rational>> targets;
  const FlowCollection specs = make_workload(spec.workload, fabric, rng, targets);

  // The macro reference is always the *pristine* macro-switch: degraded-vs-
  // ideal ratios are the whole point of the fault studies.
  const MacroSwitch ms(MacroSwitch::Params{spec.topology.params.num_tors,
                                           spec.topology.params.servers_per_tor,
                                           spec.topology.params.link_capacity});
  const FlowSet ms_flows = instantiate(ms, specs);
  const auto macro = spec.objective == "maxmin_lp" && spec.routing.policy == "none"
                         ? max_min_fair_lp<Rational>(ms.topology(), ms_flows,
                                                     macro_routing(ms, ms_flows))
                         : max_min_fair<Rational>(ms, ms_flows);

  ScenarioResult result;
  result.num_flows = specs.size();
  result.macro_rates = macro.rates();
  result.macro_throughput = macro.throughput();
  if (spec.topology.kind == "macro") return result;

  ClosNetwork net(spec.topology.params);
  if (!spec.fault.empty()) {
    OBS_SPAN("svc.degrade");
    // Order per svc/spec.hpp: explicit scenario, then the two samplers off
    // one stream (middles first), then the targeted worst-case outage
    // against the already-degraded fabric.
    if (!spec.fault.scenario.empty()) fault::apply(net, spec.fault.scenario);
    if (spec.fault.sample_middles > 0 || spec.fault.link_failure_p > 0.0) {
      Rng fault_rng(spec.fault.seed);
      if (spec.fault.sample_middles > 0) {
        fault::apply(net, fault::sample_middle_outage(net, spec.fault.sample_middles,
                                                      fault_rng));
      }
      if (spec.fault.link_failure_p > 0.0) {
        fault::apply(net, fault::sample_link_failures(net, spec.fault.link_failure_p,
                                                      fault_rng));
      }
    }
    if (spec.fault.worst_case_outage > 0) {
      fault::apply(net, fault::worst_case_outage(net, spec.fault.worst_case_outage));
    }
  }
  result.surviving_middles = static_cast<int>(fault::surviving_middles(net).size());
  if (spec.routing.policy == "none") return result;

  const FlowSet flows = instantiate(net, specs);
  const std::string& policy = spec.routing.policy;

  if (policy == "replicate") {
    std::vector<Rational> rates;
    rates.reserve(flows.size());
    for (FlowIndex f = 0; f < flows.size(); ++f) {
      const bool declared = f < targets.size() && targets[f].has_value();
      rates.push_back(declared ? *targets[f] : macro.rate(f));
    }
    const ReplicationResult rep = find_feasible_routing(net, flows, rates);
    ReplicationStats stats;
    stats.feasible = rep.feasible;
    stats.nodes_explored = rep.nodes_explored;
    if (rep.routing.has_value()) stats.witness = *rep.routing;
    result.replication = stats;
    return result;
  }

  MiddleAssignment start = spec.routing.start;
  if (!start.empty()) {
    if (start.size() != flows.size()) {
      fail("routing.start has " + std::to_string(start.size()) + " entries for " +
           std::to_string(flows.size()) + " flows");
    }
    for (const int m : start) {
      if (m > net.num_middles()) fail("routing.start names middle beyond the fabric");
    }
    if (spec.routing.reroute_dead) {
      result.rerouted = fault::reroute_dead_paths(net, flows, start);
    }
  }

  Rng policy_rng = spec.routing.seed.has_value() ? Rng(*spec.routing.seed)
                                                 : std::move(rng);
  MiddleAssignment middles;
  const auto greedy_start = [&]() {
    return greedy_routing(net, flows, as_demands(macro));
  };
  if (policy == "static") {
    middles = std::move(start);
  } else if (policy == "ecmp") {
    middles = ecmp_routing(net, flows, policy_rng);
  } else if (policy == "greedy") {
    middles = greedy_start();
  } else if (policy == "local_search") {
    LocalSearchOptions options;
    options.max_moves = spec.routing.max_moves;
    middles = congestion_local_search(net, flows, as_demands(macro),
                                      start.empty() ? greedy_start() : std::move(start),
                                      options);
  } else if (policy == "lex_climb" || policy == "tput_climb") {
    LocalSearchOptions options;
    options.max_moves = spec.routing.max_moves;
    MiddleAssignment from = start.empty() ? greedy_start() : std::move(start);
    middles = policy == "lex_climb"
                  ? lex_max_min_local_search(net, flows, std::move(from), options).middles
                  : throughput_max_min_local_search(net, flows, std::move(from), options)
                        .middles;
  } else if (policy == "doom") {
    middles = doom_switch(net, flows).middles;
  } else if (policy == "lp_round") {
    const SplittableMaxMin splittable = splittable_max_min(net, ms, specs);
    middles = round_splittable_best_of(net, flows, splittable, policy_rng,
                                       spec.routing.attempts)
                  .middles;
  } else if (policy == "exhaustive_lex" || policy == "exhaustive_tput") {
    ExhaustiveOptions options;
    if (spec.routing.max_routings != 0) options.max_routings = spec.routing.max_routings;
    options.fix_first_flow = spec.routing.fix_first_flow;
    options.num_threads = spec.routing.threads;
    options.prune_throughput_bound = spec.routing.prune_throughput_bound;
    const ExactRoutingResult exact =
        policy == "exhaustive_lex" ? lex_max_min_exhaustive(net, flows, options)
                                   : throughput_max_min_exhaustive(net, flows, options);
    result.search = SearchStats{exact.routings_evaluated, exact.waterfill_invocations};
    middles = exact.middles;
  } else {
    fail("policy '" + policy + "' is not evaluable on a Clos topology");
  }

  const Routing routing_paths = expand_routing(net, flows, middles);
  const auto alloc = spec.objective == "maxmin_lp"
                         ? max_min_fair_lp<Rational>(net.topology(), flows, routing_paths)
                         : max_min_fair<Rational>(net.topology(), flows, routing_paths);
  fill_routed(result, alloc);
  result.middles = std::move(middles);
  return result;
}

}  // namespace

ScenarioResult evaluate_scenario(const ScenarioSpec& spec) {
  OBS_SPAN("svc.evaluate");
  OBS_COUNTER_INC("svc.evaluations");
  if (spec.topology.kind == "fattree") return evaluate_fattree(spec);
  return evaluate_clos(spec);
}

ScenarioResult evaluate_scenario_warm(const ScenarioSpec& spec,
                                      const ScenarioSpec& base_spec,
                                      const ScenarioResult& base_result) {
  ScenarioSpec probe = spec;
  probe.objective = base_spec.objective;
  if (probe.canonical() == base_spec.canonical()) {
    OBS_COUNTER_INC("svc.delta_result_reuses");
    return base_result;
  }
  return evaluate_scenario(spec);
}

DeltaResolution resolve_delta(
    ResultCache& cache, const DeltaRequest& delta,
    const std::function<std::optional<std::string>(std::uint64_t)>& inflight) {
  OBS_COUNTER_INC("svc.delta_requests");
  DeltaResolution res;
  std::optional<std::string> inflight_canonical;
  res.base = cache.pin_base(delta.base);
  if (!res.base.has_value() && inflight) inflight_canonical = inflight(delta.base);
  const std::string* base_canonical = res.base.has_value() ? &res.base->canonical()
                                      : inflight_canonical ? &*inflight_canonical
                                                           : nullptr;
  if (base_canonical == nullptr) {
    OBS_COUNTER_INC("svc.delta_base_misses");
    res.error = "unknown base " + hash_hex(delta.base) + ": not in the result cache";
    return res;
  }
  try {
    ScenarioSpec base_spec = ScenarioSpec::from_json(Json::parse(*base_canonical));
    res.spec = delta.patch.apply(base_spec);
    if (res.base.has_value()) res.base_spec = std::move(base_spec);
  } catch (const std::exception& e) {
    OBS_COUNTER_INC("svc.delta_patch_errors");
    res.base.reset();
    res.base_spec.reset();
    res.error = e.what();
  }
  return res;
}

// ---------------------------------------------------------------------------

Service::Service(ServiceOptions options)
    : options_(options), cache_(options.cache_capacity) {
  if (options_.workers < 1) options_.workers = 1;
  OBS_GAUGE_SET("svc.workers", options_.workers);
}

BatchEntry Service::evaluate(const ScenarioSpec& spec) {
  OBS_COUNTER_INC("svc.requests");
  BatchEntry entry;
  const std::string canonical = spec.canonical();
  entry.hash = fnv1a64(canonical);
  if (auto hit = cache_.lookup(canonical); hit.has_value()) {
    entry.result = std::move(*hit);
    entry.cached = true;
    return entry;
  }
  try {
    entry.result = evaluate_scenario(spec);
  } catch (const std::exception& e) {
    OBS_COUNTER_INC("svc.errors");
    entry.error = e.what();
    return entry;
  }
  cache_.insert(canonical, entry.result);
  return entry;
}

BatchEntry Service::evaluate_delta(const DeltaRequest& delta) {
  BatchEntry entry;
  DeltaResolution res = resolve_delta(cache_, delta);
  if (!res.ok()) {
    // hash stays 0: resolution failed before a patched spec ever existed.
    entry.error = std::move(res.error);
    return entry;
  }
  OBS_COUNTER_INC("svc.requests");
  const std::string canonical = res.spec.canonical();
  entry.hash = fnv1a64(canonical);
  if (auto hit = cache_.lookup(canonical); hit.has_value()) {
    OBS_COUNTER_INC("svc.delta_hits");
    entry.result = std::move(*hit);
    entry.cached = true;
    return entry;
  }
  try {
    entry.result = res.base.has_value()
                       ? evaluate_scenario_warm(res.spec, *res.base_spec, res.base->result())
                       : evaluate_scenario(res.spec);
  } catch (const std::exception& e) {
    OBS_COUNTER_INC("svc.errors");
    entry.error = e.what();
    return entry;
  }
  cache_.insert(canonical, entry.result);
  return entry;
}

std::vector<BatchEntry> Service::evaluate_batch(const std::vector<ScenarioSpec>& specs) {
  OBS_SPAN("svc.batch");
  OBS_COUNTER_ADD("svc.requests", specs.size());
  std::vector<BatchEntry> entries(specs.size());

  // Deterministic pre-pass on the submitting thread: canonicalize, resolve
  // cache hits, and collapse in-batch duplicates onto their first
  // occurrence. Workers then receive a fixed queue of distinct evaluations
  // with pre-assigned result slots — nothing about the output can depend on
  // worker scheduling.
  std::vector<std::string> canonical(specs.size());
  std::vector<std::size_t> queue;                        // first-occurrence indices
  std::unordered_map<std::string, std::size_t> first;    // canonical -> first index
  std::vector<std::size_t> duplicate_of(specs.size(), SIZE_MAX);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    canonical[i] = specs[i].canonical();
    entries[i].hash = fnv1a64(canonical[i]);
    if (const auto it = first.find(canonical[i]); it != first.end()) {
      duplicate_of[i] = it->second;
      entries[i].cached = true;
      OBS_COUNTER_INC("svc.dedup_hits");
      continue;
    }
    if (auto hit = cache_.lookup(canonical[i]); hit.has_value()) {
      entries[i].result = std::move(*hit);
      entries[i].cached = true;
      continue;
    }
    first.emplace(canonical[i], i);
    queue.push_back(i);
  }

  OBS_GAUGE_SET("svc.queue_depth", queue.size());
  const unsigned workers =
      std::min<std::size_t>(options_.workers, std::max<std::size_t>(queue.size(), 1));
  std::atomic<std::size_t> next{0};
  std::atomic<std::int64_t> depth{static_cast<std::int64_t>(queue.size())};
  auto work = [&]() {
    OBS_SPAN("svc.worker");
    while (true) {
      const std::size_t q = next.fetch_add(1, std::memory_order_relaxed);
      if (q >= queue.size()) return;
      const std::size_t slot = queue[q];
      try {
        entries[slot].result = evaluate_scenario(specs[slot]);
      } catch (const std::exception& e) {
        OBS_COUNTER_INC("svc.errors");
        entries[slot].error = e.what();
      }
      OBS_GAUGE_SET("svc.queue_depth",
                    depth.fetch_sub(1, std::memory_order_relaxed) - 1);
    }
  };
  if (workers == 1) {
    work();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) pool.emplace_back(work);
    for (std::thread& t : pool) t.join();
  }

  // Replay into the cache in input order so LRU recency (and with it any
  // eviction sequence) is identical no matter how many workers ran, then
  // materialize duplicates from their first occurrence.
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (duplicate_of[i] != SIZE_MAX) {
      const BatchEntry& src = entries[duplicate_of[i]];
      entries[i].result = src.result;
      entries[i].error = src.error;
      continue;
    }
    if (first.contains(canonical[i]) && entries[i].ok()) {
      cache_.insert(canonical[i], entries[i].result);
    }
  }
  return entries;
}

}  // namespace closfair::svc
