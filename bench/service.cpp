// service — batch-evaluation service benchmark (src/svc).
//
//   $ ./service [OUT.json]
//
// Drives a mixed batch of 100+ ScenarioSpec requests (stochastic Clos
// sweeps, fat-tree cells, macro-only references, inline adversarial
// instances with worst-case outages, replication feasibility, and exact
// exhaustive-search cells) through svc::Service and gates the service's two
// contracts:
//
//   1. Determinism: the full batch returns byte-identical responses (hash,
//      cached flag, result JSON) from fresh services at 1, 2, and 8 workers,
//      and in-batch duplicates resolve as dedup hits.
//   2. Cache efficacy: re-submitting a batch hits the content-addressed
//      cache at >= 99%, and on the exhaustive-search subset the warm
//      throughput is >= 10x the cold throughput.
//   3. Deltas: every delta class (add-flow, remove-flow, fail-middle,
//      derate-link, objective-switch) resolves to a result byte-identical
//      to the cold evaluation of the patched spec at 1/2/8 workers, and the
//      objective switch over an exhaustive-search base — a reuse of the base
//      result — is >= 5x faster than evaluating it cold.
//
// Emits BENCH_service.json (path overridable): scenarios/sec cold vs warm,
// hit rates, the determinism digest, and the obs registry snapshot (svc.* /
// waterfill.* / search.* counters) under a "metrics" key — scripts/bench.sh
// diffs the deterministic counters against the committed baseline. Exits
// non-zero if any gate fails.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/adversarial.hpp"
#include "io/json_export.hpp"
#include "io/text_format.hpp"
#include "obs/obs.hpp"
#include "svc/service.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

using namespace closfair;

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    std::cerr << "CHECK FAILED: " << what << '\n';
    ++failures;
  }
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

std::string inline_instance(int n, const AdversarialInstance& inst, bool with_rates) {
  InstanceSpec is;
  is.params = ClosNetwork::Params{n, 2 * n, n, Rational{1}};
  is.flows = inst.flows;
  if (with_rates) is.rates.assign(inst.macro_rates.begin(), inst.macro_rates.end());
  return format_instance(is);
}

svc::ScenarioSpec clos3_cell(const char* generator, std::uint64_t seed,
                             const char* policy) {
  svc::ScenarioSpec spec;
  spec.topology.params = ClosNetwork::Params{3, 6, 3, Rational{1}};
  spec.workload.generator = generator;
  spec.workload.seed = seed;
  if (std::string(generator) != "permutation") spec.workload.count = 24;
  if (std::string(generator) == "zipf") spec.workload.skew = 1.2;
  if (std::string(generator) == "hotspot") {
    spec.workload.hot_tor = 1;
    spec.workload.hot_fraction = 0.5;
  }
  if (std::string(generator) == "incast") {
    spec.workload.count = 8;
    spec.workload.dst_tor = 1;
    spec.workload.dst_server = 1;
  }
  spec.routing.policy = policy;
  if (std::string(policy) == "lex_climb") spec.routing.max_moves = 200;
  return spec;
}

/// The full mixed request set. The final `duplicates` entries repeat the
/// head of the batch verbatim, exercising in-batch dedup.
std::vector<svc::ScenarioSpec> build_batch(std::size_t duplicates) {
  std::vector<svc::ScenarioSpec> specs;

  // Stochastic Clos sweep: 5 seeded generators x 4 policies x 4 seeds.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    for (const char* wl : {"uniform", "permutation", "zipf", "hotspot", "incast"}) {
      for (const char* policy : {"ecmp", "greedy", "local_search", "lex_climb"}) {
        specs.push_back(clos3_cell(wl, seed, policy));
      }
    }
  }

  // Deterministic generators under demand-aware and LP-guided policies.
  for (const char* wl : {"stride", "all_to_all"}) {
    for (const char* policy : {"greedy", "doom", "lp_round"}) {
      svc::ScenarioSpec spec;
      spec.topology.params = ClosNetwork::Params{3, 6, 3, Rational{1}};
      spec.workload.generator = wl;
      if (std::string(wl) == "stride") spec.workload.stride = 3;
      spec.routing.policy = policy;
      if (std::string(policy) == "lp_round") {
        spec.routing.seed = 7;
        spec.routing.attempts = 4;
      }
      specs.push_back(spec);
    }
  }

  // Macro-only references under both objectives.
  for (const char* objective : {"maxmin", "maxmin_lp"}) {
    svc::ScenarioSpec spec;
    spec.topology.kind = "macro";
    spec.topology.params = ClosNetwork::Params{3, 6, 3, Rational{1}};
    spec.workload.generator = "permutation";
    spec.workload.seed = 11;
    spec.routing.policy = "none";
    spec.objective = objective;
    specs.push_back(spec);
  }

  // Fat-tree cells through the topology-generic routing layer.
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    for (const char* policy : {"ecmp", "greedy", "local_search"}) {
      svc::ScenarioSpec spec;
      spec.topology.kind = "fattree";
      spec.topology.fattree_k = 4;
      spec.workload.generator = "uniform";
      spec.workload.count = 24;
      spec.workload.seed = seed;
      spec.routing.policy = policy;
      specs.push_back(spec);
    }
  }

  // Inline adversarial instance + witness start + worst-case outages.
  {
    const AdversarialInstance inst = theorem_4_3_instance(3);
    for (int f : {0, 1}) {
      svc::ScenarioSpec spec;
      spec.workload.instance = inline_instance(3, inst, false);
      spec.topology.params = ClosNetwork::Params{3, 6, 3, Rational{1}};
      spec.routing.policy = "lex_climb";
      spec.routing.start = *inst.witness;
      spec.routing.reroute_dead = true;
      spec.fault.worst_case_outage = f;
      specs.push_back(spec);
    }
  }

  // Replication feasibility (the §4.1 question) on the Theorem 4.2 gadget.
  {
    const AdversarialInstance inst = theorem_4_2_instance(3);
    svc::ScenarioSpec spec;
    spec.workload.instance = inline_instance(3, inst, true);
    spec.topology.params = ClosNetwork::Params{3, 6, 3, Rational{1}};
    spec.routing.policy = "replicate";
    specs.push_back(spec);
  }

  // Exact exhaustive-search cells — the expensive subset the cold/warm
  // throughput gate times separately (see exhaustive_subset()).
  for (const auto& [n, k] : {std::pair{3, 1}, std::pair{5, 2}}) {
    const AdversarialInstance inst = theorem_5_4_instance(n, k);
    const std::string instance = inline_instance(n, inst, false);
    for (int f : {0, 1}) {
      for (const char* policy : {"exhaustive_lex", "exhaustive_tput"}) {
        svc::ScenarioSpec spec;
        spec.workload.instance = instance;
        spec.topology.params = ClosNetwork::Params{n, 2 * n, n, Rational{1}};
        spec.routing.policy = policy;
        spec.routing.prune_throughput_bound = false;
        spec.fault.worst_case_outage = f;
        specs.push_back(spec);
      }
    }
  }

  for (std::size_t i = 0; i < duplicates; ++i) specs.push_back(specs[i]);
  return specs;
}

std::vector<svc::ScenarioSpec> exhaustive_subset(const std::vector<svc::ScenarioSpec>& all) {
  std::vector<svc::ScenarioSpec> subset;
  for (const svc::ScenarioSpec& spec : all) {
    if (spec.routing.policy.rfind("exhaustive_", 0) == 0) subset.push_back(spec);
  }
  return subset;
}

/// Byte-for-byte response transcript: what the determinism contract promises
/// to be identical at every worker count.
std::string digest(const std::vector<svc::BatchEntry>& entries) {
  std::string out;
  char hex[17];
  for (const svc::BatchEntry& entry : entries) {
    std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(entry.hash));
    out += hex;
    out += entry.cached ? "|hit|" : "|miss|";
    out += entry.ok() ? entry.result.to_json().dump() : entry.error;
    out += '\n';
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_service.json";
  if (argc > 1) out_path = argv[1];
  if (argc > 2 || (!out_path.empty() && out_path[0] == '-')) {
    std::cerr << "usage: service [OUT.json]\n";
    return 2;
  }
  obs::Registry::instance().reset();

  const std::size_t kDuplicates = 8;
  const std::vector<svc::ScenarioSpec> batch = build_batch(kDuplicates);
  const std::vector<svc::ScenarioSpec> exhaustive = exhaustive_subset(batch);
  std::cout << "=== svc benchmark: " << batch.size() << " mixed requests ("
            << kDuplicates << " in-batch duplicates, " << exhaustive.size()
            << " exhaustive cells) ===\n\n";

  Json report = Json::object();
  report.set("bench", Json::string("service"));
  report.set("requests", Json::number(static_cast<std::int64_t>(batch.size())));
  report.set("duplicates", Json::number(static_cast<std::int64_t>(kDuplicates)));

  // ------------------------------------------------- determinism across workers
  std::cout << "--- determinism: fresh service per worker count ---\n";
  TextTable table_d({"workers", "seconds", "scenarios/sec", "identical"});
  std::string reference;
  double cold_1worker = 0.0;
  for (const unsigned workers : {1u, 2u, 8u}) {
    svc::Service service(svc::ServiceOptions{workers, 512});
    const auto start = std::chrono::steady_clock::now();
    const std::vector<svc::BatchEntry> entries = service.evaluate_batch(batch);
    const double secs = seconds_since(start);
    if (workers == 1u) cold_1worker = secs;

    const std::string d = digest(entries);
    const bool identical = reference.empty() || d == reference;
    if (reference.empty()) reference = d;
    check(identical, "determinism: " + std::to_string(workers) +
                         "-worker batch is byte-identical to the 1-worker batch");
    for (std::size_t i = 0; i < entries.size(); ++i) {
      check(entries[i].ok(), "request " + std::to_string(i) + " succeeds: " + entries[i].error);
    }
    for (std::size_t i = batch.size() - kDuplicates; i < batch.size(); ++i) {
      check(entries[i].cached, "duplicate request " + std::to_string(i) + " is a dedup hit");
    }
    table_d.add_row({std::to_string(workers), fmt_double(secs, 3),
                     fmt_double(static_cast<double>(batch.size()) / secs, 1),
                     identical ? "yes" : "NO"});
  }
  std::cout << table_d << '\n';
  report.set("determinism_digest_fnv",
             Json::string([&] {
               char hex[17];
               std::snprintf(hex, sizeof(hex), "%016llx",
                             static_cast<unsigned long long>(svc::fnv1a64(reference)));
               return std::string(hex);
             }()));
  report.set("cold_seconds_1worker", Json::number(cold_1worker));

  // ------------------------------------------------- full-batch repeat hit rate
  std::cout << "--- cache: full-batch resubmission ---\n";
  double repeat_hit_rate = 0.0;
  {
    svc::Service service(svc::ServiceOptions{2, 512});
    (void)service.evaluate_batch(batch);
    const std::vector<svc::BatchEntry> warm = service.evaluate_batch(batch);
    std::size_t hits = 0;
    for (const svc::BatchEntry& entry : warm) hits += entry.cached ? 1 : 0;
    repeat_hit_rate = static_cast<double>(hits) / static_cast<double>(warm.size());
    check(repeat_hit_rate >= 0.99, "repeat hit rate >= 99%");
    std::cout << "hit rate on resubmission: " << fmt_double(repeat_hit_rate * 100.0, 1)
              << "% (" << hits << '/' << warm.size() << ")\n\n";
  }
  report.set("repeat_hit_rate", Json::number(repeat_hit_rate));

  // ----------------------------------------- cold vs warm on exhaustive cells
  std::cout << "--- cache: cold vs warm throughput (exhaustive cells) ---\n";
  {
    svc::Service service(svc::ServiceOptions{2, 512});
    const auto cold_start = std::chrono::steady_clock::now();
    (void)service.evaluate_batch(exhaustive);
    const double cold_secs = seconds_since(cold_start);

    const int kWarmRounds = 10;
    const auto warm_start = std::chrono::steady_clock::now();
    std::size_t warm_hits = 0;
    for (int round = 0; round < kWarmRounds; ++round) {
      const std::vector<svc::BatchEntry> warm = service.evaluate_batch(exhaustive);
      for (const svc::BatchEntry& entry : warm) warm_hits += entry.cached ? 1 : 0;
    }
    const double warm_secs = seconds_since(warm_start) / kWarmRounds;

    const double cold_rate = static_cast<double>(exhaustive.size()) / cold_secs;
    const double warm_rate = static_cast<double>(exhaustive.size()) / warm_secs;
    const double speedup = warm_rate / cold_rate;
    const double warm_hit_rate = static_cast<double>(warm_hits) /
                                 static_cast<double>(exhaustive.size() * kWarmRounds);
    check(warm_hit_rate >= 0.99, "warm hit rate >= 99% on exhaustive cells");
    check(speedup >= 10.0, "warm throughput >= 10x cold on exhaustive cells");

    TextTable table_w({"phase", "seconds/batch", "scenarios/sec"});
    table_w.add_row({"cold", fmt_double(cold_secs, 4), fmt_double(cold_rate, 1)});
    table_w.add_row({"warm", fmt_double(warm_secs, 6), fmt_double(warm_rate, 1)});
    std::cout << table_w << "warm/cold speedup: " << fmt_double(speedup, 1)
              << "x, warm hit rate " << fmt_double(warm_hit_rate * 100.0, 1) << "%\n\n";

    Json cw = Json::object();
    cw.set("cells", Json::number(static_cast<std::int64_t>(exhaustive.size())));
    cw.set("cold_seconds", Json::number(cold_secs));
    cw.set("warm_seconds", Json::number(warm_secs));
    cw.set("cold_scenarios_per_sec", Json::number(cold_rate));
    cw.set("warm_scenarios_per_sec", Json::number(warm_rate));
    cw.set("warm_speedup", Json::number(speedup));
    cw.set("warm_hit_rate", Json::number(warm_hit_rate));
    report.set("cold_warm", std::move(cw));
  }

  // ----------------------------------------------- delta warm vs cold per class
  std::cout << "--- deltas: warm == cold bytes per class, warm/cold speedup ---\n";
  {
    struct DeltaClass {
      const char* name;
      svc::ScenarioSpec base;
      const char* patch;
    };

    // Flow-edit bases need an inline instance (and no witness start).
    const AdversarialInstance gadget = theorem_4_3_instance(3);
    svc::ScenarioSpec flows_base;
    flows_base.workload.instance = inline_instance(3, gadget, false);
    flows_base.topology.params = ClosNetwork::Params{3, 6, 3, Rational{1}};
    flows_base.routing.policy = "greedy";

    // The objective switch rides on an exhaustive-search base: the patched
    // spec's routing is objective-independent and the two objectives agree
    // exactly, so the warm path returns the base result without re-running
    // the search — the class the >= 5x gate targets.
    const AdversarialInstance hard = theorem_5_4_instance(5, 2);
    svc::ScenarioSpec exhaustive_base;
    exhaustive_base.workload.instance = inline_instance(5, hard, false);
    exhaustive_base.topology.params = ClosNetwork::Params{5, 10, 5, Rational{1}};
    exhaustive_base.routing.policy = "exhaustive_lex";

    const std::vector<DeltaClass> classes = {
        {"add_flow", flows_base,
         R"({"add_flows":[{"src_tor":1,"src_server":1,"dst_tor":2,"dst_server":2}]})"},
        {"remove_flow", flows_base, R"({"remove_flows":[0]})"},
        {"fail_middle", clos3_cell("uniform", 1, "greedy"), R"({"fail_middles":[1]})"},
        {"derate_link", clos3_cell("uniform", 2, "greedy"),
         R"({"derate_links":[{"stage":"uplink","tor":1,"middle":1,"factor":"1/2"}]})"},
        {"objective_switch", exhaustive_base, R"({"objective":"maxmin_lp"})"},
    };

    TextTable table_delta({"class", "warm_ms", "cold_ms", "speedup", "identical"});
    Json delta_report = Json::object();
    double objective_speedup = 0.0;
    for (const DeltaClass& dc : classes) {
      char hex[17];
      std::snprintf(hex, sizeof(hex), "%016llx",
                    static_cast<unsigned long long>(dc.base.content_hash()));
      const svc::DeltaRequest delta = svc::DeltaRequest::from_json(Json::parse(
          std::string("{\"base\":\"") + hex + "\",\"patch\":" + dc.patch + "}"));
      const svc::ScenarioSpec patched = delta.patch.apply(dc.base);

      bool identical = true;
      double warm_secs = 0.0;
      double cold_secs = 0.0;
      for (const unsigned workers : {1u, 2u, 8u}) {
        svc::Service warm_service(svc::ServiceOptions{workers, 64});
        const svc::BatchEntry base_entry = warm_service.evaluate(dc.base);
        check(base_entry.ok(), std::string("delta base (") + dc.name + ") evaluates: " +
                                   base_entry.error);
        const auto warm_t0 = std::chrono::steady_clock::now();
        const svc::BatchEntry warm = warm_service.evaluate_delta(delta);
        const double warm_s = seconds_since(warm_t0);

        // Resubmit the same delta: the patched spec is now committed, so this
        // must land as a cache hit (svc.delta_hits) — the exactly-gated
        // counter in scripts/bench.sh depends on these scripted hits.
        const svc::BatchEntry again = warm_service.evaluate_delta(delta);
        check(again.cached,
              std::string("delta ") + dc.name + " resubmission served from cache");

        svc::Service cold_service(svc::ServiceOptions{workers, 64});
        const auto cold_t0 = std::chrono::steady_clock::now();
        const svc::BatchEntry cold = cold_service.evaluate(patched);
        const double cold_s = seconds_since(cold_t0);

        check(warm.ok(), std::string("delta ") + dc.name + " warm evaluation: " + warm.error);
        check(cold.ok(), std::string("delta ") + dc.name + " cold evaluation: " + cold.error);
        const std::string warm_bytes = digest({warm});
        const std::string cold_bytes = digest({cold});
        identical = identical && warm_bytes == cold_bytes;
        check(warm_bytes == cold_bytes,
              std::string("delta ") + dc.name + " warm == cold bytes at " +
                  std::to_string(workers) + " workers");
        if (workers == 1u) {
          warm_secs = warm_s;
          cold_secs = cold_s;
        }
      }
      const double speedup = warm_secs > 0.0 ? cold_secs / warm_secs : 0.0;
      if (std::string(dc.name) == "objective_switch") objective_speedup = speedup;
      table_delta.add_row({dc.name, fmt_double(warm_secs * 1e3, 3),
                           fmt_double(cold_secs * 1e3, 3), fmt_double(speedup, 1),
                           identical ? "yes" : "NO"});
      Json cls = Json::object();
      cls.set("warm_seconds", Json::number(warm_secs));
      cls.set("cold_seconds", Json::number(cold_secs));
      cls.set("warm_speedup", Json::number(speedup));
      cls.set("identical", Json::boolean(identical));
      delta_report.set(dc.name, std::move(cls));
    }
    check(objective_speedup >= 5.0,
          "objective_switch delta warm >= 5x cold over the exhaustive base");
    std::cout << table_delta << '\n';
    report.set("delta", std::move(delta_report));
  }

  Json checks = Json::object();
  checks.set("failed", Json::number(static_cast<std::int64_t>(failures)));
  report.set("checks", std::move(checks));
  report.set("metrics", metrics_to_json(obs::Registry::instance().snapshot()));

  std::ofstream out(out_path);
  out << report.dump(2) << '\n';
  out.close();
  if (!out) {
    std::cerr << "error: could not write report to " << out_path << '\n';
    return 1;
  }
  std::cout << "report written to " << out_path << '\n';

  if (failures > 0) {
    std::cerr << failures << " check(s) FAILED\n";
    return 1;
  }
  std::cout << "all checks passed\n";
  return 0;
}
