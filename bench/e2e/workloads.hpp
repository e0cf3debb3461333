// Workload inputs, generated from the benchmark seed alone: the same seed
// gives byte-identical request streams and traces, and every spec variant
// draws its workload seed from a band reserved for its role, so "cold"
// traffic is unique within a run and across seeds, and delta-patched specs
// (working-set band) can never coincide with cold specs (cold band).
// bench/e2e/README.md says why each workload exists.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "svc/spec.hpp"
#include "workload/trace.hpp"

namespace closfair::e2e {

/// Request lines for one served workload, by phase. Line ids run 0, 1, ...
/// across the phases in order, so the three phases form one stream.
struct ServedInputs {
  std::vector<std::string> preload;   ///< closed loop during set-up (hot_mix)
  std::vector<std::string> open;      ///< open-loop phase (Poisson at open_rate)
  double open_rate = 0.0;             ///< requests per second
  std::vector<std::string> capacity;  ///< closed-loop phase
  std::size_t window = 64;            ///< closed-loop outstanding requests
};

/// Unique cheap C_3 cells: evaluation dominates, the cache never hits.
[[nodiscard]] ServedInputs cold_mix(std::uint64_t seed, double seconds);

/// A preloaded 2,000-spec working set re-requested, duplicated and patched,
/// plus 5% cold cells: wire, spec, cache and delta resolution dominate.
[[nodiscard]] ServedInputs hot_mix(std::uint64_t seed, double seconds);

/// Unique exhaustive C_4 cells in a closed loop of two (one per worker).
[[nodiscard]] ServedInputs exact_sweep(std::uint64_t seed, double seconds);

/// One in-process simulation: a Poisson trace on ClosNetwork::paper(8) at
/// load 0.5 with exp(1) sizes, routed by ECMP from `route_seed`.
struct SimJob {
  Trace trace;
  std::uint64_t route_seed = 0;
};

/// Jobs per sim_fct run of `seconds`, and job `index` of the run.
[[nodiscard]] std::size_t sim_job_count(double seconds);
[[nodiscard]] SimJob sim_job(std::uint64_t seed, std::size_t index);

/// The C_n of the sim_fct workload.
inline constexpr int kSimClosN = 8;

/// An independent 64-bit stream seed for `stream` under the run seed.
[[nodiscard]] std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream);

/// "heuristic", "lp" or "exhaustive": the evaluation family a spec's cost
/// belongs to (per-layer service.evaluate.* metrics).
[[nodiscard]] const char* family_of(const svc::ScenarioSpec& spec);

}  // namespace closfair::e2e
