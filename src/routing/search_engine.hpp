// Symmetry-reduced, allocation-free exhaustive search over Clos middle
// assignments — the shared engine behind the three exact optimizers in
// routing/exhaustive.hpp.
//
// Middle switches of the paper's C_n are interchangeable: permuting middle
// labels is a capacity-preserving automorphism whenever
// `ClosNetwork::middles_symmetric()` holds, and relabeling middles leaves
// every flow's max-min rate unchanged. The engine therefore enumerates one
// canonical representative per equivalence class — the restricted-growth
// strings, where each position may exceed the maximum middle index used so
// far by at most 1 — shrinking the candidate set from n^|F| to
// sum_{k<=n} S(|F|, k) (Stirling numbers of the second kind; Bell-number
// scale for n >= |F|). Full-space counts are reconstructed by weighing each
// class by its orbit size n·(n−1)···(n−k+1). Capacity-asymmetric middles
// fall back to the plain odometer.
//
// Each candidate is water-filled through a per-worker WaterfillWorkspace
// (fairness/waterfill.hpp): no Routing is materialized and no heap
// allocation happens per candidate. Parallel runs distribute work over
// enumeration prefixes pulled from an atomic counter; every candidate
// carries a SearchOrder key equal to its serial enumeration position, so
// merges can tie-break deterministically and parallel results are
// bitwise-identical to serial ones.
//
// Degraded fabrics (fault/fault.hpp): dead middles — all uplinks and
// downlinks at zero capacity — are excluded from enumeration entirely. The
// engine searches over the *surviving-middle pool*; a failed middle breaks
// the full middle-relabeling orbit equivalence, but permuting surviving
// labels among themselves is still a capacity-preserving automorphism, so
// canonical enumeration applies whenever the survivors are pairwise
// capacity-symmetric (fault::surviving_middles_symmetric), with orbit sizes
// taken as falling factorials over the pool size. Coverage counts
// (routings_covered) are reported relative to the surviving space
// |pool|^|F|: routing a flow into a dead switch is dropping it, which no
// live routing layer does.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "fairness/waterfill.hpp"
#include "flow/flow.hpp"
#include "flow/routing.hpp"
#include "net/clos.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "routing/exhaustive.hpp"

namespace closfair {
namespace detail {

[[nodiscard]] constexpr std::uint64_t sat_add(std::uint64_t a, std::uint64_t b) {
  return a > UINT64_MAX - b ? UINT64_MAX : a + b;
}

[[nodiscard]] constexpr std::uint64_t sat_mul(std::uint64_t a, std::uint64_t b) {
  return b != 0 && a > UINT64_MAX / b ? UINT64_MAX : a * b;
}

}  // namespace detail

/// Position of a candidate in the engine's global enumeration order:
/// (work-unit index, sequence within the unit), lexicographically. Identical
/// for serial and parallel runs, which makes merge tie-breaking match the
/// serial first-found rule exactly.
struct SearchOrder {
  std::uint64_t prefix = 0;
  std::uint64_t seq = 0;
  friend auto operator<=>(const SearchOrder&, const SearchOrder&) = default;
};

/// Number of canonical classes: restricted-growth strings of `length` using
/// at most `max_values` distinct values, i.e. sum_{k<=max_values} S(length, k).
/// Saturates at UINT64_MAX instead of overflowing.
[[nodiscard]] std::uint64_t canonical_class_count(int max_values, std::size_t length);

/// Orbit size of a canonical class using k distinct middles out of n under
/// middle relabeling: the falling factorial n·(n−1)···(n−k+1). Saturating.
[[nodiscard]] std::uint64_t orbit_size(int n, int k);

/// Aggregate statistics of one engine run.
struct SearchStats {
  std::uint64_t waterfill_invocations = 0;  ///< candidates actually evaluated
  std::uint64_t routings_covered = 0;       ///< full/pinned-space equivalent
  std::uint64_t workspace_allocs = 0;       ///< post-bind buffer growth events
  bool canonical = false;                   ///< canonical mode was in effect
};

class SearchEngine {
 public:
  /// Decides the enumeration mode, guards the search-space size against
  /// options.max_routings (throws ContractViolation on blow-up), and carves
  /// the space into prefix work units.
  SearchEngine(const ClosNetwork& net, const FlowSet& flows,
               const ExhaustiveOptions& options);

  [[nodiscard]] bool canonical() const { return canonical_; }
  [[nodiscard]] unsigned num_workers() const { return workers_; }

  /// Enumerates every candidate, water-fills it, and feeds it to the
  /// worker-local visitor: visit(local, middles, rates, order) -> bool,
  /// where `rates` is the exact max-min allocation in flow order (valid only
  /// during the call) and returning false requests a global early stop.
  /// `locals` must hold num_workers() entries; workers never share a local.
  template <typename Local, typename Visit>
  SearchStats run(std::vector<Local>& locals, Visit visit) const {
    CF_CHECK(locals.size() == workers_);
    OBS_SPAN("search.run");
    std::atomic<bool> stop{false};
    std::atomic<std::size_t> next{0};
    std::vector<SearchStats> stats(workers_);

    auto work = [&](unsigned w) {
      OBS_SPAN("search.worker");
      WaterfillWorkspace workspace;
      workspace.bind(net_, flows_);
      workspace.set_force_fallback(force_fallback_);
      MiddleAssignment middles(flows_.size(), 1);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::size_t p = next.fetch_add(1, std::memory_order_relaxed);
        if (p >= prefixes_.size()) break;
        OBS_COUNTER_INC("search.prefix_claims");
        const Prefix& prefix = prefixes_[p];
        std::copy(prefix.values.begin(), prefix.values.end(), middles.begin());
        std::uint64_t seq = 0;
        if (!enumerate_from(middles, prefix_len_, prefix.max_used,
                            static_cast<std::uint64_t>(p), seq, workspace, stats[w],
                            stop, locals[w], visit)) {
          stop.store(true, std::memory_order_relaxed);
        }
      }
      stats[w].workspace_allocs = workspace.steady_state_allocs();
    };

    if (workers_ == 1) {
      work(0);
    } else {
      std::vector<std::thread> pool;
      pool.reserve(workers_);
      for (unsigned w = 0; w < workers_; ++w) pool.emplace_back(work, w);
      for (std::thread& t : pool) t.join();
    }

    SearchStats total;
    total.canonical = canonical_;
    for (const SearchStats& s : stats) {
      total.waterfill_invocations =
          detail::sat_add(total.waterfill_invocations, s.waterfill_invocations);
      total.routings_covered = detail::sat_add(total.routings_covered, s.routings_covered);
      total.workspace_allocs = detail::sat_add(total.workspace_allocs, s.workspace_allocs);
    }
    record_run_metrics(stats, total);
    return total;
  }

 private:
  struct Prefix {
    MiddleAssignment values;  ///< first prefix_len_ positions (actual middle labels)
    int max_used = 0;         ///< max pool index used in `values` (canonical mode)
  };

  /// Registry reporting for one completed run: aggregate work counters
  /// (thread-count-invariant absent early stops), engine-shape gauges, and
  /// the per-worker water-fill distribution. No-op with CLOSFAIR_OBS=OFF.
  void record_run_metrics(const std::vector<SearchStats>& per_worker,
                          const SearchStats& total) const;

  // Depth-first completion of positions [pos, |F|). Values are 1-based
  // *pool indices* mapped through pool_ onto actual middle labels — on a
  // pristine fabric the pool is the identity and the mapping is free. In
  // canonical mode each position ranges over 1..min(|pool|, max_used+1); in
  // odometer mode over 1..|pool|, position 0 pinned under fix_first_ —
  // which the constructor clears, along with canonical_, whenever the
  // surviving pool is capacity-asymmetric. Returns false iff the visitor
  // requested a stop.
  template <typename Local, typename Visit>
  bool enumerate_from(MiddleAssignment& middles, std::size_t pos, int max_used,
                      std::uint64_t prefix_index, std::uint64_t& seq,
                      WaterfillWorkspace& workspace, SearchStats& stats,
                      const std::atomic<bool>& stop, Local& local, Visit& visit) const {
    if (stop.load(std::memory_order_relaxed)) return true;
    if (pos == flows_.size()) {
      ++stats.waterfill_invocations;
      stats.routings_covered = detail::sat_add(
          stats.routings_covered,
          canonical_ ? covered_per_class_[static_cast<std::size_t>(max_used)] : 1);
      const std::vector<Rational>& rates = workspace.max_min_rates(middles);
      return visit(local, middles, rates, SearchOrder{prefix_index, seq++});
    }
    const int hi = canonical_ ? std::min(pool_size_, max_used + 1)
                   : (pos == 0 && fix_first_) ? 1
                                              : pool_size_;
    for (int v = 1; v <= hi; ++v) {
      middles[pos] = pool_[static_cast<std::size_t>(v - 1)];
      if (!enumerate_from(middles, pos + 1, std::max(max_used, v), prefix_index, seq,
                          workspace, stats, stop, local, visit)) {
        return false;
      }
    }
    return true;
  }

  const ClosNetwork& net_;
  const FlowSet& flows_;
  int num_middles_ = 1;
  /// Surviving middles in ascending label order — the enumeration alphabet.
  /// Identity on pristine fabrics; falls back to all middles when every
  /// middle is dead (any assignment is then equally starved).
  std::vector<int> pool_;
  int pool_size_ = 1;
  bool canonical_ = false;
  /// options.fix_first_flow, honored only when the surviving pool is
  /// capacity-symmetric — the pin quotients by a relabeling that must be an
  /// automorphism to be sound.
  bool fix_first_ = false;
  /// options.force_waterfill_fallback, applied to every worker's workspace.
  bool force_fallback_ = false;
  unsigned workers_ = 1;
  std::size_t prefix_len_ = 0;
  std::vector<Prefix> prefixes_;
  /// covered_per_class_[k]: routings a canonical class with k distinct
  /// middles accounts for — orbit_size(|pool|, k), divided by |pool| when
  /// fix_first_flow restricts the reported space.
  std::vector<std::uint64_t> covered_per_class_;
};

/// The sum-of-capacities throughput upper bound used by the prune: no
/// routing's total throughput can exceed the capacity sum of the distinct
/// source links (every flow leaves through one) nor of the distinct
/// destination links; the bound is the smaller of the two.
[[nodiscard]] Rational throughput_capacity_bound(const ClosNetwork& net,
                                                 const FlowSet& flows);

}  // namespace closfair
