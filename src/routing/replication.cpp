#include "routing/replication.hpp"

#include <algorithm>
#include <numeric>

#include "fault/fault.hpp"

namespace closfair {
namespace {

// Backtracking state over flows sorted by decreasing rate (first-fit
// decreasing order keeps the search shallow: big rates fail fast).
class Search {
 public:
  Search(const ClosNetwork& net, const FlowSet& flows, const std::vector<Rational>& rates,
         const ReplicationOptions& options)
      : net_(net), flows_(flows), rates_(rates), options_(options) {
    const int n = net.num_middles();
    const int tors = net.num_tors();
    up_residual_.assign(static_cast<std::size_t>(tors) * n, Rational{1});
    down_residual_.assign(static_cast<std::size_t>(tors) * n, Rational{1});
    for (int i = 1; i <= tors; ++i) {
      for (int m = 1; m <= n; ++m) {
        up_residual_[up_index(i, m)] = net.topology().link(net.uplink(i, m)).capacity;
        down_residual_[down_index(m, i)] = net.topology().link(net.downlink(m, i)).capacity;
      }
    }
    // Candidate middles: the surviving pool (dead middles carry nothing),
    // or every label when none survive, cut to `restrict_middles` labels.
    // The canon opens pool entries in order, which is exhaustive only when
    // the survivors are capacity-interchangeable — decided once, here.
    pool_ = fault::surviving_middles(net);
    if (pool_.empty()) {
      pool_.resize(static_cast<std::size_t>(n));
      std::iota(pool_.begin(), pool_.end(), 1);
    }
    if (options.restrict_middles > 0) {
      std::erase_if(pool_, [&](int m) { return m > options.restrict_middles; });
    }
    canonical_ = options.break_symmetry && fault::surviving_middles_symmetric(net);
    order_.resize(flows.size());
    std::iota(order_.begin(), order_.end(), FlowIndex{0});
    std::stable_sort(order_.begin(), order_.end(),
                     [&](FlowIndex a, FlowIndex b) { return rates[b] < rates[a]; });
    assignment_.assign(flows.size(), 1);
  }

  ReplicationResult run() {
    ReplicationResult result;
    // Server (edge) links are routing-independent: if any is oversubscribed,
    // no routing helps.
    if (!edge_links_feasible()) {
      result.nodes_explored = nodes_;
      return result;
    }
    result.feasible = place(0, 0);
    result.nodes_explored = nodes_;
    if (result.feasible) result.routing = assignment_;
    return result;
  }

 private:
  [[nodiscard]] std::size_t up_index(int tor, int m) const {
    return static_cast<std::size_t>(tor - 1) * net_.num_middles() + (m - 1);
  }
  [[nodiscard]] std::size_t down_index(int m, int tor) const {
    return static_cast<std::size_t>(m - 1) * net_.num_tors() + (tor - 1);
  }

  [[nodiscard]] bool edge_links_feasible() const {
    std::vector<Rational> src_load(net_.topology().num_links(), Rational{0});
    for (FlowIndex f = 0; f < flows_.size(); ++f) {
      const auto s = net_.source_coord(flows_[f].src);
      const auto t = net_.dest_coord(flows_[f].dst);
      src_load[static_cast<std::size_t>(net_.source_link(s.tor, s.server))] += rates_[f];
      src_load[static_cast<std::size_t>(net_.dest_link(t.tor, t.server))] += rates_[f];
    }
    for (std::size_t l = 0; l < src_load.size(); ++l) {
      const Link& link = net_.topology().link(static_cast<LinkId>(l));
      if (link.unbounded) continue;
      if (link.capacity < src_load[l]) return false;
    }
    return true;
  }

  // Place flows order_[depth..]; `opened` counts the pool entries some
  // placed flow already uses (symmetry canon: pool entries open in order).
  bool place(std::size_t depth, std::size_t opened) {
    if (depth == order_.size()) return true;
    if (++nodes_ > options_.max_nodes) {
      throw ContractViolation("replication search exceeded max_nodes");
    }
    const FlowIndex f = order_[depth];
    const Rational& rate = rates_[f];
    const auto s = net_.source_coord(flows_[f].src);
    const auto t = net_.dest_coord(flows_[f].dst);

    const std::size_t limit = canonical_ ? std::min(opened + 1, pool_.size()) : pool_.size();
    for (std::size_t k = 0; k < limit; ++k) {
      const int m = pool_[k];
      Rational& up = up_residual_[up_index(s.tor, m)];
      Rational& down = down_residual_[down_index(m, t.tor)];
      if (up < rate || down < rate) continue;
      up -= rate;
      down -= rate;
      assignment_[f] = m;
      if (place(depth + 1, std::max(opened, k + 1))) return true;
      up += rate;
      down += rate;
    }
    return false;
  }

  const ClosNetwork& net_;
  const FlowSet& flows_;
  const std::vector<Rational>& rates_;
  const ReplicationOptions& options_;
  std::vector<int> pool_;
  bool canonical_ = false;
  std::vector<Rational> up_residual_;
  std::vector<Rational> down_residual_;
  std::vector<FlowIndex> order_;
  MiddleAssignment assignment_;
  std::uint64_t nodes_ = 0;
};

}  // namespace

ReplicationResult find_feasible_routing(const ClosNetwork& net, const FlowSet& flows,
                                        const std::vector<Rational>& rates,
                                        const ReplicationOptions& options) {
  CF_CHECK_MSG(rates.size() == flows.size(),
               "rates cover " << rates.size() << " flows, expected " << flows.size());
  for (const Rational& r : rates) {
    CF_CHECK_MSG(!r.is_negative(), "negative target rate");
  }
  Search search(net, flows, rates, options);
  return search.run();
}

}  // namespace closfair
