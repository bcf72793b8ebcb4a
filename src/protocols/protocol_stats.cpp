#include "src/protocols/protocol_stats.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "src/common/ensure.h"

namespace gridbox::protocols {

namespace {

// Relative comparison for the additive moments: the oracle re-merges in
// audit-bit order while the protocol merged in arrival order, so
// floating-point sums may differ in the last bits.
bool close_rel(double a, double b) {
  const double scale = std::max({std::abs(a), std::abs(b), 1.0});
  return std::abs(a - b) <= 1e-9 * scale;
}

/// Re-merges the votes named by `token`'s audited member set. O(set size),
/// via the registry's window iteration — never scans the whole universe.
agg::Partial reconstruct_partial(const agg::VoteTable& votes,
                                 const agg::AuditRegistry& audit,
                                 std::uint64_t token) {
  agg::Partial exact;
  audit.for_each_member(token, [&votes, &exact](MemberId m) {
    exact.merge(agg::Partial::from_vote(votes.of(m)));
  });
  return exact;
}

bool partial_matches(const agg::Partial& exact, const agg::Partial& estimate) {
  if (exact.count() != estimate.count()) return false;
  if (exact.count() == 0) return true;
  return exact.min() == estimate.min() && exact.max() == estimate.max() &&
         close_rel(exact.sum(), estimate.sum()) &&
         close_rel(exact.sum_squares(), estimate.sum_squares());
}

}  // namespace

RunMeasurement measure_run(
    const membership::Group& group,
    const std::vector<std::unique_ptr<ProtocolNode>>& nodes,
    const agg::VoteTable& votes, agg::AggregateKind kind,
    const net::NetworkStats& net_stats, const agg::AuditRegistry* audit) {
  expects(nodes.size() == group.size(), "one node per group member expected");

  RunMeasurement m;
  m.group_size = group.size();
  m.network_messages = net_stats.messages_sent;
  m.true_value = votes.exact_partial_all().value(kind);

  const auto n = static_cast<double>(group.size());
  double completeness_sum = 0.0;
  double error_sum = 0.0;
  double min_completeness = 1.0;

  // Reconstruction oracle, memoized by audit record: content-identical
  // audit sets share one dedup record, so at saturation (every node holding
  // the same root set) the O(N) re-merge happens once, not N times.
  std::unordered_map<std::size_t, agg::Partial> exact_by_record;

  for (const auto& node : nodes) {
    m.max_rounds = std::max(m.max_rounds, node->rounds_executed());
    if (!group.is_alive(node->self())) continue;
    ++m.survivors;

    double completeness = 0.0;
    if (node->finished()) {
      ++m.finished_nodes;
      const NodeOutcome& out = node->outcome();
      completeness = static_cast<double>(out.estimate.count()) / n;
      if (!out.estimate.empty()) {
        error_sum += std::abs(out.estimate.value(kind) - m.true_value);
      }
      m.last_finish = std::max(m.last_finish, out.finish_time);
      if (audit != nullptr && out.audit_token != agg::kNoAuditToken) {
        // Cross-check: the count-based completeness must equal the audited
        // provenance set size, or the partial was corrupted along the way.
        ensures(audit->votes_behind(out.audit_token) == out.estimate.count(),
                "estimate count disagrees with audited vote set");
        const std::size_t rec = audit->record_of(out.audit_token);
        auto [it, fresh] = exact_by_record.try_emplace(rec);
        if (fresh) {
          it->second = reconstruct_partial(votes, *audit, out.audit_token);
        }
        if (!partial_matches(it->second, out.estimate)) {
          ++m.reconstruction_failures;
        }
      }
    }
    completeness_sum += completeness;
    min_completeness = std::min(min_completeness, completeness);
  }

  if (m.survivors > 0) {
    m.mean_completeness = completeness_sum / static_cast<double>(m.survivors);
    m.min_completeness = min_completeness;
  }
  m.mean_incompleteness = 1.0 - m.mean_completeness;
  if (m.finished_nodes > 0) {
    m.mean_abs_error = error_sum / static_cast<double>(m.finished_nodes);
  }
  if (audit != nullptr) m.audit_violations = audit->violation_count();
  return m;
}

bool estimate_reconstructs(const ProtocolNode& node,
                           const agg::VoteTable& votes,
                           const agg::AuditRegistry& audit) {
  if (!node.finished()) return true;
  const NodeOutcome& out = node.outcome();
  if (out.audit_token == agg::kNoAuditToken) return true;
  return partial_matches(reconstruct_partial(votes, audit, out.audit_token),
                         out.estimate);
}

}  // namespace gridbox::protocols
