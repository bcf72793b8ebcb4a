#include "src/protocols/arena.h"

#include <algorithm>
#include <utility>

namespace gridbox::protocols {

StateArena::StateArena(std::shared_ptr<const std::vector<MemberId>> members)
    : StateArena(std::move(members), /*solo=*/false) {}

StateArena::StateArena(std::shared_ptr<const std::vector<MemberId>> members,
                       bool solo)
    : members_(std::move(members)), solo_(solo) {
  expects(members_ != nullptr && !members_->empty(),
          "arena needs at least one member");
  if (!solo_) {
    for (std::size_t i = 0; i < members_->size(); ++i) {
      expects((*members_)[i].value() == i,
              "shared arena requires dense member ids (slot == id)");
    }
  }
  const std::size_t n = members_->size();
  vote_.assign(n, 0.0);
  audit_token_.assign(n, 0);
  phase_.assign(n, 0);
  round_.assign(n, 0);
  rounds_budget_.assign(n, 0);
}

StateArena StateArena::solo(MemberId self) {
  auto members = std::make_shared<const std::vector<MemberId>>(
      std::vector<MemberId>{self});
  return StateArena(std::move(members), /*solo=*/true);
}

void StateArena::recycle(
    std::shared_ptr<const std::vector<MemberId>> members,
    const hierarchy::GridBoxHierarchy& hier) {
  expects(!solo_, "recycle needs a shared (dense) arena");
  expects(members != nullptr && members->size() == members_->size(),
          "recycle requires the same group size");
  for (std::size_t i = 0; i < members->size(); ++i) {
    expects((*members)[i].value() == i,
            "shared arena requires dense member ids (slot == id)");
  }
  members_ = std::move(members);
  std::fill(vote_.begin(), vote_.end(), 0.0);
  std::fill(audit_token_.begin(), audit_token_.end(), 0);
  std::fill(phase_.begin(), phase_.end(), 0);
  std::fill(round_.begin(), round_.end(), 0);
  std::fill(rounds_budget_.begin(), rounds_budget_.end(), 0);
  phase_order_.clear();
  build_phase_tables(hier);
}

void StateArena::build_phase_tables(const hierarchy::GridBoxHierarchy& hier) {
  if (has_phase_tables()) return;
  expects(!solo_, "phase tables need a shared (dense) arena");
  const std::size_t n = members_->size();
  const std::size_t phases = hier.num_phases();
  phase_order_.resize(phases);
  std::vector<std::uint64_t> keys(n);
  for (std::size_t p = 1; p <= phases; ++p) {
    PhaseTable& t = phase_order_[p - 1];
    for (std::size_t i = 0; i < n; ++i) {
      keys[i] = hier.phase_group((*members_)[i], p);
    }
    t.order = *members_;
    // Stable: within one group, members stay ascending by id — the exact
    // order the per-node phase_peers vectors had.
    std::stable_sort(t.order.begin(), t.order.end(),
                     [&keys](MemberId a, MemberId b) {
                       return keys[a.value()] < keys[b.value()];
                     });
    t.offset.resize(n);
    t.size.resize(n);
    t.pos.resize(n);
    std::size_t start = 0;
    while (start < n) {
      std::size_t end = start + 1;
      const std::uint64_t group = keys[t.order[start].value()];
      while (end < n && keys[t.order[end].value()] == group) ++end;
      for (std::size_t i = start; i < end; ++i) {
        const std::size_t m = t.order[i].value();
        t.offset[m] = static_cast<std::uint32_t>(start);
        t.size[m] = static_cast<std::uint32_t>(end - start);
        t.pos[m] = static_cast<std::uint32_t>(i - start);
      }
      start = end;
    }
  }
}

}  // namespace gridbox::protocols
