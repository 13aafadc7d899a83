#include "core/candidate_index.h"

#include <algorithm>
#include <cstdint>

#include "util/string_util.h"

namespace pullmon {

CandidateIndex::CandidateIndex(int num_resources, Chronon epoch_length)
    : num_resources_(num_resources < 0 ? 0 : num_resources),
      epoch_length_(epoch_length < 0 ? 0 : epoch_length),
      starting_at_(static_cast<std::size_t>(epoch_length_)),
      ending_at_(static_cast<std::size_t>(epoch_length_)),
      live_on_resource_(static_cast<std::size_t>(num_resources_)),
      in_play_(static_cast<std::size_t>(num_resources_), false) {}

int CandidateIndex::AddEi(const ExecutionInterval& ei, int t_id,
                          int ei_index) {
  PULLMON_CHECK(ei.resource >= 0 && ei.resource < num_resources_);
  PULLMON_CHECK(ei.start >= activated_until_ && ei.finish < epoch_length_);
  int flat_id = static_cast<int>(eis_.size());
  eis_.push_back(IndexedEi{ei, t_id, ei_index, false});
  starting_at_[static_cast<std::size_t>(ei.start)].push_back(flat_id);
  ending_at_[static_cast<std::size_t>(ei.finish)].push_back(flat_id);
  return flat_id;
}

void CandidateIndex::ActivateArrivals(Chronon now) {
  PULLMON_CHECK(now >= activated_until_);
  activated_until_ = now + 1;
  for (int id : starting_at_[static_cast<std::size_t>(now)]) {
    const IndexedEi& flat = eis_[static_cast<std::size_t>(id)];
    if (flat.dead) continue;
    const ResourceId r = flat.ei.resource;
    live_on_resource_[static_cast<std::size_t>(r)].push_back(id);
    if (!in_play_[static_cast<std::size_t>(r)]) {
      in_play_[static_cast<std::size_t>(r)] = true;
      active_resources_.push_back(r);
    }
  }
}

Status CandidateIndex::CheckInvariants() const {
  std::vector<int> list_occurrences(eis_.size(), 0);
  for (ResourceId r = 0; r < num_resources_; ++r) {
    const auto& bucket = live_on_resource_[static_cast<std::size_t>(r)];
    bool holds_live = false;
    for (int id : bucket) {
      if (id < 0 || id >= static_cast<int>(eis_.size())) {
        return Status::InvalidArgument(StringFormat(
            "resource %d live list holds out-of-range flat id %d", r, id));
      }
      const IndexedEi& flat = eis_[static_cast<std::size_t>(id)];
      if (flat.ei.resource != r) {
        return Status::InvalidArgument(StringFormat(
            "flat id %d (resource %d) filed under resource %d's live list",
            id, flat.ei.resource, r));
      }
      ++list_occurrences[static_cast<std::size_t>(id)];
      holds_live = holds_live || !flat.dead;
    }
    if (holds_live && !in_play_[static_cast<std::size_t>(r)]) {
      return Status::InvalidArgument(StringFormat(
          "resource %d holds live candidates but is not in play", r));
    }
  }
  // A resource flagged in play must actually sit on the active list.
  std::vector<uint8_t> on_active_list(
      static_cast<std::size_t>(num_resources_), 0);
  for (ResourceId r : active_resources_) {
    if (r < 0 || r >= num_resources_) {
      return Status::InvalidArgument(
          StringFormat("active-resource list holds bogus resource %d", r));
    }
    on_active_list[static_cast<std::size_t>(r)] = 1;
  }
  for (ResourceId r = 0; r < num_resources_; ++r) {
    if (in_play_[static_cast<std::size_t>(r)] &&
        !on_active_list[static_cast<std::size_t>(r)]) {
      return Status::InvalidArgument(StringFormat(
          "resource %d flagged in play but missing from the active list",
          r));
    }
  }
  for (std::size_t id = 0; id < eis_.size(); ++id) {
    const IndexedEi& flat = eis_[id];
    // Activated and never dead: exactly one slot. Dead after activation:
    // at most one, pending compaction. Not yet activated: none.
    const int slots = flat.ei.start < activated_until_ ? 1 : 0;
    const int seen = list_occurrences[id];
    if (flat.dead ? seen > slots : seen != slots) {
      return Status::InvalidArgument(StringFormat(
          "%s flat id %zu (start %d, watermark %d) appears %d times in "
          "resource %d's live list",
          flat.dead ? "dead" : "live", id, flat.ei.start, activated_until_,
          seen, flat.ei.resource));
    }
  }
  return Status::OK();
}

std::size_t CandidateIndex::SelectTopResources(
    std::vector<ResourceCandidate>* entries, int budget) {
  auto key_less = [](const ResourceCandidate& a,
                     const ResourceCandidate& b) {
    if (a.np_class != b.np_class) return a.np_class < b.np_class;
    if (a.score != b.score) return a.score < b.score;
    if (a.deadline != b.deadline) return a.deadline < b.deadline;
    return a.flat_id < b.flat_id;
  };
  if (budget <= 0) return 0;
  std::size_t take = std::min(entries->size(),
                              static_cast<std::size_t>(budget));
  if (take < entries->size()) {
    std::nth_element(entries->begin(),
                     entries->begin() + static_cast<std::ptrdiff_t>(take),
                     entries->end(), key_less);
  }
  std::sort(entries->begin(),
            entries->begin() + static_cast<std::ptrdiff_t>(take), key_less);
  return take;
}

}  // namespace pullmon
