#include "meta/knowledge_repository.hpp"

#include <algorithm>
#include <unordered_set>

namespace dml::meta {

std::uint64_t KnowledgeRepository::add(learners::Rule rule) {
  return rules_.emplace_back(next_id_++, std::move(rule)).id;
}

bool KnowledgeRepository::remove(std::uint64_t id) {
  const auto it =
      std::find_if(rules_.begin(), rules_.end(),
                   [id](const StoredRule& r) { return r.id == id; });
  if (it == rules_.end()) return false;
  rules_.erase(it);
  return true;
}

StoredRule* KnowledgeRepository::find(std::uint64_t id) {
  for (auto& r : rules_) {
    if (r.id == id) return &r;
  }
  return nullptr;
}

const StoredRule* KnowledgeRepository::find(std::uint64_t id) const {
  for (const auto& r : rules_) {
    if (r.id == id) return &r;
  }
  return nullptr;
}

std::size_t KnowledgeRepository::count_by_source(
    learners::RuleSource source) const {
  return static_cast<std::size_t>(
      std::count_if(rules_.begin(), rules_.end(), [&](const StoredRule& r) {
        return r.rule.source() == source;
      }));
}

KnowledgeRepository::Churn KnowledgeRepository::diff(
    const KnowledgeRepository& before, const KnowledgeRepository& after) {
  std::unordered_set<std::string> old_ids;
  for (const auto& r : before.rules_) old_ids.insert(r.rule.identity());
  std::unordered_set<std::string> new_ids;
  for (const auto& r : after.rules_) new_ids.insert(r.rule.identity());

  Churn churn;
  for (const auto& id : new_ids) {
    if (old_ids.contains(id)) {
      ++churn.unchanged;
    } else {
      ++churn.added;
    }
  }
  for (const auto& id : old_ids) {
    if (!new_ids.contains(id)) ++churn.removed;
  }
  return churn;
}

}  // namespace dml::meta
