// Immutable rule snapshots.  Retraining builds a fresh
// KnowledgeRepository off to the side (on ThreadPool::shared() in
// ShardedEngine) and freezes it behind a shared_ptr-to-const; every
// serving shard adopts the same pointer, and a reader keeps a valid rule
// set for as long as it holds it.  This is what lets the prediction path
// keep serving the old rule set while the next one is being mined (paper
// Table 5, Observation #8).
#pragma once

#include <memory>
#include <utility>

#include "meta/knowledge_repository.hpp"

namespace dml::meta {

/// An immutable, shareable rule set.  Every consumer (Predictor,
/// reporting, tests) reads through the const interface; mutation happens
/// only while a build owns the repository exclusively, before freezing.
using RepositorySnapshot = std::shared_ptr<const KnowledgeRepository>;

/// A process-wide empty snapshot, so readers never observe nullptr.
RepositorySnapshot empty_snapshot();

/// Freezes a mutable repository into a snapshot.
inline RepositorySnapshot freeze(KnowledgeRepository repository) {
  return std::make_shared<const KnowledgeRepository>(std::move(repository));
}

}  // namespace dml::meta
