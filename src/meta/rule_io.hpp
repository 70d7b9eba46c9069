// Text serialization of the knowledge repository, so a trained rule set
// can be shipped from the (offline, parallel) rule-generation host to
// the online predictor — the deployment split the paper describes in
// §5.2.4 ("the rule generation process can be conducted in parallel when
// the production system is in operation").
//
// Format: one rule per line, pipe-delimited, self-describing:
//   AR|<confidence>|<support>|<consequent-name>|<antecedent-name>,...
//   SR|<k>|<probability>
//   PD|<family>|<param1>|<param2>|<cdf_threshold>|<elapsed_trigger>
//   CC|<confidence>|<support>|<stage_window>|<consequent-name>|<stage>,...
//     (stages ordered, NOT sorted — chain order is the rule)
// with a header line `# DML-RULES v2` and '#' comments allowed.
// Version history: v1 lacked the CC line type; v1 files still read back
// (the reader accepts either header), and writers always emit the
// current version.  DT and NN lines, written by the retired classifier
// experts, are rejected as malformed under either header.
#pragma once

#include <istream>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>

#include "meta/knowledge_repository.hpp"

namespace dml::meta {

/// Serializes one rule (without its id / training annotations).
std::string rule_to_line(const learners::Rule& rule,
                         const bgl::Taxonomy& taxonomy = bgl::taxonomy());

/// Parses one rule line; nullopt on malformed input or unknown category
/// names.
std::optional<learners::Rule> rule_from_line(
    std::string_view line, const bgl::Taxonomy& taxonomy = bgl::taxonomy());

/// Writes the whole repository (ids and training counts are not
/// persisted; they are re-derived by the reviser after loading).
void write_rules(std::ostream& out, const KnowledgeRepository& repository,
                 const bgl::Taxonomy& taxonomy = bgl::taxonomy());

/// Reads a repository; throws std::runtime_error with a line number on
/// malformed input.
KnowledgeRepository read_rules(std::istream& in,
                               const bgl::Taxonomy& taxonomy = bgl::taxonomy());

}  // namespace dml::meta
