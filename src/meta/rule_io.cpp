#include "meta/rule_io.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "common/string_util.hpp"

namespace dml::meta {
namespace {

// v2 added the CC (correlation chain) line type.  Writers emit the
// current version; the reader accepts any known one, so rule files
// produced before the chain learner existed still load.
constexpr std::string_view kHeaderV1 = "# DML-RULES v1";
constexpr std::string_view kHeaderV2 = "# DML-RULES v2";

std::string format_double(double value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  return buf;
}

std::optional<learners::Rule> parse_association(
    const std::vector<std::string_view>& fields,
    const bgl::Taxonomy& taxonomy) {
  if (fields.size() != 5) return std::nullopt;
  const auto confidence = parse_number<double>(fields[1]);
  const auto support = parse_number<double>(fields[2]);
  const auto consequent = taxonomy.find_by_name(fields[3]);
  if (!confidence || !support || !consequent) return std::nullopt;

  learners::AssociationRule rule;
  rule.confidence = *confidence;
  rule.support = *support;
  rule.consequent = *consequent;
  for (std::string_view name : split(fields[4], ',')) {
    const auto id = taxonomy.find_by_name(name);
    if (!id) return std::nullopt;
    rule.antecedent.push_back(*id);
  }
  if (rule.antecedent.empty()) return std::nullopt;
  std::sort(rule.antecedent.begin(), rule.antecedent.end());
  return learners::Rule{std::move(rule)};
}

std::optional<learners::Rule> parse_statistical(
    const std::vector<std::string_view>& fields) {
  if (fields.size() != 3) return std::nullopt;
  const auto k = parse_number<std::int64_t>(fields[1]);
  const auto probability = parse_number<double>(fields[2]);
  if (!k || *k < 1 || !probability) return std::nullopt;
  // Built inside the optional: moving a Rule that holds a StatisticalRule
  // trips GCC 12's -Wmaybe-uninitialized (see learners::Rule).
  return std::make_optional<learners::Rule>(
      learners::StatisticalRule{static_cast<int>(*k), *probability});
}

// GCC 12's -Wmaybe-uninitialized false-positives on copying a variant
// whose active alternative is smaller than the storage (the Exponential
// arm of LifetimeModel); the tail bytes it flags are never read.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
std::optional<learners::Rule> parse_distribution(
    const std::vector<std::string_view>& fields) {
  if (fields.size() != 6) return std::nullopt;
  const auto p1 = parse_number<double>(fields[2]);
  const auto p2 = parse_number<double>(fields[3]);
  const auto threshold = parse_number<double>(fields[4]);
  const auto trigger = parse_number<std::int64_t>(fields[5]);
  if (!p1 || !p2 || !threshold || !trigger) return std::nullopt;

  learners::DistributionRule rule;
  if (fields[1] == "weibull") {
    rule.model = stats::LifetimeModel{
        stats::LifetimeModel::Variant(stats::Weibull{*p1, *p2})};
  } else if (fields[1] == "exponential") {
    rule.model = stats::LifetimeModel{
        stats::LifetimeModel::Variant(stats::Exponential{*p1})};
  } else if (fields[1] == "lognormal") {
    rule.model = stats::LifetimeModel{
        stats::LifetimeModel::Variant(stats::LogNormal{*p1, *p2})};
  } else {
    return std::nullopt;
  }
  rule.cdf_threshold = *threshold;
  rule.elapsed_trigger = *trigger;
  return learners::Rule{std::move(rule)};
}
#pragma GCC diagnostic pop

std::optional<learners::Rule> parse_correlation(
    const std::vector<std::string_view>& fields,
    const bgl::Taxonomy& taxonomy) {
  if (fields.size() != 6) return std::nullopt;
  const auto confidence = parse_number<double>(fields[1]);
  const auto support = parse_number<double>(fields[2]);
  const auto stage_window = parse_number<std::int64_t>(fields[3]);
  const auto consequent = taxonomy.find_by_name(fields[4]);
  if (!confidence || !support || !stage_window || *stage_window <= 0 ||
      !consequent) {
    return std::nullopt;
  }

  learners::CorrelationChainRule rule;
  rule.confidence = *confidence;
  rule.support = *support;
  rule.stage_window = *stage_window;
  rule.consequent = *consequent;
  for (std::string_view name : split(fields[5], ',')) {
    const auto id = taxonomy.find_by_name(name);
    if (!id) return std::nullopt;
    rule.chain.push_back(*id);
  }
  // Unlike the AR antecedent, the chain is ordered — no sort.
  if (rule.chain.empty()) return std::nullopt;
  return learners::Rule{std::move(rule)};
}

}  // namespace

std::string rule_to_line(const learners::Rule& rule,
                         const bgl::Taxonomy& taxonomy) {
  struct Visitor {
    const bgl::Taxonomy& tax;

    std::string operator()(const learners::AssociationRule& r) const {
      std::string line = "AR|" + format_double(r.confidence) + '|' +
                         format_double(r.support) + '|' +
                         tax.category(r.consequent).name + '|';
      for (std::size_t i = 0; i < r.antecedent.size(); ++i) {
        if (i != 0) line += ',';
        line += tax.category(r.antecedent[i]).name;
      }
      return line;
    }
    std::string operator()(const learners::StatisticalRule& r) const {
      return "SR|" + std::to_string(r.k) + '|' + format_double(r.probability);
    }
    std::string operator()(const learners::DistributionRule& r) const {
      double p1 = 0.0, p2 = 0.0;
      struct Params {
        double& p1;
        double& p2;
        void operator()(const stats::Weibull& w) const {
          p1 = w.shape;
          p2 = w.scale;
        }
        void operator()(const stats::Exponential& e) const {
          p1 = e.rate;
          p2 = 0.0;
        }
        void operator()(const stats::LogNormal& l) const {
          p1 = l.mu;
          p2 = l.sigma;
        }
      };
      std::visit(Params{p1, p2}, r.model.variant());
      return "PD|" + std::string(r.model.family_name()) + '|' +
             format_double(p1) + '|' + format_double(p2) + '|' +
             format_double(r.cdf_threshold) + '|' +
             std::to_string(r.elapsed_trigger);
    }
    std::string operator()(const learners::CorrelationChainRule& r) const {
      std::string line = "CC|" + format_double(r.confidence) + '|' +
                         format_double(r.support) + '|' +
                         std::to_string(r.stage_window) + '|' +
                         tax.category(r.consequent).name + '|';
      for (std::size_t i = 0; i < r.chain.size(); ++i) {
        if (i != 0) line += ',';
        line += tax.category(r.chain[i]).name;
      }
      return line;
    }
  };
  return std::visit(Visitor{taxonomy}, rule.body());
}

std::optional<learners::Rule> rule_from_line(std::string_view line,
                                             const bgl::Taxonomy& taxonomy) {
  const auto fields = split(line, '|');
  if (fields.empty()) return std::nullopt;
  if (fields[0] == "AR") return parse_association(fields, taxonomy);
  if (fields[0] == "SR") return parse_statistical(fields);
  if (fields[0] == "PD") return parse_distribution(fields);
  if (fields[0] == "CC") return parse_correlation(fields, taxonomy);
  // Anything else is malformed, including the DT and NN lines of the
  // retired classifier experts that older v1/v2 files may carry.
  return std::nullopt;
}

void write_rules(std::ostream& out, const KnowledgeRepository& repository,
                 const bgl::Taxonomy& taxonomy) {
  out << kHeaderV2 << '\n';
  for (const auto& stored : repository.rules()) {
    out << rule_to_line(stored.rule, taxonomy) << '\n';
  }
}

KnowledgeRepository read_rules(std::istream& in,
                               const bgl::Taxonomy& taxonomy) {
  KnowledgeRepository repository;
  std::string line;
  std::size_t line_number = 0;
  bool saw_header = false;
  while (std::getline(in, line)) {
    ++line_number;
    const std::string_view view = trim(line);
    if (view.empty()) continue;
    if (view.front() == '#') {
      if (view == kHeaderV1 || view == kHeaderV2) saw_header = true;
      continue;
    }
    if (!saw_header) {
      throw std::runtime_error("rules file: missing '# DML-RULES' header");
    }
    auto rule = rule_from_line(view, taxonomy);
    if (!rule) {
      throw std::runtime_error("rules file: malformed rule at line " +
                               std::to_string(line_number));
    }
    repository.add(std::move(*rule));
  }
  return repository;
}

}  // namespace dml::meta
