#include "learners/rule.hpp"

#include <cmath>
#include <cstdio>

namespace dml::learners {

std::string_view to_string(RuleSource source) {
  switch (source) {
    case RuleSource::kAssociation: return "association";
    case RuleSource::kStatistical: return "statistical";
    case RuleSource::kDistribution: return "distribution";
    case RuleSource::kCorrelation: return "correlation";
  }
  return "unknown";
}

RuleSource Rule::source() const {
  struct Visitor {
    RuleSource operator()(const AssociationRule&) const {
      return RuleSource::kAssociation;
    }
    RuleSource operator()(const StatisticalRule&) const {
      return RuleSource::kStatistical;
    }
    RuleSource operator()(const DistributionRule&) const {
      return RuleSource::kDistribution;
    }
    RuleSource operator()(const CorrelationChainRule&) const {
      return RuleSource::kCorrelation;
    }
  };
  return std::visit(Visitor{}, body_);
}

std::string Rule::identity() const {
  struct Visitor {
    std::string operator()(const AssociationRule& r) const {
      std::string id = "AR:";
      for (CategoryId c : r.antecedent) {
        id += std::to_string(c);
        id += ',';
      }
      id += "->";
      id += std::to_string(r.consequent);
      return id;
    }
    std::string operator()(const StatisticalRule& r) const {
      return "SR:k=" + std::to_string(r.k);
    }
    std::string operator()(const DistributionRule& r) const {
      // Bucket the trigger to the hour so refits with materially similar
      // behaviour count as the same rule.
      return std::string("PD:") + std::string(r.model.family_name()) + ":h" +
             std::to_string(r.elapsed_trigger / kSecondsPerHour);
    }
    std::string operator()(const CorrelationChainRule& r) const {
      // Order matters: the same stage set in a different order is a
      // different chain, so '>' separators (not the AR form's commas).
      std::string id = "CC:";
      for (std::size_t i = 0; i < r.chain.size(); ++i) {
        if (i != 0) id += '>';
        id += std::to_string(r.chain[i]);
      }
      id += "->";
      id += std::to_string(r.consequent);
      return id;
    }
  };
  return std::visit(Visitor{}, body_);
}

std::string Rule::describe(const bgl::Taxonomy& taxonomy) const {
  struct Visitor {
    const bgl::Taxonomy& tax;
    std::string operator()(const AssociationRule& r) const {
      std::string out;
      for (std::size_t i = 0; i < r.antecedent.size(); ++i) {
        if (i != 0) out += ", ";
        out += tax.category(r.antecedent[i]).name;
      }
      char buf[64];
      std::snprintf(buf, sizeof(buf), ": %.2f", r.confidence);
      out += " -> " + tax.category(r.consequent).name + buf;
      return out;
    }
    std::string operator()(const StatisticalRule& r) const {
      char buf[96];
      std::snprintf(buf, sizeof(buf),
                    "%d failures within window -> another failure: %.2f", r.k,
                    r.probability);
      return buf;
    }
    std::string operator()(const DistributionRule& r) const {
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "%s CDF(elapsed) > %.2f (elapsed >= %lld s) -> failure",
                    std::string(r.model.family_name()).c_str(),
                    r.cdf_threshold,
                    static_cast<long long>(r.elapsed_trigger));
      return buf;
    }
    std::string operator()(const CorrelationChainRule& r) const {
      std::string out;
      for (std::size_t i = 0; i < r.chain.size(); ++i) {
        if (i != 0) out += " > ";
        out += tax.category(r.chain[i]).name;
      }
      char buf[64];
      std::snprintf(buf, sizeof(buf), ": %.2f", r.confidence);
      out += " => " + tax.category(r.consequent).name + buf;
      return out;
    }
  };
  return std::visit(Visitor{taxonomy}, body_);
}

}  // namespace dml::learners
