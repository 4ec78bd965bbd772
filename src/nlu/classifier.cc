#include "nlu/classifier.h"

#include <utility>

#include "util/string_util.h"

namespace vq {

const char* RequestTypeName(RequestType type) {
  switch (type) {
    case RequestType::kHelp: return "Help";
    case RequestType::kRepeat: return "Repeat";
    case RequestType::kSupportedQuery: return "S-Query";
    case RequestType::kUnsupportedQuery: return "U-Query";
    case RequestType::kOther: return "Other";
  }
  return "?";
}

const char* QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kRetrieval: return "Retrieval";
    case QueryKind::kComparison: return "Comparison";
    case QueryKind::kExtremum: return "Extremum";
  }
  return "?";
}

ClassifiedRequest RequestClassifier::Classify(const std::string& text) const {
  return Classify(text, extractor_->Extract(text));
}

ClassifiedRequest RequestClassifier::Classify(const std::string& text,
                                              ExtractedQuery query) const {
  ClassifiedRequest out;
  std::string lower = ToLower(text);

  auto contains_any = [&lower](std::initializer_list<const char*> needles) {
    for (const char* needle : needles) {
      if (lower.find(needle) != std::string::npos) return true;
    }
    return false;
  };

  if (contains_any({"help", "how do i", "what can i", "what can you",
                    "instructions"})) {
    out.type = RequestType::kHelp;
    return out;
  }
  if (contains_any({"repeat", "say that again", "again please", "once more"})) {
    out.type = RequestType::kRepeat;
    return out;
  }

  bool comparison = contains_any({"compare", "comparison", "versus", " vs ",
                                  "difference between", "between"});
  bool extremum = contains_any({"highest", "lowest", "most", "least", "best",
                                "worst", "maximum", "minimum", "max ", "min "});

  out.query = std::move(query);
  bool data_access = out.query.HasTarget() || !out.query.predicates.empty();

  if (!data_access) {
    out.type = RequestType::kOther;
    return out;
  }
  if (comparison) {
    out.kind = QueryKind::kComparison;
    out.type = RequestType::kUnsupportedQuery;
    return out;
  }
  if (extremum) {
    out.kind = QueryKind::kExtremum;
    out.type = RequestType::kUnsupportedQuery;
    return out;
  }
  out.kind = QueryKind::kRetrieval;
  // Retrieval queries are supported when a target grounds, the predicate
  // count stays within the pre-processing budget, and no content tokens were
  // left unresolved (queries about unavailable data fall out here).
  bool supported = out.query.HasTarget() &&
                   static_cast<int>(out.query.predicates.size()) <= max_predicates_ &&
                   out.query.unmatched_tokens.empty();
  out.type = supported ? RequestType::kSupportedQuery : RequestType::kUnsupportedQuery;
  return out;
}

}  // namespace vq
