// Voice-request classification, matching the categories the paper uses to
// analyze its deployment logs (Table III and Figure 9).
#ifndef VQ_NLU_CLASSIFIER_H_
#define VQ_NLU_CLASSIFIER_H_

#include <string>

#include "nlu/extractor.h"

namespace vq {

/// Table III's request categories.
enum class RequestType {
  kHelp,              ///< asks how to use the system
  kRepeat,            ///< asks to repeat the last output
  kSupportedQuery,    ///< data-access query the engine can answer (S-Query)
  kUnsupportedQuery,  ///< data-access query outside the model (U-Query)
  kOther,
};

/// Figure 9(b)'s data-access query kinds.
enum class QueryKind {
  kRetrieval,   ///< average value for a subset (supported)
  kComparison,  ///< relative comparison of two subsets (unsupported)
  kExtremum,    ///< maxima/minima (unsupported)
};

const char* RequestTypeName(RequestType type);
const char* QueryKindName(QueryKind kind);

/// Classification outcome for one request string.
struct ClassifiedRequest {
  RequestType type = RequestType::kOther;
  QueryKind kind = QueryKind::kRetrieval;  ///< meaningful for query types
  ExtractedQuery query;                    ///< extraction result
};

/// \brief Classifies request strings using keyword rules plus the extractor.
///
/// A request is a supported query when it is retrieval-shaped, grounds a
/// target column, and stays within `max_predicates` equality predicates.
class RequestClassifier {
 public:
  RequestClassifier(const QueryExtractor* extractor, int max_predicates)
      : extractor_(extractor), max_predicates_(max_predicates) {}

  ClassifiedRequest Classify(const std::string& text) const;

  /// Same keyword rules, for a request whose extraction the caller already
  /// holds: `query` must be this classifier's extractor's Extract(text) (a
  /// router passes the winning dataset's walk), so no second walk runs.
  ClassifiedRequest Classify(const std::string& text, ExtractedQuery query) const;

 private:
  const QueryExtractor* extractor_;
  int max_predicates_;
};

}  // namespace vq

#endif  // VQ_NLU_CLASSIFIER_H_
