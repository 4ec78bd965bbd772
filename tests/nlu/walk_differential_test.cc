// Routing and grounding against the vocabulary walk they replaced.
//
// The reference below is the extractor's former implementation, kept here
// only: every request re-tokenized into a vector of strings, one candidate
// vector built per phrase length and looked up in a
// std::map<std::vector<std::string>, Grounding>, the router scoring each
// dataset with its own walk and the winning host classifying with another.
// Over the benchmark fleet's 210 configured queries and over 10k seeded
// mutants of them, the flat-hash walk over once-tokenized text must produce
// the same route (host and score bits), the same extraction, the same
// coverage and the same classification.
#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "nlu/classifier.h"
#include "nlu/extractor.h"
#include "serve/registry.h"
#include "serve/router.h"
#include "testing/utterances.h"
#include "util/string_util.h"

namespace vq {
namespace {

using serve::DatasetRegistry;
using serve::RouterOptions;
using serve::RoutingService;

// ------------------------------------------------------------ the reference

bool RefIsStopWord(const std::string& token) {
  static const char* const kStopWords[] = {
      "the", "a",  "an", "in", "on",  "of",  "for", "about", "what", "whats",
      "is",  "are", "how", "much", "many", "me",  "tell", "show",  "give",
      "please", "average", "rate", "per", "and", "to", "by"};
  for (const char* w : kStopWords) {
    if (token == w) return true;
  }
  return false;
}

std::string RefNormalizeToken(const std::string& token) {
  std::string out;
  for (char c : token) {
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '-' || c == '+') {
      out.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    }
  }
  return out;
}

std::vector<std::string> RefTokenize(const std::string& text) {
  std::vector<std::string> out;
  for (const auto& raw : SplitWhitespace(text)) {
    std::string token = RefNormalizeToken(raw);
    if (!token.empty()) out.push_back(std::move(token));
  }
  return out;
}

class ReferenceExtractor {
 public:
  struct Walked {
    ExtractedQuery query;
    VocabularyCoverage coverage;
  };

  explicit ReferenceExtractor(const Table* table) : table_(table) {
    for (size_t d = 0; d < table_->NumDims(); ++d) {
      const Dictionary& dict = table_->dict(d);
      for (ValueId v = 0; v < dict.size(); ++v) {
        AddPhrase(dict.Lookup(v), {Grounding::Kind::kValue, -1, static_cast<int>(d), v});
      }
    }
    for (size_t t = 0; t < table_->NumTargets(); ++t) {
      AddPhrase(table_->TargetName(t),
                {Grounding::Kind::kTarget, static_cast<int>(t), -1, kNoValue});
    }
  }

  Status AddTargetSynonym(const std::string& phrase, const std::string& column) {
    int idx = table_->TargetIndex(column);
    if (idx < 0) return Status::NotFound(column);
    AddPhrase(phrase, {Grounding::Kind::kTarget, idx, -1, kNoValue});
    return Status::OK();
  }

  Status AddValueSynonym(const std::string& phrase, const std::string& column,
                         const std::string& value) {
    int dim = table_->DimIndex(column);
    if (dim < 0) return Status::NotFound(column);
    auto code = table_->dict(static_cast<size_t>(dim)).Find(value);
    if (!code.has_value()) return Status::NotFound(value);
    AddPhrase(phrase, {Grounding::Kind::kValue, -1, dim, *code});
    return Status::OK();
  }

  Walked Walk(const std::string& text) const {
    Walked out;
    std::vector<std::string> tokens = RefTokenize(text);
    size_t i = 0;
    while (i < tokens.size()) {
      bool matched = false;
      size_t max_len = std::min(max_phrase_tokens_, tokens.size() - i);
      for (size_t len = max_len; len >= 1; --len) {
        std::vector<std::string> candidate(tokens.begin() + static_cast<long>(i),
                                           tokens.begin() + static_cast<long>(i + len));
        auto it = vocabulary_.find(candidate);
        if (it == vocabulary_.end()) continue;
        const Grounding& g = it->second;
        if (g.kind == Grounding::Kind::kTarget) {
          if (out.query.target_index < 0) out.query.target_index = g.target_index;
          out.coverage.matched_target = true;
        } else {
          ++out.coverage.matched_values;
          bool duplicate_dim = false;
          for (const auto& p : out.query.predicates) {
            if (p.dim == g.dim) duplicate_dim = true;
          }
          if (!duplicate_dim) out.query.predicates.push_back(EqPredicate{g.dim, g.value});
        }
        out.coverage.grounded_tokens += len;
        out.coverage.content_tokens += len;
        i += len;
        matched = true;
        break;
      }
      if (!matched) {
        if (!RefIsStopWord(tokens[i])) {
          out.query.unmatched_tokens.push_back(tokens[i]);
          ++out.coverage.content_tokens;
        }
        ++i;
      }
    }
    (void)NormalizePredicates(&out.query.predicates);
    return out;
  }

 private:
  struct Grounding {
    enum class Kind { kTarget, kValue } kind;
    int target_index;
    int dim;
    ValueId value;
  };

  void AddPhrase(const std::string& phrase, Grounding grounding) {
    std::string spaced;
    for (char c : phrase) spaced.push_back(c == '_' ? ' ' : c);
    std::vector<std::string> tokens = RefTokenize(spaced);
    if (tokens.empty()) return;
    max_phrase_tokens_ = std::max(max_phrase_tokens_, tokens.size());
    vocabulary_.emplace(std::move(tokens), grounding);
  }

  const Table* table_;
  std::map<std::vector<std::string>, Grounding> vocabulary_;
  size_t max_phrase_tokens_ = 1;
};

/// The classifier's keyword rules over a reference extraction.
ClassifiedRequest ReferenceClassify(const std::string& text, ExtractedQuery query,
                                    int max_predicates) {
  ClassifiedRequest out;
  std::string lower = ToLower(text);
  auto contains_any = [&lower](std::initializer_list<const char*> needles) {
    for (const char* needle : needles) {
      if (lower.find(needle) != std::string::npos) return true;
    }
    return false;
  };
  if (contains_any({"help", "how do i", "what can i", "what can you", "instructions"})) {
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
  if (!out.query.HasTarget() && out.query.predicates.empty()) return out;
  if (comparison) {
    out.kind = QueryKind::kComparison;
    out.type = RequestType::kUnsupportedQuery;
  } else if (extremum) {
    out.kind = QueryKind::kExtremum;
    out.type = RequestType::kUnsupportedQuery;
  } else {
    bool supported = out.query.HasTarget() &&
                     static_cast<int>(out.query.predicates.size()) <= max_predicates &&
                     out.query.unmatched_tokens.empty();
    out.type = supported ? RequestType::kSupportedQuery : RequestType::kUnsupportedQuery;
  }
  return out;
}

struct ReferenceRoute {
  int host_index = -1;
  double score = 0.0;
  ExtractedQuery query;
};

ReferenceRoute RouteByReference(
    const std::vector<std::unique_ptr<ReferenceExtractor>>& extractors,
    const std::string& text, double min_route_score) {
  ReferenceRoute out;
  std::vector<ReferenceExtractor::Walked> walks;
  for (size_t i = 0; i < extractors.size(); ++i) {
    walks.push_back(extractors[i]->Walk(text));
    double score = walks.back().coverage.Score();
    if (score > out.score) {
      out.host_index = static_cast<int>(i);
      out.score = score;
    }
  }
  if (out.score <= min_route_score) {
    out.host_index = -1;
  } else {
    out.query = walks[static_cast<size_t>(out.host_index)].query;
  }
  return out;
}

// --------------------------------------------------------------- comparisons

void ExpectSameQuery(const ExtractedQuery& got, const ExtractedQuery& want,
                     const std::string& context) {
  EXPECT_EQ(got.target_index, want.target_index) << context;
  EXPECT_EQ(got.predicates, want.predicates) << context;
  EXPECT_EQ(got.unmatched_tokens, want.unmatched_tokens) << context;
}

void ExpectSameCoverage(const VocabularyCoverage& got, const VocabularyCoverage& want,
                        const std::string& context) {
  EXPECT_EQ(got.content_tokens, want.content_tokens) << context;
  EXPECT_EQ(got.grounded_tokens, want.grounded_tokens) << context;
  EXPECT_EQ(got.matched_values, want.matched_values) << context;
  EXPECT_EQ(got.matched_target, want.matched_target) << context;
  EXPECT_EQ(std::bit_cast<uint64_t>(got.Score()), std::bit_cast<uint64_t>(want.Score()))
      << context;
}

void ExpectSameRoute(const RoutingService::RouteDecision& got, const ReferenceRoute& want,
                     const std::string& context) {
  EXPECT_EQ(got.host_index, want.host_index) << context;
  EXPECT_EQ(std::bit_cast<uint64_t>(got.score), std::bit_cast<uint64_t>(want.score))
      << context;
  ExpectSameQuery(got.query, want.query, context);
}

// ------------------------------------------------------------------ fixture

class WalkDifferentialTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    registry_ = new DatasetRegistry();
    ASSERT_TRUE(testing::AddLookupHotFleet(registry_).ok());
    configured_ = new std::vector<testing::Utterance>(
        testing::ConfiguredUtterances(*registry_));
    utterances_ = new std::vector<testing::Utterance>(*configured_);
    std::vector<testing::Utterance> mutants =
        testing::MutatedUtterances(*configured_, 10500, /*seed=*/16);
    utterances_->insert(utterances_->end(), mutants.begin(), mutants.end());
    references_ = new std::vector<std::unique_ptr<ReferenceExtractor>>();
    for (const testing::FleetSpec& spec : testing::LookupHotFleet()) {
      auto reference = std::make_unique<ReferenceExtractor>(registry_->table(spec.name));
      ASSERT_TRUE(testing::RegisterSynonyms(spec.name, reference.get()).ok());
      references_->push_back(std::move(reference));
    }
  }

  static void TearDownTestSuite() {
    delete references_;
    delete utterances_;
    delete configured_;
    delete registry_;
  }

  static const VoiceQueryEngine& Engine(size_t i) {
    return *registry_->engine(testing::LookupHotFleet()[i].name);
  }

  static DatasetRegistry* registry_;
  static std::vector<testing::Utterance>* configured_;
  static std::vector<testing::Utterance>* utterances_;
  static std::vector<std::unique_ptr<ReferenceExtractor>>* references_;
};

DatasetRegistry* WalkDifferentialTest::registry_ = nullptr;
std::vector<testing::Utterance>* WalkDifferentialTest::configured_ = nullptr;
std::vector<testing::Utterance>* WalkDifferentialTest::utterances_ = nullptr;
std::vector<std::unique_ptr<ReferenceExtractor>>* WalkDifferentialTest::references_ =
    nullptr;

TEST_F(WalkDifferentialTest, CoversTheBenchmarksConfiguredQueries) {
  EXPECT_EQ(configured_->size(), 210u);
  EXPECT_GE(utterances_->size(), 10000u + 210u);
}

TEST_F(WalkDifferentialTest, ExtractAndCoverageMatchTheMapWalk) {
  for (const testing::Utterance& u : *utterances_) {
    TokenizedText tokens(u.text);
    for (size_t i = 0; i < references_->size(); ++i) {
      const QueryExtractor& extractor = Engine(i).extractor();
      ReferenceExtractor::Walked want = (*references_)[i]->Walk(u.text);
      std::string context = "'" + u.text + "' on dataset " + std::to_string(i);
      ExpectSameQuery(extractor.Extract(u.text), want.query, context);
      ExpectSameQuery(extractor.Extract(tokens), want.query, context);
      ExpectSameCoverage(extractor.Coverage(u.text), want.coverage, context);
      ExpectSameCoverage(extractor.Coverage(tokens), want.coverage, context);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST_F(WalkDifferentialTest, RouteMatchesTheMapWalk) {
  RoutingService router(registry_);
  size_t routed_to_source = 0;
  for (const testing::Utterance& u : *utterances_) {
    ReferenceRoute want = RouteByReference(*references_, u.text, 0.0);
    ExpectSameRoute(router.Route(u.text), want, u.text);
    if (::testing::Test::HasFailure()) return;
    if (want.host_index >= 0 &&
        testing::LookupHotFleet()[static_cast<size_t>(want.host_index)].name == u.dataset) {
      ++routed_to_source;
    }
  }
  // The configured queries always route home; most mutants still do.
  EXPECT_GT(routed_to_source, utterances_->size() / 2);
}

TEST_F(WalkDifferentialTest, ClassifyMatchesTheMapWalk) {
  RoutingService router(registry_);
  for (const testing::Utterance& u : *utterances_) {
    for (size_t i = 0; i < references_->size(); ++i) {
      const VoiceQueryEngine& engine = Engine(i);
      ClassifiedRequest want =
          ReferenceClassify(u.text, (*references_)[i]->Walk(u.text).query,
                            engine.config().max_query_predicates);
      ClassifiedRequest got = engine.classifier().Classify(u.text);
      EXPECT_EQ(got.type, want.type) << u.text;
      EXPECT_EQ(got.kind, want.kind) << u.text;
      ExpectSameQuery(got.query, want.query, u.text);
    }
    // The host's path: classification from the router's extraction.
    RoutingService::RouteDecision decision = router.Route(u.text);
    if (decision.host_index >= 0) {
      size_t host = static_cast<size_t>(decision.host_index);
      const VoiceQueryEngine& engine = Engine(host);
      ClassifiedRequest want =
          ReferenceClassify(u.text, (*references_)[host]->Walk(u.text).query,
                            engine.config().max_query_predicates);
      ClassifiedRequest got = engine.classifier().Classify(u.text, decision.query);
      EXPECT_EQ(got.type, want.type) << u.text;
      EXPECT_EQ(got.kind, want.kind) << u.text;
      ExpectSameQuery(got.query, want.query, u.text);
    }
    if (::testing::Test::HasFailure()) return;
  }
}

TEST_F(WalkDifferentialTest, TiesStayOnTheFirstRegisteredDataset) {
  // Two registrations of the flights table: every flights request ties, and
  // the strict-greater rule must keep it on the first one.
  DatasetRegistry registry;
  testing::FleetSpec flights = testing::LookupHotFleet()[0];
  for (const char* name : {"flights_a", "flights_b"}) {
    Status synonyms = Status::OK();
    ASSERT_TRUE(registry
                    .AddGenerated(name, flights.config, 2000, testing::kFleetDataSeed,
                                  {}, std::nullopt,
                                  [&](VoiceQueryEngine* engine) {
                                    synonyms = testing::RegisterSynonyms(
                                        "flights", engine->mutable_extractor());
                                  })
                    .ok());
    ASSERT_TRUE(synonyms.ok());
  }
  std::vector<std::unique_ptr<ReferenceExtractor>> references;
  for (const char* name : {"flights_a", "flights_b"}) {
    references.push_back(std::make_unique<ReferenceExtractor>(registry.table(name)));
    ASSERT_TRUE(testing::RegisterSynonyms("flights", references.back().get()).ok());
  }
  RoutingService router(&registry);
  size_t ties = 0;
  for (const testing::Utterance& u : *utterances_) {
    ReferenceRoute want = RouteByReference(references, u.text, 0.0);
    RoutingService::RouteDecision got = router.Route(u.text);
    ExpectSameRoute(got, want, u.text);
    if (::testing::Test::HasFailure()) return;
    if (got.host_index >= 0) {
      EXPECT_EQ(got.host_index, 0) << u.text;
      ++ties;
    }
  }
  EXPECT_GT(ties, 0u);
}

TEST_F(WalkDifferentialTest, MinRouteScoreRejectsLikeTheMapWalk) {
  RouterOptions options;
  options.min_route_score = 1.5;
  RoutingService router(registry_, options);
  size_t rejected = 0;
  size_t accepted = 0;
  for (const testing::Utterance& u : *utterances_) {
    ReferenceRoute want = RouteByReference(*references_, u.text, options.min_route_score);
    RoutingService::RouteDecision got = router.Route(u.text);
    ExpectSameRoute(got, want, u.text);
    if (::testing::Test::HasFailure()) return;
    (got.host_index < 0 ? rejected : accepted) += 1;
  }
  // The threshold splits the set: both outcomes are exercised.
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(accepted, 0u);
}

}  // namespace
}  // namespace vq
