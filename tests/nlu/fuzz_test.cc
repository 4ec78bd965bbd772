// Seeded fuzz driver for the NLU surfaces: arbitrary bytes through
// QueryExtractor::Extract / Coverage, RequestClassifier::Classify and
// RoutingService::Route.
//
// GCC has no libFuzzer, so this is a deterministic mutator over the small
// checked-in corpus in tests/nlu/fuzz_corpus/ with a fixed iteration
// budget: byte flips (NUL and high-bit bytes included), inserted, deleted,
// repeated and spliced ranges, vocabulary words, and inputs grown to 4 KiB.
// It runs as a ctest in every preset; the asan and ubsan presets are where
// it earns its keep. Properties checked on every input:
//   * grounded_tokens <= content_tokens, and Score() == 0 exactly when
//     nothing grounds;
//   * every call is deterministic, and the string and pre-tokenized entry
//     points agree;
//   * the extraction agrees with its coverage, Classify with and without a
//     given extraction agree, and Route picks the best-scoring dataset and
//     carries its extraction.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "nlu/classifier.h"
#include "nlu/extractor.h"
#include "serve/registry.h"
#include "serve/router.h"
#include "testing/utterances.h"
#include "util/rng.h"

namespace vq {
namespace {

constexpr size_t kIterations = 4000;
constexpr size_t kMaxInputBytes = 4096;

std::vector<std::string> LoadCorpus() {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(VQ_NLU_FUZZ_CORPUS_DIR)) {
    if (entry.is_regular_file()) paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<std::string> corpus;
  for (const auto& path : paths) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    corpus.push_back(bytes.str());
  }
  return corpus;
}

/// Byte-level mutations of a corpus entry.
class ByteMutator {
 public:
  ByteMutator(uint64_t seed, std::vector<std::string> corpus)
      : rng_(seed), corpus_(std::move(corpus)) {}

  std::string Next() {
    std::string out = corpus_[rng_.NextBelow(corpus_.size())];
    int ops = static_cast<int>(rng_.NextInt(1, 6));
    for (int i = 0; i < ops; ++i) Apply(&out);
    if (out.size() > kMaxInputBytes) out.resize(kMaxInputBytes);
    return out;
  }

 private:
  void Apply(std::string* s) {
    static const char* const kWords[] = {"cancelled", "visual", "vote share",
                                         "Staten",    "Island", "Candidate A",
                                         "winter",    "the",    "help",
                                         "between",   "most",   "AL-3"};
    size_t at = rng_.NextBelow(s->size() + 1);
    uint64_t op = rng_.NextBelow(25);
    if (op == 24) {  // grow to the size limit by repetition (rarely: slow)
      while (!s->empty() && s->size() < kMaxInputBytes) s->append(*s);
      return;
    }
    switch (op % 6) {
      case 0:  // overwrite a byte with any value, NUL and high-bit included
        if (!s->empty()) (*s)[rng_.NextBelow(s->size())] = static_cast<char>(rng_.NextBelow(256));
        break;
      case 1:  // insert random bytes
        for (uint64_t n = rng_.NextInt(1, 8); n > 0; --n) {
          s->insert(s->begin() + static_cast<long>(at), static_cast<char>(rng_.NextBelow(256)));
        }
        break;
      case 2:  // delete a range
        s->erase(at, rng_.NextBelow(16));
        break;
      case 3: {  // repeat a range
        std::string piece = s->substr(at, rng_.NextBelow(32));
        s->insert(at, piece);
        break;
      }
      case 4:  // splice another corpus entry
        s->insert(at, corpus_[rng_.NextBelow(corpus_.size())]);
        break;
      default:  // a vocabulary or keyword word
        s->insert(at, std::string(" ") + kWords[rng_.NextBelow(std::size(kWords))] + " ");
        break;
    }
  }

  Rng rng_;
  std::vector<std::string> corpus_;
};

void ExpectSameExtraction(const ExtractedQuery& a, const ExtractedQuery& b) {
  EXPECT_EQ(a.target_index, b.target_index);
  EXPECT_EQ(a.predicates, b.predicates);
  EXPECT_EQ(a.unmatched_tokens, b.unmatched_tokens);
}

serve::RouterOptions OneThread() {
  serve::RouterOptions options;
  options.num_threads = 1;
  return options;
}

class NluFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // The benchmark fleet's vocabularies (the dictionaries do not depend on
    // the row count), on small tables.
    for (testing::FleetSpec spec : testing::LookupHotFleet()) {
      Status synonyms = Status::OK();
      ASSERT_TRUE(registry_
                      .AddGenerated(spec.name, spec.config, 300, testing::kFleetDataSeed,
                                    {}, std::nullopt,
                                    [&](VoiceQueryEngine* engine) {
                                      synonyms = testing::RegisterSynonyms(
                                          spec.name, engine->mutable_extractor());
                                    })
                      .ok());
      ASSERT_TRUE(synonyms.ok());
      engines_.push_back(registry_.engine(spec.name));
    }
    corpus_ = LoadCorpus();
    ASSERT_GE(corpus_.size(), 8u);
  }

  /// Checks every property on one input.
  void Check(const std::string& text, const serve::RoutingService& router) {
    SCOPED_TRACE("input of " + std::to_string(text.size()) + " bytes");
    TokenizedText tokens(text);
    for (size_t t = 0; t < tokens.size(); ++t) {
      std::string_view token = tokens.Span(t, t + 1);
      ASSERT_FALSE(token.empty());
      for (char c : token) {
        ASSERT_TRUE((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '-' ||
                    c == '+')
            << static_cast<int>(static_cast<unsigned char>(c));
      }
    }
    double best = 0.0;
    std::vector<ExtractedQuery> extractions;
    for (const VoiceQueryEngine* engine : engines_) {
      const QueryExtractor& extractor = engine->extractor();
      VocabularyCoverage coverage = extractor.Coverage(text);
      EXPECT_LE(coverage.grounded_tokens, coverage.content_tokens);
      EXPECT_LE(coverage.content_tokens, tokens.size());
      EXPECT_EQ(coverage.Score() == 0.0, coverage.grounded_tokens == 0);
      VocabularyCoverage again = extractor.Coverage(tokens);
      EXPECT_EQ(again.content_tokens, coverage.content_tokens);
      EXPECT_EQ(again.grounded_tokens, coverage.grounded_tokens);
      EXPECT_EQ(again.matched_values, coverage.matched_values);
      EXPECT_EQ(again.matched_target, coverage.matched_target);

      ExtractedQuery query = extractor.Extract(text);
      ExpectSameExtraction(query, extractor.Extract(text));
      ExpectSameExtraction(query, extractor.Extract(tokens));
      EXPECT_EQ(query.HasTarget(), coverage.matched_target);
      EXPECT_EQ(query.unmatched_tokens.size(),
                coverage.content_tokens - coverage.grounded_tokens);
      EXPECT_LE(query.predicates.size(), coverage.matched_values);
      for (size_t p = 1; p < query.predicates.size(); ++p) {
        EXPECT_LT(query.predicates[p - 1].dim, query.predicates[p].dim);
      }

      const RequestClassifier& classifier = engine->classifier();
      ClassifiedRequest classified = classifier.Classify(text);
      ClassifiedRequest given = classifier.Classify(text, query);
      EXPECT_EQ(classified.type, given.type);
      EXPECT_EQ(classified.kind, given.kind);
      ExpectSameExtraction(classified.query, given.query);
      EXPECT_EQ(classified.type, classifier.Classify(text).type);

      best = std::max(best, coverage.Score());
      extractions.push_back(std::move(query));
    }

    serve::RoutingService::RouteDecision decision = router.Route(text);
    EXPECT_EQ(decision.score, best);
    ASSERT_GE(decision.host_index, -1);
    ASSERT_LT(decision.host_index, static_cast<int>(engines_.size()));
    if (decision.host_index >= 0) {
      EXPECT_GT(decision.score, 0.0);
      ExpectSameExtraction(decision.query,
                           extractions[static_cast<size_t>(decision.host_index)]);
    } else {
      EXPECT_EQ(decision.score, 0.0);
      ExpectSameExtraction(decision.query, ExtractedQuery{});
    }
    serve::RoutingService::RouteDecision repeat = router.Route(text);
    EXPECT_EQ(repeat.host_index, decision.host_index);
    EXPECT_EQ(repeat.score, decision.score);
  }

  serve::DatasetRegistry registry_;
  std::vector<const VoiceQueryEngine*> engines_;
  std::vector<std::string> corpus_;
};

TEST_F(NluFuzzTest, EdgeInputs) {
  serve::RoutingService router(&registry_, OneThread());
  std::vector<std::string> inputs = {
      "",
      " ",
      " \t\n\r\v\f ",
      std::string(1, '\0'),
      std::string(64, '\0'),
      std::string(64, '\xff'),
      std::string("\xc3\xa9tat \x80\x81 cancelled"),
      std::string(kMaxInputBytes, 'a'),
      std::string(kMaxInputBytes, ' '),
  };
  std::string long_query;
  while (long_query.size() + 40 < kMaxInputBytes) long_query += "cancelled AL-3 in Winter the of ";
  inputs.push_back(long_query);
  for (const std::string& text : inputs) {
    Check(text, router);
    if (HasFailure()) return;
  }
  // Nothing grounds in empty, blank and byte-noise text.
  for (const char* text : {"", " \t\n", "\xff\xfe"}) {
    EXPECT_EQ(router.Route(text).host_index, -1);
    EXPECT_EQ(engines_[0]->classifier().Classify(text).type, RequestType::kOther);
  }
}

TEST_F(NluFuzzTest, SeededMutationsKeepTheInvariants) {
  serve::RoutingService router(&registry_, OneThread());
  for (const std::string& seed : corpus_) {
    Check(seed, router);
  }
  ByteMutator bytes(/*seed=*/6, corpus_);
  testing::UtteranceMutator words(/*seed=*/6);
  for (size_t i = 0; i < kIterations; ++i) {
    std::string text = bytes.Next();
    if (i % 2 == 1) text = words.Mutate(text);
    Check(text, router);
    if (HasFailure()) {
      ADD_FAILURE() << "first failing iteration: " << i;
      return;
    }
  }
}

}  // namespace
}  // namespace vq
