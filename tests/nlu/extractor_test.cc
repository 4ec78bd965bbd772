#include "nlu/extractor.h"

#include <gtest/gtest.h>

#include "storage/datasets.h"

namespace vq {
namespace {

class ExtractorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    extractor_ = std::make_unique<QueryExtractor>(&table_);
    ASSERT_TRUE(extractor_->AddTargetSynonym("delays", "delay").ok());
    ASSERT_TRUE(extractor_->AddTargetSynonym("how late", "delay").ok());
  }

  Table table_ = MakeRunningExampleTable();
  std::unique_ptr<QueryExtractor> extractor_;
};

TEST_F(ExtractorTest, ExtractsTargetAndPredicate) {
  ExtractedQuery q = extractor_->Extract("delays in Winter?");
  EXPECT_EQ(q.target_index, table_.TargetIndex("delay"));
  ASSERT_EQ(q.predicates.size(), 1u);
  EXPECT_EQ(q.predicates[0].dim, table_.DimIndex("season"));
  EXPECT_TRUE(q.unmatched_tokens.empty());
}

TEST_F(ExtractorTest, CaseAndPunctuationInsensitive) {
  ExtractedQuery q = extractor_->Extract("DELAYS in wInTeR, in the NORTH!");
  EXPECT_TRUE(q.HasTarget());
  EXPECT_EQ(q.predicates.size(), 2u);
}

TEST_F(ExtractorTest, MultiWordSynonym) {
  ExtractedQuery q = extractor_->Extract("how late are flights in the South");
  EXPECT_EQ(q.target_index, table_.TargetIndex("delay"));
  ASSERT_EQ(q.predicates.size(), 1u);
  EXPECT_EQ(q.predicates[0].dim, table_.DimIndex("region"));
  // "flights" stays unmatched (content token not in the schema).
  ASSERT_EQ(q.unmatched_tokens.size(), 1u);
  EXPECT_EQ(q.unmatched_tokens[0], "flights");
}

TEST_F(ExtractorTest, ColumnNameActsAsTargetPhrase) {
  // The raw column name "delay" is in the vocabulary.
  ExtractedQuery q = extractor_->Extract("average delay in Summer");
  EXPECT_TRUE(q.HasTarget());
}

TEST_F(ExtractorTest, FirstMentionWinsPerDimension) {
  ExtractedQuery q = extractor_->Extract("delays in Winter or Summer");
  ASSERT_EQ(q.predicates.size(), 1u);
  EXPECT_EQ(table_.dict(static_cast<size_t>(q.predicates[0].dim))
                .Lookup(q.predicates[0].value),
            "Winter");
}

TEST_F(ExtractorTest, NoTargetNoPredicates) {
  ExtractedQuery q = extractor_->Extract("play some music");
  EXPECT_FALSE(q.HasTarget());
  EXPECT_TRUE(q.predicates.empty());
  EXPECT_FALSE(q.unmatched_tokens.empty());
}

TEST_F(ExtractorTest, ValueSynonym) {
  ASSERT_TRUE(extractor_->AddValueSynonym("wintertime", "season", "Winter").ok());
  ExtractedQuery q = extractor_->Extract("delays in wintertime");
  ASSERT_EQ(q.predicates.size(), 1u);
  EXPECT_EQ(q.predicates[0].dim, table_.DimIndex("season"));
}

TEST_F(ExtractorTest, SynonymRegistrationValidates) {
  EXPECT_FALSE(extractor_->AddTargetSynonym("x", "bogus_column").ok());
  EXPECT_FALSE(extractor_->AddValueSynonym("x", "bogus", "Winter").ok());
  EXPECT_FALSE(extractor_->AddValueSynonym("x", "season", "Monsoon").ok());
}

TEST_F(ExtractorTest, ConflictingSynonymIsRejectedAndKeepsTheFirstBinding) {
  // "wintertime" -> Winter, then -> Summer: the second must not report
  // success while the first binding silently stays.
  ASSERT_TRUE(extractor_->AddValueSynonym("wintertime", "season", "Winter").ok());
  Status conflict = extractor_->AddValueSynonym("Wintertime", "season", "Summer");
  EXPECT_EQ(conflict.code(), StatusCode::kAlreadyExists) << conflict.ToString();
  // A dictionary value cannot be re-bound as a target, nor a target
  // synonym as a value.
  EXPECT_EQ(extractor_->AddTargetSynonym("winter", "delay").code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(extractor_->AddValueSynonym("how  late", "region", "North").code(),
            StatusCode::kAlreadyExists);
  // Identical re-registrations stay OK, spelled differently or not.
  EXPECT_TRUE(extractor_->AddValueSynonym("WINTER_TIME", "season", "Winter").ok());
  EXPECT_TRUE(extractor_->AddValueSynonym("winter time", "season", "Winter").ok());
  EXPECT_TRUE(extractor_->AddValueSynonym("wintertime", "season", "Winter").ok());
  EXPECT_TRUE(extractor_->AddTargetSynonym("Delays!", "delay").ok());
  EXPECT_TRUE(extractor_->AddValueSynonym("winter", "season", "Winter").ok());

  ExtractedQuery q = extractor_->Extract("delays in wintertime");
  ASSERT_EQ(q.predicates.size(), 1u);
  EXPECT_EQ(table_.dict(static_cast<size_t>(q.predicates[0].dim))
                .Lookup(q.predicates[0].value),
            "Winter");
}

TEST(ExtractorVocabularyTest, DictionaryValuesCollidingAcrossDimensionsStayFirstWins) {
  Table table("collide");
  table.AddDimColumn("origin");
  table.AddDimColumn("destination");
  table.AddTargetColumn("delay");
  ASSERT_TRUE(table.AppendRow({"North", "North"}, {1.0}).ok());
  ASSERT_TRUE(table.AppendRow({"South", "North"}, {2.0}).ok());
  QueryExtractor extractor(&table);
  ExtractedQuery q = extractor.Extract("delay north south");
  ASSERT_EQ(q.predicates.size(), 1u);
  EXPECT_EQ(q.predicates[0].dim, table.DimIndex("origin"));
  // "south" also maps to origin, the first mention of origin wins.
  EXPECT_EQ(table.dict(0).Lookup(q.predicates[0].value), "North");
}

TEST(TokenizedTextTest, NormalizesIntoOneSpaceSeparatedBuffer) {
  TokenizedText tokens("  Delays,\tin  ((Staten)) ?? Island!\n  C++ 18-29 ");
  ASSERT_EQ(tokens.size(), 6u);
  EXPECT_EQ(tokens.Span(0, 6), "delays in staten island c++ 18-29");
  EXPECT_EQ(tokens.Span(2, 4), "staten island");
  EXPECT_EQ(tokens.Span(5, 6), "18-29");
  EXPECT_EQ(TokenizedText("").size(), 0u);
  EXPECT_EQ(TokenizedText(" ?? \t !! ").size(), 0u);
}

TEST_F(ExtractorTest, PredicatesComeOutNormalized) {
  ExtractedQuery q = extractor_->Extract("delays Winter North");
  ASSERT_EQ(q.predicates.size(), 2u);
  EXPECT_LT(q.predicates[0].dim, q.predicates[1].dim);
}

TEST_F(ExtractorTest, CoverageScoresGroundedRequestsAboveForeignOnes) {
  // Fully grounded: target + one value, only a stop word besides.
  VocabularyCoverage grounded = extractor_->Coverage("delays in Winter");
  EXPECT_EQ(grounded.content_tokens, 2u);
  EXPECT_EQ(grounded.grounded_tokens, 2u);
  EXPECT_TRUE(grounded.matched_target);
  EXPECT_EQ(grounded.matched_values, 1u);

  // Partially grounded: "flights" is foreign to the running example schema.
  VocabularyCoverage partial = extractor_->Coverage("how late are flights");
  EXPECT_TRUE(partial.matched_target);
  EXPECT_GT(partial.Score(), 0.0);
  EXPECT_LT(partial.Score(), grounded.Score());

  // Nothing grounds: the score must be exactly zero so routers can reject.
  VocabularyCoverage foreign = extractor_->Coverage("quarterly revenue trends");
  EXPECT_EQ(foreign.grounded_tokens, 0u);
  EXPECT_EQ(foreign.Score(), 0.0);
  // ...including the empty request.
  EXPECT_EQ(extractor_->Coverage("").Score(), 0.0);
  EXPECT_EQ(extractor_->Coverage("the of and").Score(), 0.0);
}

TEST_F(ExtractorTest, CoverageCountsMultiTokenPhrasesWhole) {
  // "how late" is a registered two-token target synonym.
  VocabularyCoverage coverage = extractor_->Coverage("how late in Winter");
  EXPECT_EQ(coverage.grounded_tokens, 3u);  // "how late" + "winter"
  EXPECT_EQ(coverage.content_tokens, 3u);   // "in" is a stop word
  EXPECT_TRUE(coverage.matched_target);
}

}  // namespace
}  // namespace vq
