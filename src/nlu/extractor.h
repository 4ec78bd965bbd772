// Text-to-query extraction: maps a voice request to a target column and a
// set of equality predicates.
//
// The paper uses the Google Assistant framework's trained extractor
// (Section III); this module substitutes a deterministic keyword/synonym
// matcher behind the same interface (see DESIGN.md substitution table).
#ifndef VQ_NLU_EXTRACTOR_H_
#define VQ_NLU_EXTRACTOR_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "relational/predicate.h"
#include "storage/table.h"
#include "util/status.h"

namespace vq {

/// Extraction result: target column (or -1) plus recognized predicates and
/// the tokens that could not be grounded in the schema.
struct ExtractedQuery {
  int target_index = -1;
  PredicateSet predicates;
  std::vector<std::string> unmatched_tokens;

  bool HasTarget() const { return target_index >= 0; }
};

/// How much of a request this extractor's vocabulary explains. The routing
/// layer scores a request against every registered dataset's extractor and
/// dispatches to the best-covered one, so multi-dataset deployments need no
/// explicit dataset hint in the utterance.
struct VocabularyCoverage {
  size_t content_tokens = 0;   ///< non-stop-word tokens in the request
  size_t grounded_tokens = 0;  ///< tokens consumed by vocabulary matches
  size_t matched_values = 0;   ///< dimension-value matches (incl. duplicates)
  bool matched_target = false; ///< a target column (or synonym) grounded

  /// Routing score: the fraction of content tokens the vocabulary grounds,
  /// plus bonuses for grounding a target column (+0.5) and concrete
  /// dimension values (+0.25 each, capped at 4). Exactly 0 when nothing
  /// grounds, so callers can treat 0 as "this dataset cannot serve this".
  double Score() const;
};

/// A request normalized once for any number of vocabulary walks. Each
/// whitespace-separated word keeps its ASCII letters and digits, '-' and
/// '+', lower-cased; words left empty are dropped and the rest are joined by
/// single spaces in one buffer. Any run of consecutive tokens is then a
/// string_view spelled exactly like a vocabulary key, so a walk looks
/// phrases up without building them.
class TokenizedText {
 public:
  explicit TokenizedText(std::string_view text);

  size_t size() const { return tokens_.size(); }
  /// Tokens [begin, end) joined by single spaces (begin < end <= size()).
  std::string_view Span(size_t begin, size_t end) const {
    size_t from = begin == 0 ? 0 : tokens_[begin - 1].end + 1;
    return std::string_view(text_).substr(from, tokens_[end - 1].end - from);
  }
  /// Hash of Span(begin, end), folded from per-token hashes taken while
  /// tokenizing: a walk hashes a candidate phrase without re-reading its
  /// bytes, and a vocabulary key hashes the same way.
  uint64_t SpanHash(size_t begin, size_t end) const {
    uint64_t hash = 0;
    for (size_t i = begin; i < end; ++i) {
      hash = (hash ^ tokens_[i].hash) * 0x9E3779B97F4A7C15ull;
    }
    return hash ^ (hash >> 29);
  }

 private:
  struct Token {
    size_t end;     ///< one past the token's last byte in text_
    uint64_t hash;  ///< FNV-1a of the token's bytes
  };
  std::string text_;
  std::vector<Token> tokens_;
};

/// \brief Grounds free text in a table's schema.
///
/// The vocabulary is built from dimension values and column names; synonyms
/// (e.g. "cancellations" -> target "cancelled") can be registered the way
/// the paper "train[s] an extractor with a few samples".
class QueryExtractor {
 public:
  explicit QueryExtractor(const Table* table);

  /// Registers a synonym phrase for a target column. AlreadyExists when the
  /// phrase is already bound to something else (re-registering the same
  /// binding is OK).
  Status AddTargetSynonym(const std::string& phrase, const std::string& target_column);

  /// Registers a synonym phrase for a dimension value; AlreadyExists as
  /// above.
  Status AddValueSynonym(const std::string& phrase, const std::string& dim_column,
                         const std::string& value);

  /// Extracts target + predicates from `text`. Longest-match-first over a
  /// lower-cased token stream; at most one predicate per dimension (the
  /// first mention wins). Stop words are ignored.
  ExtractedQuery Extract(const std::string& text) const;
  ExtractedQuery Extract(const TokenizedText& tokens) const;

  /// Scores how well this extractor's vocabulary covers `text`: the same
  /// token walk as Extract, without building the query, so it allocates
  /// nothing on already-tokenized text. A router tokenizes a request once,
  /// takes one Coverage walk per dataset and one Extract walk for the
  /// winner, and hands that extraction to the winning host.
  VocabularyCoverage Coverage(const std::string& text) const;
  VocabularyCoverage Coverage(const TokenizedText& tokens) const;

  const Table& table() const { return *table_; }

 private:
  struct Grounding {
    enum class Kind { kTarget, kValue } kind = Kind::kTarget;
    int target_index = -1;
    int dim = -1;
    ValueId value = kNoValue;

    bool operator==(const Grounding&) const = default;
  };

  /// Open-addressing phrase table: a phrase's tokens joined by single
  /// spaces -> its grounding, looked up by string_view. Keys live in one
  /// arena; a probe reads one contiguous slot array and compares key bytes
  /// only on a full hash match.
  class PhraseTable {
   public:
    /// `hash` is TokenizedText::SpanHash of the key's tokens.
    const Grounding* Find(std::string_view key, uint64_t hash) const;
    /// Binds `key` unless it is already bound; returns the binding the
    /// table holds afterwards.
    const Grounding& Insert(std::string_view key, uint64_t hash,
                            const Grounding& grounding);

   private:
    struct Slot {
      uint64_t hash = 0;
      size_t offset = 0;  ///< into keys_
      size_t length = 0;  ///< 0 = empty (keys are never empty)
      Grounding grounding;
    };
    size_t Probe(std::string_view key, uint64_t hash) const;
    void Grow();

    std::string keys_;
    std::vector<Slot> slots_;  ///< power-of-two size, at most half full
    size_t size_ = 0;
  };

  /// The walk behind Extract and Coverage; fills `query` when non-null.
  VocabularyCoverage Walk(const TokenizedText& tokens, ExtractedQuery* query) const;

  /// Binds the normalized `phrase` to `grounding` (an empty phrase is
  /// ignored). Returns false when the phrase was already bound to a
  /// different grounding, which stays.
  bool AddPhrase(const std::string& phrase, const Grounding& grounding);

  const Table* table_;
  /// Matched longest-first, up to max_phrase_tokens_ tokens.
  PhraseTable vocabulary_;
  size_t max_phrase_tokens_ = 1;
};

}  // namespace vq

#endif  // VQ_NLU_EXTRACTOR_H_
