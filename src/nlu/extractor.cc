#include "nlu/extractor.h"

#include <algorithm>

namespace vq {

namespace {

// Character classes of the C locale, without a libc call per byte.
bool IsSpace(unsigned char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

bool IsTokenChar(unsigned char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
         c == '-' || c == '+';
}

char ToLowerAscii(unsigned char c) {
  return static_cast<char>(c >= 'A' && c <= 'Z' ? c + ('a' - 'A') : c);
}

bool IsStopWord(std::string_view token) {
  static constexpr std::string_view kStopWords[] = {
      "the", "a",  "an", "in", "on",  "of",  "for", "about", "what", "whats",
      "is",  "are", "how", "much", "many", "me",  "tell", "show",  "give",
      "please", "average", "rate", "per", "and", "to", "by"};
  for (std::string_view w : kStopWords) {
    if (token == w) return true;
  }
  return false;
}

}  // namespace

TokenizedText::TokenizedText(std::string_view text) {
  text_.reserve(text.size());
  tokens_.reserve(text.size() / 2 + 1);  // a token and a separator each
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && IsSpace(static_cast<unsigned char>(text[i]))) ++i;
    size_t word_start = text_.size();
    if (word_start > 0) text_.push_back(' ');
    size_t token_start = text_.size();
    uint64_t hash = 0xcbf29ce484222325ull;
    for (; i < text.size() && !IsSpace(static_cast<unsigned char>(text[i])); ++i) {
      unsigned char c = static_cast<unsigned char>(text[i]);
      if (IsTokenChar(c)) {
        char lower = ToLowerAscii(c);
        text_.push_back(lower);
        hash = (hash ^ static_cast<unsigned char>(lower)) * 0x100000001b3ull;
      }
    }
    if (text_.size() == token_start) {
      text_.resize(word_start);  // nothing survived: drop the separator too
    } else {
      tokens_.push_back({text_.size(), hash});
    }
  }
}

const QueryExtractor::Grounding* QueryExtractor::PhraseTable::Find(
    std::string_view key, uint64_t hash) const {
  if (size_ == 0) return nullptr;
  const Slot& slot = slots_[Probe(key, hash)];
  return slot.length == 0 ? nullptr : &slot.grounding;
}

size_t QueryExtractor::PhraseTable::Probe(std::string_view key, uint64_t hash) const {
  size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.length == 0) return i;
    if (slot.hash == hash && slot.length == key.size() &&
        std::string_view(keys_).substr(slot.offset, slot.length) == key) {
      return i;
    }
  }
}

const QueryExtractor::Grounding& QueryExtractor::PhraseTable::Insert(
    std::string_view key, uint64_t hash, const Grounding& grounding) {
  if (2 * (size_ + 1) > slots_.size()) Grow();
  Slot& slot = slots_[Probe(key, hash)];
  if (slot.length == 0) {
    slot.hash = hash;
    slot.offset = keys_.size();
    slot.length = key.size();
    slot.grounding = grounding;
    keys_.append(key);
    ++size_;
  }
  return slot.grounding;
}

void QueryExtractor::PhraseTable::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(std::max<size_t>(16, 2 * old.size()), Slot{});
  size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.length == 0) continue;
    size_t i = slot.hash & mask;
    while (slots_[i].length != 0) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

QueryExtractor::QueryExtractor(const Table* table) : table_(table) {
  // Dimension values. A value spelled like an earlier one (in another
  // dimension) keeps the first binding.
  for (size_t d = 0; d < table_->NumDims(); ++d) {
    const Dictionary& dict = table_->dict(d);
    for (ValueId v = 0; v < dict.size(); ++v) {
      Grounding g;
      g.kind = Grounding::Kind::kValue;
      g.dim = static_cast<int>(d);
      g.value = v;
      AddPhrase(dict.Lookup(v), g);
    }
  }
  // Target column names.
  for (size_t t = 0; t < table_->NumTargets(); ++t) {
    Grounding g;
    g.kind = Grounding::Kind::kTarget;
    g.target_index = static_cast<int>(t);
    AddPhrase(table_->TargetName(t), g);
  }
}

bool QueryExtractor::AddPhrase(const std::string& phrase, const Grounding& grounding) {
  // "delay_minutes" -> "delay minutes"; "Staten Island" -> "staten island".
  std::string spaced = phrase;
  std::replace(spaced.begin(), spaced.end(), '_', ' ');
  TokenizedText tokens(spaced);
  if (tokens.size() == 0) return true;
  max_phrase_tokens_ = std::max(max_phrase_tokens_, tokens.size());
  return vocabulary_.Insert(tokens.Span(0, tokens.size()),
                            tokens.SpanHash(0, tokens.size()), grounding) == grounding;
}

Status QueryExtractor::AddTargetSynonym(const std::string& phrase,
                                        const std::string& target_column) {
  int idx = table_->TargetIndex(target_column);
  if (idx < 0) return Status::NotFound("target column '" + target_column + "' unknown");
  Grounding g;
  g.kind = Grounding::Kind::kTarget;
  g.target_index = idx;
  if (!AddPhrase(phrase, g)) {
    return Status::AlreadyExists("phrase '" + phrase + "' is already bound");
  }
  return Status::OK();
}

Status QueryExtractor::AddValueSynonym(const std::string& phrase,
                                       const std::string& dim_column,
                                       const std::string& value) {
  int dim = table_->DimIndex(dim_column);
  if (dim < 0) return Status::NotFound("dimension column '" + dim_column + "' unknown");
  auto code = table_->dict(static_cast<size_t>(dim)).Find(value);
  if (!code.has_value()) {
    return Status::NotFound("value '" + value + "' not in column '" + dim_column + "'");
  }
  Grounding g;
  g.kind = Grounding::Kind::kValue;
  g.dim = dim;
  g.value = *code;
  if (!AddPhrase(phrase, g)) {
    return Status::AlreadyExists("phrase '" + phrase + "' is already bound");
  }
  return Status::OK();
}

double VocabularyCoverage::Score() const {
  if (grounded_tokens == 0 || content_tokens == 0) return 0.0;
  double coverage =
      static_cast<double>(grounded_tokens) / static_cast<double>(content_tokens);
  double bonus = (matched_target ? 0.5 : 0.0) +
                 0.25 * static_cast<double>(std::min<size_t>(matched_values, 4));
  return coverage + bonus;
}

VocabularyCoverage QueryExtractor::Walk(const TokenizedText& tokens,
                                        ExtractedQuery* query) const {
  VocabularyCoverage coverage;
  size_t i = 0;
  while (i < tokens.size()) {
    // Longest-match-first against the vocabulary.
    const Grounding* g = nullptr;
    size_t len = std::min(max_phrase_tokens_, tokens.size() - i);
    for (; len >= 1; --len) {
      g = vocabulary_.Find(tokens.Span(i, i + len), tokens.SpanHash(i, i + len));
      if (g != nullptr) break;
    }
    if (g == nullptr) {
      std::string_view token = tokens.Span(i, i + 1);
      if (!IsStopWord(token)) {
        if (query != nullptr) query->unmatched_tokens.emplace_back(token);
        ++coverage.content_tokens;
      }
      ++i;
      continue;
    }
    if (g->kind == Grounding::Kind::kTarget) {
      if (query != nullptr && query->target_index < 0) {
        query->target_index = g->target_index;
      }
      coverage.matched_target = true;
    } else {
      ++coverage.matched_values;
      if (query != nullptr &&
          std::none_of(query->predicates.begin(), query->predicates.end(),
                       [g](const EqPredicate& p) { return p.dim == g->dim; })) {
        query->predicates.push_back(EqPredicate{g->dim, g->value});
      }
    }
    coverage.grounded_tokens += len;
    coverage.content_tokens += len;
    i += len;
  }
  if (query != nullptr) {
    Status st = NormalizePredicates(&query->predicates);
    (void)st;  // duplicates filtered above
  }
  return coverage;
}

ExtractedQuery QueryExtractor::Extract(const std::string& text) const {
  return Extract(TokenizedText(text));
}

ExtractedQuery QueryExtractor::Extract(const TokenizedText& tokens) const {
  ExtractedQuery query;
  Walk(tokens, &query);
  return query;
}

VocabularyCoverage QueryExtractor::Coverage(const std::string& text) const {
  return Coverage(TokenizedText(text));
}

VocabularyCoverage QueryExtractor::Coverage(const TokenizedText& tokens) const {
  return Walk(tokens, nullptr);
}

}  // namespace vq
