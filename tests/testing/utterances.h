// Shared test helper: voice utterances for the NLU and routing tests.
//
// The benchmark's three routed datasets (flights, acs, primaries with the
// lookup_hot dimensions), their configured queries spoken as text the way
// the benchmark renders them, the synonyms the tests register on top, and
// a seeded mutator that perturbs an utterance the ways recognized speech
// varies: case, punctuation, stop words, word order, dropped, repeated and
// foreign words, multi-word values split apart, synonyms, and phrases of
// other targets and values inserted.
#ifndef VQ_TESTS_TESTING_UTTERANCES_H_
#define VQ_TESTS_TESTING_UTTERANCES_H_

#include <algorithm>
#include <cctype>
#include <string>
#include <utility>
#include <vector>

#include "engine/voice_engine.h"
#include "query/problem_generator.h"
#include "serve/registry.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace vq {
namespace testing {

/// The data seed the benchmark generates its tables with.
inline constexpr uint64_t kFleetDataSeed = 20210318;

struct FleetSpec {
  std::string name;
  Configuration config;
  size_t rows = 0;
};

/// The lookup_hot fleet, in registration (routing) order.
inline std::vector<FleetSpec> LookupHotFleet() {
  std::vector<FleetSpec> specs(3);
  specs[0] = {"flights", {}, 20000};
  specs[0].config.table = "flights";
  specs[0].config.dimensions = {"airline", "season", "dest_region"};
  specs[0].config.targets = {"cancelled"};
  specs[1] = {"acs", {}, 2000};
  specs[1].config.table = "acs";
  specs[1].config.dimensions = {"borough", "age_group"};
  specs[1].config.targets = {"visual"};
  specs[2] = {"primaries", {}, 3000};
  specs[2].config.table = "primaries";
  specs[2].config.dimensions = {"candidate", "state_region"};
  specs[2].config.targets = {"vote_share"};
  for (FleetSpec& spec : specs) spec.config.max_query_predicates = 2;
  return specs;
}

/// One registered synonym: `phrase` grounds `column` (a target when `value`
/// is empty, else that value of the dimension `column`).
struct SynonymSpec {
  std::string dataset;
  std::string phrase;
  std::string column;
  std::string value;
  std::string canonical;  ///< the lower-cased phrase the synonym replaces
};

inline std::vector<SynonymSpec> FleetSynonyms() {
  return {
      {"flights", "cancellations", "cancelled", "", "cancelled"},
      {"flights", "cancellation rate", "cancelled", "", "cancelled"},
      {"flights", "how late", "delay_minutes", "", "delay minutes"},
      {"flights", "wintertime", "season", "Winter", "winter"},
      {"flights", "cold months", "season", "Winter", "winter"},
      {"acs", "vision problems", "visual", "", "visual"},
      {"acs", "seniors", "age_group", "Elders", "elders"},
      {"acs", "staten", "borough", "Staten Island", "staten island"},
      {"acs", "young people", "age_group", "Teenagers", "teenagers"},
      {"primaries", "votes", "vote_share", "", "vote share"},
      {"primaries", "support", "vote_share", "", "vote share"},
      {"primaries", "first candidate", "candidate", "Candidate A", "candidate a"},
      {"primaries", "new england", "state_region", "Northeast", "northeast"},
      {"primaries", "countryside", "urbanity", "Rural", "rural"},
  };
}

/// Registers the synonyms of `dataset` on `extractor` (a QueryExtractor or
/// a test's reference walk); returns the first failure.
template <typename Extractor>
Status RegisterSynonyms(const std::string& dataset, Extractor* extractor) {
  for (const SynonymSpec& s : FleetSynonyms()) {
    if (s.dataset != dataset) continue;
    Status st = s.value.empty() ? extractor->AddTargetSynonym(s.phrase, s.column)
                                : extractor->AddValueSynonym(s.phrase, s.column, s.value);
    if (!st.ok()) return st;
  }
  return Status::OK();
}

/// Adds the lookup_hot fleet to `registry`, each engine with its synonyms.
inline Status AddLookupHotFleet(serve::DatasetRegistry* registry) {
  for (const FleetSpec& spec : LookupHotFleet()) {
    Status synonyms = Status::OK();
    Status st = registry->AddGenerated(
        spec.name, spec.config, spec.rows, kFleetDataSeed, {}, std::nullopt,
        [&](VoiceQueryEngine* engine) {
          synonyms = RegisterSynonyms(spec.name, engine->mutable_extractor());
        });
    if (!st.ok()) return st;
    if (!synonyms.ok()) return synonyms;
  }
  return Status::OK();
}

/// The spoken form of `query`: the target column, then the predicate
/// values, underscores as spaces.
inline std::string QueryText(const Table& table, const VoiceQuery& query) {
  std::string text = table.TargetName(static_cast<size_t>(query.target_index));
  for (const EqPredicate& predicate : query.predicates) {
    text += " ";
    text += table.dict(static_cast<size_t>(predicate.dim)).Lookup(predicate.value);
  }
  std::replace(text.begin(), text.end(), '_', ' ');
  return text;
}

struct Utterance {
  std::string text;
  std::string dataset;  ///< the dataset the text was generated from
};

/// Every configured query of the fleet that has a stored speech, as text
/// (the benchmark's lookup_hot request set: 210 of them).
inline std::vector<Utterance> ConfiguredUtterances(
    const serve::DatasetRegistry& registry) {
  std::vector<Utterance> out;
  for (const FleetSpec& spec : LookupHotFleet()) {
    const Table* table = registry.table(spec.name);
    const VoiceQueryEngine* engine = registry.engine(spec.name);
    if (table == nullptr || engine == nullptr) continue;
    auto generator = ProblemGenerator::Create(table, spec.config);
    if (!generator.ok()) continue;
    for (const VoiceQuery& query : generator.value().GenerateQueries()) {
      if (engine->store().FindExact(query) == nullptr) continue;
      out.push_back({QueryText(*table, query), spec.name});
    }
  }
  return out;
}

/// Seeded utterance mutator. Each Mutate applies one to three of the
/// operations below; the same seed yields the same sequence.
class UtteranceMutator {
 public:
  explicit UtteranceMutator(uint64_t seed) : rng_(seed) {}

  std::string Mutate(const std::string& text) {
    std::string out = text;
    int ops = static_cast<int>(rng_.NextInt(1, 3));
    for (int i = 0; i < ops; ++i) out = Apply(out, rng_.NextBelow(kNumOps));
    return out;
  }

 private:
  static constexpr uint64_t kNumOps = 11;

  std::string Apply(const std::string& text, uint64_t op) {
    static const char* const kStopWords[] = {"the", "in", "of", "for", "a",
                                             "what", "is", "please", "and", "by"};
    static const char* const kForeign[] = {"weather", "quarterly", "revenue",
                                           "xyzzy",   "flights",   "people",
                                           "2020",    "c++",       "-",
                                           "état",    "a1b2",      "percent"};
    static const char* const kPunctuation[] = {"?", "!", ".", ",", ";", ":",
                                               "'", "\"", "(", ")"};
    std::vector<std::string> words = SplitWhitespace(text);
    switch (op) {
      case 0: {  // case
        std::string out = text;
        for (char& c : out) {
          if (rng_.NextBool(0.4)) {
            c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
          } else if (rng_.NextBool(0.3)) {
            c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
          }
        }
        return out;
      }
      case 1: {  // punctuation, attached or inside a word
        std::string out = text;
        out.insert(rng_.NextBelow(out.size() + 1), Pick(kPunctuation));
        return out;
      }
      case 2:  // stop word
        words.insert(words.begin() + static_cast<long>(rng_.NextBelow(words.size() + 1)),
                     Pick(kStopWords));
        break;
      case 3:  // adjacent swap
        if (words.size() >= 2) {
          size_t i = rng_.NextBelow(words.size() - 1);
          std::swap(words[i], words[i + 1]);
        }
        break;
      case 4:  // drop
        if (!words.empty()) {
          words.erase(words.begin() + static_cast<long>(rng_.NextBelow(words.size())));
        }
        break;
      case 5:  // duplicate
        if (!words.empty()) {
          size_t i = rng_.NextBelow(words.size());
          words.insert(words.begin() + static_cast<long>(i), words[i]);
        }
        break;
      case 6:  // foreign word
        words.insert(words.begin() + static_cast<long>(rng_.NextBelow(words.size() + 1)),
                     Pick(kForeign));
        break;
      case 7:  // split a multi-word value, target or synonym across a stop word
        return SplitPhrase(text, Pick(kStopWords));
      case 8:  // synonym
        return ReplaceWithSynonym(text);
      case 9: {  // another phrase of some vocabulary: a second target or value
        static const char* const kPhrases[] = {
            "delay minutes", "how late", "cancelled",   "hearing",  "visual",
            "vote share",    "Winter",   "Summer",      "AL-3",     "Staten Island",
            "Queens",        "Candidate B", "South",    "West",     "Morning",
            "January",       "ST-7",     "18-29",       "Urban",    "College"};
        words.insert(words.begin() + static_cast<long>(rng_.NextBelow(words.size() + 1)),
                     Pick(kPhrases));
        break;
      }
      default: {  // irregular whitespace
        static const char* const kSpaces[] = {"  ", "\t", "\n", " \r ", " "};
        std::string out;
        for (size_t i = 0; i < words.size(); ++i) {
          if (i > 0) out += Pick(kSpaces);
          out += words[i];
        }
        return rng_.NextBool(0.5) ? " " + out + "\t" : out;
      }
    }
    return Join(words, " ");
  }

  /// Inserts `stop_word` inside the first multi-word phrase of the fleet's
  /// vocabulary found in `text`.
  std::string SplitPhrase(const std::string& text, const std::string& stop_word) {
    static const char* const kPhrases[] = {
        "staten island", "candidate a", "candidate b",  "candidate f",
        "vote share",    "high school", "some college", "delay minutes",
        "cold months",   "vision problems", "young people", "first candidate",
        "new england",   "cancellation rate", "how late"};
    std::string lower = ToLower(text);
    for (const char* phrase : kPhrases) {
      size_t at = lower.find(phrase);
      if (at == std::string::npos) continue;
      size_t space = lower.find(' ', at);
      return text.substr(0, space) + " " + stop_word + text.substr(space);
    }
    return text;
  }

  std::string ReplaceWithSynonym(const std::string& text) {
    std::vector<SynonymSpec> synonyms = FleetSynonyms();
    std::string lower = ToLower(text);
    size_t start = rng_.NextBelow(synonyms.size());
    for (size_t k = 0; k < synonyms.size(); ++k) {
      const SynonymSpec& s = synonyms[(start + k) % synonyms.size()];
      size_t at = lower.find(s.canonical);
      if (at == std::string::npos) continue;
      return lower.substr(0, at) + s.phrase + lower.substr(at + s.canonical.size());
    }
    return text;
  }

  template <size_t N>
  std::string Pick(const char* const (&items)[N]) {
    return items[rng_.NextBelow(N)];
  }

  Rng rng_;
};

/// `count` mutants of `base`, cycling through it, from one seeded mutator.
inline std::vector<Utterance> MutatedUtterances(const std::vector<Utterance>& base,
                                                size_t count, uint64_t seed) {
  UtteranceMutator mutator(seed);
  std::vector<Utterance> out;
  out.reserve(count);
  for (size_t i = 0; i < count && !base.empty(); ++i) {
    const Utterance& from = base[i % base.size()];
    out.push_back({mutator.Mutate(from.text), from.dataset});
  }
  return out;
}

}  // namespace testing
}  // namespace vq

#endif  // VQ_TESTS_TESTING_UTTERANCES_H_
