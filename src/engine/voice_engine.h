// The runtime voice-query engine (Figure 2's query path): speech
// recognition is out of scope, the rest of the pipeline -- text to query,
// store lookup, query to speech -- is implemented here.
#ifndef VQ_ENGINE_VOICE_ENGINE_H_
#define VQ_ENGINE_VOICE_ENGINE_H_

#include <memory>
#include <mutex>  // std::call_once for the lazy table merges (not locking)
#include <optional>
#include <string>

#include "util/sync.h"

#include "engine/preprocessor.h"
#include "engine/speech_store.h"
#include "facts/instance.h"
#include "nlu/classifier.h"
#include "nlu/extractor.h"

namespace vq {

/// \brief Answers voice requests from the pre-computed store.
///
/// Thread-safety contract: after Build() (and any AddTargetSynonym /
/// AddValueSynonym calls via mutable_extractor(), or store mutations via
/// mutable_store()) have completed, the engine is immutable and
/// `Answer(request, session) const` may be called from any number of threads
/// concurrently -- classification, extraction and store lookup only read the
/// vocabulary and the speech index. The caveats:
///   * each thread (or each user session) must pass its own Session object;
///     sessions are not internally synchronized,
///   * the stateful convenience overload `Answer(request)` serializes its
///     callers on an internal mutex protecting the shared session -- safe,
///     but a concurrency bottleneck; concurrent servers should pass
///     per-caller Sessions instead,
///   * mutable_extractor() / mutable_store() must not be used once
///     concurrent answering has started.
/// Merge(target) is const and safe to call from any number of threads: the
/// first call for a target builds its merge once, under std::call_once, and
/// later calls only read it.
/// The serving layer (src/serve/) relies on this contract to share one
/// engine across all of its workers.
class VoiceQueryEngine {
 public:
  /// Runs pre-processing for `config` over `table` and wires up the NLU
  /// front end. The table must outlive the engine.
  static Result<VoiceQueryEngine> Build(const Table* table, Configuration config,
                                        const PreprocessOptions& options,
                                        PreprocessStats* stats = nullptr);

  /// Wires up an engine around an ALREADY computed speech store, skipping
  /// pre-processing entirely -- the zero-copy snapshot load path
  /// (storage/snapshot.cc), where the store was optimized by a previous
  /// process and deserialized. The table must outlive the engine and must
  /// be the table the store's value ids refer to.
  static VoiceQueryEngine FromStore(const Table* table, Configuration config,
                                    SpeechStore store);

  struct Response {
    RequestType type = RequestType::kOther;
    std::string text;
    /// Run-time cost of answering: NLU + store lookup (no optimization!).
    double lookup_seconds = 0.0;
    /// The stored speech used, if any.
    const StoredSpeech* speech = nullptr;
    /// True if the extracted query had an exact pre-computed match.
    bool exact_match = false;
  };

  /// Per-conversation state ("repeat that" memory). One per user session.
  struct Session {
    std::string last_speech_text;
  };

  /// Handles one request string: classifies it, then answers data-access
  /// queries from the store (help/repeat handled inline, like the paper's
  /// deployed application). `session` may be nullptr, in which case repeat
  /// requests report that there is nothing to repeat. Thread-safe for
  /// concurrent calls with distinct sessions (see class comment).
  Response Answer(const std::string& request, Session* session) const;

  /// Convenience overload backed by one internal session. Callers are
  /// serialized on an internal mutex, so concurrent use is safe (though the
  /// shared "repeat that" memory is then interleaved across callers).
  Response Answer(const std::string& request);

  /// Grounds a classified request into a store-keyed query, applying the
  /// deployed app's default: with no target extracted, queries fall back to
  /// the first configured target (so "cancellations?"-style requests work).
  VoiceQuery GroundQuery(const ClassifiedRequest& classified) const;

  /// The help text spoken for RequestType::kHelp.
  std::string HelpText() const;

  /// Canned responses shared with the serving layer, so engine and service
  /// never diverge for the same request.
  static const char* NothingToRepeatText() { return "There is nothing to repeat yet."; }
  static const char* NotUnderstoodText() {
    return "Sorry, I did not understand. Ask for help to hear examples.";
  }
  static const char* NoSummaryText() {
    return "I have no summary matching that question.";
  }
  static const char* TimedOutText() {
    return "Sorry, that took too long to answer. Please try again.";
  }
  static const char* OverloadedText() {
    return "Sorry, I am handling too many questions right now. "
           "Please try again in a moment.";
  }

  const SpeechStore& store() const { return store_; }
  const RequestClassifier& classifier() const { return *classifier_; }
  const QueryExtractor& extractor() const { return *extractor_; }
  const Configuration& config() const { return config_; }
  QueryExtractor* mutable_extractor() { return extractor_.get(); }
  /// Pre-serving store mutation (e.g. DatasetRegistry reloading persisted
  /// on-demand speeches); see the thread-safety contract above.
  SpeechStore* mutable_store() { return &store_; }
  const Table& table() const { return *table_; }

  /// The whole-table merge of target column `target_index` (a valid target
  /// of table()), from which every on-demand instance of that target is
  /// sliced -- the instance path pre-processing uses. Built by the target's
  /// first call (one hash pass over the table, 4 B per row) and kept for
  /// the engine's lifetime, so every router and host over this engine
  /// shares it. Engines that never miss the store build none.
  const TableMerge& Merge(int target_index) const;

 private:
  VoiceQueryEngine() = default;

  /// One target's merge, built by its first Merge() call.
  struct LazyMerge {
    std::once_flag once;
    std::optional<TableMerge> merge;
  };

  const Table* table_ = nullptr;
  Configuration config_;
  SpeechStore store_;
  std::unique_ptr<QueryExtractor> extractor_;
  std::unique_ptr<RequestClassifier> classifier_;
  /// One slot per table target. Held by pointer so the engine stays movable.
  std::unique_ptr<LazyMerge[]> merges_;
  /// Guards default_session_ for the stateful Answer(request) overload.
  /// Held by pointer so the engine stays movable (vq::Mutex is not).
  std::unique_ptr<Mutex> default_session_mutex_ = std::make_unique<Mutex>();
  Session default_session_ GUARDED_BY(*default_session_mutex_);
};

}  // namespace vq

#endif  // VQ_ENGINE_VOICE_ENGINE_H_
