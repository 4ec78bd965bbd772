#include "engine/voice_engine.h"

#include <cassert>

#include "util/stopwatch.h"

namespace vq {

Result<VoiceQueryEngine> VoiceQueryEngine::Build(const Table* table,
                                                 Configuration config,
                                                 const PreprocessOptions& options,
                                                 PreprocessStats* stats) {
  VQ_ASSIGN_OR_RETURN(SpeechStore store, Preprocess(*table, config, options, stats));
  return FromStore(table, std::move(config), std::move(store));
}

VoiceQueryEngine VoiceQueryEngine::FromStore(const Table* table,
                                             Configuration config,
                                             SpeechStore store) {
  VoiceQueryEngine engine;
  engine.table_ = table;
  engine.store_ = std::move(store);
  engine.config_ = std::move(config);
  engine.extractor_ = std::make_unique<QueryExtractor>(table);
  engine.classifier_ = std::make_unique<RequestClassifier>(
      engine.extractor_.get(), engine.config_.max_query_predicates);
  engine.merges_ = std::make_unique<LazyMerge[]>(table->NumTargets());
  return engine;
}

const TableMerge& VoiceQueryEngine::Merge(int target_index) const {
  assert(target_index >= 0 &&
         static_cast<size_t>(target_index) < table_->NumTargets());
  LazyMerge& slot = merges_[static_cast<size_t>(target_index)];
  std::call_once(slot.once,
                 [&] { slot.merge.emplace(*table_, target_index); });
  return *slot.merge;
}

std::string VoiceQueryEngine::HelpText() const {
  return "You can ask for an average value, optionally narrowed down by up to " +
         std::to_string(config_.max_query_predicates) +
         " filters. For example: 'delays in Winter'.";
}

VoiceQuery VoiceQueryEngine::GroundQuery(const ClassifiedRequest& classified) const {
  VoiceQuery query;
  query.target_index = classified.query.target_index;
  query.predicates = classified.query.predicates;
  if (query.target_index < 0 && !store_.speeches().empty()) {
    // No target grounded: default to the first configured target, as the
    // deployed app answers "cancellations?"-style queries with its
    // single target column.
    query.target_index = store_.speeches().front().query.target_index;
  }
  return query;
}

VoiceQueryEngine::Response VoiceQueryEngine::Answer(const std::string& request,
                                                    Session* session) const {
  Stopwatch watch;
  Response response;
  ClassifiedRequest classified = classifier_->Classify(request);
  response.type = classified.type;

  switch (classified.type) {
    case RequestType::kHelp:
      response.text = HelpText();
      break;
    case RequestType::kRepeat:
      response.text = (session == nullptr || session->last_speech_text.empty())
                          ? NothingToRepeatText()
                          : session->last_speech_text;
      break;
    case RequestType::kSupportedQuery:
    case RequestType::kUnsupportedQuery: {
      VoiceQuery query = GroundQuery(classified);
      const StoredSpeech* exact = store_.FindExact(query);
      const StoredSpeech* best = exact != nullptr ? exact : store_.FindBest(query);
      if (best != nullptr) {
        response.speech = best;
        response.exact_match = exact != nullptr;
        response.text = best->speech.text;
        if (session != nullptr) session->last_speech_text = best->speech.text;
      } else {
        response.text = NoSummaryText();
      }
      break;
    }
    case RequestType::kOther:
      response.text = NotUnderstoodText();
      break;
  }
  response.lookup_seconds = watch.ElapsedSeconds();
  return response;
}

VoiceQueryEngine::Response VoiceQueryEngine::Answer(const std::string& request) {
  MutexLock lock(*default_session_mutex_);
  return Answer(request, &default_session_);
}

}  // namespace vq
