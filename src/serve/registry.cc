#include "serve/registry.h"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>

#include "serve/answer.h"
#include "storage/snapshot.h"
#include "util/atomic_file.h"
#include "util/stopwatch.h"

namespace vq {
namespace serve {

namespace {

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open '" + path + "' for reading");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// The pool AddDataset pre-processes on when its options name none: one for
/// every registry, since the calling thread solves problems too and
/// cores - 1 workers fill the host; nullptr on a single core. Never
/// destroyed, like ScanPool() (an AddDataset may still run on it while
/// static destructors do), and kept apart from ScanPool(): the solves'
/// filters fan out on that pool and wait for it.
ThreadPool* SharedPreprocessPool() {
  static ThreadPool* pool = []() -> ThreadPool* {
    unsigned cores = std::thread::hardware_concurrency();
    return cores > 1 ? new ThreadPool(cores - 1) : nullptr;
  }();
  return pool;
}

}  // namespace

const DatasetEntry* RegistrySnapshot::Find(const std::string& name) const {
  auto it = index.find(name);
  if (it == index.end()) return nullptr;
  return entries[it->second].get();
}

std::shared_ptr<const DatasetEntry> RegistrySnapshot::FindShared(
    const std::string& name) const {
  auto it = index.find(name);
  if (it == index.end()) return nullptr;
  return entries[it->second];
}

DatasetRegistry::DatasetRegistry(RegistryOptions options)
    : options_(std::move(options)),
      metrics_(options_.metrics != nullptr ? options_.metrics
                                           : &obs::MetricsRegistry::Global()),
      add_hist_(metrics_->GetHistogram("vq_registry_add_seconds")),
      remove_hist_(metrics_->GetHistogram("vq_registry_remove_seconds")) {
  snapshot_.store(std::make_shared<const RegistrySnapshot>());
}

RegistrySnapshotPtr DatasetRegistry::snapshot() const {
  return snapshot_.load();
}

void DatasetRegistry::Publish(std::shared_ptr<RegistrySnapshot> next) {
  next->index.clear();
  for (size_t i = 0; i < next->entries.size(); ++i) {
    next->index.emplace(next->entries[i]->name, i);
  }
  uint64_t version = next->version;
  size_t datasets = next->entries.size();
  // Snapshot first, counter second: observing the new version (acquire)
  // therefore implies the new snapshot is visible.
  snapshot_.store(std::move(next));
  version_.store(version, std::memory_order_release);
  metrics_->SetGauge("vq_registry_version", static_cast<double>(version));
  metrics_->SetGauge("vq_registry_datasets", static_cast<double>(datasets));
}

Status DatasetRegistry::AddGenerated(const std::string& name,
                                     Configuration config, size_t rows,
                                     uint64_t seed,
                                     const PreprocessOptions& options,
                                     std::optional<HostOverrides> policy,
                                     const EngineSetup& configure) {
  VQ_ASSIGN_OR_RETURN(Table table, MakeDataset(config.table, rows, seed));
  return AddDataset(name, std::move(table), std::move(config), options,
                    std::move(policy), configure);
}

Status DatasetRegistry::AddDataset(const std::string& name, Table table,
                                   Configuration config,
                                   const PreprocessOptions& options,
                                   std::optional<HostOverrides> policy,
                                   const EngineSetup& configure) {
  Stopwatch watch;
  if (name.empty()) return Status::InvalidArgument("dataset name must not be empty");
  // Fast duplicate fail before the expensive build; the authoritative check
  // re-runs under the write mutex right before publish.
  if (snapshot()->Find(name) != nullptr) {
    return Status::AlreadyExists("dataset '" + name + "' already registered");
  }
  auto entry = std::make_shared<DatasetEntry>();
  entry->name = name;
  entry->table = std::make_unique<Table>(std::move(table));
  entry->policy = std::move(policy);
  PreprocessOptions preprocess = options;
  if (preprocess.pool == nullptr) preprocess.pool = SharedPreprocessPool();
  auto built =
      VoiceQueryEngine::Build(entry->table.get(), std::move(config), preprocess);
  if (!built.ok()) return built.status();
  entry->engine = std::make_unique<VoiceQueryEngine>(std::move(built).value());
  // Pre-publication setup (synonyms etc.): the entry is not yet visible to
  // any snapshot, so this is the one mutation window that is race-free
  // even under live traffic.
  if (configure) configure(entry->engine.get());
  // Only the learned persistence consumes the content fingerprint; without
  // a learned_dir there is no reason to hash every cell at registration.
  if (persists_learned()) {
    entry->table_fingerprint = TableFingerprint(*entry->table);
  }
  // Build's pre-processing pass has already warmed the table's inverted
  // index (engine/preprocessor.cc warms unconditionally), so the dataset
  // publishes with a ready index: the serving layer's first on-demand miss
  // never pays -- or serializes workers on -- the lazy build.
  VQ_RETURN_IF_ERROR(ReloadLearned(entry.get()));

  VQ_RETURN_IF_ERROR(PublishEntry(std::move(entry)));
  metrics_->GetCounter("vq_registry_adds_total")->Increment();
  add_hist_->Record(watch.ElapsedSeconds());
  return Status::OK();
}

ThreadPool* DatasetRegistry::PreprocessPoolForTesting() {
  return SharedPreprocessPool();
}

Status DatasetRegistry::PublishEntry(std::shared_ptr<DatasetEntry> entry) {
  MutexLock lock(write_mutex_);
  RegistrySnapshotPtr current = snapshot();
  if (current->Find(entry->name) != nullptr) {
    return Status::AlreadyExists("dataset '" + entry->name +
                                 "' already registered");
  }
  entry->generation = next_generation_++;
  snapshot_bytes_mapped_ += entry->bytes_mapped;
  metrics_->SetGauge("vq_registry_snapshot_bytes_mapped",
                     static_cast<double>(snapshot_bytes_mapped_));
  auto next = std::make_shared<RegistrySnapshot>();
  next->version = current->version + 1;
  next->entries = current->entries;
  next->entries.push_back(std::move(entry));
  Publish(std::move(next));
  return Status::OK();
}

Status DatasetRegistry::AddFromSnapshot(const std::string& name,
                                        const std::string& snapshot_path,
                                        Configuration config,
                                        const TableBuilder& cold_fallback,
                                        const PreprocessOptions& options,
                                        std::optional<HostOverrides> policy,
                                        const EngineSetup& configure) {
  Stopwatch watch;
  if (name.empty()) return Status::InvalidArgument("dataset name must not be empty");
  if (snapshot()->Find(name) != nullptr) {
    return Status::AlreadyExists("dataset '" + name + "' already registered");
  }

  Result<LoadedSnapshot> loaded = LoadSnapshot(snapshot_path);
  Status snapshot_status =
      loaded.ok() ? Status::OK() : loaded.status();
  if (snapshot_status.ok() &&
      loaded.value().config_fingerprint != ConfigFingerprint(config)) {
    // The speech store (and everything the engine will answer from) was
    // optimized under a different configuration; adopting it would serve
    // wrong summaries with full confidence.
    snapshot_status = Status::FailedPrecondition(
        "snapshot '" + snapshot_path +
        "' was written under a different configuration");
  }
  if (!snapshot_status.ok()) {
    // A bad snapshot costs time, never correctness: rebuild from scratch.
    metrics_->GetCounter("vq_registry_snapshot_fallbacks_total")->Increment();
    if (!cold_fallback) return snapshot_status;
    VQ_ASSIGN_OR_RETURN(Table table, cold_fallback());
    return AddDataset(name, std::move(table), std::move(config), options,
                      std::move(policy), configure);
  }

  auto entry = std::make_shared<DatasetEntry>();
  entry->name = name;
  entry->table = std::make_unique<Table>(std::move(loaded.value().table));
  entry->policy = std::move(policy);
  entry->engine = std::make_unique<VoiceQueryEngine>(VoiceQueryEngine::FromStore(
      entry->table.get(), std::move(config), std::move(loaded.value().store)));
  // Stamped at write time, so the learned persistence gets its content
  // fingerprint without re-hashing 10M+ cells on the fast path.
  entry->table_fingerprint = loaded.value().table_fingerprint;
  entry->bytes_mapped = loaded.value().bytes_mapped;
  if (configure) configure(entry->engine.get());
  VQ_RETURN_IF_ERROR(ReloadLearned(entry.get()));

  VQ_RETURN_IF_ERROR(PublishEntry(std::move(entry)));
  metrics_->GetCounter("vq_registry_adds_total")->Increment();
  metrics_->GetCounter("vq_registry_snapshot_loads_total")->Increment();
  metrics_->GetHistogram("vq_registry_snapshot_load_seconds")
      ->Record(watch.ElapsedSeconds());
  add_hist_->Record(watch.ElapsedSeconds());
  return Status::OK();
}

Status DatasetRegistry::WriteSnapshot(const std::string& name,
                                      const std::string& path) const {
  std::shared_ptr<const DatasetEntry> entry = snapshot()->FindShared(name);
  if (entry == nullptr) return Status::NotFound("dataset '" + name + "' unknown");
  // Cold-built entries without learned persistence never computed the
  // content fingerprint; the snapshot needs it stamped, so hash now.
  std::string table_fingerprint = entry->table_fingerprint.empty()
                                      ? TableFingerprint(*entry->table)
                                      : entry->table_fingerprint;
  Result<size_t> written = vq::WriteSnapshot(
      path, *entry->table, ConfigFingerprint(entry->engine->config()),
      table_fingerprint, entry->engine->store());
  if (!written.ok()) return written.status();
  metrics_->GetCounter("vq_registry_snapshot_writes_total")->Increment();
  return Status::OK();
}

Status DatasetRegistry::RemoveDataset(const std::string& name) {
  Stopwatch watch;
  MutexLock lock(write_mutex_);
  RegistrySnapshotPtr current = snapshot();
  if (current->Find(name) == nullptr) {
    return Status::NotFound("dataset '" + name + "' unknown");
  }
  auto next = std::make_shared<RegistrySnapshot>();
  next->version = current->version + 1;
  next->entries.reserve(current->entries.size() - 1);
  for (const auto& entry : current->entries) {
    if (entry->name != name) {
      next->entries.push_back(entry);
    } else {
      // Gauge counts registered mappings; the mapping itself stays alive
      // until the last holder of the entry drops it.
      snapshot_bytes_mapped_ -= entry->bytes_mapped;
      metrics_->SetGauge("vq_registry_snapshot_bytes_mapped",
                         static_cast<double>(snapshot_bytes_mapped_));
    }
  }
  Publish(std::move(next));
  metrics_->GetCounter("vq_registry_removes_total")->Increment();
  remove_hist_->Record(watch.ElapsedSeconds());
  return Status::OK();
}

std::vector<std::string> DatasetRegistry::Names() const {
  RegistrySnapshotPtr current = snapshot();
  std::vector<std::string> out;
  out.reserve(current->entries.size());
  for (const auto& entry : current->entries) out.push_back(entry->name);
  return out;
}

const VoiceQueryEngine* DatasetRegistry::engine(const std::string& name) const {
  const DatasetEntry* entry = snapshot()->Find(name);
  return entry != nullptr ? entry->engine.get() : nullptr;
}

const Table* DatasetRegistry::table(const std::string& name) const {
  const DatasetEntry* entry = snapshot()->Find(name);
  return entry != nullptr ? entry->table.get() : nullptr;
}

VoiceQueryEngine* DatasetRegistry::mutable_engine(const std::string& name) {
  const DatasetEntry* entry = snapshot()->Find(name);
  return entry != nullptr ? entry->engine.get() : nullptr;
}

size_t DatasetRegistry::learned_loaded(const std::string& name) const {
  const DatasetEntry* entry = snapshot()->Find(name);
  return entry != nullptr ? entry->learned_loaded : 0;
}

std::string DatasetRegistry::LearnedPath(const std::string& name) const {
  return (std::filesystem::path(options_.learned_dir) / (name + ".learned.json"))
      .string();
}

Status DatasetRegistry::ReloadLearned(DatasetEntry* entry) const {
  if (options_.learned_dir.empty()) return Status::OK();
  std::string path = LearnedPath(entry->name);
  if (!std::filesystem::exists(path)) return Status::OK();
  auto contents = ReadFile(path);
  if (!contents.ok()) return contents.status();
  auto json = Json::Parse(contents.value());
  if (!json.ok()) {
    // Learned speeches are an incremental optimization, never required for
    // correctness: a corrupt file (e.g. written by a pre-atomic-write
    // version) must not brick registration. Leave it for inspection; the
    // next SaveLearned fails loudly on the parse error instead.
    return Status::OK();
  }
  // Speeches learned under a DIFFERENT configuration (changed max_facts,
  // prior, ...) are stale: the current config could never produce them.
  // Files without a stamp (foreign/hand-edited) are treated the same way.
  if (json.value().GetString("config_fingerprint", "") !=
      ConfigFingerprint(entry->engine->config())) {
    return Status::OK();
  }
  // Same for speeches rendered from DIFFERENT rows: an identically
  // configured re-add of the name with new data (the dynamic-registry case
  // the generation-stamped cache keys already guard) must not resurrect
  // the old incarnation's numbers through the learned file. A restarted
  // service over the same data still matches and reloads, and a file from
  // before table stamping (no field) is grandfathered rather than silently
  // invalidated on upgrade.
  std::string table_stamp = json.value().GetString("table_fingerprint", "");
  if (!table_stamp.empty() && table_stamp != entry->table_fingerprint) {
    return Status::OK();
  }
  auto parsed = SpeechStore::FromJson(json.value(), *entry->table);
  if (!parsed.ok()) return Status::OK();  // same rationale: skip, don't brick
  const SpeechStore& learned = parsed.value();
  SpeechStore* store = entry->engine->mutable_store();
  for (const StoredSpeech& stored : learned.speeches()) {
    // Pre-processed speeches win: a learned answer for a query the current
    // configuration materializes is redundant (and possibly stale).
    if (store->FindExact(stored.query) == nullptr) {
      store->Put(stored);
      ++entry->learned_loaded;
    }
  }
  return Status::OK();
}

Status DatasetRegistry::SaveLearned(const std::string& name,
                                    const std::vector<StoredSpeech>& learned) const {
  // Holding the shared entry keeps table/engine alive through the merge
  // even if the dataset is removed concurrently.
  std::shared_ptr<const DatasetEntry> entry = snapshot()->FindShared(name);
  if (entry == nullptr) return Status::NotFound("dataset '" + name + "' unknown");
  return SaveLearnedFor(*entry, learned);
}

Status DatasetRegistry::SaveLearnedFor(
    const DatasetEntry& entry, const std::vector<StoredSpeech>& learned) const {
  if (options_.learned_dir.empty()) {
    return Status::FailedPrecondition("registry has no learned_dir configured");
  }
  if (learned.empty()) return Status::OK();

  // One read-merge-write at a time, or concurrent flushes would each merge
  // into the same stale disk state and the last rename would win.
  MutexLock lock(save_mutex_);
  // A RETIRED writer must not clobber a successor: when the name has been
  // re-registered (different generation) since `entry` was current, the
  // learned file belongs to the newer incarnation -- whose fingerprint the
  // merge below would discard wholesale. Dropping the retired batch is the
  // documented best-effort behavior; overwriting would silently destroy
  // every speech the successor persisted. The snapshot is held in a local
  // so the successor entry cannot be freed under the generation read; the
  // writer_is_live bit additionally gates the foreign-fingerprint replace
  // below, because a successor that was ALSO removed leaves no live entry
  // to compare against -- only its file.
  RegistrySnapshotPtr current = snapshot();
  const DatasetEntry* live = current->Find(entry.name);
  bool writer_is_live = live != nullptr && live->generation == entry.generation;
  if (live != nullptr && !writer_is_live) {
    // Exception: a successor over the SAME configuration and SAME data is
    // semantically the same dataset (the restart case done live), so the
    // retired batch merges safely -- that is the "speeches survive a
    // re-registration" contract. Any other successor owns the file.
    bool same_dataset =
        live->table_fingerprint == entry.table_fingerprint &&
        ConfigFingerprint(live->engine->config()) ==
            ConfigFingerprint(entry.engine->config());
    if (!same_dataset) return Status::OK();
  }
  std::error_code ec;
  std::filesystem::create_directories(options_.learned_dir, ec);
  if (ec) {
    return Status::IOError("cannot create learned_dir '" + options_.learned_dir +
                           "': " + ec.message());
  }

  // Merge with what is already on disk so repeated flushes accumulate --
  // but only when the file was written under the SAME configuration; stale
  // speeches from a previous config are dropped, not carried forward. That
  // replacement is a privilege of the LIVE incarnation: a retired writer
  // facing a foreign fingerprint is looking at a (possibly also removed)
  // successor's file and must leave it intact.
  std::string fingerprint = ConfigFingerprint(entry.engine->config());
  const std::string& table_fingerprint = entry.table_fingerprint;
  SpeechStore merged;
  std::string path = LearnedPath(entry.name);
  if (std::filesystem::exists(path)) {
    VQ_ASSIGN_OR_RETURN(std::string contents, ReadFile(path));
    VQ_ASSIGN_OR_RETURN(Json json, Json::Parse(contents));
    // An empty table stamp is a pre-table-stamping file: grandfathered on
    // the same grace as ReloadLearned (the next write re-stamps it).
    std::string file_table_stamp = json.GetString("table_fingerprint", "");
    if (json.GetString("config_fingerprint", "") == fingerprint &&
        (file_table_stamp.empty() || file_table_stamp == table_fingerprint)) {
      VQ_ASSIGN_OR_RETURN(merged, SpeechStore::FromJson(json, *entry.table));
    } else if (!writer_is_live) {
      return Status::OK();
    }
  }
  for (const StoredSpeech& stored : learned) merged.Put(stored);
  Json out = merged.ToJson(*entry.table);
  out.Set("config_fingerprint", Json::Str(fingerprint));
  out.Set("table_fingerprint", Json::Str(table_fingerprint));
  return WriteFileAtomic(path, out.Dump(2) + "\n");
}

}  // namespace serve
}  // namespace vq
