// Named (Table, Configuration, VoiceQueryEngine) triples for multi-dataset
// serving, published as immutable versioned snapshots.
//
// The paper pre-computes speeches for one table under one configuration; a
// production voice assistant fronts many datasets at once -- and a fleet
// serving heavy traffic cannot restart to onboard or retire one. The
// registry owns the per-dataset state the routing layer serves from and
// publishes it RCU-style: every mutation (AddDataset / RemoveDataset)
// builds a NEW immutable RegistrySnapshot -- a versioned vector of
// shared_ptr entries -- and swaps it in atomically. Readers acquire the
// snapshot once per operation and hold entries by shared_ptr, so a dataset
// removed mid-request stays alive until its last in-flight answer resolves;
// no reader ever blocks a writer or vice versa.
//
// Registration builds the table (storage/datasets generators or caller
// adoption), runs pre-processing to fill the engine's speech store (in
// parallel on a process-wide pool unless the caller passes one), reloads
// persisted learned speeches and warms the table's inverted index BEFORE the
// entry becomes visible, so the first routed request never pays a lazy
// build. When a learned directory is configured, on-demand speeches are
// persisted in the SpeechStore JSON form and reloaded at registration time.
#ifndef VQ_SERVE_REGISTRY_H_
#define VQ_SERVE_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/voice_engine.h"
#include "serve/engine_host.h"
#include "storage/datasets.h"
#include "util/snapshot_ptr.h"
#include "util/sync.h"

namespace vq {
namespace serve {

struct RegistryOptions {
  /// Directory for persisted on-demand speeches ("<dir>/<name>.learned.json",
  /// SpeechStore JSON form). Empty disables persistence. Created on first
  /// save if missing.
  std::string learned_dir;
  /// Where registry metrics go (add/remove durations, snapshot version and
  /// dataset-count gauges). nullptr = obs::MetricsRegistry::Global().
  obs::MetricsRegistry* metrics = nullptr;
};

/// One registered dataset. Immutable once published in a snapshot (the
/// engine object itself may still be warmed pre-serving via mutable_engine;
/// see DatasetRegistry::mutable_engine). Shared by shared_ptr between
/// snapshots and the routing layer's host slots, so removal from the
/// registry never invalidates an in-flight request's engine.
struct DatasetEntry {
  std::string name;
  /// Monotonic registration stamp, unique across the registry's lifetime.
  /// EngineHost folds it into the cache-key fingerprint so successive
  /// incarnations of the same name never share cached answers.
  uint64_t generation = 0;
  std::unique_ptr<Table> table;
  std::unique_ptr<VoiceQueryEngine> engine;
  /// TableFingerprint(*table), computed once at registration: the learned
  /// persistence compares it on every save/reload, and recomputing would
  /// re-hash every cell under the registry's save mutex per flush.
  std::string table_fingerprint;
  /// Speeches reloaded from the learned file at registration time.
  size_t learned_loaded = 0;
  /// Snapshot-backed entries: bytes of the mmap'd snapshot file this entry's
  /// table views (and pins, via Table::SetBacking). 0 for cold-built
  /// entries. Feeds the vq_registry_snapshot_bytes_mapped gauge, which
  /// tracks REGISTERED mappings -- a removed entry's mapping may outlive
  /// the gauge decrement while in-flight requests still pin it.
  size_t bytes_mapped = 0;
  /// Per-dataset serving policy: sparse overrides the routing layer merges
  /// OVER its fleet-wide default (RouterOptions::host) when building this
  /// entry's host. Only the fields explicitly set in the overrides change;
  /// every unset field keeps the fleet value -- so a policy that only caps
  /// max_concurrent_solves still inherits the fleet's negative-result TTL,
  /// batching mode, cache quota, etc. See HostOverrides::ApplyTo.
  std::optional<HostOverrides> policy;
};

/// One immutable published state of the registry. `entries` preserves
/// registration order (stable across removals of other names).
struct RegistrySnapshot {
  uint64_t version = 0;
  std::vector<std::shared_ptr<const DatasetEntry>> entries;
  /// name -> index into `entries`.
  std::unordered_map<std::string, size_t> index;

  const DatasetEntry* Find(const std::string& name) const;
  std::shared_ptr<const DatasetEntry> FindShared(const std::string& name) const;
};

using RegistrySnapshotPtr = std::shared_ptr<const RegistrySnapshot>;

/// \brief Owns the datasets a routing service answers from; mutable while
/// serving.
///
/// All public methods are thread-safe. Writers (AddDataset/RemoveDataset)
/// serialize on an internal mutex and publish whole new snapshots; readers
/// (snapshot()/engine()/table()/...) are wait-free atomic loads. Name
/// lookups act on the snapshot current at call time -- a caller that needs a
/// consistent multi-name view should hold one snapshot() across its reads.
/// Lookup is by the registration name, which must be unique among LIVE
/// entries and need not match the generator name -- the same generator may
/// back several entries under different configurations, and a removed name
/// may be re-registered (with a fresh generation).
class DatasetRegistry {
 public:
  explicit DatasetRegistry(RegistryOptions options = {});

  DatasetRegistry(const DatasetRegistry&) = delete;
  DatasetRegistry& operator=(const DatasetRegistry&) = delete;

  /// Runs against the freshly built engine BEFORE its entry is published
  /// (routable): the only safe place to mutate the engine -- synonym
  /// registration etc. -- of a dataset added while routers are serving
  /// (once published, the VoiceQueryEngine immutability contract applies).
  using EngineSetup = std::function<void(VoiceQueryEngine*)>;

  /// Registers a caller-built table (adopted) under `name` and publishes a
  /// new snapshot. The expensive part (pre-processing, learned reload,
  /// index warm-up) plus the optional `configure` hook run before the
  /// entry becomes visible, so concurrent readers never observe a
  /// half-built dataset; may be called while routing services are serving
  /// from this registry. Pre-processing runs on `options.pool` when set;
  /// otherwise on the calling thread plus one process-wide pool of
  /// hardware_concurrency() - 1 workers shared by every registry, created
  /// by the first AddDataset that needs it (none on a single core:
  /// sequential). Either way the store and its utility sums are identical
  /// to a sequential run. Safe to call from a task running on that pool:
  /// the caller never waits for a pool task that has not started.
  Status AddDataset(const std::string& name, Table table, Configuration config,
                    const PreprocessOptions& options = {},
                    std::optional<HostOverrides> policy = std::nullopt,
                    const EngineSetup& configure = {});

  /// Builds `config.table` via storage/datasets' MakeDataset, then
  /// AddDataset.
  Status AddGenerated(const std::string& name, Configuration config, size_t rows,
                      uint64_t seed, const PreprocessOptions& options = {},
                      std::optional<HostOverrides> policy = std::nullopt,
                      const EngineSetup& configure = {});

  /// Produces the dataset's table for AddFromSnapshot's cold-build fallback.
  using TableBuilder = std::function<Result<Table>()>;

  /// Registers `name` from a zero-copy snapshot file (storage/snapshot.h):
  /// columns, inverted index and speech store are adopted straight out of
  /// the mapping, skipping pre-processing and index build entirely -- the
  /// millisecond-cold-start path. The snapshot must have been written under
  /// a configuration with the same fingerprint as `config`; on ANY snapshot
  /// problem (unreadable, version mismatch, corrupt, truncated, foreign
  /// configuration) the registry increments
  /// vq_registry_snapshot_fallbacks_total and falls back to building the
  /// table via `cold_fallback` + the normal AddDataset path (`options` is
  /// only used by that fallback; the snapshot path needs no pre-processing).
  /// Without a `cold_fallback`, the snapshot error is returned as-is.
  /// May be called while routers are serving, like AddDataset.
  Status AddFromSnapshot(const std::string& name,
                         const std::string& snapshot_path, Configuration config,
                         const TableBuilder& cold_fallback = {},
                         const PreprocessOptions& options = {},
                         std::optional<HostOverrides> policy = std::nullopt,
                         const EngineSetup& configure = {});

  /// Persists the registered dataset `name` -- table, index, pre-computed +
  /// learned speeches -- as a snapshot at `path` (atomic replace), so the
  /// next process can AddFromSnapshot it. Stamps the entry's configuration
  /// and table fingerprints. Safe under live traffic: serializes only
  /// reads of the published entry.
  Status WriteSnapshot(const std::string& name, const std::string& path) const;

  /// Unpublishes `name`: the next snapshot no longer carries the entry, so
  /// new requests cannot route to it, while snapshots (and host slots)
  /// acquired earlier keep the entry -- table, engine, stores -- alive until
  /// they drop it. NotFound when the name is not currently registered.
  Status RemoveDataset(const std::string& name);

  /// Pre-snapshot-era names kept as aliases so existing callers read
  /// naturally at startup; they ARE AddDataset/AddGenerated.
  Status RegisterGenerated(const std::string& name, Configuration config,
                           size_t rows, uint64_t seed,
                           const PreprocessOptions& options = {}) {
    return AddGenerated(name, std::move(config), rows, seed, options);
  }
  Status RegisterTable(const std::string& name, Table table, Configuration config,
                       const PreprocessOptions& options = {}) {
    return AddDataset(name, std::move(table), std::move(config), options);
  }

  /// The current published snapshot (wait-free; never nullptr). Holding the
  /// returned pointer pins every entry in it, including later-removed ones.
  RegistrySnapshotPtr snapshot() const;
  /// Version of the current snapshot; bumps on every successful mutation.
  /// The routing layer compares this against its host set to decide when to
  /// rebuild -- kept as a plain atomic counter (not snapshot()->version) so
  /// the per-request probe is one integer load with no shared_ptr refcount
  /// traffic. Published AFTER the snapshot: a reader that observes a new
  /// version is guaranteed to observe (at least) that snapshot.
  uint64_t version() const { return version_.load(std::memory_order_acquire); }

  size_t size() const { return snapshot()->entries.size(); }
  /// True when a learned_dir is configured (SaveLearned can succeed).
  bool persists_learned() const { return !options_.learned_dir.empty(); }
  /// Registration names in registration order (current snapshot).
  std::vector<std::string> Names() const;

  /// nullptr when `name` is not registered. The pointer is only guaranteed
  /// while the caller can prove the entry lives (single-threaded tests, or
  /// a held snapshot()); concurrent removers should use snapshot().
  const VoiceQueryEngine* engine(const std::string& name) const;
  const Table* table(const std::string& name) const;
  /// Pre-serving mutation access (synonym registration etc.): only safe
  /// while the dataset is NOT receiving traffic (VoiceQueryEngine
  /// contract), i.e. during startup registration before any router serves.
  /// For a dataset added under live traffic there is no safe window after
  /// AddDataset returns (it is routable immediately) -- pass an
  /// EngineSetup `configure` hook to AddDataset instead, which runs before
  /// publication.
  VoiceQueryEngine* mutable_engine(const std::string& name);

  /// Speeches reloaded from the learned file when `name` was registered.
  size_t learned_loaded(const std::string& name) const;

  /// Merges `learned` into the dataset's learned file (creating directory
  /// and file as needed). Fails when persistence is disabled or the name is
  /// unknown. Speeches for queries already in the file are replaced.
  /// Thread-safe: the read-merge-write cycle is serialized registry-wide, so
  /// concurrent flushes (even from several RoutingServices sharing this
  /// registry) cannot overwrite each other's batches.
  Status SaveLearned(const std::string& name,
                     const std::vector<StoredSpeech>& learned) const;

  /// SaveLearned against an entry the caller already holds -- the routing
  /// layer uses this to drain a REMOVED dataset's pending learned speeches
  /// (the name no longer resolves, but the speeches should survive a
  /// re-registration).
  Status SaveLearnedFor(const DatasetEntry& entry,
                        const std::vector<StoredSpeech>& learned) const;

  /// Path of the learned file for `name` (valid even before it exists).
  std::string LearnedPath(const std::string& name) const;

  /// The process-wide pool AddDataset pre-processes on when its options
  /// name none (created by the first call; nullptr on a single core), for
  /// tests that run AddDataset on that pool's own workers.
  static ThreadPool* PreprocessPoolForTesting();

 private:
  /// Swaps in `next` as the current snapshot.
  void Publish(std::shared_ptr<RegistrySnapshot> next) REQUIRES(write_mutex_);
  /// Shared add tail: takes write_mutex_, re-checks the name, stamps the
  /// generation and publishes. AlreadyExists if the name was registered
  /// concurrently since the caller's fast check.
  Status PublishEntry(std::shared_ptr<DatasetEntry> entry);
  /// Loads the persisted learned speeches (if any) into the entry's store.
  Status ReloadLearned(DatasetEntry* entry) const;

  RegistryOptions options_;
  /// Resolved metrics sink (options_.metrics or the process-global registry).
  obs::MetricsRegistry* metrics_;
  obs::LatencyHistogram* add_hist_;     ///< vq_registry_add_seconds
  obs::LatencyHistogram* remove_hist_;  ///< vq_registry_remove_seconds
  /// Serializes mutations (snapshot build + publish + generation stamps).
  Mutex write_mutex_;
  uint64_t next_generation_ GUARDED_BY(write_mutex_) = 1;
  /// Sum of bytes_mapped over currently registered entries; mirrored to the
  /// vq_registry_snapshot_bytes_mapped gauge.
  size_t snapshot_bytes_mapped_ GUARDED_BY(write_mutex_) = 0;
  /// The published snapshot (util/snapshot_ptr.h explains why this is a
  /// mutex-guarded cell rather than std::atomic<shared_ptr>).
  SnapshotPtr<const RegistrySnapshot> snapshot_;
  /// Mirrors snapshot()->version for the wait-free probe (see version()).
  std::atomic<uint64_t> version_{0};
  /// Serializes SaveLearned's read-merge-write on the learned files (the
  /// files themselves are the guarded state; no fields hang off this lock).
  mutable Mutex save_mutex_;
};

}  // namespace serve
}  // namespace vq

#endif  // VQ_SERVE_REGISTRY_H_
