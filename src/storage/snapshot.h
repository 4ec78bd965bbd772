// Versioned on-disk dataset snapshots for zero-copy, millisecond cold start.
//
// A snapshot is one file per dataset holding everything the serving layer
// otherwise computes at registration time: the dictionary-encoded columns,
// the inverted index (one CSR of posting lists per dimension), and the
// pre-computed + learned speech store. Loading does not rebuild any of it
// -- the numeric arrays are adopted as std::span views straight into a
// read-only mmap (util/mmap_file.h) via the ColumnStorage borrow path
// (storage/column.h), so time-to-routable is dominated by checksum
// verification and JSON metadata parsing, not by row count.
//
// File layout (all integers little-endian, the only supported hosts):
//
//   [SnapshotHeader, 64 bytes]
//   [blob region]    every numeric array back to back, each 64-byte aligned
//                    (zero padding between) -- mmap bases are page-aligned,
//                    so a 64-aligned file offset is a 64-aligned address:
//                    safe for any element type and friendly to the SIMD
//                    kernels that consume target columns.
//   [speech JSON]    SpeechStore::ToJson dump (decoded strings)
//   [meta JSON]      section directory + schema; see WriteSnapshot in the .cc
//
// The header carries the magic, format version, total size, an XXH64 over
// the entire payload (everything after the header), and the meta section's
// location. Meta comes LAST in the file so the writer knows every array
// offset before serializing it; the header points back at it.
//
// Validation order on load: size/magic/version -> total_bytes (truncation)
// -> payload hash (corruption; also faults in every page, so no SIGBUS
// surprises later) -> meta parse + per-section bounds checks -> posting
// lists (offsets run from 0 to num_rows without decreasing, row ids are in
// range). Any failure returns an error and the caller (serve/registry.cc)
// falls back to a cold build -- a stale or damaged snapshot can cost time,
// never correctness.
//
// Compatibility is deliberately strict: kFormatVersion mismatch rejects the
// file (snapshots are a cache, the cold path regenerates them), and the
// stored config fingerprint must match the configuration the dataset is
// being registered under (the speech store is only valid for the
// configuration it was optimized with).
#ifndef VQ_STORAGE_SNAPSHOT_H_
#define VQ_STORAGE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "engine/speech_store.h"
#include "storage/table.h"
#include "util/status.h"

namespace vq {

/// Bump on ANY layout or meta-schema change; old files are rejected (and
/// regenerated by the cold path), never migrated.
inline constexpr uint32_t kSnapshotFormatVersion = 2;

/// Alignment of every array section, and of the blob region itself.
inline constexpr size_t kSnapshotAlignment = 64;

/// Serializes `table` (columns + its inverted index, built on demand if not
/// yet cached) and `store` to `path`, atomically (util/atomic_file.h: a
/// crash mid-write never leaves a partial snapshot under the final name).
/// The fingerprints are stamped into the meta section: the loader hands
/// them back so the registry can reject a snapshot written under a
/// different configuration without re-hashing anything. Returns the file
/// size in bytes.
Result<size_t> WriteSnapshot(const std::string& path, const Table& table,
                             const std::string& config_fingerprint,
                             const std::string& table_fingerprint,
                             const SpeechStore& store);

/// A successfully validated and adopted snapshot. The table's columns and
/// index view the mapping zero-copy; the mapping itself is pinned by the
/// table's backing pointer (Table::SetBacking), so the LoadedSnapshot
/// struct can be taken apart freely -- whoever ends up holding the table
/// (or any copy of it) holds the mapping.
struct LoadedSnapshot {
  Table table;
  /// Pre-computed + learned speeches, re-keyed against `table`'s
  /// dictionaries (identical ValueIds by construction: the loader interns
  /// dictionary values in stored code order).
  SpeechStore store;
  /// Fingerprints stamped at write time, for the registry's compatibility
  /// checks (serve::ConfigFingerprint of the registering config must equal
  /// `config_fingerprint`).
  std::string config_fingerprint;
  std::string table_fingerprint;
  /// Total bytes mapped (the file size); feeds the
  /// vq_registry_snapshot_bytes_mapped gauge.
  size_t bytes_mapped = 0;

  LoadedSnapshot(Table t, SpeechStore s) : table(std::move(t)), store(std::move(s)) {}
};

/// Maps, validates and adopts the snapshot at `path`. Errors (unreadable,
/// wrong magic/version, truncated, corrupt, malformed meta) leave no state
/// behind; callers fall back to a cold build.
Result<LoadedSnapshot> LoadSnapshot(const std::string& path);

}  // namespace vq

#endif  // VQ_STORAGE_SNAPSHOT_H_
