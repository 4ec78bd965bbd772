// Snapshot robustness suite: the round-trip property (a loaded snapshot is
// bit-identical to the cold-built structures it was written from) and the
// rejection paths (corrupted checksum, truncated file, foreign format
// version, garbage, posting lists edited under a recomputed checksum), each
// of which must fail cleanly so the registry can fall back to a cold build.
#include "storage/snapshot.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "engine/voice_engine.h"
#include "storage/index.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/xxhash64.h"

namespace vq {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

/// A two-dimension, two-target table of `num_rows` seeded random rows.
Table MakeTable(size_t num_rows) {
  Table table("snapshot_fixture");
  table.AddDimColumn("region");
  table.AddDimColumn("season");
  table.AddTargetColumn("delay", "minutes");
  table.AddTargetColumn("cancelled", "percent");
  const char* regions[] = {"North", "South", "East", "West", "Central"};
  const char* seasons[] = {"Winter", "Spring", "Summer", "Fall"};
  Rng rng(20210318);
  for (size_t r = 0; r < num_rows; ++r) {
    EXPECT_TRUE(table
                    .AppendRow({regions[rng.NextInt(0, 4)],
                                seasons[rng.NextInt(0, 3)]},
                               {static_cast<double>(rng.NextInt(0, 120)),
                                rng.NextInt(0, 1000) / 10.0})
                    .ok());
  }
  return table;
}

/// Bit identity of two arrays (memcmp, not ==: a NaN target must match its
/// own bits). Empty arrays may have null data, which memcmp must not see.
template <typename T>
bool SameBits(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

void ExpectBitIdentical(const Table& cold, const Table& loaded) {
  ASSERT_EQ(loaded.NumRows(), cold.NumRows());
  ASSERT_EQ(loaded.NumDims(), cold.NumDims());
  ASSERT_EQ(loaded.NumTargets(), cold.NumTargets());
  EXPECT_EQ(loaded.name(), cold.name());
  for (size_t d = 0; d < cold.NumDims(); ++d) {
    EXPECT_EQ(loaded.DimName(d), cold.DimName(d));
    // Identical intern order -> identical ValueIds -> columns can be
    // compared as raw code arrays.
    ASSERT_EQ(loaded.dict(d).values(), cold.dict(d).values());
    EXPECT_TRUE(SameBits(loaded.DimColumn(d), cold.DimColumn(d)));
  }
  for (size_t t = 0; t < cold.NumTargets(); ++t) {
    EXPECT_EQ(loaded.TargetName(t), cold.TargetName(t));
    EXPECT_EQ(loaded.TargetUnit(t), cold.TargetUnit(t));
    EXPECT_TRUE(SameBits(loaded.TargetColumn(t), cold.TargetColumn(t)));
  }

  const TableIndex& cold_index = cold.index();
  const TableIndex& loaded_index = loaded.index();
  ASSERT_EQ(loaded_index.num_dims(), cold_index.num_dims());
  EXPECT_EQ(loaded_index.num_rows(), cold_index.num_rows());
  for (size_t d = 0; d < cold.NumDims(); ++d) {
    EXPECT_TRUE(SameBits(loaded_index.RowsArray(d), cold_index.RowsArray(d)));
    EXPECT_TRUE(SameBits(loaded_index.OffsetsArray(d), cold_index.OffsetsArray(d)));
  }
}

TEST(SnapshotTest, RoundTripIsBitIdentical) {
  for (size_t rows : {size_t{0}, size_t{1}, size_t{100}}) {
    Table cold = MakeTable(rows);
    std::string path = TempPath("roundtrip_" + std::to_string(rows) + ".vqsnap");
    auto written = WriteSnapshot(path, cold, "cfg-fp", "table-fp", {});
    ASSERT_TRUE(written.ok()) << written.status().message();
    EXPECT_EQ(written.value(), std::filesystem::file_size(path));

    auto loaded = LoadSnapshot(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    EXPECT_EQ(loaded.value().config_fingerprint, "cfg-fp");
    EXPECT_EQ(loaded.value().table_fingerprint, "table-fp");
    EXPECT_EQ(loaded.value().bytes_mapped, written.value());
    EXPECT_TRUE(loaded.value().table.snapshot_backed());
    // The index arrived pre-built: adoption, not a lazy rebuild.
    EXPECT_TRUE(loaded.value().table.has_index());
    ExpectBitIdentical(cold, loaded.value().table);
    std::filesystem::remove(path);
  }
}

TEST(SnapshotTest, SpeechStoreRoundTripsThroughTheSnapshot) {
  Table table = MakeTable(60);
  Configuration config;
  config.table = "snapshot_fixture";
  config.dimensions = {"region", "season"};
  config.targets = {"delay"};
  config.max_query_predicates = 1;
  auto engine = VoiceQueryEngine::Build(&table, config, {});
  ASSERT_TRUE(engine.ok());
  const SpeechStore& store = engine.value().store();
  ASSERT_GT(store.size(), 0u);

  std::string path = TempPath("speech_roundtrip.vqsnap");
  ASSERT_TRUE(WriteSnapshot(path, table, "cfg", "tbl", store).ok());
  auto loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();

  const SpeechStore& reloaded = loaded.value().store;
  ASSERT_EQ(reloaded.size(), store.size());
  for (const StoredSpeech& stored : store.speeches()) {
    const StoredSpeech* match = reloaded.FindExact(stored.query);
    ASSERT_NE(match, nullptr) << stored.query.Key();
    // Key equality implies the predicates re-encoded to the SAME ValueIds
    // against the loaded table's dictionaries.
    EXPECT_EQ(match->query.Key(), stored.query.Key());
    EXPECT_EQ(match->speech.text, stored.speech.text);
  }
  std::filesystem::remove(path);
}

TEST(SnapshotTest, LoadedTableStaysMutableViaCopyOnWrite) {
  Table cold = MakeTable(50);
  std::string path = TempPath("cow.vqsnap");
  ASSERT_TRUE(WriteSnapshot(path, cold, "cfg", "tbl", {}).ok());
  auto loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok());
  Table table = std::move(loaded.value().table);

  // Appending to a snapshot-backed table must materialize private copies of
  // the borrowed columns (never write through the read-only mapping) and
  // invalidate the adopted index.
  ASSERT_TRUE(table.AppendRow({"North", "Winter"}, {42.0, 1.0}).ok());
  EXPECT_FALSE(table.has_index());
  EXPECT_EQ(table.NumRows(), 51u);
  EXPECT_EQ(table.index().num_rows(), 51u);
  EXPECT_EQ(table.index().Postings(0, 0).size(), table.index().Count(0, 0));
  std::filesystem::remove(path);
}

TEST(SnapshotTest, CorruptedChecksumIsRejected) {
  Table cold = MakeTable(40);
  std::string path = TempPath("corrupt.vqsnap");
  ASSERT_TRUE(WriteSnapshot(path, cold, "cfg", "tbl", {}).ok());

  // Flip one payload byte mid-file.
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file.is_open());
  size_t size = std::filesystem::file_size(path);
  file.seekg(static_cast<std::streamoff>(size / 2));
  char byte = 0;
  file.read(&byte, 1);
  byte ^= 0x5a;
  file.seekp(static_cast<std::streamoff>(size / 2));
  file.write(&byte, 1);
  file.close();

  auto loaded = LoadSnapshot(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("checksum"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(SnapshotTest, TruncatedFileIsRejected) {
  Table cold = MakeTable(40);
  std::string path = TempPath("truncated.vqsnap");
  ASSERT_TRUE(WriteSnapshot(path, cold, "cfg", "tbl", {}).ok());
  size_t size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - size / 3);

  auto loaded = LoadSnapshot(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("truncated"), std::string::npos);

  // Degenerate truncation: shorter than the header itself.
  std::filesystem::resize_file(path, 16);
  EXPECT_FALSE(LoadSnapshot(path).ok());
  std::filesystem::remove(path);
}

TEST(SnapshotTest, ForeignFormatVersionIsRejected) {
  // Version 1 is the former sharded format: a stale cache, rejected before
  // anything else is read, like any version this build does not write.
  for (uint32_t version : {1u, kSnapshotFormatVersion + 1}) {
    SCOPED_TRACE("version " + std::to_string(version));
    Table cold = MakeTable(40);
    std::string path = TempPath("version.vqsnap");
    ASSERT_TRUE(WriteSnapshot(path, cold, "cfg", "tbl", {}).ok());

    // format_version lives right after the 8-byte magic.
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.is_open());
    file.seekp(8);
    file.write(reinterpret_cast<const char*>(&version), sizeof(version));
    file.close();

    auto loaded = LoadSnapshot(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kUnsupported);
    EXPECT_NE(loaded.status().message().find("version"), std::string::npos);
    std::filesystem::remove(path);
  }
}

/// Writes a 200-row snapshot, lets `edit` change its bytes (the meta
/// section's parsed JSON is handed in to locate sections), recomputes the
/// payload checksum as a writer would, and returns what LoadSnapshot makes
/// of the result.
Status LoadEdited(const std::string& name,
                  const std::function<void(std::string*, const Json&)>& edit) {
  Table cold = MakeTable(200);
  std::string path = TempPath(name);
  EXPECT_TRUE(WriteSnapshot(path, cold, "cfg", "tbl", {}).ok());
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  // Header fields: payload hash at byte 24, meta offset at 32, meta size at 40.
  uint64_t meta_offset = 0;
  uint64_t meta_size = 0;
  std::memcpy(&meta_offset, bytes.data() + 32, sizeof(meta_offset));
  std::memcpy(&meta_size, bytes.data() + 40, sizeof(meta_size));
  auto meta = Json::Parse(bytes.substr(meta_offset, meta_size));
  EXPECT_TRUE(meta.ok());
  edit(&bytes, meta.value());
  uint64_t hash = XxHash64(bytes.data() + 64, bytes.size() - 64);
  std::memcpy(bytes.data() + 24, &hash, sizeof(hash));
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  auto loaded = LoadSnapshot(path);
  std::filesystem::remove(path);
  return loaded.ok() ? Status::OK() : loaded.status();
}

/// Byte offset of uint32 `i` of the section `dims[dim].<section>`.
size_t WordAt(const Json& meta, size_t dim, const char* section, size_t i) {
  int64_t off = meta.Get("dims")->At(dim).Get(section)->GetInt("off", -1);
  return static_cast<size_t>(off) + i * sizeof(uint32_t);
}

uint32_t ReadWord(const std::string& bytes, size_t at) {
  uint32_t value = 0;
  std::memcpy(&value, bytes.data() + at, sizeof(value));
  return value;
}

void WriteWord(std::string* bytes, size_t at, uint32_t value) {
  std::memcpy(bytes->data() + at, &value, sizeof(value));
}

TEST(SnapshotTest, InconsistentPostingsUnderAValidChecksumAreRejected) {
  // The control: re-hashing an unedited file changes nothing.
  EXPECT_TRUE(LoadEdited("control.vqsnap", [](std::string*, const Json&) {}).ok());

  struct Edit {
    const char* name;
    std::function<void(std::string*, const Json&)> apply;
  };
  std::vector<Edit> edits = {
      {"row id past the table",
       [](std::string* bytes, const Json& meta) {
         WriteWord(bytes, WordAt(meta, 0, "posting_rows", 5), 207);
       }},
      {"first offset not zero",
       [](std::string* bytes, const Json& meta) {
         WriteWord(bytes, WordAt(meta, 1, "posting_offsets", 0), 1);
       }},
      {"decreasing offsets",
       [](std::string* bytes, const Json& meta) {
         uint32_t second = ReadWord(*bytes, WordAt(meta, 0, "posting_offsets", 2));
         WriteWord(bytes, WordAt(meta, 0, "posting_offsets", 1), second + 1);
       }},
      {"last offset not the row count",
       [](std::string* bytes, const Json& meta) {
         size_t cardinality = meta.Get("dims")->At(0).Get("values")->Size();
         WriteWord(bytes, WordAt(meta, 0, "posting_offsets", cardinality), 199);
       }},
      {"rows swapped between two values",
       [](std::string* bytes, const Json& meta) {
         // The first row of value 0 trades places with the first of value 1:
         // still a CSR of in-range row ids, but each list now holds a row of
         // the other value.
         uint32_t second = ReadWord(*bytes, WordAt(meta, 0, "posting_offsets", 1));
         size_t a = WordAt(meta, 0, "posting_rows", 0);
         size_t b = WordAt(meta, 0, "posting_rows", second);
         uint32_t row_a = ReadWord(*bytes, a);
         WriteWord(bytes, a, ReadWord(*bytes, b));
         WriteWord(bytes, b, row_a);
       }},
      {"rows out of order within a list",
       [](std::string* bytes, const Json& meta) {
         size_t a = WordAt(meta, 0, "posting_rows", 0);
         size_t b = WordAt(meta, 0, "posting_rows", 1);
         uint32_t row_a = ReadWord(*bytes, a);
         WriteWord(bytes, a, ReadWord(*bytes, b));
         WriteWord(bytes, b, row_a);
       }},
      {"rows array shorter than the table",
       [](std::string* bytes, const Json&) {
         // "count":200 -> "count":199 keeps the meta section's length.
         size_t at = bytes->find("\"count\":", bytes->rfind("\"posting_rows\""));
         ASSERT_NE(at, std::string::npos);
         ASSERT_EQ(bytes->compare(at + 8, 3, "200"), 0);
         bytes->replace(at + 8, 3, "199");
       }},
  };
  for (const Edit& edit : edits) {
    SCOPED_TRACE(edit.name);
    Status status = LoadEdited("edited.vqsnap", edit.apply);
    EXPECT_EQ(status.code(), StatusCode::kParseError) << status.ToString();
  }
}

TEST(SnapshotTest, GarbageAndMissingFilesAreRejected) {
  EXPECT_FALSE(LoadSnapshot(TempPath("does_not_exist.vqsnap")).ok());

  std::string path = TempPath("garbage.vqsnap");
  std::ofstream out(path, std::ios::binary);
  for (int i = 0; i < 4096; ++i) out.put(static_cast<char>(i * 31));
  out.close();
  auto loaded = LoadSnapshot(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("not a dataset snapshot"),
            std::string::npos);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace vq
