#include "storage/snapshot.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "storage/index.h"
#include "util/atomic_file.h"
#include "util/fault.h"
#include "util/json.h"
#include "util/mmap_file.h"
#include "util/thread_pool.h"
#include "util/xxhash64.h"

namespace vq {

namespace {

constexpr char kMagic[8] = {'V', 'Q', 'S', 'N', 'A', 'P', '0', '1'};

/// Fixed 64-byte file prelude. Everything after it is "payload" and covered
/// by payload_hash; meta_offset/meta_size locate the JSON directory that
/// describes the rest.
struct SnapshotHeader {
  char magic[8];
  uint32_t format_version;
  uint32_t flags;
  uint64_t total_bytes;
  uint64_t payload_hash;
  uint64_t meta_offset;
  uint64_t meta_size;
  uint64_t reserved[2];
};
static_assert(sizeof(SnapshotHeader) == 64, "header must stay 64 bytes");

/// Appends arrays to the growing file image, 64-byte aligned, and hands
/// back the {off, count} JSON stanza the meta section records for each.
class BlobBuilder {
 public:
  explicit BlobBuilder(std::string* out) : out_(out) {}

  template <typename T>
  Json Append(std::span<const T> values) {
    size_t offset = Align(out_->size());
    out_->resize(offset, '\0');
    out_->append(reinterpret_cast<const char*>(values.data()),
                 values.size_bytes());
    Json section = Json::Object();
    section.Set("off", Json::Int(static_cast<int64_t>(offset)));
    section.Set("count", Json::Int(static_cast<int64_t>(values.size())));
    return section;
  }

  static size_t Align(size_t offset) {
    return (offset + kSnapshotAlignment - 1) / kSnapshotAlignment *
           kSnapshotAlignment;
  }

 private:
  std::string* out_;
};

/// Bounds- and alignment-checked view of one array section. Every span
/// handed to the storage layer goes through here, so a malformed meta
/// section can never produce an out-of-mapping read.
template <typename T>
Result<std::span<const T>> Section(const MmapFile& file, const Json* json,
                                   const char* what) {
  if (json == nullptr || !json->is_object()) {
    return Status::ParseError(std::string("snapshot meta: missing section '") +
                              what + "'");
  }
  int64_t off = json->GetInt("off", -1);
  int64_t count = json->GetInt("count", -1);
  if (off < 0 || count < 0 || static_cast<size_t>(off) % alignof(T) != 0 ||
      static_cast<size_t>(off) + static_cast<size_t>(count) * sizeof(T) >
          file.size()) {
    return Status::ParseError(std::string("snapshot meta: section '") + what +
                              "' out of bounds or misaligned");
  }
  return file.SpanAt<T>(static_cast<size_t>(off),
                        static_cast<size_t>(count));
}

/// True when `offsets` and `rows` are one dimension's posting lists over
/// `column` (codes of a `cardinality`-value dictionary) as TableIndex::Build
/// writes them: offsets run from 0 to the row count without decreasing, and
/// list v holds ascending row ids, each in range and carrying code v. With
/// as many entries as rows, that makes the lists a partition of the rows: a
/// row's code picks its one list, and ascending forbids a repeat within it.
/// A checksum only proves the writer's bytes arrived; this keeps a file
/// edited and re-hashed from handing Slice or FilterRows a row id past the
/// columns or a row of another value.
bool ValidPostings(std::span<const uint32_t> offsets,
                   std::span<const uint32_t> rows, std::span<const ValueId> column,
                   size_t cardinality) {
  size_t num_rows = column.size();
  if (offsets.size() != cardinality + 1 || rows.size() != num_rows ||
      offsets[0] != 0 || offsets[cardinality] != num_rows) {
    return false;
  }
  for (size_t v = 0; v < cardinality; ++v) {
    if (offsets[v] > offsets[v + 1]) return false;
  }
  for (size_t v = 0; v < cardinality; ++v) {
    // One verdict per list, so the row loop does not branch on it.
    bool ok = true;
    uint32_t next = 0;  // the least row id the list may hold next
    for (uint32_t k = offsets[v]; k < offsets[v + 1]; ++k) {
      uint32_t row = rows[k];
      bool in_range = row < num_rows;
      ok &= in_range & (row >= next) & (column[in_range ? row : 0] == v);
      next = row + 1;
    }
    if (!ok) return false;
  }
  return true;
}

}  // namespace

Result<size_t> WriteSnapshot(const std::string& path, const Table& table,
                             const std::string& config_fingerprint,
                             const std::string& table_fingerprint,
                             const SpeechStore& store) {
  // Serializing the index requires it built; a cold-built dataset being
  // persisted right after registration already has it warm, so this is
  // normally free.
  const TableIndex& index = table.index();

  std::string file(sizeof(SnapshotHeader), '\0');
  // Columns + index dominate; headroom for dictionaries, JSON and padding.
  file.reserve(sizeof(SnapshotHeader) + table.EstimateBytes() +
               table.EstimateBytes() / 4 + (1u << 20));
  BlobBuilder blob(&file);

  Json meta = Json::Object();
  meta.Set("table_name", Json::Str(table.name()));
  meta.Set("num_rows", Json::Int(static_cast<int64_t>(table.NumRows())));
  meta.Set("config_fingerprint", Json::Str(config_fingerprint));
  meta.Set("table_fingerprint", Json::Str(table_fingerprint));

  Json dims = Json::Array();
  for (size_t d = 0; d < table.NumDims(); ++d) {
    Json dim = Json::Object();
    dim.Set("name", Json::Str(table.DimName(d)));
    // Dictionary values in CODE order: the loader re-interns them in this
    // exact order, reproducing identical ValueIds -- what lets columns,
    // posting lists and speech predicates be adopted without re-encoding.
    Json values = Json::Array();
    for (const std::string& value : table.dict(d).values()) {
      values.Append(Json::Str(value));
    }
    dim.Set("values", std::move(values));
    dim.Set("column", blob.Append(table.DimColumn(d)));
    dim.Set("posting_offsets", blob.Append(index.OffsetsArray(d)));
    dim.Set("posting_rows", blob.Append(index.RowsArray(d)));
    dims.Append(std::move(dim));
  }
  meta.Set("dims", std::move(dims));

  Json targets = Json::Array();
  for (size_t t = 0; t < table.NumTargets(); ++t) {
    Json target = Json::Object();
    target.Set("name", Json::Str(table.TargetName(t)));
    target.Set("unit", Json::Str(table.TargetUnit(t)));
    target.Set("column", blob.Append(table.TargetColumn(t)));
    targets.Append(std::move(target));
  }
  meta.Set("targets", std::move(targets));

  std::string speech_json = store.ToJson(table).Dump();
  Json speech = Json::Object();
  speech.Set("off", Json::Int(static_cast<int64_t>(file.size())));
  speech.Set("size", Json::Int(static_cast<int64_t>(speech_json.size())));
  meta.Set("speech", std::move(speech));
  file.append(speech_json);

  // Meta goes last so every offset above is final; the header points at it.
  std::string meta_json = meta.Dump();
  size_t meta_offset = file.size();
  file.append(meta_json);

  SnapshotHeader header;
  std::memset(&header, 0, sizeof(header));
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.format_version = kSnapshotFormatVersion;
  header.total_bytes = file.size();
  header.payload_hash = XxHash64(file.data() + sizeof(SnapshotHeader),
                                 file.size() - sizeof(SnapshotHeader));
  header.meta_offset = meta_offset;
  header.meta_size = meta_json.size();
  std::memcpy(file.data(), &header, sizeof(header));

  VQ_RETURN_IF_ERROR(WriteFileAtomic(path, file));
  return file.size();
}

Result<LoadedSnapshot> LoadSnapshot(const std::string& path) {
  if (fault::Injected(fault::kSnapshotLoad)) {
    return Status::IOError("fault injected: " + std::string(fault::kSnapshotLoad) +
                           " ('" + path + "')");
  }
  VQ_ASSIGN_OR_RETURN(MmapFile mapped, MmapFile::Open(path));
  if (mapped.size() < sizeof(SnapshotHeader)) {
    return Status::ParseError("snapshot '" + path + "' truncated (no header)");
  }
  SnapshotHeader header;
  std::memcpy(&header, mapped.data(), sizeof(header));
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::ParseError("'" + path + "' is not a dataset snapshot");
  }
  if (header.format_version != kSnapshotFormatVersion) {
    return Status::Unsupported(
        "snapshot '" + path + "' has format version " +
        std::to_string(header.format_version) + ", expected " +
        std::to_string(kSnapshotFormatVersion));
  }
  if (header.total_bytes != mapped.size()) {
    return Status::ParseError("snapshot '" + path + "' truncated: header says " +
                              std::to_string(header.total_bytes) +
                              " bytes, file has " +
                              std::to_string(mapped.size()));
  }
  // Verifying the hash also faults in every payload page, so later reads
  // through adopted spans cannot SIGBUS on a file that shrank underneath us.
  uint64_t hash = XxHash64(mapped.data() + sizeof(SnapshotHeader),
                           mapped.size() - sizeof(SnapshotHeader));
  if (hash != header.payload_hash) {
    return Status::ParseError("snapshot '" + path + "' checksum mismatch");
  }
  if (header.meta_offset < sizeof(SnapshotHeader) ||
      header.meta_offset + header.meta_size > mapped.size()) {
    return Status::ParseError("snapshot '" + path + "' meta section out of bounds");
  }

  // Pin the mapping BEFORE building spans into it: MmapFile is movable but
  // the shared_ptr below is the object whose lifetime the spans ride on.
  auto pin = std::make_shared<MmapFile>(std::move(mapped));
  const MmapFile& file = *pin;

  std::string meta_text(
      reinterpret_cast<const char*>(file.data() + header.meta_offset),
      static_cast<size_t>(header.meta_size));
  VQ_ASSIGN_OR_RETURN(Json meta, Json::Parse(meta_text));

  size_t num_rows = static_cast<size_t>(meta.GetInt("num_rows", -1));
  const Json* dims = meta.Get("dims");
  const Json* targets = meta.Get("targets");
  if (meta.GetInt("num_rows", -1) < 0 || dims == nullptr ||
      !dims->is_array() || targets == nullptr || !targets->is_array()) {
    return Status::ParseError("snapshot '" + path + "' meta schema invalid");
  }

  Table table(meta.GetString("table_name", "snapshot"));
  for (size_t d = 0; d < dims->Size(); ++d) {
    const Json& dim = dims->At(d);
    table.AddDimColumn(dim.GetString("name", ""));
    const Json* values = dim.Get("values");
    if (values == nullptr || !values->is_array()) {
      return Status::ParseError("snapshot '" + path + "' dim dictionary missing");
    }
    // Interning in stored (code) order reproduces the writer's ValueIds
    // exactly; everything adopted below depends on that.
    Dictionary& dict = table.mutable_dict(d);
    for (size_t v = 0; v < values->Size(); ++v) {
      dict.Intern(values->At(v).AsString());
    }
  }
  for (size_t t = 0; t < targets->Size(); ++t) {
    const Json& target = targets->At(t);
    table.AddTargetColumn(target.GetString("name", ""),
                          target.GetString("unit", ""));
  }
  table.SetAdoptedRows(num_rows);
  std::vector<TableIndex::DimViews> postings(dims->Size());
  for (size_t d = 0; d < dims->Size(); ++d) {
    const Json& dim = dims->At(d);
    VQ_ASSIGN_OR_RETURN(std::span<const ValueId> column,
                        Section<ValueId>(file, dim.Get("column"), "dim column"));
    if (column.size() != num_rows) {
      return Status::ParseError("snapshot '" + path + "' dim column row count mismatch");
    }
    table.AdoptDimColumnView(d, column);
    VQ_ASSIGN_OR_RETURN(postings[d].offsets, Section<uint32_t>(
        file, dim.Get("posting_offsets"), "posting offsets"));
    VQ_ASSIGN_OR_RETURN(postings[d].rows, Section<uint32_t>(
        file, dim.Get("posting_rows"), "posting rows"));
  }
  // Checking reads every row id and its code once, so it runs one
  // dimension per task on the shared pool, as TableIndex::Build writes them.
  std::vector<char> valid(dims->Size());
  ParallelFor(SharedPool(), dims->Size(), [&](size_t d) {
    valid[d] = ValidPostings(postings[d].offsets, postings[d].rows,
                             table.DimColumn(d), table.dict(d).size());
  });
  for (size_t d = 0; d < dims->Size(); ++d) {
    if (!valid[d]) {
      return Status::ParseError("snapshot '" + path + "' posting lists of dim '" +
                                table.DimName(d) + "' inconsistent");
    }
  }
  for (size_t t = 0; t < targets->Size(); ++t) {
    VQ_ASSIGN_OR_RETURN(
        std::span<const double> column,
        Section<double>(file, targets->At(t).Get("column"), "target column"));
    if (column.size() != num_rows) {
      return Status::ParseError("snapshot '" + path + "' target column row count mismatch");
    }
    table.AdoptTargetColumnView(t, column);
  }

  table.AdoptIndex(std::make_unique<const TableIndex>(
      TableIndex::FromViews(num_rows, std::move(postings))));
  table.SetBacking(pin);

  const Json* speech = meta.Get("speech");
  int64_t speech_off = speech != nullptr ? speech->GetInt("off", -1) : -1;
  int64_t speech_size = speech != nullptr ? speech->GetInt("size", -1) : -1;
  if (speech_off < static_cast<int64_t>(sizeof(SnapshotHeader)) ||
      speech_size < 0 ||
      static_cast<size_t>(speech_off) + static_cast<size_t>(speech_size) >
          file.size()) {
    return Status::ParseError("snapshot '" + path + "' speech section out of bounds");
  }
  std::string speech_text(
      reinterpret_cast<const char*>(file.data() + speech_off),
      static_cast<size_t>(speech_size));
  VQ_ASSIGN_OR_RETURN(Json speech_json, Json::Parse(speech_text));
  VQ_ASSIGN_OR_RETURN(SpeechStore store,
                      SpeechStore::FromJson(speech_json, table));

  LoadedSnapshot loaded(std::move(table), std::move(store));
  loaded.config_fingerprint = meta.GetString("config_fingerprint", "");
  loaded.table_fingerprint = meta.GetString("table_fingerprint", "");
  loaded.bytes_mapped = file.size();
  return loaded;
}

}  // namespace vq
