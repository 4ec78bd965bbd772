// RAII read-only memory mapping, the ownership primitive under zero-copy
// dataset snapshots (storage/snapshot.h).
//
// A mapping outlives the file descriptor (closed right after mmap) and is
// immutable: MAP_PRIVATE + PROT_READ means a hostile or concurrent writer
// truncating the file can at worst SIGBUS a reader -- which is why the
// snapshot loader verifies the checksum (touching every payload page) once
// up front, before any span into the mapping is published to the serving
// stack. Consumers hold the mapping by shared_ptr; storage spans into it
// (Table columns, TableIndex posting lists) are valid exactly as long as
// one owner remains, which the dataset registry guarantees by pinning the
// mapping inside the DatasetEntry that RCU registry snapshots keep alive.
//
// On non-POSIX platforms the "mapping" degrades to a heap buffer read from
// the file -- same interface and lifetime rules, no zero-copy win.
#ifndef VQ_UTIL_MMAP_FILE_H_
#define VQ_UTIL_MMAP_FILE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/status.h"

namespace vq {

/// \brief Move-only owner of one read-only file mapping.
class MmapFile {
 public:
  MmapFile() = default;
  ~MmapFile();

  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;
  MmapFile(MmapFile&& other) noexcept;
  MmapFile& operator=(MmapFile&& other) noexcept;

  /// Maps `path` read-only in its entirety. Empty files map successfully
  /// (data() is null, size() 0).
  static Result<MmapFile> Open(const std::string& path);

  const uint8_t* data() const { return static_cast<const uint8_t*>(addr_); }
  size_t size() const { return size_; }

  /// `count` elements of T starting at byte `offset`. The caller has
  /// validated bounds (the snapshot loader checks every section against
  /// size() before building spans); asserts in debug builds.
  template <typename T>
  std::span<const T> SpanAt(size_t offset, size_t count) const {
    return {reinterpret_cast<const T*>(data() + offset), count};
  }

 private:
  void Reset();

  void* addr_ = nullptr;
  size_t size_ = 0;
  /// Non-POSIX fallback storage; addr_ points into it when non-empty.
  std::vector<uint8_t> fallback_;
};

}  // namespace vq

#endif  // VQ_UTIL_MMAP_FILE_H_
