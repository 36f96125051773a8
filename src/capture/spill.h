// Append-only, versioned, memory-mapped spill file for FlowRecords ("KSPL"
// format). The collector streams completed flows here instead of growing an
// in-memory Trace, so capture volume is bounded by disk, not RAM (the
// 10k-host scale scenarios produce millions of records).
//
// On-disk layout (all integers little-endian host order, doubles raw IEEE —
// a round trip is bit-exact):
//
//   offset  0  char[4]  magic "KSPL"
//   offset  4  u32      version (kSpillVersion)
//   offset  8  u32      record size in bytes (sizeof(SpillRecord), pinned)
//   offset 12  u32      flags (bit 0: finalized)
//   offset 16  u64      record count
//   offset 24  u64      name-table offset (0 until finalize)
//   offset 32  u8[32]   reserved (zero)
//   offset 64  records  record_count x SpillRecord
//   name table          u32 count, then per name: u32 length + bytes
//
// Crash semantics: the header's count/name-table fields are back-patched by
// finalize(); a file whose name-table offset is still 0 was abandoned
// mid-write and the reader rejects it (naming the offset) rather than
// guessing at a record count. Node names are interned in insertion order.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "capture/flow_record.h"
#include "capture/trace.h"
#include "util/mmap_arena.h"

namespace keddah::capture {

inline constexpr char kSpillMagic[4] = {'K', 'S', 'P', 'L'};
inline constexpr std::uint32_t kSpillVersion = 1;
inline constexpr std::size_t kSpillHeaderBytes = 64;

/// Fixed-width on-disk flow record (node names live in the name table).
struct SpillRecord {
  std::uint32_t src_name;
  std::uint32_t dst_name;
  std::uint32_t src_id;
  std::uint32_t dst_id;
  std::uint16_t src_port;
  std::uint16_t dst_port;
  std::uint32_t job_id;
  std::uint8_t truth;
  std::uint8_t pad[3];
  double bytes;
  double start;
  double end;
};
static_assert(sizeof(SpillRecord) == 56, "spill record layout drifted");

/// Streams FlowRecords into a KSPL file through a growable mmap. finalize()
/// (also run by the destructor) writes the name table and back-patches the
/// header; until then the file on disk is marked unfinalized.
class SpillWriter {
 public:
  explicit SpillWriter(const std::string& path, std::size_t initial_capacity = 1u << 20);
  ~SpillWriter();
  SpillWriter(const SpillWriter&) = delete;
  SpillWriter& operator=(const SpillWriter&) = delete;

  void add(const FlowRecord& record);

  std::uint64_t records() const { return count_; }
  /// Bytes appended so far (header + records; name table lands at finalize).
  std::uint64_t bytes() const { return arena_.size(); }
  const std::string& path() const { return path_; }

  /// Writes the name table, patches the header, shrinks the file to its
  /// exact size, and closes. Idempotent.
  void finalize();

 private:
  std::string path_;
  util::MmapArena arena_;
  std::uint64_t count_ = 0;
  /// Insertion-ordered intern table (ids assigned first-seen).
  std::map<std::string, std::uint32_t> name_ids_;
  std::vector<const std::string*> names_;
  bool finalized_ = false;
};

/// Maps a finalized KSPL file read-only and decodes records on demand.
/// Every validation error names the byte offset of the defect.
class SpillReader {
 public:
  explicit SpillReader(const std::string& path);

  std::uint64_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  /// Decodes record `i` (bounds-checked; throws std::out_of_range).
  FlowRecord record(std::uint64_t i) const;

  /// Materializes the whole spill as an in-memory Trace, in record order.
  /// The result is bit-exact against the records the writer was fed.
  Trace to_trace() const;

  const std::vector<std::string>& names() const { return names_; }

 private:
  const SpillRecord* raw(std::uint64_t i) const;

  util::MmapArena arena_;
  std::uint64_t count_ = 0;
  std::size_t records_offset_ = kSpillHeaderBytes;
  std::vector<std::string> names_;
};

}  // namespace keddah::capture
