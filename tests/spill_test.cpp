// Tests for the KSPL spill path (capture/spill.h): bit-exact round trips
// through the mmap'd writer/reader, precise byte-offset-naming rejection of
// corrupted or abandoned files, and — the property the whole feature rests
// on — a spilled capture being indistinguishable from the in-memory Trace
// the collector would otherwise have accumulated.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "capture/collector.h"
#include "capture/spill.h"
#include "gen/replay.h"
#include "net/topology.h"
#include "util/rng.h"

namespace kc = keddah::capture;
namespace kg = keddah::gen;
namespace kn = keddah::net;
namespace ku = keddah::util;
namespace fs = std::filesystem;

namespace {

/// Unique-ish scratch path under the build's temp dir, removed by each test.
std::string scratch(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / "keddah_spill_test";
  fs::create_directories(dir);
  return (dir / name).string();
}

kc::FlowRecord record(const std::string& src, const std::string& dst, double bytes,
                      double start, double end, std::uint32_t job = 7) {
  kc::FlowRecord r;
  r.src = src;
  r.dst = dst;
  r.src_id = kn::NodeId(3);
  r.dst_id = kn::NodeId(9);
  r.src_port = kn::ports::kShuffle;
  r.dst_port = kn::ports::kEphemeralBase;
  r.bytes = bytes;
  r.start = start;
  r.end = end;
  r.job_id = job;
  r.truth = kn::FlowKind::kShuffle;
  return r;
}

/// Patches `n` raw bytes at `offset` in a finalized spill file.
void patch(const std::string& path, std::size_t offset, const void* bytes, std::size_t n) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open()) << path;
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(static_cast<const char*>(bytes), static_cast<std::streamsize>(n));
}

/// Writes a small valid spill file and returns its path.
std::string write_sample(const std::string& name, std::size_t records = 3) {
  const std::string path = scratch(name);
  fs::remove(path);
  kc::SpillWriter writer(path, /*initial_capacity=*/256);  // forces arena growth
  for (std::size_t i = 0; i < records; ++i) {
    writer.add(record("h" + std::to_string(i % 2), "h" + std::to_string(2 + i % 3),
                      1e6 * static_cast<double>(i + 1), 0.25 * static_cast<double>(i),
                      0.25 * static_cast<double>(i) + 1.5));
  }
  writer.finalize();
  return path;
}

}  // namespace

TEST(SpillRoundTrip, BitExactIncludingAwkwardDoubles) {
  const std::string path = scratch("roundtrip.kspill");
  fs::remove(path);
  // Values chosen to shake out any text formatting on the path: a double
  // with no short decimal form, a denormal, an epsilon-neighbour of 1.0.
  std::vector<kc::FlowRecord> written;
  written.push_back(record("rack0-h1", "rack3-h7", 0.1 + 0.2, 1.0 / 3.0, 2.0 / 3.0));
  written.push_back(record("rack0-h1", "rack1-h0", 5e-324, 0.0,
                           std::nextafter(1.0, 2.0), /*job=*/0));
  written.push_back(record("nn", "rack3-h7", 1.75e9, 1234.56789012345,
                           std::numeric_limits<double>::max() / 1e10));
  {
    kc::SpillWriter writer(path, 128);
    for (const auto& r : written) writer.add(r);
    writer.finalize();
  }
  kc::SpillReader reader(path);
  ASSERT_EQ(reader.size(), written.size());
  for (std::size_t i = 0; i < written.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    const auto got = reader.record(i);
    EXPECT_EQ(got.src, written[i].src);
    EXPECT_EQ(got.dst, written[i].dst);
    EXPECT_EQ(got.src_id, written[i].src_id);
    EXPECT_EQ(got.dst_id, written[i].dst_id);
    EXPECT_EQ(got.src_port, written[i].src_port);
    EXPECT_EQ(got.dst_port, written[i].dst_port);
    EXPECT_EQ(got.job_id, written[i].job_id);
    EXPECT_EQ(got.truth, written[i].truth);
    // Bit-exact: EXPECT_EQ on the doubles, no tolerance.
    EXPECT_EQ(got.bytes, written[i].bytes);
    EXPECT_EQ(got.start, written[i].start);
    EXPECT_EQ(got.end, written[i].end);
  }
  // Names intern in insertion order.
  const std::vector<std::string> expected_names = {"rack0-h1", "rack3-h7", "rack1-h0", "nn"};
  EXPECT_EQ(reader.names(), expected_names);
  EXPECT_THROW((void)reader.record(written.size()), std::out_of_range);
  fs::remove(path);
}

TEST(SpillRoundTrip, ToTraceMatchesRecordOrder) {
  // Zero records is a capture that saw no flows: it must still finalize
  // and read back as an empty trace with an empty name table.
  for (const std::size_t records : {std::size_t{5}, std::size_t{0}}) {
    SCOPED_TRACE(std::to_string(records) + " records");
    const std::string path = write_sample("totrace.kspill", records);
    kc::SpillReader reader(path);
    EXPECT_EQ(reader.size(), records);
    EXPECT_EQ(reader.empty(), records == 0);
    EXPECT_EQ(reader.names().empty(), records == 0);
    const kc::Trace trace = reader.to_trace();
    ASSERT_EQ(trace.size(), reader.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
      EXPECT_EQ(trace[i].start, reader.record(i).start);
      EXPECT_EQ(trace[i].bytes, reader.record(i).bytes);
      EXPECT_EQ(trace[i].src, reader.record(i).src);
    }
    EXPECT_THROW((void)reader.record(records), std::out_of_range);
    fs::remove(path);
  }
}

TEST(SpillRoundTrip, WriterDestructorFinalizes) {
  const std::string path = scratch("dtor.kspill");
  fs::remove(path);
  {
    kc::SpillWriter writer(path, 128);
    writer.add(record("a", "b", 1.0, 0.0, 1.0));
  }  // no explicit finalize()
  kc::SpillReader reader(path);
  EXPECT_EQ(reader.size(), 1u);
  fs::remove(path);
}

TEST(SpillErrors, TruncatedHeaderNamesByteCounts) {
  const std::string path = scratch("short.kspill");
  // A bare magic and a short text file are both cut off inside the header.
  for (const char* contents : {"KSPL", "definitely not a spill file"}) {
    { std::ofstream(path, std::ios::binary) << contents; }
    try {
      kc::SpillReader reader(path);
      FAIL() << "expected rejection of " << contents;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("truncated header"), std::string::npos) << e.what();
    }
  }
  fs::remove(path);
  // No file at all is rejected too, naming the path.
  try {
    kc::SpillReader reader(path);
    FAIL() << "expected rejection of a missing file";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
  }
}

TEST(SpillErrors, BadMagicNamesOffsetZero) {
  const std::string path = write_sample("magic.kspill");
  const char junk[4] = {'N', 'O', 'P', 'E'};
  patch(path, 0, junk, sizeof junk);
  try {
    kc::SpillReader reader(path);
    FAIL() << "expected rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bad magic at offset 0"), std::string::npos)
        << e.what();
  }
  fs::remove(path);
}

TEST(SpillErrors, UnsupportedVersionNamesOffsetFour) {
  const std::string path = write_sample("version.kspill");
  const std::uint32_t future = kc::kSpillVersion + 41;
  patch(path, 4, &future, sizeof future);
  try {
    kc::SpillReader reader(path);
    FAIL() << "expected rejection";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("version 42 at offset 4"), std::string::npos) << what;
  }
  fs::remove(path);
}

TEST(SpillErrors, RecordSizeMismatchNamesOffsetEight) {
  const std::string path = write_sample("recsize.kspill");
  const std::uint32_t wrong = 48;
  patch(path, 8, &wrong, sizeof wrong);
  try {
    kc::SpillReader reader(path);
    FAIL() << "expected rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("record size 48 at offset 8"), std::string::npos)
        << e.what();
  }
  fs::remove(path);
}

TEST(SpillErrors, AbandonedUnfinalizedFileIsRejected) {
  const std::string path = write_sample("abandoned.kspill");
  // Re-create the crashed-writer state: finalized flag and name-table offset
  // back to their mid-write zeros.
  const std::uint32_t zero32 = 0;
  const std::uint64_t zero64 = 0;
  patch(path, 12, &zero32, sizeof zero32);
  patch(path, 24, &zero64, sizeof zero64);
  try {
    kc::SpillReader reader(path);
    FAIL() << "expected rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("offset 24"), std::string::npos) << e.what();
  }
  fs::remove(path);
}

TEST(SpillErrors, TruncatedRecordsNameTheFirstMissingRecord) {
  const std::string path = write_sample("truncated.kspill", 3);
  // Chop mid-record-1: one whole record survives, the second is cut short.
  fs::resize_file(path, kc::kSpillHeaderBytes + sizeof(kc::SpillRecord) + 20);
  try {
    kc::SpillReader reader(path);
    FAIL() << "expected rejection";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("truncated record 1"), std::string::npos) << what;
    EXPECT_NE(what.find("at offset 120"), std::string::npos) << what;  // 64 + 56
  }
  fs::remove(path);
}

TEST(SpillErrors, WrappingRecordCountIsRejectedBeforeUse) {
  const std::string path = write_sample("wrapcount.kspill", 3);
  // 56 * 2^61 is 0 mod 2^64, so this count multiplies back onto the real
  // name-table offset; only the file-size bound catches it.
  const std::uint64_t crafted = 3 + (std::uint64_t{1} << 61);
  patch(path, 16, &crafted, sizeof crafted);
  try {
    kc::SpillReader reader(path);
    FAIL() << "expected rejection";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("record count 2305843009213693955 at offset 16"), std::string::npos)
        << what;
  }
  fs::remove(path);
}

TEST(SpillErrors, HugeNameCountIsRejectedNotAllocated) {
  const std::string path = write_sample("namecount.kspill", 3);
  std::uint64_t table = 0;
  {
    std::ifstream in(path, std::ios::binary);
    in.seekg(24);
    in.read(reinterpret_cast<char*>(&table), sizeof table);
  }
  const std::uint32_t crafted = 0xFFFFFFFFu;
  patch(path, static_cast<std::size_t>(table), &crafted, sizeof crafted);
  try {
    kc::SpillReader reader(path);
    FAIL() << "expected rejection";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("name count 4294967295 at offset " + std::to_string(table)),
              std::string::npos)
        << what;
  }
  fs::remove(path);
}

TEST(SpillCollector, SpillModeKeepsTraceEmptyAndCountsRecords) {
  const std::string dir = scratch("collector_dir");
  fs::remove_all(dir);
  ku::Rng rng(11);
  kg::SyntheticTrafficSchedule schedule;
  for (std::size_t i = 0; i < 40; ++i) {
    kg::SyntheticFlow f;
    f.src_host = i % 8;
    f.dst_host = (i + 3) % 8;
    f.kind = kn::FlowKind::kShuffle;
    f.bytes = rng.uniform(1e5, 1e7);
    f.start = rng.uniform(0.0, 2.0);
    schedule.flows.push_back(f);
  }
  const auto topology = kn::make_rack_tree(2, 4, 1e9, 10e9, 1e-4);
  const auto result = kg::replay(schedule, topology, 40.0e9, dir);
  EXPECT_TRUE(result.trace.empty());
  EXPECT_EQ(result.spilled_records, schedule.flows.size());
  EXPECT_EQ(result.spill_path, dir + "/capture.kspill");
  EXPECT_TRUE(fs::exists(result.spill_path));
  kc::SpillReader reader(result.spill_path);
  EXPECT_EQ(reader.size(), schedule.flows.size());
  fs::remove_all(dir);
}

// The headline guarantee: replaying the same schedule with capture spilled
// to disk yields byte-for-byte the records an in-memory capture collects —
// same order, same doubles — and identical derived metrics.
TEST(SpillCollector, SpilledCaptureReplaysIdenticallyToInMemory) {
  ku::Rng rng(23);
  kg::SyntheticTrafficSchedule schedule;
  for (std::size_t i = 0; i < 200; ++i) {
    kg::SyntheticFlow f;
    f.src_host = static_cast<std::size_t>(rng.uniform_int(0, 15));
    f.dst_host = static_cast<std::size_t>(rng.uniform_int(0, 15));
    f.kind = static_cast<kn::FlowKind>(rng.uniform_int(0, 4));
    f.bytes = std::pow(10.0, rng.uniform(4.0, 7.5));
    f.start = rng.uniform(0.0, 3.0);
    schedule.flows.push_back(f);
  }
  const auto topology = kn::make_fat_tree(4, 1e9, 1e-4, /*oversubscription=*/4.0);

  const auto in_memory = kg::replay(schedule, topology);
  const std::string dir = scratch("identical_dir");
  fs::remove_all(dir);
  const auto spilled = kg::replay(schedule, topology, 40.0e9, dir);

  EXPECT_EQ(spilled.makespan, in_memory.makespan);
  ASSERT_EQ(spilled.flow_completion_times.size(), in_memory.flow_completion_times.size());
  for (std::size_t i = 0; i < spilled.flow_completion_times.size(); ++i) {
    EXPECT_EQ(spilled.flow_completion_times[i], in_memory.flow_completion_times[i]);
  }
  kc::SpillReader reader(spilled.spill_path);
  const kc::Trace from_spill = reader.to_trace();
  ASSERT_EQ(from_spill.size(), in_memory.trace.size());
  for (std::size_t i = 0; i < from_spill.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    EXPECT_EQ(from_spill[i].src, in_memory.trace[i].src);
    EXPECT_EQ(from_spill[i].dst, in_memory.trace[i].dst);
    EXPECT_EQ(from_spill[i].src_id, in_memory.trace[i].src_id);
    EXPECT_EQ(from_spill[i].dst_id, in_memory.trace[i].dst_id);
    EXPECT_EQ(from_spill[i].src_port, in_memory.trace[i].src_port);
    EXPECT_EQ(from_spill[i].dst_port, in_memory.trace[i].dst_port);
    EXPECT_EQ(from_spill[i].job_id, in_memory.trace[i].job_id);
    EXPECT_EQ(from_spill[i].truth, in_memory.trace[i].truth);
    EXPECT_EQ(from_spill[i].bytes, in_memory.trace[i].bytes);
    EXPECT_EQ(from_spill[i].start, in_memory.trace[i].start);
    EXPECT_EQ(from_spill[i].end, in_memory.trace[i].end);
  }
  fs::remove_all(dir);
}
