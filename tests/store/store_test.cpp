#include "src/store/store.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/store/format.hpp"

namespace dovado::store {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

std::string temp_store(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  std::remove((path + ".lock").c_str());
  std::remove((path + ".compact").c_str());
  return path;
}

StoreRecord make_record(std::int64_t depth, const std::string& tier = EvalStore::kTierHifi,
                        const std::string& backend = "vivado-sim") {
  StoreRecord rec;
  rec.params = {{"DEPTH", depth}, {"WIDTH", 32}};
  rec.backend = backend;
  rec.tier = tier;
  rec.campaign = "test";
  rec.metrics = {{"lut", 100.0 + static_cast<double>(depth)}, {"fmax_mhz", 450.5}};
  rec.ok = true;
  rec.tool_seconds = 12.5;
  rec.timestamp = 1700000000 + depth;
  return rec;
}

TEST(StoreFormat, Crc32cKnownAnswer) {
  // The Castagnoli check value — any other polynomial/reflection choice
  // would mismatch and silently reject every portable store file.
  const char* data = "123456789";
  EXPECT_EQ(crc32c(data, 9), 0xE3069283u);
  EXPECT_EQ(crc32c("", 0), 0u);
}

TEST(StoreFormat, DesignKeyIsOrderIndependentAndDiscriminates) {
  core::DesignPoint a = {{"DEPTH", 8}, {"WIDTH", 32}};
  core::DesignPoint b = {{"WIDTH", 32}, {"DEPTH", 8}};
  EXPECT_EQ(design_key(a), design_key(b));  // map ordering, same content

  core::DesignPoint c = {{"DEPTH", 9}, {"WIDTH", 32}};
  EXPECT_NE(design_key(a), design_key(c));
  // Name/value boundary confusion must not collide.
  core::DesignPoint d = {{"DEPTH1", 8}};
  core::DesignPoint e = {{"DEPTH", 18}};
  EXPECT_NE(design_key(d), design_key(e));
}

TEST(StoreFormat, PayloadRoundTrip) {
  StoreRecord rec = make_record(17);
  rec.ok = false;
  rec.failure = "deterministic";
  rec.approximate = true;
  rec.quarantined = true;

  const auto decoded = decode_payload(encode_payload(rec));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->params, rec.params);
  EXPECT_EQ(decoded->backend, rec.backend);
  EXPECT_EQ(decoded->tier, rec.tier);
  EXPECT_EQ(decoded->campaign, rec.campaign);
  EXPECT_EQ(decoded->metrics, rec.metrics);
  EXPECT_EQ(decoded->ok, rec.ok);
  EXPECT_EQ(decoded->failure, rec.failure);
  EXPECT_TRUE(decoded->approximate);
  EXPECT_TRUE(decoded->quarantined);
  EXPECT_DOUBLE_EQ(decoded->tool_seconds, rec.tool_seconds);
  EXPECT_EQ(decoded->timestamp, rec.timestamp);
}

TEST(StoreFormat, DecodeRejectsIncompletePayloads) {
  EXPECT_FALSE(decode_payload("not json").has_value());
  EXPECT_FALSE(decode_payload("{}").has_value());
  // Params present but backend/tier missing.
  EXPECT_FALSE(decode_payload(R"({"params":{"D":1}})").has_value());
  EXPECT_FALSE(
      decode_payload(R"({"params":{"D":1},"backend":"b"})").has_value());
}

// The integer rule (util/json.hpp): a parameter or timestamp that is not an
// integer of magnitude below 2^53 makes the record corrupt, so the scan
// skips it like any other damaged record.
TEST(StoreFormat, DecodeRejectsNonIntegralOrOutOfRangeIntegers) {
  const auto payload = [](const std::string& depth, const std::string& timestamp) {
    return R"({"backend":"vivado-sim","metrics":{"lut":1},"ok":true,"params":{"DEPTH":)" +
           depth + R"(},"tier":"hifi","timestamp":)" + timestamp + "}";
  };
  ASSERT_TRUE(decode_payload(payload("16", "1")).has_value());
  EXPECT_EQ(decode_payload(payload("9007199254740991", "-4.0"))->params.at("DEPTH"),
            9007199254740991);
  for (const std::string bad : {"16.7", "1e30", "-1e30", "9007199254740993"}) {
    EXPECT_FALSE(decode_payload(payload(bad, "1")).has_value()) << bad;
    EXPECT_FALSE(decode_payload(payload("16", bad)).has_value()) << bad;

    std::string image(kStoreMagic, sizeof(kStoreMagic));
    image += frame_payload(encode_payload(make_record(1)));
    image += frame_payload(payload(bad, "1"));
    image += frame_payload(encode_payload(make_record(2)));
    std::vector<std::int64_t> depths;
    const ScanStats stats = scan_store(
        image, [&](StoreRecord&& rec) { depths.push_back(rec.params.at("DEPTH")); });
    EXPECT_EQ(depths, (std::vector<std::int64_t>{1, 2})) << bad;
    EXPECT_EQ(stats.quarantined, 1u) << bad;
  }
}

TEST(StoreFormat, ScanRecoversAfterMidFileCorruption) {
  std::string image(kStoreMagic, sizeof(kStoreMagic));
  const std::string first = frame_payload(encode_payload(make_record(1)));
  const std::string second = frame_payload(encode_payload(make_record(2)));
  const std::string third = frame_payload(encode_payload(make_record(3)));
  image += first;
  const std::size_t second_at = image.size();
  image += second;
  image += third;

  // Flip a payload byte of the middle record: its CRC now fails, but the
  // scan must resynchronize on the third record's marker.
  image[second_at + kFrameBytes + 5] ^= 0x40;

  std::vector<StoreRecord> seen;
  const ScanStats stats =
      scan_store(image, [&](StoreRecord&& rec) { seen.push_back(std::move(rec)); });
  EXPECT_TRUE(stats.header_ok);
  EXPECT_EQ(stats.records, 2u);
  EXPECT_EQ(stats.quarantined, 1u);
  EXPECT_FALSE(stats.torn_tail);
  EXPECT_EQ(stats.keep_bytes, image.size());
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].params.at("DEPTH"), 1);
  EXPECT_EQ(seen[1].params.at("DEPTH"), 3);
}

TEST(StoreFormat, ScanFlagsTornTail) {
  std::string image(kStoreMagic, sizeof(kStoreMagic));
  image += frame_payload(encode_payload(make_record(1)));
  const std::size_t intact = image.size();
  std::string torn = frame_payload(encode_payload(make_record(2)));
  torn.resize(torn.size() / 2);  // crash mid-append
  image += torn;

  std::size_t seen = 0;
  const ScanStats stats = scan_store(image, [&](StoreRecord&&) { ++seen; });
  EXPECT_EQ(seen, 1u);
  EXPECT_EQ(stats.quarantined, 0u);
  EXPECT_TRUE(stats.torn_tail);
  EXPECT_EQ(stats.keep_bytes, intact);
}

TEST(StoreFormat, ScanSurvivesMissingHeader) {
  std::string image = "garbage instead of the magic";
  image += frame_payload(encode_payload(make_record(4)));

  std::vector<StoreRecord> seen;
  const ScanStats stats =
      scan_store(image, [&](StoreRecord&& rec) { seen.push_back(std::move(rec)); });
  EXPECT_FALSE(stats.header_ok);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].params.at("DEPTH"), 4);
}

TEST(EvalStore, AppendsPersistAcrossReopen) {
  const std::string path = temp_store("store_reopen.dvstor");
  {
    auto opened = EvalStore::open_writer(path);
    ASSERT_NE(opened.store, nullptr) << opened.error;
    ASSERT_TRUE(opened.store->append(make_record(8)));
    ASSERT_TRUE(opened.store->append(make_record(16)));
  }
  auto reopened = EvalStore::open_writer(path);
  ASSERT_NE(reopened.store, nullptr) << reopened.error;
  const StoreStats stats = reopened.store->stats();
  EXPECT_EQ(stats.records, 2u);
  EXPECT_EQ(stats.live, 2u);
  EXPECT_EQ(stats.quarantined, 0u);
  EXPECT_FALSE(stats.torn_tail);

  const auto hit = reopened.store->lookup({{"DEPTH", 8}, {"WIDTH", 32}},
                                          "vivado-sim", EvalStore::kTierHifi);
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->metrics.at("lut"), 108.0);
}

TEST(EvalStore, LatestRecordWinsPerKey) {
  const std::string path = temp_store("store_latest.dvstor");
  auto opened = EvalStore::open_writer(path);
  ASSERT_NE(opened.store, nullptr) << opened.error;
  StoreRecord first = make_record(8);
  first.metrics["lut"] = 1.0;
  StoreRecord second = make_record(8);
  second.metrics["lut"] = 2.0;
  ASSERT_TRUE(opened.store->append(first));
  ASSERT_TRUE(opened.store->append(second));

  const auto hit = opened.store->lookup({{"DEPTH", 8}, {"WIDTH", 32}},
                                        "vivado-sim", EvalStore::kTierHifi);
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->metrics.at("lut"), 2.0);
  EXPECT_EQ(opened.store->stats().live, 1u);
  EXPECT_EQ(opened.store->stats().records, 2u);
}

// Satellite regression: fidelity tiers are part of the key, so a cheap
// analytic screen answer can never be served as a high-fidelity hit (and
// vice versa), even for the identical design point and backend.
TEST(EvalStore, ScreenTierRecordsAreInvisibleToHifiLookups) {
  const std::string path = temp_store("store_tiers.dvstor");
  auto opened = EvalStore::open_writer(path);
  ASSERT_NE(opened.store, nullptr) << opened.error;
  ASSERT_TRUE(opened.store->append(make_record(8, EvalStore::kTierScreen)));

  const core::DesignPoint point = {{"DEPTH", 8}, {"WIDTH", 32}};
  EXPECT_FALSE(
      opened.store->lookup(point, "vivado-sim", EvalStore::kTierHifi).has_value());
  EXPECT_TRUE(
      opened.store->lookup(point, "vivado-sim", EvalStore::kTierScreen).has_value());

  // Same tier but a different backend is a miss too.
  EXPECT_FALSE(
      opened.store->lookup(point, "analytic", EvalStore::kTierScreen).has_value());
}

TEST(EvalStore, SecondWriterIsRefusedWhileReadersProceed) {
  const std::string path = temp_store("store_lock.dvstor");
  auto first = EvalStore::open_writer(path);
  ASSERT_NE(first.store, nullptr) << first.error;
  ASSERT_TRUE(first.store->append(make_record(8)));

  auto second = EvalStore::open_writer(path);
  EXPECT_EQ(second.store, nullptr);
  EXPECT_TRUE(second.lock_busy);
  EXPECT_FALSE(second.error.empty());

  // Readers are never blocked by the writer lock.
  auto reader = EvalStore::open_reader(path);
  ASSERT_NE(reader.store, nullptr) << reader.error;
  EXPECT_FALSE(reader.store->writable());
  EXPECT_EQ(reader.store->stats().records, 1u);
  std::string error;
  EXPECT_FALSE(reader.store->append(make_record(9), &error));
  EXPECT_FALSE(error.empty());

  // Releasing the first writer frees the lock for the next one.
  first.store.reset();
  auto third = EvalStore::open_writer(path);
  EXPECT_NE(third.store, nullptr) << third.error;
}

TEST(EvalStore, WriterReopenTruncatesTornTail) {
  const std::string path = temp_store("store_torn.dvstor");
  {
    auto opened = EvalStore::open_writer(path);
    ASSERT_NE(opened.store, nullptr) << opened.error;
    ASSERT_TRUE(opened.store->append(make_record(8)));
  }
  // A crash mid-append leaves a partial frame at the tail.
  std::string image = read_file(path);
  const std::size_t intact = image.size();
  std::string torn = frame_payload(encode_payload(make_record(16)));
  torn.resize(torn.size() - 7);
  write_file(path, image + torn);

  auto reopened = EvalStore::open_writer(path);
  ASSERT_NE(reopened.store, nullptr) << reopened.error;
  EXPECT_TRUE(reopened.store->stats().torn_tail);
  EXPECT_EQ(reopened.store->stats().records, 1u);
  EXPECT_EQ(read_file(path).size(), intact);

  // And the truncated store appends cleanly again.
  ASSERT_TRUE(reopened.store->append(make_record(16)));
  EXPECT_EQ(reopened.store->stats().live, 2u);
}

TEST(EvalStore, CorruptMiddleRecordIsQuarantinedNotFatal) {
  const std::string path = temp_store("store_quarantine.dvstor");
  {
    auto opened = EvalStore::open_writer(path);
    ASSERT_NE(opened.store, nullptr) << opened.error;
    ASSERT_TRUE(opened.store->append(make_record(8)));
    ASSERT_TRUE(opened.store->append(make_record(16)));
    ASSERT_TRUE(opened.store->append(make_record(32)));
  }
  std::string image = read_file(path);
  // Damage the middle record's payload (well past the first frame).
  image[image.size() / 2] ^= 0x20;
  write_file(path, image);

  auto reader = EvalStore::open_reader(path);
  ASSERT_NE(reader.store, nullptr) << reader.error;
  EXPECT_EQ(reader.store->stats().quarantined, 1u);
  EXPECT_EQ(reader.store->stats().records, 2u);
}

TEST(EvalStore, DamagedHeaderIsRepairedOnWriterOpen) {
  const std::string path = temp_store("store_header.dvstor");
  {
    auto opened = EvalStore::open_writer(path);
    ASSERT_NE(opened.store, nullptr) << opened.error;
    ASSERT_TRUE(opened.store->append(make_record(8)));
  }
  std::string image = read_file(path);
  image[0] = 'X';  // stomp the magic
  write_file(path, image);

  auto reopened = EvalStore::open_writer(path);
  ASSERT_NE(reopened.store, nullptr) << reopened.error;
  EXPECT_EQ(reopened.store->stats().records, 1u);
  // The rewrite restored a well-formed file.
  const std::string repaired = read_file(path);
  ASSERT_GE(repaired.size(), sizeof(kStoreMagic));
  EXPECT_EQ(repaired.compare(0, sizeof(kStoreMagic), kStoreMagic,
                             sizeof(kStoreMagic)),
            0);
}

TEST(EvalStore, CompactDropsSupersededRecordsAtomically) {
  const std::string path = temp_store("store_compact.dvstor");
  auto opened = EvalStore::open_writer(path);
  ASSERT_NE(opened.store, nullptr) << opened.error;
  for (int round = 0; round < 5; ++round) {
    for (std::int64_t depth : {8, 16, 32}) {
      StoreRecord rec = make_record(depth);
      rec.metrics["lut"] = static_cast<double>(round);
      ASSERT_TRUE(opened.store->append(rec));
    }
  }
  const std::uint64_t before = opened.store->stats().file_bytes;
  std::string error;
  ASSERT_TRUE(opened.store->compact(error)) << error;
  const StoreStats stats = opened.store->stats();
  EXPECT_EQ(stats.records, 3u);
  EXPECT_EQ(stats.live, 3u);
  EXPECT_LT(stats.file_bytes, before);
  EXPECT_EQ(stats.compactions, 1u);

  // The rewritten file is complete and latest-wins survived the rewrite.
  auto reader = EvalStore::open_reader(path);
  ASSERT_NE(reader.store, nullptr) << reader.error;
  EXPECT_EQ(reader.store->stats().records, 3u);
  const auto hit = reader.store->lookup({{"DEPTH", 8}, {"WIDTH", 32}},
                                        "vivado-sim", EvalStore::kTierHifi);
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->metrics.at("lut"), 4.0);

  // The compacted store still appends.
  ASSERT_TRUE(opened.store->append(make_record(64)));
  EXPECT_EQ(opened.store->stats().live, 4u);
}

TEST(EvalStore, FsyncBatchingStillLandsEveryRecord) {
  const std::string path = temp_store("store_batch.dvstor");
  StoreOptions options;
  options.fsync_interval = 8;
  {
    auto opened = EvalStore::open_writer(path, options);
    ASSERT_NE(opened.store, nullptr) << opened.error;
    for (std::int64_t depth = 1; depth <= 20; ++depth) {
      ASSERT_TRUE(opened.store->append(make_record(depth)));
    }
    ASSERT_TRUE(opened.store->flush());
  }
  auto reader = EvalStore::open_reader(path);
  ASSERT_NE(reader.store, nullptr) << reader.error;
  EXPECT_EQ(reader.store->stats().records, 20u);
}

TEST(EvalStore, ServableAsExactPolicy) {
  StoreRecord ok = make_record(8);
  EXPECT_TRUE(servable_as_exact(ok));

  StoreRecord approx = make_record(8);
  approx.approximate = true;
  EXPECT_FALSE(servable_as_exact(approx));

  StoreRecord deterministic = make_record(8);
  deterministic.ok = false;
  deterministic.failure = "deterministic";
  EXPECT_TRUE(servable_as_exact(deterministic));

  // Transient failures and timeouts were about backend health that day,
  // not about the design point: never served.
  StoreRecord transient = make_record(8);
  transient.ok = false;
  transient.failure = "transient";
  EXPECT_FALSE(servable_as_exact(transient));
  StoreRecord timeout = make_record(8);
  timeout.ok = false;
  timeout.failure = "timeout";
  EXPECT_FALSE(servable_as_exact(timeout));
}

TEST(EvalStore, MissingFileOpensEmptyForWriterAndFailsForReader) {
  const std::string path = temp_store("store_missing.dvstor");
  auto reader = EvalStore::open_reader(path);
  EXPECT_EQ(reader.store, nullptr);
  EXPECT_FALSE(reader.lock_busy);

  auto writer = EvalStore::open_writer(path);
  ASSERT_NE(writer.store, nullptr) << writer.error;
  EXPECT_EQ(writer.store->stats().records, 0u);
  // A fresh store is a bare header on disk immediately.
  EXPECT_EQ(read_file(path).size(), sizeof(kStoreMagic));
}

}  // namespace
}  // namespace dovado::store
