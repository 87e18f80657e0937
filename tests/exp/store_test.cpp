#include "exp/result_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

namespace nomc::exp {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "nomc_store_" + name;
}

void write_file(const std::string& path, const std::string& content) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr);
  ASSERT_EQ(std::fwrite(content.data(), 1, content.size(), file), content.size());
  std::fclose(file);
}

const char* kRecordA =
    R"({"v":1,"campaign":"c","spec_hash":"00000000000000aa","point":0,)"
    R"("sweep":{"cfd":"9"},"params":{},)"
    R"("per_network":{"pps":[10,20],"prr":[0.5,0.25],"backoffs_per_s":[1,2],)"
    R"("drops_per_s":[3,4]},"overall_pps":30,"jain":0.9})";
const char* kRecordB =
    R"({"v":1,"campaign":"c","spec_hash":"00000000000000aa","point":1,)"
    R"("sweep":{"cfd":"5"},"params":{},)"
    R"("per_network":{"pps":[7],"prr":[1],"backoffs_per_s":[0],)"
    R"("drops_per_s":[0]},"overall_pps":7,"jain":1})";

// -- JSON subset parser ----------------------------------------------------

TEST(Json, ParsesScalarsArraysObjects) {
  JsonValue value;
  std::string error;
  ASSERT_TRUE(parse_json(R"({"a":1.5,"b":"x\n","c":[1,2],"d":true,"e":null})", value, error))
      << error;
  ASSERT_EQ(value.type, JsonValue::Type::kObject);
  ASSERT_NE(value.find("a"), nullptr);
  EXPECT_DOUBLE_EQ(value.find("a")->number, 1.5);
  EXPECT_EQ(value.find("b")->string, "x\n");
  ASSERT_EQ(value.find("c")->array.size(), 2u);
  EXPECT_TRUE(value.find("d")->boolean);
  EXPECT_EQ(value.find("e")->type, JsonValue::Type::kNull);
  EXPECT_EQ(value.find("missing"), nullptr);
}

TEST(Json, RejectsGarbage) {
  JsonValue value;
  std::string error;
  EXPECT_FALSE(parse_json("{", value, error));
  EXPECT_FALSE(parse_json(R"({"a":})", value, error));
  EXPECT_FALSE(parse_json(R"({"a":1} trailing)", value, error));
  EXPECT_FALSE(parse_json("", value, error));
}

TEST(Json, StringEscapingRoundTrips) {
  std::string out;
  json_append_string(out, "a\"b\\c\nd");
  JsonValue value;
  std::string error;
  ASSERT_TRUE(parse_json(out, value, error)) << error;
  EXPECT_EQ(value.string, "a\"b\\c\nd");
}

TEST(Json, DoubleFormattingRoundTrips) {
  for (const double x : {0.1, 1.0 / 3.0, 756.23456789012345, -77.0}) {
    std::string out;
    json_append_double(out, x);
    JsonValue value;
    std::string error;
    ASSERT_TRUE(parse_json(out, value, error));
    EXPECT_EQ(value.number, x) << out;
  }
}

// -- Record parsing --------------------------------------------------------

TEST(Store, ParseRecordReadsAllFields) {
  ResultRecord record;
  std::string error;
  ASSERT_TRUE(parse_record(kRecordA, record, error)) << error;
  EXPECT_EQ(record.version, kStoreVersion);
  EXPECT_EQ(record.campaign, "c");
  EXPECT_EQ(record.spec_hash, "00000000000000aa");
  EXPECT_EQ(record.point, 0);
  ASSERT_EQ(record.sweep.size(), 1u);
  EXPECT_EQ(record.sweep[0].first, "cfd");
  EXPECT_EQ(record.sweep[0].second, "9");
  ASSERT_EQ(record.pps.size(), 2u);
  EXPECT_DOUBLE_EQ(record.pps[1], 20.0);
  EXPECT_DOUBLE_EQ(record.prr[1], 0.25);
  EXPECT_DOUBLE_EQ(record.overall_pps, 30.0);
  EXPECT_DOUBLE_EQ(record.jain, 0.9);
}

TEST(Store, ParseRecordRejectsWrongVersion) {
  ResultRecord record;
  std::string error;
  EXPECT_FALSE(parse_record(R"({"v":99,"campaign":"c","spec_hash":"x","point":0})", record,
                            error));
  EXPECT_NE(error.find("version"), std::string::npos);
  // A version must be an exact int: 1.9 and 1.5 are not version 1.
  for (const char* version : {"1.9", "1.5"}) {
    const std::string line =
        std::string{R"({"v":)"} + version + R"(,"campaign":"c","spec_hash":"x","point":0})";
    EXPECT_FALSE(parse_record(line, record, error)) << line;
    EXPECT_NE(error.find("version"), std::string::npos) << line;
  }
}

TEST(Store, ParseRecordRejectsMissingFields) {
  ResultRecord record;
  std::string error;
  EXPECT_FALSE(parse_record(R"({"v":1,"point":0})", record, error));
  EXPECT_FALSE(parse_record("not json", record, error));
  // A complete record whose point is not an exact int.
  for (const char* point : {"2.5", "1e300", "-1e300"}) {
    std::string line{kRecordA};
    const std::string valid = R"("point":0,)";
    line.replace(line.find(valid), valid.size(), std::string{R"("point":)"} + point + ",");
    EXPECT_FALSE(parse_record(line, record, error)) << line;
    EXPECT_NE(error.find("point"), std::string::npos) << line;
  }
}

// -- Store scanning --------------------------------------------------------

TEST(Store, ScanReadsCompletedPoints) {
  const std::string path = temp_path("scan.jsonl");
  write_file(path, std::string{kRecordA} + "\n" + kRecordB + "\n");
  StoreScan scan;
  std::string error;
  ASSERT_TRUE(scan_store(path, "00000000000000aa", scan, error)) << error;
  EXPECT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.completed.count(0), 1u);
  EXPECT_EQ(scan.completed.count(1), 1u);
  EXPECT_FALSE(scan.truncated_tail);
  EXPECT_EQ(scan.valid_prefix, std::string{kRecordA} + "\n" + kRecordB + "\n");
}

TEST(Store, ScanDropsTornTrailingLine) {
  const std::string path = temp_path("torn.jsonl");
  write_file(path, std::string{kRecordA} + "\n" + R"({"v":1,"campaign":"c)");
  StoreScan scan;
  std::string error;
  ASSERT_TRUE(scan_store(path, "00000000000000aa", scan, error)) << error;
  EXPECT_EQ(scan.records.size(), 1u);
  EXPECT_TRUE(scan.truncated_tail);
  EXPECT_EQ(scan.valid_prefix, std::string{kRecordA} + "\n");
}

TEST(Store, ScanRejectsGarbageInTheMiddle) {
  const std::string path = temp_path("garbage.jsonl");
  write_file(path, std::string{"garbage\n"} + kRecordA + "\n");
  StoreScan scan;
  std::string error;
  EXPECT_FALSE(scan_store(path, "", scan, error));
  EXPECT_NE(error.find("line 1"), std::string::npos);
}

TEST(Store, ScanRejectsSpecHashMismatch) {
  const std::string path = temp_path("mismatch.jsonl");
  write_file(path, std::string{kRecordA} + "\n");
  StoreScan scan;
  std::string error;
  EXPECT_FALSE(scan_store(path, "00000000000000bb", scan, error));
  EXPECT_NE(error.find("different spec"), std::string::npos);
}

TEST(Store, ScanMissingFileFails) {
  StoreScan scan;
  std::string error;
  EXPECT_FALSE(scan_store(temp_path("never_written.jsonl"), "", scan, error));
}

// -- Writer ----------------------------------------------------------------

TEST(Store, WriterAppendsAndTruncates) {
  const std::string path = temp_path("writer.jsonl");
  std::string error;
  {
    StoreWriter writer;
    ASSERT_TRUE(writer.open(path, /*truncate=*/true, error)) << error;
    ASSERT_TRUE(writer.append_line(kRecordA, error));
  }
  {
    StoreWriter writer;
    ASSERT_TRUE(writer.open(path, /*truncate=*/false, error));
    ASSERT_TRUE(writer.append_line(kRecordB, error));
  }
  StoreScan scan;
  ASSERT_TRUE(scan_store(path, "", scan, error)) << error;
  EXPECT_EQ(scan.records.size(), 2u);

  StoreWriter writer;
  ASSERT_TRUE(writer.open(path, /*truncate=*/true, error));
  writer.close();
  ASSERT_TRUE(scan_store(path, "", scan, error));
  EXPECT_TRUE(scan.records.empty());
}

// -- CSV export ------------------------------------------------------------

TEST(Store, CsvEscape) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Store, ExportCsvLongFormat) {
  ResultRecord a;
  std::string error;
  ASSERT_TRUE(parse_record(kRecordA, a, error));
  ResultRecord b;
  ASSERT_TRUE(parse_record(kRecordB, b, error));

  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  ASSERT_TRUE(export_csv({a, b}, tmp));
  std::rewind(tmp);
  std::string content(16384, '\0');
  content.resize(std::fread(content.data(), 1, content.size(), tmp));
  std::fclose(tmp);

  // Header + 2 networks of record A + 1 network of record B.
  EXPECT_NE(content.find("campaign,point,cfd,network,pps,prr,backoffs_per_s,drops_per_s,"
                         "overall_pps,jain\n"),
            std::string::npos);
  EXPECT_NE(content.find("c,0,9,0,10,"), std::string::npos);
  EXPECT_NE(content.find("c,0,9,1,20,"), std::string::npos);
  EXPECT_NE(content.find("c,1,5,0,7,"), std::string::npos);
  EXPECT_EQ(std::count(content.begin(), content.end(), '\n'), 4);
}

// The column schema is a public contract: downstream notebooks select by
// name AND position. These bytes may gain trailing columns but never reorder.
TEST(Store, CsvHeaderBytesArePinned) {
  EXPECT_EQ(csv_header({}),
            "campaign,point,network,pps,prr,backoffs_per_s,drops_per_s,overall_pps,jain\n");
  EXPECT_EQ(csv_header({"cfd", "channels"}),
            "campaign,point,cfd,channels,network,pps,prr,backoffs_per_s,drops_per_s,"
            "overall_pps,jain\n");
  // Sweep-key columns appear in the order given (first-seen order in
  // export_csv), not sorted — and are escaped like any other field.
  EXPECT_EQ(csv_header({"b,key", "a"}),
            "campaign,point,\"b,key\",a,network,pps,prr,backoffs_per_s,drops_per_s,"
            "overall_pps,jain\n");
}

TEST(Store, ExportCsvUsesFirstSeenSweepKeyOrder) {
  ResultRecord a;
  std::string error;
  ASSERT_TRUE(parse_record(kRecordA, a, error));
  a.sweep = {{"zeta", "1"}, {"alpha", "2"}};

  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  ASSERT_TRUE(export_csv({a}, tmp));
  std::rewind(tmp);
  std::string content(4096, '\0');
  content.resize(std::fread(content.data(), 1, content.size(), tmp));
  std::fclose(tmp);
  EXPECT_EQ(content.substr(0, content.find('\n') + 1), csv_header({"zeta", "alpha"}));
  EXPECT_NE(content.find("c,0,1,2,0,"), std::string::npos);  // zeta=1 before alpha=2
}

// -- Ordered checkpointing -------------------------------------------------

struct CheckpointerFixture {
  std::string path;
  StoreWriter store;
  StoreWriter timing;

  explicit CheckpointerFixture(const std::string& name) : path{temp_path(name)} {
    std::string error;
    EXPECT_TRUE(store.open(path, /*truncate=*/true, error)) << error;
    EXPECT_TRUE(timing.open(path + ".timing", /*truncate=*/true, error)) << error;
  }

  std::string store_bytes() {
    store.close();
    std::FILE* file = std::fopen(path.c_str(), "rb");
    EXPECT_NE(file, nullptr);
    std::string content(16384, '\0');
    content.resize(std::fread(content.data(), 1, content.size(), file));
    std::fclose(file);
    return content;
  }
};

TEST(Checkpointer, OutOfOrderSubmitsFlushInSlotOrder) {
  CheckpointerFixture fx{"ckpt_order.jsonl"};
  OrderedCheckpointer checkpointer{fx.store, fx.timing, 8};
  EXPECT_TRUE(checkpointer.submit(2, "r2", "t2", ""));
  EXPECT_TRUE(checkpointer.submit(0, "r0", "t0", ""));
  EXPECT_TRUE(checkpointer.submit(1, "r1", "t1", ""));
  std::string error;
  EXPECT_TRUE(checkpointer.finish(error)) << error;
  EXPECT_EQ(fx.store_bytes(), "r0\nr1\nr2\n");
}

TEST(Checkpointer, FinishReportsGap) {
  CheckpointerFixture fx{"ckpt_gap.jsonl"};
  OrderedCheckpointer checkpointer{fx.store, fx.timing, 8};
  EXPECT_TRUE(checkpointer.submit(0, "r0", "t0", ""));
  EXPECT_TRUE(checkpointer.submit(2, "r2", "t2", ""));
  std::string error;
  EXPECT_FALSE(checkpointer.finish(error));
  EXPECT_NE(error.find("missing slot 1"), std::string::npos);
  EXPECT_EQ(fx.store_bytes(), "r0\n");  // nothing written past the gap
}

TEST(Checkpointer, NextSlotSubmitterBypassesFullBuffer) {
  // max_pending = 1 and slot 1 arrives first, filling the buffer. Slot 0's
  // submit must not block on space — it is the submission that frees it.
  CheckpointerFixture fx{"ckpt_bypass.jsonl"};
  OrderedCheckpointer checkpointer{fx.store, fx.timing, 1};
  EXPECT_TRUE(checkpointer.submit(1, "r1", "t1", ""));
  EXPECT_TRUE(checkpointer.submit(0, "r0", "t0", ""));
  EXPECT_TRUE(checkpointer.submit(2, "r2", "t2", ""));
  std::string error;
  EXPECT_TRUE(checkpointer.finish(error)) << error;
  EXPECT_EQ(fx.store_bytes(), "r0\nr1\nr2\n");
}

TEST(Checkpointer, ConcurrentSubmittersSerializeInSlotOrder) {
  // 8 threads each submit one slot, deliberately biased so high slots tend
  // to arrive first; a tight bound of 2 forces real blocking. The store must
  // still come out in slot order. Run under TSan in CI.
  CheckpointerFixture fx{"ckpt_mt.jsonl"};
  OrderedCheckpointer checkpointer{fx.store, fx.timing, 2};
  constexpr int kSlots = 8;
  // Real threads on purpose: this test races submitters against the
  // checkpointer's blocking bound, which ParallelRunner's ordered index
  // hand-out cannot express.
  // nomc-lint: allow(det-raw-thread)
  std::vector<std::thread> threads;
  threads.reserve(kSlots);
  for (int slot = kSlots - 1; slot >= 0; --slot) {
    threads.emplace_back([&checkpointer, slot] {
      EXPECT_TRUE(checkpointer.submit(slot, "r" + std::to_string(slot),
                                      "t" + std::to_string(slot), ""));
    });
  }
  // nomc-lint: allow(det-raw-thread)
  for (std::thread& thread : threads) thread.join();
  std::string error;
  EXPECT_TRUE(checkpointer.finish(error)) << error;
  std::string expected;
  for (int slot = 0; slot < kSlots; ++slot) expected += "r" + std::to_string(slot) + "\n";
  EXPECT_EQ(fx.store_bytes(), expected);
}

}  // namespace
}  // namespace nomc::exp
