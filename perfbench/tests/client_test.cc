// The result checker: a fake DB injects each kind of wrong answer and the
// client must count it.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "client.h"
#include "common.h"

namespace perfbench {
namespace {

using unikv::ReadOptions;
using unikv::Slice;
using unikv::Status;
using unikv::WriteOptions;

// An in-memory DB that keeps every version written and can be told to
// answer wrongly.
class FakeDB : public unikv::DB {
 public:
  enum class Defect { kNone, kStale, kWrongKey, kCorrupt, kLose, kSkipRow,
                      kSwapRows, kIoError };
  Defect defect = Defect::kNone;

  Status Put(const WriteOptions&, const Slice& key, const Slice& value) override {
    history_[key.ToString()].push_back(value.ToString());
    return Status::OK();
  }
  Status Delete(const WriteOptions&, const Slice& key) override {
    history_.erase(key.ToString());
    return Status::OK();
  }
  Status Write(const WriteOptions&, unikv::WriteBatch*) override {
    return Status::NotSupported("fake");
  }
  Status Get(const ReadOptions&, const Slice& key, std::string* value) override {
    auto it = history_.find(key.ToString());
    if (it == history_.end()) return Status::NotFound("fake");
    switch (defect) {
      case Defect::kStale:
        *value = it->second.front();
        return Status::OK();
      case Defect::kWrongKey: {
        auto other = std::next(it) == history_.end() ? history_.begin()
                                                     : std::next(it);
        *value = other->second.back();
        return Status::OK();
      }
      case Defect::kCorrupt:
        *value = it->second.back();
        (*value)[value->size() - 1] ^= 1;
        return Status::OK();
      case Defect::kLose:
        return Status::NotFound("fake");
      case Defect::kIoError:
        return Status::IOError("fake");
      default:
        *value = it->second.back();
        return Status::OK();
    }
  }
  unikv::Iterator* NewIterator(const ReadOptions&) override { return nullptr; }
  Status Scan(const ReadOptions&, const Slice& start, int count,
              std::vector<std::pair<std::string, std::string>>* out) override {
    out->clear();
    // A skipping scan reads one row further so it still returns `count`.
    const int want = count + (defect == Defect::kSkipRow ? 1 : 0);
    for (auto it = history_.lower_bound(start.ToString());
         it != history_.end() && static_cast<int>(out->size()) < want; ++it) {
      out->emplace_back(it->first, it->second.back());
    }
    if (defect == Defect::kSkipRow && out->size() >= 3) {
      out->erase(out->begin() + 1);
    }
    if (defect == Defect::kSwapRows && out->size() >= 3) {
      std::swap((*out)[0], (*out)[1]);
    }
    return Status::OK();
  }
  Status CompactAll() override { return Status::OK(); }
  Status FlushMemTable() override { return Status::OK(); }
  bool GetProperty(const Slice&, std::string*) override { return false; }

 private:
  std::map<std::string, std::vector<std::string>> history_;
};

class ClientTest : public ::testing::Test {
 protected:
  ClientTest() : model_(64, 128), client_(&db_, &model_) {
    for (uint64_t id = 0; id < 64; id++) client_.Put(id);
    client_.Put(7);  // Key 7 is at version 2, so version 1 is stale.
  }

  uint64_t errors(ErrorKind k) {
    return client_.stats().errors[static_cast<size_t>(k)];
  }

  FakeDB db_;
  KeyModel model_;
  Client client_;
};

TEST_F(ClientTest, CorrectAnswersCountNoErrors) {
  client_.Get(7);
  client_.MultiGet({1, 7, 9});
  client_.Scan(3, 10);
  Rng rng(1);
  ASSERT_TRUE(client_.Insert(&rng));
  client_.Scan(0, 64 * 2);
  EXPECT_EQ(client_.stats().failed, 0u);
  EXPECT_EQ(client_.stats().attempted, 64u + 1 + 5);
}

TEST_F(ClientTest, StaleValueIsCounted) {
  db_.defect = FakeDB::Defect::kStale;
  client_.Get(7);
  EXPECT_EQ(errors(ErrorKind::kStale), 1u);
  client_.Get(8);  // Only one version exists: not stale.
  EXPECT_EQ(errors(ErrorKind::kStale), 1u);
  client_.MultiGet({7, 8});
  EXPECT_EQ(errors(ErrorKind::kStale), 2u);
  EXPECT_EQ(client_.stats().failed, 2u);
}

TEST_F(ClientTest, WrongKeyValueIsCounted) {
  db_.defect = FakeDB::Defect::kWrongKey;
  client_.Get(3);
  EXPECT_EQ(errors(ErrorKind::kWrongKey), 1u);
  EXPECT_EQ(client_.stats().failed, 1u);
}

TEST_F(ClientTest, SkippedScanRowIsCounted) {
  db_.defect = FakeDB::Defect::kSkipRow;
  client_.Scan(10, 5);
  EXPECT_EQ(errors(ErrorKind::kSkipped), 1u);
  EXPECT_EQ(client_.stats().failed, 1u);
}

TEST_F(ClientTest, OtherDefectsAreCounted) {
  db_.defect = FakeDB::Defect::kCorrupt;
  client_.Get(1);
  EXPECT_EQ(errors(ErrorKind::kCorrupt), 1u);
  db_.defect = FakeDB::Defect::kLose;
  client_.Get(1);
  EXPECT_EQ(errors(ErrorKind::kMissing), 1u);
  db_.defect = FakeDB::Defect::kIoError;
  client_.Get(1);
  EXPECT_EQ(errors(ErrorKind::kBadStatus), 1u);
  db_.defect = FakeDB::Defect::kSwapRows;
  client_.Scan(20, 5);
  EXPECT_EQ(errors(ErrorKind::kOutOfOrder), 1u);
  EXPECT_EQ(client_.stats().failed, 4u);
}

TEST_F(ClientTest, ScanMustReturnAcknowledgedInserts) {
  Rng rng(3);
  ASSERT_TRUE(client_.Insert(&rng));
  // The inserted key sits in a gap; hide it by scanning a DB without it.
  FakeDB other;
  for (uint64_t id = 0; id < 64; id++) {
    std::string v(128, '\0');
    const uint64_t version = model_.acked(id);
    FillValue(id * kKeySlot, version, v.data(), v.size());
    ASSERT_TRUE(other.Put(WriteOptions(), KeyString(id * kKeySlot), v).ok());
  }
  Client reader(&other, &model_);
  reader.Scan(0, 1000);
  EXPECT_EQ(reader.stats().errors[static_cast<size_t>(ErrorKind::kSkipped)], 1u);
}

TEST(ValueCodecTest, RoundTripsAndDetectsDamage) {
  std::string v(256, '\0');
  FillValue(160, 9, v.data(), v.size());
  uint64_t version = 0;
  EXPECT_EQ(CheckValue(160, v.data(), v.size(), 256, &version), ValueCheck::kOk);
  EXPECT_EQ(version, 9u);
  EXPECT_EQ(CheckValue(176, v.data(), v.size(), 256, &version),
            ValueCheck::kWrongKey);
  v[100] ^= 0x40;
  EXPECT_EQ(CheckValue(160, v.data(), v.size(), 256, &version),
            ValueCheck::kCorrupt);
  EXPECT_EQ(CheckValue(160, v.data(), 10, 256, &version), ValueCheck::kCorrupt);
}

TEST(KeyCodecTest, FormatsInNumericOrder) {
  EXPECT_LT(KeyString(9), KeyString(10));
  uint64_t n = 0;
  const std::string k = KeyString(123456);
  ASSERT_TRUE(ParseKey(k.data(), k.size(), &n));
  EXPECT_EQ(n, 123456u);
  EXPECT_FALSE(ParseKey("x", 1, &n));
}

}  // namespace
}  // namespace perfbench
