// The Env wrapper forwards faithfully: the engine sees the same behaviour
// (zero-copy reads included) with and without it, and it counts by kind.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "client.h"
#include "io_env.h"
#include "workload.h"

namespace perfbench {
namespace {

std::string TestDir(const std::string& name) {
  return ::testing::TempDir() + "perfbench_" + name;
}

TEST(IoEnvTest, ClassifiesEngineFiles) {
  EXPECT_EQ(ClassifyFile("/d/000012.wal"), FileKind::kWal);
  EXPECT_EQ(ClassifyFile("/d/000012.swal"), FileKind::kWal);
  EXPECT_EQ(ClassifyFile("/d/000012.sst"), FileKind::kSst);
  EXPECT_EQ(ClassifyFile("/d/000012.vlog"), FileKind::kVlog);
  EXPECT_EQ(ClassifyFile("/d/000012.hidx"), FileKind::kHidx);
  EXPECT_EQ(ClassifyFile("/d/000012.anchors"), FileKind::kAnchors);
  EXPECT_EQ(ClassifyFile("/d/MANIFEST-000003"), FileKind::kManifest);
  EXPECT_EQ(ClassifyFile("/d/CURRENT"), FileKind::kOther);
  EXPECT_EQ(ClassifyFile("/d/EVENTS"), FileKind::kOther);
}

TEST(IoEnvTest, CountsBytesCallsAndRoles) {
  IoEnv env(unikv::Env::Default());
  const std::string dir = TestDir("io_counts");
  (void)unikv::RemoveDirRecursively(unikv::Env::Default(), dir);
  ASSERT_TRUE(env.CreateDir(dir).ok());
  IoEnv::SetThreadRole(Role::kClient);
  {
    std::unique_ptr<unikv::WritableFile> f;
    ASSERT_TRUE(env.NewWritableFile(dir + "/000001.vlog", &f).ok());
    ASSERT_TRUE(f->Append(std::string(5000, 'x')).ok());
    ASSERT_TRUE(f->Sync().ok());
    ASSERT_TRUE(f->Close().ok());
  }
  std::unique_ptr<unikv::RandomAccessFile> r;
  ASSERT_TRUE(env.NewRandomAccessFile(dir + "/000001.vlog", &r).ok());
  char scratch[100];
  unikv::Slice got;
  ASSERT_TRUE(r->Read(10, 100, &got, scratch).ok());
  EXPECT_EQ(got.size(), 100u);
  r->ReadaheadHint(0, 4096);
  const bool zero_copy = r->ReadZeroCopy(0, 4096, &got);
  IoEnv::SetThreadRole(Role::kEngine);

  const IoTotals t = env.Totals();
  const auto client = Role::kClient;
  EXPECT_EQ(t.at(client, FileKind::kVlog, FileOp::kAppend).bytes, 5000u);
  EXPECT_EQ(t.at(client, FileKind::kVlog, FileOp::kSync).calls, 1u);
  EXPECT_EQ(t.at(client, FileKind::kVlog, FileOp::kRead).bytes, 100u);
  EXPECT_EQ(t.at(client, FileKind::kVlog, FileOp::kOpen).calls, 2u);
  EXPECT_EQ(t.at(client, FileKind::kVlog,
                 zero_copy ? FileOp::kZeroCopy : FileOp::kZeroCopyMiss).calls,
            1u);
  EXPECT_EQ(t.Sum(Role::kEngine, FileKind::kCount, FileOp::kAppend).calls, 0u);
  EXPECT_EQ(t.BytesWritten(), 5000u);
  r.reset();
  (void)unikv::RemoveDirRecursively(unikv::Env::Default(), dir);
}

// Loads a small store through `env`, compacts it, then makes a fixed
// series of reads; returns the engine's own counters.
std::map<std::string, double> RunFixedReads(unikv::Env* env,
                                            const std::string& dir) {
  (void)unikv::RemoveDirRecursively(unikv::Env::Default(), dir);
  unikv::DB* raw = nullptr;
  unikv::Options opt = BenchOptions(env);
  EXPECT_TRUE(unikv::DB::Open(opt, dir, &raw).ok());
  std::unique_ptr<unikv::DB> db(raw);
  KeyModel model(20000, 256);
  Client client(db.get(), &model);
  for (uint64_t id = 0; id < 20000; id++) client.Put(id);
  EXPECT_TRUE(db->CompactAll().ok());
  Rng rng(42);
  std::vector<uint64_t> batch(16);
  for (int i = 0; i < 300; i++) {
    for (auto& id : batch) id = rng.Uniform(20000);
    client.MultiGet(batch);
    client.Get(rng.Uniform(20000));
  }
  EXPECT_EQ(client.stats().failed, 0u);
  std::map<std::string, double> counters = EngineCounters(db.get());
  db.reset();
  (void)unikv::RemoveDirRecursively(unikv::Env::Default(), dir);
  return counters;
}

TEST(IoEnvTest, EngineCountersMatchWithoutTheWrapper) {
  IoEnv wrapped(unikv::Env::Default());
  const auto with = RunFixedReads(&wrapped, TestDir("with_wrapper"));
  const auto without =
      RunFixedReads(unikv::Env::Default(), TestDir("without_wrapper"));
  for (const char* name : {"write_bytes", "vlog_mmap_reads", "multigets",
                           "multiget_keys"}) {
    ASSERT_TRUE(with.count(name)) << name;
    EXPECT_EQ(with.at(name), without.at(name)) << name;
  }
  EXPECT_GT(with.at("vlog_mmap_reads"), 0);
  // The wrapper saw every zero-copy read the engine counted.
  const IoTotals t = wrapped.Totals();
  EXPECT_EQ(static_cast<double>(
                t.Sum(Role::kCount, FileKind::kVlog, FileOp::kZeroCopy).calls),
            with.at("vlog_mmap_reads"));
}

TEST(IoEnvTest, ReadWorkloadServesZeroCopyUnderTheWrapper) {
  WorkloadSpec spec;
  ASSERT_TRUE(GetWorkload("read", 0.05, &spec));
  Store store;
  std::string err;
  ASSERT_GE(SetUpStore(spec, 7, TestDir("read_workload"), &store, &err), 0) << err;
  const IoTotals before = store.env->Totals();
  WindowResult w = RunWindow(spec, &store, 7, 1, 0.5, true);
  const IoTotals d = store.env->Totals() - before;
  EXPECT_EQ(w.stats.failed, 0u);
  EXPECT_GT(w.stats.attempted, 0u);
  const uint64_t zero_copy =
      d.Sum(Role::kCount, FileKind::kVlog, FileOp::kZeroCopy).calls;
  const uint64_t preads = d.Sum(Role::kCount, FileKind::kVlog, FileOp::kRead).calls;
  EXPECT_GT(zero_copy, 0u);
  EXPECT_GT(static_cast<double>(zero_copy) / static_cast<double>(zero_copy + preads),
            0.0);
  // Read-only: the window writes nothing through the Env.
  EXPECT_EQ(d.BytesWritten(), 0u);
  TearDownStore(&store);
}

}  // namespace
}  // namespace perfbench
