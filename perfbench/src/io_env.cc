#include "io_env.h"

#include "common.h"
#include "trace.h"

namespace perfbench {

using unikv::Slice;
using unikv::Status;

namespace {

std::atomic<uint64_t> g_env_generation{0};
thread_local Role tls_role = Role::kEngine;

struct LocalBlock {
  uint64_t generation = 0;
  void* block = nullptr;
};
thread_local LocalBlock tls_block;

bool EndsWith(const std::string& s, const char* suffix) {
  const size_t n = std::char_traits<char>::length(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

class TimedSequentialFile final : public unikv::SequentialFile {
 public:
  TimedSequentialFile(IoEnv* env, FileKind kind,
                      std::unique_ptr<unikv::SequentialFile> base)
      : env_(env), kind_(kind), base_(std::move(base)) {}

  Status Read(size_t n, Slice* result, char* scratch) override {
    const int64_t t = NowNs();
    Status s = base_->Read(n, result, scratch);
    env_->Note(kind_, FileOp::kRead, t, s.ok() ? result->size() : 0);
    return s;
  }
  Status Skip(uint64_t n) override {
    const int64_t t = NowNs();
    Status s = base_->Skip(n);
    env_->Note(kind_, FileOp::kMeta, t, 0);
    return s;
  }

 private:
  IoEnv* env_;
  FileKind kind_;
  std::unique_ptr<unikv::SequentialFile> base_;
};

class TimedRandomAccessFile final : public unikv::RandomAccessFile {
 public:
  TimedRandomAccessFile(IoEnv* env, FileKind kind,
                        std::unique_ptr<unikv::RandomAccessFile> base)
      : env_(env), kind_(kind), base_(std::move(base)) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    const int64_t t = NowNs();
    Status s = base_->Read(offset, n, result, scratch);
    env_->Note(kind_, FileOp::kRead, t, s.ok() ? result->size() : 0);
    return s;
  }
  bool ReadZeroCopy(uint64_t offset, size_t n, Slice* result) const override {
    const int64_t t = NowNs();
    const bool hit = base_->ReadZeroCopy(offset, n, result);
    env_->Note(kind_, hit ? FileOp::kZeroCopy : FileOp::kZeroCopyMiss, t,
               hit ? result->size() : 0);
    return hit;
  }
  void ReadaheadHint(uint64_t offset, size_t n) const override {
    const int64_t t = NowNs();
    base_->ReadaheadHint(offset, n);
    env_->Note(kind_, FileOp::kMeta, t, 0);
  }

 private:
  IoEnv* env_;
  FileKind kind_;
  std::unique_ptr<unikv::RandomAccessFile> base_;
};

class TimedWritableFile final : public unikv::WritableFile {
 public:
  TimedWritableFile(IoEnv* env, FileKind kind,
                    std::unique_ptr<unikv::WritableFile> base)
      : env_(env), kind_(kind), base_(std::move(base)) {}

  Status Append(const Slice& data) override {
    const int64_t t = NowNs();
    Status s = base_->Append(data);
    env_->Note(kind_, FileOp::kAppend, t, data.size());
    return s;
  }
  Status Close() override {
    const int64_t t = NowNs();
    Status s = base_->Close();
    env_->Note(kind_, FileOp::kMeta, t, 0);
    return s;
  }
  Status Flush() override {
    const int64_t t = NowNs();
    Status s = base_->Flush();
    env_->Note(kind_, FileOp::kFlush, t, 0);
    return s;
  }
  Status Sync() override {
    const int64_t t = NowNs();
    Status s = base_->Sync();
    env_->Note(kind_, FileOp::kSync, t, 0);
    return s;
  }

 private:
  IoEnv* env_;
  FileKind kind_;
  std::unique_ptr<unikv::WritableFile> base_;
};

}  // namespace

FileKind ClassifyFile(const std::string& fname) {
  if (EndsWith(fname, ".wal") || EndsWith(fname, ".swal")) return FileKind::kWal;
  if (EndsWith(fname, ".sst")) return FileKind::kSst;
  if (EndsWith(fname, ".vlog")) return FileKind::kVlog;
  if (EndsWith(fname, ".hidx")) return FileKind::kHidx;
  if (EndsWith(fname, ".anchors")) return FileKind::kAnchors;
  const size_t slash = fname.rfind('/');
  const size_t base = slash == std::string::npos ? 0 : slash + 1;
  if (fname.compare(base, 9, "MANIFEST-") == 0) return FileKind::kManifest;
  return FileKind::kOther;
}

const char* FileKindName(FileKind kind) {
  static const char* kNames[] = {"wal",     "sst",      "vlog", "hidx",
                                 "anchors", "manifest", "other"};
  return kNames[static_cast<size_t>(kind)];
}

IoCell IoTotals::Sum(Role r, FileKind k, FileOp o) const {
  IoCell total;
  for (size_t ri = 0; ri < kRoles; ri++) {
    if (r != Role::kCount && ri != static_cast<size_t>(r)) continue;
    for (size_t ki = 0; ki < kKinds; ki++) {
      if (k != FileKind::kCount && ki != static_cast<size_t>(k)) continue;
      const IoCell& c = at(static_cast<Role>(ri), static_cast<FileKind>(ki), o);
      total.calls += c.calls;
      total.bytes += c.bytes;
      total.ns += c.ns;
    }
  }
  return total;
}

IoTotals IoTotals::operator-(const IoTotals& before) const {
  IoTotals d;
  for (size_t i = 0; i < cells.size(); i++) {
    d.cells[i].calls = cells[i].calls - before.cells[i].calls;
    d.cells[i].bytes = cells[i].bytes - before.cells[i].bytes;
    d.cells[i].ns = cells[i].ns - before.cells[i].ns;
  }
  return d;
}

IoEnv::IoEnv(unikv::Env* base)
    : base_(base), generation_(g_env_generation.fetch_add(1) + 1) {}

IoEnv::~IoEnv() = default;

void IoEnv::SetThreadRole(Role role) { tls_role = role; }

IoEnv::Block* IoEnv::LocalBlock() {
  if (tls_block.generation != generation_) {
    auto block = std::make_unique<Block>();
    tls_block.generation = generation_;
    tls_block.block = block.get();
    std::lock_guard<std::mutex> lock(mu_);
    blocks_.push_back(std::move(block));
  }
  return static_cast<Block*>(tls_block.block);
}

void IoEnv::Note(FileKind kind, FileOp op, int64_t start_ns, uint64_t bytes) {
  const int64_t end_ns = NowNs();
  Block* b = LocalBlock();
  const size_t cell = IoTotals::Index(tls_role, kind, op) * 3;
  // Single writer per block: plain load + store keeps the hot path free
  // of read-modify-write atomics while readers still see whole values.
  auto bump = [&](size_t i, uint64_t v) {
    b->v[i].store(b->v[i].load(std::memory_order_relaxed) + v,
                  std::memory_order_relaxed);
  };
  bump(cell, 1);
  bump(cell + 1, bytes);
  bump(cell + 2, static_cast<uint64_t>(end_ns - start_ns));
  if (Tracer* tracer = Tracer::Active()) {
    tracer->Record(SpanLayer::kFile, static_cast<uint8_t>(op),
                   static_cast<uint8_t>(kind), start_ns, end_ns,
                   static_cast<uint32_t>(bytes));
  }
}

IoTotals IoEnv::Totals() const {
  IoTotals t;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& b : blocks_) {
    for (size_t i = 0; i < t.cells.size(); i++) {
      t.cells[i].calls += b->v[i * 3].load(std::memory_order_relaxed);
      t.cells[i].bytes += b->v[i * 3 + 1].load(std::memory_order_relaxed);
      t.cells[i].ns += b->v[i * 3 + 2].load(std::memory_order_relaxed);
    }
  }
  return t;
}

Status IoEnv::NewSequentialFile(const std::string& fname,
                                std::unique_ptr<unikv::SequentialFile>* result) {
  const int64_t t = NowNs();
  std::unique_ptr<unikv::SequentialFile> base;
  Status s = base_->NewSequentialFile(fname, &base);
  const FileKind kind = ClassifyFile(fname);
  Note(kind, FileOp::kOpen, t, 0);
  if (s.ok()) {
    *result = std::make_unique<TimedSequentialFile>(this, kind, std::move(base));
  }
  return s;
}

Status IoEnv::NewRandomAccessFile(
    const std::string& fname, std::unique_ptr<unikv::RandomAccessFile>* result) {
  const int64_t t = NowNs();
  std::unique_ptr<unikv::RandomAccessFile> base;
  Status s = base_->NewRandomAccessFile(fname, &base);
  const FileKind kind = ClassifyFile(fname);
  Note(kind, FileOp::kOpen, t, 0);
  if (s.ok()) {
    *result =
        std::make_unique<TimedRandomAccessFile>(this, kind, std::move(base));
  }
  return s;
}

Status IoEnv::NewWritableFile(const std::string& fname,
                              std::unique_ptr<unikv::WritableFile>* result) {
  const int64_t t = NowNs();
  std::unique_ptr<unikv::WritableFile> base;
  Status s = base_->NewWritableFile(fname, &base);
  const FileKind kind = ClassifyFile(fname);
  Note(kind, FileOp::kOpen, t, 0);
  if (s.ok()) {
    *result = std::make_unique<TimedWritableFile>(this, kind, std::move(base));
  }
  return s;
}

Status IoEnv::NewAppendableFile(const std::string& fname,
                                std::unique_ptr<unikv::WritableFile>* result) {
  const int64_t t = NowNs();
  std::unique_ptr<unikv::WritableFile> base;
  Status s = base_->NewAppendableFile(fname, &base);
  const FileKind kind = ClassifyFile(fname);
  Note(kind, FileOp::kOpen, t, 0);
  if (s.ok()) {
    *result = std::make_unique<TimedWritableFile>(this, kind, std::move(base));
  }
  return s;
}

// Directory calls: forwarded and counted as metadata on the file's kind.
#define PERFBENCH_TIMED_META(fname, expr)             \
  const int64_t t = NowNs();                          \
  auto r = (expr);                                    \
  Note(ClassifyFile(fname), FileOp::kMeta, t, 0);     \
  return r

bool IoEnv::FileExists(const std::string& fname) {
  PERFBENCH_TIMED_META(fname, base_->FileExists(fname));
}
Status IoEnv::GetChildren(const std::string& dir,
                          std::vector<std::string>* result) {
  PERFBENCH_TIMED_META(dir, base_->GetChildren(dir, result));
}
Status IoEnv::RemoveFile(const std::string& fname) {
  PERFBENCH_TIMED_META(fname, base_->RemoveFile(fname));
}
Status IoEnv::CreateDir(const std::string& dirname) {
  PERFBENCH_TIMED_META(dirname, base_->CreateDir(dirname));
}
Status IoEnv::RemoveDir(const std::string& dirname) {
  PERFBENCH_TIMED_META(dirname, base_->RemoveDir(dirname));
}
Status IoEnv::GetFileSize(const std::string& fname, uint64_t* size) {
  PERFBENCH_TIMED_META(fname, base_->GetFileSize(fname, size));
}
Status IoEnv::RenameFile(const std::string& src, const std::string& target) {
  PERFBENCH_TIMED_META(target, base_->RenameFile(src, target));
}
Status IoEnv::SyncDir(const std::string& dirname) {
  PERFBENCH_TIMED_META(dirname, base_->SyncDir(dirname));
}
Status IoEnv::LockFile(const std::string& fname, unikv::FileLock** lock) {
  PERFBENCH_TIMED_META(fname, base_->LockFile(fname, lock));
}
Status IoEnv::UnlockFile(unikv::FileLock* lock) {
  PERFBENCH_TIMED_META(std::string(), base_->UnlockFile(lock));
}

#undef PERFBENCH_TIMED_META

}  // namespace perfbench
