// An Env wrapper that forwards every call to a base Env and times each
// file call by file kind and by the role of the calling thread. When a
// Tracer is active it also records each file call as a span.
#ifndef PERFBENCH_IO_ENV_H_
#define PERFBENCH_IO_ENV_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/env.h"

namespace perfbench {

enum class FileKind : uint8_t {
  kWal,       // .wal and .swal
  kSst,       // .sst
  kVlog,      // .vlog
  kHidx,      // .hidx hash-index checkpoints
  kAnchors,   // .anchors
  kManifest,  // MANIFEST-*
  kOther,     // CURRENT, .tmp, LOCK, EVENTS
  kCount
};

enum class FileOp : uint8_t {
  kRead,          // RandomAccessFile::Read, SequentialFile::Read
  kZeroCopy,      // ReadZeroCopy that returned the bytes
  kZeroCopyMiss,  // ReadZeroCopy that declined (caller then reads)
  kAppend,
  kSync,
  kFlush,
  kOpen,          // New*File
  kMeta,          // Close, Skip, ReadaheadHint and directory calls
  kCount
};

/// Client threads are the benchmark's own; every other thread calling the
/// Env belongs to the engine (background jobs, value-fetch pool).
enum class Role : uint8_t { kEngine, kClient, kCount };

FileKind ClassifyFile(const std::string& fname);
const char* FileKindName(FileKind kind);

constexpr size_t kRoles = static_cast<size_t>(Role::kCount);
constexpr size_t kKinds = static_cast<size_t>(FileKind::kCount);
constexpr size_t kOps = static_cast<size_t>(FileOp::kCount);

struct IoCell {
  uint64_t calls = 0;
  uint64_t bytes = 0;
  uint64_t ns = 0;
};

/// A snapshot of every (role, kind, op) counter.
struct IoTotals {
  std::array<IoCell, kRoles * kKinds * kOps> cells{};

  static size_t Index(Role r, FileKind k, FileOp o) {
    return (static_cast<size_t>(r) * kKinds + static_cast<size_t>(k)) * kOps +
           static_cast<size_t>(o);
  }
  IoCell& at(Role r, FileKind k, FileOp o) { return cells[Index(r, k, o)]; }
  const IoCell& at(Role r, FileKind k, FileOp o) const {
    return cells[Index(r, k, o)];
  }
  /// Sum over roles (r = kCount) and/or kinds (k = kCount).
  IoCell Sum(Role r, FileKind k, FileOp o) const;
  uint64_t BytesWritten() const {
    return Sum(Role::kCount, FileKind::kCount, FileOp::kAppend).bytes;
  }
  IoTotals operator-(const IoTotals& before) const;
};

class IoEnv final : public unikv::Env {
 public:
  explicit IoEnv(unikv::Env* base);
  ~IoEnv() override;

  /// Marks the calling thread's role for every IoEnv.
  static void SetThreadRole(Role role);

  IoTotals Totals() const;

  /// Counts one file call (and records a span when tracing).
  void Note(FileKind kind, FileOp op, int64_t start_ns, uint64_t bytes);

  unikv::Status NewSequentialFile(
      const std::string& fname,
      std::unique_ptr<unikv::SequentialFile>* result) override;
  unikv::Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<unikv::RandomAccessFile>* result) override;
  unikv::Status NewWritableFile(
      const std::string& fname,
      std::unique_ptr<unikv::WritableFile>* result) override;
  unikv::Status NewAppendableFile(
      const std::string& fname,
      std::unique_ptr<unikv::WritableFile>* result) override;
  bool FileExists(const std::string& fname) override;
  unikv::Status GetChildren(const std::string& dir,
                            std::vector<std::string>* result) override;
  unikv::Status RemoveFile(const std::string& fname) override;
  unikv::Status CreateDir(const std::string& dirname) override;
  unikv::Status RemoveDir(const std::string& dirname) override;
  unikv::Status GetFileSize(const std::string& fname,
                            uint64_t* size) override;
  unikv::Status RenameFile(const std::string& src,
                           const std::string& target) override;
  unikv::Status SyncDir(const std::string& dirname) override;
  unikv::Status LockFile(const std::string& fname,
                         unikv::FileLock** lock) override;
  unikv::Status UnlockFile(unikv::FileLock* lock) override;
  uint64_t NowMicros() override { return base_->NowMicros(); }
  void SleepForMicroseconds(int micros) override {
    base_->SleepForMicroseconds(micros);
  }

 private:
  // One per thread that has called into this Env; only that thread
  // writes it, readers sum all of them.
  struct Block {
    std::array<std::atomic<uint64_t>, kRoles * kKinds * kOps * 3> v{};
  };
  Block* LocalBlock();

  unikv::Env* const base_;
  const uint64_t generation_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Block>> blocks_;  // Guarded by mu_.
};

}  // namespace perfbench

#endif  // PERFBENCH_IO_ENV_H_
