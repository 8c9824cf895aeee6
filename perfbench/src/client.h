// The closed-loop client: issues one request at a time against a DB,
// times the call alone, and checks every result against a model of what
// the store must hold.
#ifndef PERFBENCH_CLIENT_H_
#define PERFBENCH_CLIENT_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "core/db.h"

namespace perfbench {

enum class RequestKind : uint8_t { kGet, kPut, kMultiGet, kScan, kCount };
constexpr size_t kRequestKinds = static_cast<size_t>(RequestKind::kCount);
const char* RequestKindName(RequestKind kind);

/// Ways a result can be wrong. Each counts toward the error rate.
enum class ErrorKind : uint8_t {
  kBadStatus,   // Status neither OK nor NotFound (or a failed write).
  kWrongKey,    // The value belongs to another key.
  kCorrupt,     // The value matches no (key, version).
  kStale,       // Older than the last write acknowledged before the read.
  kPhantom,     // A key or version that was never written.
  kMissing,     // NotFound for a key acknowledged before the read.
  kOutOfOrder,  // Scan keys not strictly increasing from the start key.
  kSkipped,     // Scan left out an acknowledged key inside its range.
  kCount
};
constexpr size_t kErrorKinds = static_cast<size_t>(ErrorKind::kCount);
const char* ErrorKindName(ErrorKind kind);

/// What the store must contain. Loaded keys (ids 0..n-1, key number
/// id * kKeySlot) carry a version that overwrites raise; inserted keys
/// fill the gaps between them and are written once. Thread-safe.
class KeyModel {
 public:
  KeyModel(uint64_t num_loaded, size_t value_size);

  uint64_t num_loaded() const { return n_; }
  size_t value_size() const { return value_size_; }

  /// Overwrite protocol: IssueVersion before the write, Ack after it was
  /// acknowledged.
  uint64_t IssueVersion(uint64_t id) {
    return issued_[id].fetch_add(1, std::memory_order_acq_rel) + 1;
  }
  void Ack(uint64_t id, uint64_t version);
  uint64_t issued(uint64_t id) const {
    return issued_[id].load(std::memory_order_acquire);
  }
  uint64_t acked(uint64_t id) const {
    return acked_[id].load(std::memory_order_acquire);
  }

  /// Insert protocol: picks a free gap next to a random loaded key and
  /// marks it issued; AckInsert after the write was acknowledged.
  bool IssueInsert(Rng* rng, uint64_t* number);
  void AckInsert(uint64_t number);
  /// Tickets order insert acknowledgements: an insert with a ticket at
  /// or below a reader's starting ticket was acknowledged before it.
  uint32_t ticket() const { return tickets_.load(std::memory_order_acquire); }

  enum class KeyState { kAbsent, kMayExist, kMustExist };
  /// Whether `number` must appear to a reader that started at `ticket`.
  KeyState State(uint64_t number, uint32_t ticket) const;

  /// Key plus value bytes of every key acknowledged so far.
  uint64_t LiveUserBytes() const;

 private:
  static constexpr uint32_t kPending = UINT32_MAX;
  std::atomic<uint32_t>* gap(uint64_t number) const;

  const uint64_t n_;
  const size_t value_size_;
  std::unique_ptr<std::atomic<uint32_t>[]> issued_;
  std::unique_ptr<std::atomic<uint32_t>[]> acked_;
  // Per gap slot: 0 absent, kPending issued, else the ack ticket.
  std::unique_ptr<std::atomic<uint32_t>[]> gaps_;
  std::atomic<uint32_t> tickets_{0};
  std::atomic<uint64_t> inserted_{0};
};

/// Per-client tallies. Latencies are steady-clock nanoseconds of the DB
/// call alone; key choice, formatting and checking happen outside it.
struct ClientStats {
  std::array<std::vector<int64_t>, kRequestKinds> latency_ns;
  // Completion time of each latency sample (same order).
  std::array<std::vector<int64_t>, kRequestKinds> end_ns;
  std::array<uint64_t, kErrorKinds> errors{};
  uint64_t attempted = 0;  // Requests issued (a MultiGet or Scan is one).
  uint64_t failed = 0;     // Requests with at least one error.
  uint64_t multiget_keys = 0;
  uint64_t scan_entries = 0;
  uint64_t user_bytes_written = 0;

  void Merge(const ClientStats& other);
};

class Client {
 public:
  Client(unikv::DB* db, KeyModel* model);

  /// Reads a loaded key.
  void Get(uint64_t id);
  /// Writes the next version of a loaded key (version 1 loads it).
  void Put(uint64_t id);
  /// Writes a new key into a gap; false if no gap was free.
  bool Insert(Rng* rng);
  void MultiGet(const std::vector<uint64_t>& ids);
  /// Scans `count` entries from the loaded key `start_id`.
  void Scan(uint64_t start_id, int count);

  ClientStats& stats() { return stats_; }
  /// When false, latencies are not kept (set-up and warm-up phases).
  void set_record_latency(bool on) { record_ = on; }

 private:
  void Write(uint64_t number, uint64_t version);
  void Finish(RequestKind kind, int64_t start_ns, int64_t end_ns,
              int errors_before);
  void Error(ErrorKind kind) { stats_.errors[static_cast<size_t>(kind)]++; }
  int ErrorCount() const;
  /// Checks one point-read result of loaded key `id`; `floor` is the
  /// version acknowledged before the read began.
  void CheckPoint(uint64_t id, uint64_t floor, const unikv::Status& s,
                  const std::string& value);

  unikv::DB* db_;
  KeyModel* model_;
  ClientStats stats_;
  bool record_ = true;
  const unikv::ReadOptions read_options_;
  const unikv::WriteOptions write_options_;  // sync=false: async writes.
  // Reused buffers.
  std::string value_buf_;
  std::string read_buf_;
  std::vector<std::string> key_bufs_;
  std::vector<unikv::Slice> key_slices_;
  std::vector<uint64_t> floors_;
  std::vector<std::string> values_;
  std::vector<unikv::Status> statuses_;
  std::vector<std::pair<std::string, std::string>> rows_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CLIENT_H_
