#include "client.h"

#include <algorithm>

#include "trace.h"

namespace perfbench {

using unikv::Slice;
using unikv::Status;

const char* RequestKindName(RequestKind kind) {
  static const char* kNames[] = {"get", "put", "multiget", "scan"};
  return kNames[static_cast<size_t>(kind)];
}

const char* ErrorKindName(ErrorKind kind) {
  static const char* kNames[] = {"bad_status", "wrong_key", "corrupt",
                                 "stale",      "phantom",   "missing",
                                 "out_of_order", "skipped"};
  return kNames[static_cast<size_t>(kind)];
}

KeyModel::KeyModel(uint64_t num_loaded, size_t value_size)
    : n_(num_loaded),
      value_size_(value_size),
      issued_(new std::atomic<uint32_t>[num_loaded]),
      acked_(new std::atomic<uint32_t>[num_loaded]),
      gaps_(new std::atomic<uint32_t>[num_loaded * (kKeySlot - 1)]) {
  for (uint64_t i = 0; i < n_; i++) {
    issued_[i].store(0, std::memory_order_relaxed);
    acked_[i].store(0, std::memory_order_relaxed);
  }
  for (uint64_t i = 0; i < n_ * (kKeySlot - 1); i++) {
    gaps_[i].store(0, std::memory_order_relaxed);
  }
}

void KeyModel::Ack(uint64_t id, uint64_t version) {
  uint32_t cur = acked_[id].load(std::memory_order_relaxed);
  while (cur < version &&
         !acked_[id].compare_exchange_weak(cur, static_cast<uint32_t>(version),
                                           std::memory_order_acq_rel)) {
  }
}

std::atomic<uint32_t>* KeyModel::gap(uint64_t number) const {
  const uint64_t id = number / kKeySlot;
  const uint64_t r = number % kKeySlot;
  if (r == 0 || id >= n_) return nullptr;
  return &gaps_[id * (kKeySlot - 1) + (r - 1)];
}

bool KeyModel::IssueInsert(Rng* rng, uint64_t* number) {
  for (int attempt = 0; attempt < 64; attempt++) {
    const uint64_t candidate =
        rng->Uniform(n_) * kKeySlot + 1 + rng->Uniform(kKeySlot - 1);
    uint32_t expected = 0;
    if (gap(candidate)->compare_exchange_strong(expected, kPending,
                                                std::memory_order_acq_rel)) {
      *number = candidate;
      return true;
    }
  }
  return false;
}

void KeyModel::AckInsert(uint64_t number) {
  const uint32_t t = tickets_.fetch_add(1, std::memory_order_acq_rel) + 1;
  gap(number)->store(t, std::memory_order_release);
  inserted_.fetch_add(1, std::memory_order_relaxed);
}

KeyModel::KeyState KeyModel::State(uint64_t number, uint32_t ticket) const {
  if (number % kKeySlot == 0) {
    const uint64_t id = number / kKeySlot;
    if (id >= n_ || acked(id) == 0) {
      return id < n_ && issued(id) > 0 ? KeyState::kMayExist
                                        : KeyState::kAbsent;
    }
    return KeyState::kMustExist;
  }
  const std::atomic<uint32_t>* g = gap(number);
  if (g == nullptr) return KeyState::kAbsent;
  const uint32_t v = g->load(std::memory_order_acquire);
  if (v == 0) return KeyState::kAbsent;
  if (v == kPending || v > ticket) return KeyState::kMayExist;
  return KeyState::kMustExist;
}

uint64_t KeyModel::LiveUserBytes() const {
  uint64_t keys = inserted_.load(std::memory_order_relaxed);
  for (uint64_t i = 0; i < n_; i++) {
    if (acked(i) > 0) keys++;
  }
  return keys * (kKeySize + value_size_);
}

void ClientStats::Merge(const ClientStats& other) {
  for (size_t k = 0; k < kRequestKinds; k++) {
    latency_ns[k].insert(latency_ns[k].end(), other.latency_ns[k].begin(),
                         other.latency_ns[k].end());
    end_ns[k].insert(end_ns[k].end(), other.end_ns[k].begin(),
                     other.end_ns[k].end());
  }
  for (size_t e = 0; e < kErrorKinds; e++) errors[e] += other.errors[e];
  attempted += other.attempted;
  failed += other.failed;
  multiget_keys += other.multiget_keys;
  scan_entries += other.scan_entries;
  user_bytes_written += other.user_bytes_written;
}

Client::Client(unikv::DB* db, KeyModel* model)
    : db_(db), model_(model), value_buf_(model->value_size(), '\0') {}

int Client::ErrorCount() const {
  int n = 0;
  for (uint64_t e : stats_.errors) n += static_cast<int>(e);
  return n;
}

void Client::Finish(RequestKind kind, int64_t start_ns, int64_t end_ns,
                    int errors_before) {
  stats_.attempted++;
  if (ErrorCount() != errors_before) stats_.failed++;
  if (record_) {
    stats_.latency_ns[static_cast<size_t>(kind)].push_back(end_ns - start_ns);
    stats_.end_ns[static_cast<size_t>(kind)].push_back(end_ns);
  }
}

// Times `call` alone. When tracing, the request span is opened before the
// first clock read and closed after the second, so span bookkeeping stays
// outside the timed interval.
#define PERFBENCH_TIMED(kind, bytes, call)                                 \
  Tracer* tracer = Tracer::Active();                                       \
  if (tracer != nullptr) tracer->BeginRequest();                           \
  const int64_t t0 = NowNs();                                              \
  call;                                                                    \
  const int64_t t1 = NowNs();                                              \
  if (tracer != nullptr) {                                                 \
    tracer->EndRequest(static_cast<uint8_t>(kind), t0, t1, (bytes));       \
  }

void Client::CheckPoint(uint64_t id, uint64_t floor, const Status& s,
                        const std::string& value) {
  if (s.IsNotFound()) {
    if (floor > 0) Error(ErrorKind::kMissing);
    return;
  }
  if (!s.ok()) {
    Error(ErrorKind::kBadStatus);
    return;
  }
  uint64_t version = 0;
  switch (CheckValue(id * kKeySlot, value.data(), value.size(),
                     model_->value_size(), &version)) {
    case ValueCheck::kCorrupt:
      Error(ErrorKind::kCorrupt);
      return;
    case ValueCheck::kWrongKey:
      Error(ErrorKind::kWrongKey);
      return;
    case ValueCheck::kOk:
      break;
  }
  if (version < floor) {
    Error(ErrorKind::kStale);
  } else if (version == 0 || version > model_->issued(id)) {
    Error(ErrorKind::kPhantom);
  }
}

void Client::Get(uint64_t id) {
  char key[kKeySize];
  FormatKey(id * kKeySlot, key);
  const uint64_t floor = model_->acked(id);
  const int before = ErrorCount();
  Status s;
  PERFBENCH_TIMED(RequestKind::kGet, 1,
                  s = db_->Get(read_options_, Slice(key, kKeySize), &read_buf_));
  CheckPoint(id, floor, s, read_buf_);
  Finish(RequestKind::kGet, t0, t1, before);
}

void Client::Write(uint64_t number, uint64_t version) {
  char key[kKeySize];
  FormatKey(number, key);
  FillValue(number, version, value_buf_.data(), value_buf_.size());
  const int before = ErrorCount();
  Status s;
  PERFBENCH_TIMED(RequestKind::kPut, 1,
                  s = db_->Put(write_options_, Slice(key, kKeySize), value_buf_));
  if (!s.ok()) {
    Error(ErrorKind::kBadStatus);
  } else {
    stats_.user_bytes_written += kKeySize + value_buf_.size();
    if (number % kKeySlot == 0) {
      model_->Ack(number / kKeySlot, version);
    } else {
      model_->AckInsert(number);
    }
  }
  Finish(RequestKind::kPut, t0, t1, before);
}

void Client::Put(uint64_t id) { Write(id * kKeySlot, model_->IssueVersion(id)); }

bool Client::Insert(Rng* rng) {
  uint64_t number = 0;
  if (!model_->IssueInsert(rng, &number)) return false;
  Write(number, 1);
  return true;
}

void Client::MultiGet(const std::vector<uint64_t>& ids) {
  const size_t n = ids.size();
  key_bufs_.resize(n);
  key_slices_.resize(n);
  floors_.resize(n);
  for (size_t i = 0; i < n; i++) {
    key_bufs_[i].resize(kKeySize);
    FormatKey(ids[i] * kKeySlot, key_bufs_[i].data());
    key_slices_[i] = Slice(key_bufs_[i]);
    floors_[i] = model_->acked(ids[i]);
  }
  const int before = ErrorCount();
  Status s;
  PERFBENCH_TIMED(RequestKind::kMultiGet, static_cast<uint32_t>(n),
                  s = db_->MultiGet(read_options_, key_slices_, &values_,
                                    &statuses_));
  if (statuses_.size() != n || values_.size() != n) {
    Error(ErrorKind::kBadStatus);
  } else {
    for (size_t i = 0; i < n; i++) {
      CheckPoint(ids[i], floors_[i], statuses_[i], values_[i]);
    }
  }
  stats_.multiget_keys += n;
  Finish(RequestKind::kMultiGet, t0, t1, before);
}

void Client::Scan(uint64_t start_id, int count) {
  const uint64_t start = start_id * kKeySlot;
  char key[kKeySize];
  FormatKey(start, key);
  const uint32_t ticket = model_->ticket();
  const int before = ErrorCount();
  Status s;
  PERFBENCH_TIMED(RequestKind::kScan, static_cast<uint32_t>(count),
                  s = db_->Scan(read_options_, Slice(key, kKeySize), count,
                                &rows_));
  stats_.scan_entries += rows_.size();
  if (!s.ok()) {
    Error(ErrorKind::kBadStatus);
  } else {
    // Walk the key space from `start` alongside the rows: every key that
    // must exist in the covered range has to be returned, in order.
    const uint64_t key_space_end = model_->num_loaded() * kKeySlot;
    const bool reached_end = rows_.size() < static_cast<size_t>(count);
    uint64_t next = start;  // Lowest number not yet accounted for.
    bool order_ok = true;
    for (const auto& [k, v] : rows_) {
      uint64_t number = 0;
      if (!ParseKey(k.data(), k.size(), &number) || number < next) {
        Error(ErrorKind::kOutOfOrder);
        order_ok = false;
        break;
      }
      for (; next < number; next++) {
        if (model_->State(next, ticket) == KeyModel::KeyState::kMustExist) {
          Error(ErrorKind::kSkipped);
        }
      }
      next = number + 1;
      uint64_t version = 0;
      const ValueCheck check = CheckValue(number, v.data(), v.size(),
                                          model_->value_size(), &version);
      if (check == ValueCheck::kCorrupt) {
        Error(ErrorKind::kCorrupt);
      } else if (check == ValueCheck::kWrongKey) {
        Error(ErrorKind::kWrongKey);
      } else if (model_->State(number, UINT32_MAX) ==
                     KeyModel::KeyState::kAbsent ||
                 version == 0 ||
                 (number % kKeySlot == 0 &&
                  version > model_->issued(number / kKeySlot)) ||
                 (number % kKeySlot != 0 && version != 1)) {
        Error(ErrorKind::kPhantom);
      }
    }
    if (order_ok && reached_end) {
      for (; next < key_space_end; next++) {
        if (model_->State(next, ticket) == KeyModel::KeyState::kMustExist) {
          Error(ErrorKind::kSkipped);
        }
      }
    }
  }
  Finish(RequestKind::kScan, t0, t1, before);
}

#undef PERFBENCH_TIMED

}  // namespace perfbench
