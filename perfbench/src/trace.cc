#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <map>
#include <unordered_map>
#include <utility>

#include "common.h"
#include "util/env.h"

namespace perfbench {

namespace {

std::atomic<uint64_t> g_generation{0};
std::atomic<uint16_t> g_next_thread{0};

// The calling thread's buffer in the tracer of `generation`, and the
// request it has open.
struct LocalState {
  uint64_t generation = 0;
  void* buffer = nullptr;
  uint32_t request = 0;
};
thread_local LocalState tls_state;
thread_local int tls_thread = -1;

// Marks an open request that the tracer had no room for.
constexpr uint32_t kDropped = UINT32_MAX;

}  // namespace

std::atomic<Tracer*> Tracer::active_{nullptr};

Tracer::Tracer(size_t max_spans)
    : generation_(g_generation.fetch_add(1) + 1), max_spans_(max_spans) {}

Tracer::~Tracer() {
  Tracer* self = this;
  active_.compare_exchange_strong(self, nullptr);
}

void Tracer::Start() { active_.store(this, std::memory_order_release); }

void Tracer::Stop() {
  Tracer* self = this;
  active_.compare_exchange_strong(self, nullptr);
}

uint16_t Tracer::ThreadIndex() {
  if (tls_thread < 0) tls_thread = g_next_thread.fetch_add(1);
  return static_cast<uint16_t>(tls_thread);
}

Tracer::Buffer* Tracer::LocalBuffer() {
  if (tls_state.generation != generation_) {
    auto buffer = std::make_unique<Buffer>();
    buffer->spans.reserve(4096);
    tls_state.generation = generation_;
    tls_state.buffer = buffer.get();
    tls_state.request = 0;
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::move(buffer));
  }
  return static_cast<Buffer*>(tls_state.buffer);
}

void Tracer::BeginRequest() {
  LocalBuffer();
  // A request is admitted whole or not at all: once the tracer is full,
  // neither the request nor its children are recorded.
  if (recorded_.load(std::memory_order_relaxed) >= max_spans_) {
    full_.store(true, std::memory_order_relaxed);
    tls_state.request = kDropped;
    return;
  }
  tls_state.request = NextId();
}

void Tracer::EndRequest(uint8_t what, int64_t start_ns, int64_t end_ns,
                        uint32_t bytes) {
  Buffer* buffer = LocalBuffer();
  const uint32_t id = tls_state.request;
  tls_state.request = 0;
  if (id == kDropped) return;
  recorded_.fetch_add(1, std::memory_order_relaxed);
  Span s;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.id = id;
  s.request = id;
  s.bytes = bytes;
  s.thread = ThreadIndex();
  s.layer = SpanLayer::kRequest;
  s.what = what;
  buffer->spans.push_back(s);
}

void Tracer::Record(SpanLayer layer, uint8_t what, uint8_t file_kind,
                    int64_t start_ns, int64_t end_ns, uint32_t bytes) {
  Buffer* buffer = LocalBuffer();
  const uint32_t request = tls_state.request;
  if (request == kDropped) return;
  // Children of an admitted request may overshoot the cap slightly.
  if (recorded_.fetch_add(1, std::memory_order_relaxed) >= max_spans_ &&
      request == 0) {
    full_.store(true, std::memory_order_relaxed);
    return;
  }
  Span s;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.id = NextId();
  s.parent = request;
  s.request = request;
  s.bytes = bytes;
  s.thread = ThreadIndex();
  s.layer = layer;
  s.what = what;
  s.file_kind = file_kind;
  buffer->spans.push_back(s);
}

std::vector<Span> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  size_t n = 0;
  for (const auto& b : buffers_) n += b->spans.size();
  all.reserve(n);
  for (const auto& b : buffers_) {
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  return all;
}

int64_t SelfTimeNs(const Span& parent, std::vector<Span> children) {
  std::sort(children.begin(), children.end(),
            [](const Span& a, const Span& b) { return a.start_ns < b.start_ns; });
  int64_t covered = 0;
  int64_t cursor = parent.start_ns;  // Everything before it is accounted.
  for (const Span& c : children) {
    const int64_t lo = std::max(c.start_ns, cursor);
    const int64_t hi = std::min(c.end_ns, parent.end_ns);
    if (hi > lo) {
      covered += hi - lo;
      cursor = hi;
    }
  }
  return (parent.end_ns - parent.start_ns) - covered;
}

size_t CountNestingErrors(const std::vector<Span>& spans) {
  std::unordered_map<uint32_t, const Span*> by_id;
  by_id.reserve(spans.size());
  for (const Span& s : spans) by_id[s.id] = &s;
  size_t errors = 0;
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    auto it = by_id.find(s.parent);
    if (it == by_id.end()) {
      errors++;
      continue;
    }
    const Span& p = *it->second;
    if (s.start_ns < p.start_ns || s.end_ns > p.end_ns ||
        s.request != p.request || s.thread != p.thread) {
      errors++;
    }
  }
  return errors;
}

namespace {

bool JsonNumber(const std::string& json, const std::string& key,
                double* value) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = json.find(needle);
  if (pos == std::string::npos) return false;
  const char* begin = json.c_str() + pos + needle.size();
  char* end = nullptr;
  *value = std::strtod(begin, &end);
  return end != begin;
}

bool JsonString(const std::string& json, const std::string& key,
                std::string* value) {
  const std::string needle = "\"" + key + "\":\"";
  const size_t pos = json.find(needle);
  if (pos == std::string::npos) return false;
  const size_t begin = pos + needle.size();
  const size_t end = json.find('"', begin);
  if (end == std::string::npos) return false;
  *value = json.substr(begin, end - begin);
  return true;
}

}  // namespace

std::vector<JobSpan> ParseEvents(const std::string& text) {
  std::vector<JobSpan> jobs;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    std::string kind;
    if (!JsonString(line, "event", &kind)) continue;
    if (std::find(std::begin(kJobKinds), std::end(kJobKinds), kind) ==
        std::end(kJobKinds)) {
      continue;
    }
    double ts = 0, dur = 0, v = 0;
    if (!JsonNumber(line, "ts_micros", &ts) ||
        !JsonNumber(line, "duration_micros", &dur)) {
      continue;
    }
    JobSpan job;
    job.kind = kind;
    job.end_us = static_cast<int64_t>(ts);
    job.start_us = job.end_us - static_cast<int64_t>(dur);
    if (JsonNumber(line, "bytes_read", &v)) job.bytes_read = static_cast<uint64_t>(v);
    if (JsonNumber(line, "bytes_written", &v)) {
      job.bytes_written = static_cast<uint64_t>(v);
    }
    jobs.push_back(job);
  }
  return jobs;
}

std::vector<int> AttributeToJobs(const std::vector<JobWindow>& jobs,
                                 const std::vector<Span>& calls,
                                 int64_t slack_ns) {
  // Each thread's calls in time order.
  std::map<uint16_t, std::vector<size_t>> by_thread;
  for (size_t i = 0; i < calls.size(); i++) by_thread[calls[i].thread].push_back(i);
  for (auto& [thread, idx] : by_thread) {
    std::sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
      return calls[a].start_ns < calls[b].start_ns;
    });
  }
  // Calls of `idx` starting inside [lo, hi], as an index range.
  auto range = [&](const std::vector<size_t>& idx, int64_t lo, int64_t hi) {
    auto first = std::lower_bound(idx.begin(), idx.end(), lo,
                                  [&](size_t i, int64_t v) {
                                    return calls[i].start_ns < v;
                                  });
    auto last = std::upper_bound(first, idx.end(), hi, [&](int64_t v, size_t i) {
      return v < calls[i].start_ns;
    });
    return std::make_pair(first, last);
  };

  // A job runs start to end on one thread, and a thread runs one job at a
  // time. Longest jobs first, bind each to the free thread whose calls
  // span most of the job's window.
  std::vector<int> order(jobs.size());
  for (size_t i = 0; i < jobs.size(); i++) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return jobs[a].end_ns - jobs[a].start_ns > jobs[b].end_ns - jobs[b].start_ns;
  });
  std::map<uint16_t, std::vector<int>> bound;  // Thread -> its jobs.
  auto overlaps = [&](int a, int b) {
    return jobs[a].start_ns < jobs[b].end_ns && jobs[b].start_ns < jobs[a].end_ns;
  };
  for (int j : order) {
    const int64_t lo = jobs[j].start_ns - slack_ns;
    const int64_t hi = jobs[j].end_ns + slack_ns;
    const double length = static_cast<double>(std::max<int64_t>(1, hi - lo));
    int best_thread = -1;
    double best = 0;
    for (const auto& [thread, idx] : by_thread) {
      auto [first, last] = range(idx, lo, hi);
      if (first == last) continue;
      bool busy = false;
      for (int other : bound[thread]) busy = busy || overlaps(j, other);
      if (busy) continue;
      const double span = static_cast<double>(calls[*(last - 1)].end_ns -
                                              calls[*first].start_ns);
      const double score =
          std::min(1.0, span / length) + 1e-9 * static_cast<double>(last - first);
      if (score > best) {
        best = score;
        best_thread = thread;
      }
    }
    if (best_thread >= 0) bound[best_thread].push_back(j);
  }

  std::vector<int> result(calls.size(), -1);
  for (const auto& [thread, jobs_of_thread] : bound) {
    const std::vector<size_t>& idx = by_thread[thread];
    for (int j : jobs_of_thread) {
      auto [first, last] =
          range(idx, jobs[j].start_ns - slack_ns, jobs[j].end_ns + slack_ns);
      for (auto it = first; it != last; ++it) result[*it] = j;
    }
  }
  return result;
}

ClockMap ClockMap::Now() {
  ClockMap m;
  const int64_t before = NowNs();
  m.wall_us = static_cast<int64_t>(unikv::Env::Default()->NowMicros());
  m.steady_ns = (before + NowNs()) / 2;
  return m;
}

}  // namespace perfbench
