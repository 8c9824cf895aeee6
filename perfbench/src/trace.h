// In-memory spans for the traced run, and the analysis that turns them
// into per-layer numbers: self time, and background-job spans rebuilt
// from the engine's EVENTS log.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// What a span covers. Request spans are roots opened by a client around
/// one DB call; file spans are Env calls. (Background jobs are JobSpans,
/// rebuilt from the EVENTS log.)
enum class SpanLayer : uint8_t { kRequest, kFile };

/// A recorded interval. Times are steady-clock nanoseconds. `parent` is
/// the id of the enclosing span (0 for roots); the spans of one client
/// request share `request`.
struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t id = 0;
  uint32_t parent = 0;
  uint32_t request = 0;
  uint32_t bytes = 0;
  uint16_t thread = 0;
  SpanLayer layer = SpanLayer::kRequest;
  uint8_t what = 0;       // RequestKind for requests, FileOp for file calls.
  uint8_t file_kind = 0;  // FileKind for file calls.
};

/// Collects spans from many threads into per-thread buffers without
/// locking on the hot path. At most one Tracer records at a time; it is
/// installed with Start() and every span recorded until Stop().
class Tracer {
 public:
  explicit Tracer(size_t max_spans);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The tracer currently recording, or null.
  static Tracer* Active() { return active_.load(std::memory_order_acquire); }

  void Start();
  void Stop();
  /// True once a span was dropped because max_spans was reached.
  bool full() const { return full_.load(std::memory_order_relaxed); }

  /// Opens a request on the calling thread: later Record() calls on this
  /// thread become its children until EndRequest().
  void BeginRequest();
  void EndRequest(uint8_t what, int64_t start_ns, int64_t end_ns,
                  uint32_t bytes);

  /// Records a span on the calling thread; parent and request come from
  /// the thread's open request, if any.
  void Record(SpanLayer layer, uint8_t what, uint8_t file_kind,
              int64_t start_ns, int64_t end_ns, uint32_t bytes);

  /// Every span recorded, in no particular order. Call only after the
  /// recording threads have stopped (joined, or quiescent after Stop()).
  std::vector<Span> Collect() const;

  /// Small stable index of the calling thread (shared by all tracers).
  static uint16_t ThreadIndex();

 private:
  struct Buffer {
    std::vector<Span> spans;
  };
  Buffer* LocalBuffer();
  uint32_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  static std::atomic<Tracer*> active_;
  const uint64_t generation_;
  const size_t max_spans_;
  std::atomic<size_t> recorded_{0};
  std::atomic<bool> full_{false};
  std::atomic<uint32_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  // Guarded by mu_.
};

/// Duration of `parent` minus the part of it covered by `children`
/// (overlapping children are counted once; parts outside the parent are
/// ignored).
int64_t SelfTimeNs(const Span& parent, std::vector<Span> children);

/// Checks that every span with a parent lies inside it, shares its
/// request, and that the parent exists. Returns the number of violations.
size_t CountNestingErrors(const std::vector<Span>& spans);

/// A background job reconstructed from one EVENTS line: the engine logs
/// each job when it ends (`ts_micros`) with its `duration_micros`.
struct JobSpan {
  std::string kind;  // flush, merge, scan_merge, gc, split, sweep.
  int64_t start_us = 0;
  int64_t end_us = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
};

/// The EVENTS job kinds, in the order metrics report them.
inline constexpr const char* kJobKinds[] = {"flush", "merge", "scan_merge",
                                            "gc",    "split", "sweep"};

/// Parses EVENTS text (one JSON object per line) into job spans, in log
/// order. Lines for other events (e.g. stats samples) are skipped.
std::vector<JobSpan> ParseEvents(const std::string& text);

/// A background job's interval in steady-clock nanoseconds.
struct JobWindow {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Assigns each engine-thread file span to the background job it ran
/// under. A job runs from start to end on one thread and a thread runs one
/// job at a time, so, longest job first, each job is bound to the thread
/// (not yet bound to an overlapping job) whose calls span most of the
/// job's window; a call then belongs to the job bound to its thread that
/// covers it. Returns one job index per entry of `calls`, or -1.
std::vector<int> AttributeToJobs(const std::vector<JobWindow>& jobs,
                                 const std::vector<Span>& calls,
                                 int64_t slack_ns);

/// Converts between the engine's wall clock (Env::NowMicros) and the
/// benchmark's steady clock, from one pair of readings taken together.
struct ClockMap {
  int64_t wall_us = 0;
  int64_t steady_ns = 0;
  static ClockMap Now();
  int64_t ToSteadyNs(int64_t wall) const {
    return steady_ns + (wall - wall_us) * 1000;
  }
  int64_t ToWallUs(int64_t steady) const {
    return wall_us + (steady - steady_ns) / 1000;
  }
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
