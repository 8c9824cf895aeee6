// Spans: self time, nesting, EVENTS lines as job spans, and attributing
// engine calls to jobs.
#include <gtest/gtest.h>

#include <thread>

#include "common.h"
#include "io_env.h"
#include "trace.h"

namespace perfbench {
namespace {

Span MakeSpan(int64_t start, int64_t end, uint32_t id = 0, uint32_t parent = 0,
              uint16_t thread = 0) {
  Span s;
  s.start_ns = start;
  s.end_ns = end;
  s.id = id;
  s.parent = parent;
  s.request = parent != 0 ? parent : id;
  s.thread = thread;
  s.layer = parent != 0 ? SpanLayer::kFile : SpanLayer::kRequest;
  return s;
}

TEST(SelfTimeTest, SubtractsCoveredChildTimeOnce) {
  const Span parent = MakeSpan(0, 100);
  EXPECT_EQ(SelfTimeNs(parent, {}), 100);
  EXPECT_EQ(SelfTimeNs(parent, {MakeSpan(10, 20)}), 90);
  // Overlapping children count once; the part past the parent is ignored.
  EXPECT_EQ(SelfTimeNs(parent, {MakeSpan(15, 30), MakeSpan(10, 20),
                                MakeSpan(90, 120)}),
            100 - 20 - 10);
  EXPECT_EQ(SelfTimeNs(parent, {MakeSpan(0, 100)}), 0);
}

TEST(NestingTest, FlagsOrphansAndEscapes) {
  std::vector<Span> spans = {MakeSpan(0, 100, 1), MakeSpan(10, 20, 2, 1),
                             MakeSpan(30, 40, 3, 1)};
  EXPECT_EQ(CountNestingErrors(spans), 0u);
  spans.push_back(MakeSpan(90, 110, 4, 1));   // Ends after its parent.
  spans.push_back(MakeSpan(10, 20, 5, 77));   // Parent never recorded.
  spans.push_back(MakeSpan(10, 20, 6, 1, 3)); // Other thread.
  EXPECT_EQ(CountNestingErrors(spans), 3u);
}

TEST(TracerTest, FileCallsNestUnderTheOpenRequest) {
  Tracer tracer(1000);
  tracer.Start();
  std::thread client([&] {
    for (int r = 0; r < 3; r++) {
      tracer.BeginRequest();
      const int64_t t0 = NowNs();
      tracer.Record(SpanLayer::kFile, 0, 1, NowNs(), NowNs(), 10);
      tracer.Record(SpanLayer::kFile, 0, 2, NowNs(), NowNs(), 20);
      tracer.EndRequest(0, t0, NowNs(), 1);
    }
  });
  client.join();
  // A call outside any request has no parent.
  tracer.Record(SpanLayer::kFile, 0, 3, NowNs(), NowNs(), 0);
  tracer.Stop();

  const std::vector<Span> spans = tracer.Collect();
  ASSERT_EQ(spans.size(), 10u);
  EXPECT_EQ(CountNestingErrors(spans), 0u);
  int roots = 0, children = 0, orphans = 0;
  for (const Span& s : spans) {
    if (s.layer == SpanLayer::kRequest) {
      roots++;
      EXPECT_EQ(s.request, s.id);
    } else if (s.parent != 0) {
      children++;
      EXPECT_EQ(s.request, s.parent);
    } else {
      orphans++;
    }
  }
  EXPECT_EQ(roots, 3);
  EXPECT_EQ(children, 6);
  EXPECT_EQ(orphans, 1);
}

TEST(TracerTest, DropsWholeRequestsWhenFull) {
  Tracer tracer(4);
  tracer.Start();
  for (int r = 0; r < 5; r++) {
    tracer.BeginRequest();
    tracer.Record(SpanLayer::kFile, 0, 0, 1, 2, 0);
    tracer.EndRequest(0, 0, 3, 0);
  }
  tracer.Stop();
  EXPECT_TRUE(tracer.full());
  const std::vector<Span> spans = tracer.Collect();
  EXPECT_EQ(spans.size() % 2, 0u);
  EXPECT_EQ(CountNestingErrors(spans), 0u);
}

TEST(TracerTest, EnvCallsBecomeSpansOnlyWhileActive) {
  IoEnv env(unikv::Env::Default());
  Tracer tracer(100);
  const std::string dir = ::testing::TempDir() + "perfbench_trace_env";
  (void)env.CreateDir(dir);
  tracer.Start();
  tracer.BeginRequest();
  const int64_t t0 = NowNs();
  EXPECT_FALSE(env.FileExists(dir + "/000001.sst"));
  tracer.EndRequest(0, t0, NowNs(), 0);
  tracer.Stop();
  EXPECT_FALSE(env.FileExists(dir + "/000002.sst"));
  (void)env.RemoveDir(dir);
  const std::vector<Span> spans = tracer.Collect();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(CountNestingErrors(spans), 0u);
}

TEST(EventsTest, JobLinesBecomeJobSpans) {
  const std::string text =
      "{\"event\":\"flush\",\"duration_micros\":250,\"bytes_written\":4096,"
      "\"output_tables\":1,\"ts_micros\":1000}\n"
      "{\"event\":\"stats_sample\",\"ts_micros\":1100,\"duration_micros\":0}\n"
      "{\"event\":\"gc\",\"partition\":2,\"duration_micros\":500,"
      "\"bytes_read\":900,\"bytes_written\":300,\"ts_micros\":2000}\n"
      "{\"event\":\"merge\",\"ts_micros\":3000}\n"  // No duration: skipped.
      "not json\n"
      "{\"event\":\"sweep\",\"duration_micros\":7,\"live\":3,"
      "\"files\":\"000001.sst\",\"ts_micros\":2500}";
  const std::vector<JobSpan> jobs = ParseEvents(text);
  ASSERT_EQ(jobs.size(), 3u);
  EXPECT_EQ(jobs[0].kind, "flush");
  EXPECT_EQ(jobs[0].start_us, 750);
  EXPECT_EQ(jobs[0].end_us, 1000);
  EXPECT_EQ(jobs[0].bytes_written, 4096u);
  EXPECT_EQ(jobs[1].kind, "gc");
  EXPECT_EQ(jobs[1].start_us, 1500);
  EXPECT_EQ(jobs[1].bytes_read, 900u);
  EXPECT_EQ(jobs[1].bytes_written, 300u);
  EXPECT_EQ(jobs[2].kind, "sweep");
  EXPECT_EQ(jobs[2].start_us, 2493);
}

TEST(EventsTest, ClockMapRoundTrips) {
  const ClockMap m = ClockMap::Now();
  EXPECT_EQ(m.ToWallUs(m.ToSteadyNs(m.wall_us + 1234)), m.wall_us + 1234);
}

TEST(AttributionTest, CallsFollowTheJobOfTheirThread) {
  // Thread 1 runs a long merge [0, 1000] then a short sweep [1000, 1010];
  // thread 2 runs a flush [200, 600] that overlaps both threads' calls.
  const std::vector<JobWindow> jobs = {{0, 1000}, {1001, 1010}, {200, 600}};
  std::vector<Span> calls;
  for (int64_t t = 0; t <= 990; t += 10) calls.push_back(MakeSpan(t, t + 5, 0, 0, 1));
  calls.push_back(MakeSpan(1002, 1008, 0, 0, 1));      // Sweep's call.
  for (int64_t t = 200; t <= 590; t += 10) calls.push_back(MakeSpan(t, t + 5, 0, 0, 2));
  calls.push_back(MakeSpan(5000, 5001, 0, 0, 3));      // Outside every job.
  const std::vector<int> owner = AttributeToJobs(jobs, calls, 0);
  ASSERT_EQ(owner.size(), calls.size());
  for (size_t i = 0; i < calls.size(); i++) {
    const Span& c = calls[i];
    if (c.thread == 1) {
      EXPECT_EQ(owner[i], c.start_ns > 1000 ? 1 : 0) << "call at " << c.start_ns;
    } else if (c.thread == 2) {
      EXPECT_EQ(owner[i], 2) << "call at " << c.start_ns;
    } else {
      EXPECT_EQ(owner[i], -1);
    }
  }
}

}  // namespace
}  // namespace perfbench
