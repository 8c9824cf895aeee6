// Command-line arguments, latency summaries and result printing shared by
// the end-to-end and the traced run.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "client.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string data_dir = ".bench_build/perfbench/data";
  std::string out_dir = ".bench_build/perfbench/out";
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a);

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Num(double v);

/// Median, p99 and the highest percentile with at least ten samples above
/// it, from the exact sorted samples.
struct LatencySummary {
  size_t count = 0;
  double p50_us = 0, p99_us = 0;
  double top_pct = 0, top_us = 0;
};
LatencySummary Summarize(std::vector<int64_t> ns);
std::string SummaryJson(const LatencySummary& s);
/// Latencies of the read requests (Get, MultiGet, Scan) pooled.
LatencySummary ReadLatency(const ClientStats& st);

/// Per-slice figures of measured windows: each window is cut into equal
/// slices by completion time, and a slice contributes its request rate and
/// its read latency percentiles. Metrics are medians over all slices, so a
/// burst of background work or a noisy neighbour moves a few slices, not
/// the result.
struct Slices {
  std::vector<double> ops_per_s;
  std::vector<double> read_p50_us;
  std::vector<double> read_p99_us;
};
void AddSlices(const ClientStats& st, int64_t start_ns, double seconds,
               int slices, Slices* out);
double Median(std::vector<double> v);
/// One line per request kind that has samples, and the same as JSON.
void PrintLatencies(const ClientStats& st);
std::string LatenciesJson(const ClientStats& st);

/// Background jobs from the store's EVENTS log (rotated part first).
std::vector<JobSpan> ReadJobs(const std::string& dir);
/// Jobs that ended inside [from_us, to_us] on the engine's wall clock.
std::map<std::string, int> JobCounts(const std::vector<JobSpan>& jobs,
                                     int64_t from_us, int64_t to_us);

std::string Provenance(const Args& a, const WorkloadSpec& spec);

/// Checks the measured window of a steady-check workload: each of merge,
/// GC and scan-merge ran at least twice. Returns the reason if not.
std::string CheckWindowJobs(const WorkloadSpec& spec,
                            const std::map<std::string, int>& counts);

/// Prints to stderr and exits with status 1, printing no result.
[[noreturn]] void Fail(const std::string& why);

void PrintErrors(const ClientStats& all);
/// Writes the run's full record next to the other results.
void WriteResultFile(const Args& a, const std::string& json);
/// The result line: the last line of stdout.
void PrintResult(const ClientStats& all, const std::vector<Metric>& metrics);
std::string MetricsJson(const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
