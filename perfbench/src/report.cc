#include "report.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

bool ParseArgs(int argc, char** argv, Args* a) {
  if (argc % 2 != 1) return false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a->trace = std::atoi(v.c_str());
    } else if (k == "--data-dir") {
      a->data_dir = v;
    } else if (k == "--out-dir") {
      a->out_dir = v;
    } else if (k == "--commit") {
      a->commit = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1);
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", std::isfinite(v) ? v : 0.0);
  return buf;
}

namespace {

double Percentile(const std::vector<int64_t>& sorted, double pct) {
  if (sorted.empty()) return 0;
  const double rank = pct / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return (static_cast<double>(sorted[lo]) * (1 - frac) +
          static_cast<double>(sorted[hi]) * frac) /
         1000.0;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

LatencySummary Summarize(std::vector<int64_t> ns) {
  std::sort(ns.begin(), ns.end());
  LatencySummary s;
  s.count = ns.size();
  s.p50_us = Percentile(ns, 50);
  s.p99_us = Percentile(ns, 99);
  for (double pct : {50.0, 90.0, 99.0, 99.9, 99.99, 99.999}) {
    if (static_cast<double>(s.count) * (1 - pct / 100.0) >= 10) {
      s.top_pct = pct;
      s.top_us = Percentile(ns, pct);
    }
  }
  return s;
}

std::string SummaryJson(const LatencySummary& s) {
  return "{\"count\": " + std::to_string(s.count) + ", \"p50_us\": " +
         Num(s.p50_us) + ", \"p99_us\": " + Num(s.p99_us) +
         ", \"top_pct\": " + Num(s.top_pct) + ", \"top_us\": " + Num(s.top_us) +
         "}";
}

LatencySummary ReadLatency(const ClientStats& st) {
  std::vector<int64_t> reads;
  for (RequestKind k :
       {RequestKind::kGet, RequestKind::kMultiGet, RequestKind::kScan}) {
    const auto& v = st.latency_ns[static_cast<size_t>(k)];
    reads.insert(reads.end(), v.begin(), v.end());
  }
  return Summarize(std::move(reads));
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

void AddSlices(const ClientStats& st, int64_t start_ns, double seconds,
               int slices, Slices* out) {
  const double slice_ns = seconds * 1e9 / slices;
  std::vector<uint64_t> done(slices, 0);
  std::vector<std::vector<int64_t>> reads(slices);
  for (size_t k = 0; k < kRequestKinds; k++) {
    const bool read = static_cast<RequestKind>(k) != RequestKind::kPut;
    for (size_t i = 0; i < st.end_ns[k].size(); i++) {
      const int64_t s = static_cast<int64_t>(
          static_cast<double>(st.end_ns[k][i] - start_ns) / slice_ns);
      if (s < 0 || s >= slices) continue;
      done[s]++;
      if (read) reads[s].push_back(st.latency_ns[k][i]);
    }
  }
  for (int s = 0; s < slices; s++) {
    out->ops_per_s.push_back(static_cast<double>(done[s]) / (slice_ns * 1e-9));
    if (reads[s].empty()) continue;
    const LatencySummary sum = Summarize(std::move(reads[s]));
    out->read_p50_us.push_back(sum.p50_us);
    out->read_p99_us.push_back(sum.p99_us);
  }
}

void PrintLatencies(const ClientStats& st) {
  for (size_t k = 0; k < kRequestKinds; k++) {
    if (st.latency_ns[k].empty()) continue;
    const LatencySummary s = Summarize(st.latency_ns[k]);
    std::printf("latency %-8s n=%zu p50=%.3fus p99=%.3fus p%g=%.3fus\n",
                RequestKindName(static_cast<RequestKind>(k)), s.count,
                s.p50_us, s.p99_us, s.top_pct, s.top_us);
  }
}

std::string LatenciesJson(const ClientStats& st) {
  std::string out;
  for (size_t k = 0; k < kRequestKinds; k++) {
    if (st.latency_ns[k].empty()) continue;
    if (!out.empty()) out += ", ";
    out += '"';
    out += RequestKindName(static_cast<RequestKind>(k));
    out += "\": ";
    out += SummaryJson(Summarize(st.latency_ns[k]));
  }
  out.insert(0, 1, '{');
  out += '}';
  return out;
}

std::vector<JobSpan> ReadJobs(const std::string& dir) {
  return ParseEvents(ReadFile(dir + "/EVENTS.old") + ReadFile(dir + "/EVENTS"));
}

std::map<std::string, int> JobCounts(const std::vector<JobSpan>& jobs,
                                     int64_t from_us, int64_t to_us) {
  std::map<std::string, int> counts;
  for (const char* k : kJobKinds) counts[k] = 0;
  for (const JobSpan& j : jobs) {
    if (j.end_us >= from_us && j.end_us <= to_us) counts[j.kind]++;
  }
  return counts;
}

std::string Provenance(const Args& a, const WorkloadSpec& spec) {
  std::string opts;
  for (const auto& [name, value] : BenchOptionFields()) {
    if (!opts.empty()) opts += ", ";
    opts += "\"" + name + "\": " + std::to_string(value);
  }
  if (spec.value_fetch_threads > 0) {
    opts += ", \"value_fetch_threads\": " +
            std::to_string(spec.value_fetch_threads);
  }
  char mix[256];
  std::snprintf(mix, sizeof(mix),
                "{\"get\": %g, \"put\": %g, \"multiget\": %g, \"scan\": %g, "
                "\"insert\": %g, \"multiget_batch\": %d, \"scan_max_len\": %d}",
                spec.get, spec.put, spec.multiget, spec.scan, spec.insert,
                spec.multiget_batch, spec.scan_max_len);
  char buf[2048];
  std::snprintf(
      buf, sizeof(buf),
      "{\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"seconds\": %s, "
      "\"trace\": %d, \"nproc\": %u, \"build_type\": \"%s\", "
      "\"commit\": \"%s\", \"clients\": %d, \"loop\": \"closed\", "
      "\"keys\": %" PRIu64 ", \"key_size\": %zu, \"value_size\": %zu, "
      "\"distribution\": \"%s\", \"mix\": %s, "
      "\"flush_policy\": \"async writes (WriteOptions::sync=false): the WAL "
      "is appended on every write and never fsynced by a client\", "
      "\"options\": {%s}, \"other_options\": \"engine defaults\"}",
      spec.name.c_str(), a.seed, Num(a.seconds).c_str(), a.trace,
      std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
      a.commit.c_str(), spec.clients, spec.keys, kKeySize, spec.value_size,
      spec.zipfian ? "scrambled zipfian, theta 0.99" : "uniform", mix,
      opts.c_str());
  return buf;
}

std::string CheckWindowJobs(const WorkloadSpec& spec,
                            const std::map<std::string, int>& counts) {
  if (!spec.steady_check) return "";
  for (const char* k : {"merge", "gc", "scan_merge"}) {
    if (counts.at(k) < 2) {
      return std::string("not steady: fewer than 2 ") + k +
             " jobs in the measured window";
    }
  }
  return "";
}

void Fail(const std::string& why) {
  std::fflush(stdout);
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::exit(1);
}

void PrintErrors(const ClientStats& all) {
  std::printf("checked requests=%" PRIu64 " failed=%" PRIu64
              " error_rate=%.6g",
              all.attempted, all.failed,
              Ratio(static_cast<double>(all.failed),
                    static_cast<double>(all.attempted)));
  for (size_t e = 0; e < kErrorKinds; e++) {
    std::printf(" %s=%" PRIu64, ErrorKindName(static_cast<ErrorKind>(e)),
                all.errors[e]);
  }
  std::printf("\n");
}

void WriteResultFile(const Args& a, const std::string& json) {
  const std::string path = a.out_dir + "/" + a.workload + "-seed" +
                           std::to_string(a.seed) + "-trace" +
                           std::to_string(a.trace) + ".json";
  std::ofstream(path) << json << "\n";
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string m;
  for (const Metric& x : metrics) {
    if (!m.empty()) m += ", ";
    m += "\"" + x.name + "\": {\"value\": " + Num(x.value) + ", \"unit\": \"" +
         x.unit + "\"}";
  }
  m.insert(0, 1, '{');
  m += '}';
  return m;
}

void PrintResult(const ClientStats& all, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              all.failed == 0 ? "true" : "false", all.attempted, all.failed,
              MetricsJson(metrics).c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
