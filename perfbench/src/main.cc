// unikv_perfbench: one run of one workload against UniKV.
//
//   unikv_perfbench --workload mixed|read|scan --seed N --seconds S
//                   --trace 0|1 [--data-dir D] [--out-dir D] [--commit C]
//
// --trace 0 measures the end-to-end metrics; --trace 1 measures the
// per-layer metrics of a traced window and the tracing overhead (see
// layers.cc). The last line of stdout is the result as one JSON object.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "report.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {

int RunPerLayer(const Args& a, const WorkloadSpec& spec);

namespace {

// A run sets up this many stores, one after another, and measures each for
// an equal share of the window: the state a store settles into (how its
// background jobs line up) moves the mixed workload's throughput from run
// to run, and medians over several stores keep one such state from
// setting the result. The median set-up time is `setup_s`.
constexpr int kStores = 3;
// Each store's window is cut into this many slices for the medians (see
// AddSlices).
constexpr int kSlices = 20;

/// What one store contributed to the run.
struct StoreResult {
  double setup_s = 0;
  WindowResult window;
  double write_amp = 0;         // Open through the final settle.
  double window_write_amp = 0;  // The window and the settle after it.
  // On-disk bytes per live user byte after the final settle. Sampled
  // during the window instead, it swung between ~1.3 and ~2.4 as value-log
  // GC caught up or fell behind the client, so its median followed how
  // fast the host ran the background jobs.
  double space_amp = 0;
  std::map<std::string, int> jobs;
};

StoreResult MeasureStore(const Args& a, const WorkloadSpec& spec, int index,
                         Slices* slices, ClientStats* all) {
  StoreResult r;
  Store store;
  std::string err;
  const uint64_t seed = a.seed + static_cast<uint64_t>(index) * 7919;
  r.setup_s = SetUpStore(spec, seed, a.data_dir + "/" + spec.name, &store, &err);
  if (r.setup_s < 0) Fail(err);
  all->Merge(store.setup_stats);
  ClientStats warm;
  if (spec.steady_check && !WarmUp(spec, &store, seed, &warm)) {
    Fail("not steady: warm-up did not level off within 30 windows");
  }
  all->Merge(warm);

  const double seconds = a.seconds / kStores;
  const ClockMap clock = ClockMap::Now();
  const IoTotals io0 = store.env->Totals();
  r.window = RunWindow(spec, &store, seed, 1, seconds, true);
  const int64_t window_end_us = clock.ToWallUs(NowNs());
  if (!Settle(&store, &err)) Fail(err);
  const IoTotals io1 = store.env->Totals();
  all->Merge(r.window.stats);
  all->Merge(VerifyAll(&store));

  const uint64_t user_bytes = store.setup_stats.user_bytes_written +
                              warm.user_bytes_written +
                              r.window.stats.user_bytes_written;
  r.write_amp = Ratio(static_cast<double>((io1 - store.io_at_open).BytesWritten()),
                      static_cast<double>(user_bytes));
  r.window_write_amp =
      Ratio(static_cast<double>((io1 - io0).BytesWritten()),
            static_cast<double>(r.window.stats.user_bytes_written));
  r.space_amp = Ratio(static_cast<double>(DiskBytes(store.dir)),
                      static_cast<double>(store.model->LiveUserBytes()));
  AddSlices(r.window.stats, r.window.start_ns, seconds, kSlices, slices);
  r.jobs = JobCounts(ReadJobs(store.dir), clock.wall_us, window_end_us);
  TearDownStore(&store);

  std::printf("store %d: setup %.3fs, window %.3fs requests=%" PRIu64
              " write_amp=%.4f window_write_amp=%.4f space_amp=%.4f\n",
              index, r.setup_s, r.window.seconds, r.window.stats.attempted,
              r.write_amp, r.window_write_amp, r.space_amp);
  std::printf("store %d jobs in window:", index);
  for (const auto& [k, n] : r.jobs) std::printf(" %s=%d", k.c_str(), n);
  std::printf("\n");
  const std::string unsteady = CheckWindowJobs(spec, r.jobs);
  if (!unsteady.empty()) Fail(unsteady);
  return r;
}

std::string JsonList(const std::vector<double>& v) {
  std::string out;
  for (double x : v) out += (out.empty() ? "" : ", ") + Num(x);
  return "[" + out + "]";
}

int RunEndToEnd(const Args& a, const WorkloadSpec& spec) {
  ClientStats all, windows;
  Slices slices;
  std::vector<double> setups, write_amps, space_amps;
  std::string stores_json;
  for (int i = 0; i < kStores; i++) {
    const StoreResult r = MeasureStore(a, spec, i, &slices, &all);
    windows.Merge(r.window.stats);
    setups.push_back(r.setup_s);
    write_amps.push_back(r.write_amp);
    space_amps.push_back(r.space_amp);
    std::string jobs;
    for (const auto& [k, n] : r.jobs) {
      jobs += (jobs.empty() ? "\"" : ", \"") + k + "\": " + std::to_string(n);
    }
    stores_json += std::string(stores_json.empty() ? "" : ", ") +
                   "{\"setup_s\": " + Num(r.setup_s) + ", \"requests\": " +
                   std::to_string(r.window.stats.attempted) +
                   ", \"write_amp\": " + Num(r.write_amp) +
                   ", \"window_write_amp\": " + Num(r.window_write_amp) +
                   ", \"space_amp\": " + Num(r.space_amp) +
                   ", \"window_jobs\": {" + jobs + "}}";
  }

  PrintLatencies(windows);
  PrintErrors(all);
  std::printf("medians over %zu slices of %d stores\n", slices.ops_per_s.size(),
              kStores);
  const std::vector<Metric> metrics = {
      {"setup_s", Median(setups), "s"},
      {"ops_per_s", Median(slices.ops_per_s), "1/s"},
      {"read_p50_us", Median(slices.read_p50_us), "us"},
      {"read_p99_us", Median(slices.read_p99_us), "us"},
      {"write_amp", Median(write_amps), "ratio"},
      {"space_amp", Median(space_amps), "ratio"},
  };

  const std::string prov = Provenance(a, spec);
  WriteResultFile(
      a, "{\"provenance\": " + prov + ", \"metrics\": " + MetricsJson(metrics) +
             ", \"stores\": [" + stores_json + "], \"latency\": " +
             LatenciesJson(windows) + ", \"read_latency\": " +
             SummaryJson(ReadLatency(windows)) + ", \"slice_ops_per_s\": " +
             JsonList(slices.ops_per_s) + ", \"error_rate\": " +
             Num(Ratio(static_cast<double>(all.failed),
                       static_cast<double>(all.attempted))) +
             "}");
  std::printf("provenance %s\n", prov.c_str());
  PrintResult(all, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload mixed|read|scan --seed N --seconds S "
                 "--trace 0|1 [--data-dir D] [--out-dir D] [--commit C]\n",
                 argv[0]);
    return 2;
  }
  perfbench::WorkloadSpec spec;
  if (!perfbench::GetWorkload(args.workload, 1.0, &spec)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  unikv::Env* env = unikv::Env::Default();
  if (!env->CreateDir(args.data_dir).ok() && !env->FileExists(args.data_dir)) {
    std::fprintf(stderr, "cannot create %s\n", args.data_dir.c_str());
    return 1;
  }
  (void)env->CreateDir(args.out_dir);
  return args.trace == 0 ? perfbench::RunEndToEnd(args, spec)
                         : perfbench::RunPerLayer(args, spec);
}
