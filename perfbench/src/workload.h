// Workload definitions and the phases of a run: set-up, measured windows
// of closed-loop clients, and settling background work.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "client.h"
#include "core/db.h"
#include "io_env.h"
#include "util/perf_context.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  uint64_t keys = 0;
  size_t value_size = 0;
  int clients = 1;
  bool zipfian = false;  // Else uniform.
  double zipf_theta = 0.99;
  // Shares of requests; they sum to 1.
  double get = 0, put = 0, multiget = 0, scan = 0, insert = 0;
  int multiget_batch = 16;
  int scan_max_len = 100;
  // Bytes of uniformly chosen keys overwritten after the load, followed
  // by a memtable flush (keeps an UnsortedStore resident).
  uint64_t overwrite_bytes = 0;
  // Warm up until write amplification levels off, and require background
  // jobs of every kind inside the measured window.
  bool steady_check = false;
  // Options::value_fetch_threads, or 0 for the engine default.
  int value_fetch_threads = 0;
};

/// The named workload scaled by `scale` (1 for the benchmark; tests use
/// less). False if the name is unknown.
bool GetWorkload(const std::string& name, double scale, WorkloadSpec* spec);

/// The Options every workload uses: only the size knobs that scale with
/// data are set; everything else keeps the engine default.
unikv::Options BenchOptions(unikv::Env* env);
/// The fields BenchOptions sets, as name/value pairs, for provenance.
std::vector<std::pair<std::string, uint64_t>> BenchOptionFields();

/// An open store with its Env wrapper and model.
struct Store {
  std::unique_ptr<IoEnv> env;
  std::unique_ptr<KeyModel> model;
  std::unique_ptr<unikv::DB> db;
  std::string dir;
  IoTotals io_at_open;
  ClientStats setup_stats;  // Requests made during set-up.
};

/// Opens a fresh store in `dir`, loads it in a seeded random order,
/// compacts it, and applies the workload's post-load overwrite. Returns
/// the set-up time in seconds, or a negative value on failure (*error).
double SetUpStore(const WorkloadSpec& spec, uint64_t seed, const std::string& dir,
             Store* store, std::string* error);

/// Closes the store and deletes its files.
void TearDownStore(Store* store);

/// Result of one measured window.
struct WindowResult {
  int64_t start_ns = 0;
  double seconds = 0;
  ClientStats stats;
  unikv::PerfContext perf;  // Summed over client threads.
};

/// Runs spec.clients closed-loop clients for `seconds`. Each client draws
/// its requests from a generator seeded by (seed, stream, client).
WindowResult RunWindow(const WorkloadSpec& spec, Store* store, uint64_t seed,
                       uint64_t stream, double seconds, bool record_latency);

/// Warms a steady-check workload up in 2-s windows until the clients
/// have overwritten five times the loaded bytes and the write
/// amplification of two consecutive windows agrees within 20%. Returns
/// false if that takes more than 30 windows.
bool WarmUp(const WorkloadSpec& spec, Store* store, uint64_t seed,
            ClientStats* stats);

/// Flushes the memtable and waits until the engine has written and read
/// nothing for a while (background work settled without forcing any).
/// Returns false on error.
bool Settle(Store* store, std::string* error);

/// Reads every key back and checks it holds the last acknowledged
/// version. Run only while no client writes.
ClientStats VerifyAll(Store* store);

/// Flat counters from the engine's db.metrics.json (`engine.counters`
/// merged with `stats`).
std::map<std::string, double> EngineCounters(unikv::DB* db);

/// Bytes of all store files, excluding the EVENTS log and the LOCK file.
uint64_t DiskBytes(const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
