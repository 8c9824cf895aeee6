#include "workload.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "common.h"
#include "trace.h"

namespace perfbench {

using unikv::Status;

namespace {

constexpr size_t kMiB = 1024 * 1024;

uint64_t Scaled(uint64_t n, double scale) {
  return std::max<uint64_t>(1, static_cast<uint64_t>(n * scale));
}

}  // namespace

bool GetWorkload(const std::string& name, double scale, WorkloadSpec* spec) {
  WorkloadSpec s;
  s.name = name;
  if (name == "mixed") {
    // The paper's headline mixed case: half reads, half overwrites of a
    // zipfian hot set, one client.
    s.keys = Scaled(100000, scale);
    s.value_size = 1024;
    s.clients = 1;
    s.zipfian = true;
    s.get = 0.5;
    s.put = 0.5;
    s.steady_check = true;
  } else if (name == "read") {
    // Read-only and uniform over data twice the block cache: Gets and
    // MultiGets of 16 keys from four clients.
    s.keys = Scaled(400000, scale);
    s.value_size = 256;
    s.clients = 4;
    s.get = 0.75;
    s.multiget = 0.25;
    s.overwrite_bytes = Scaled(3 * kMiB, scale);
  } else if (name == "scan") {
    // YCSB-E: short range scans from a zipfian start key, plus a trickle
    // of inserts of new keys, from four clients. Each client fetches its
    // scan's values on its own thread. With one client and the default
    // pool (8 threads on a 4-core machine) the scan ran on whichever cores
    // a shared host woke up for it: runs of the same code spread 0.42 in
    // requests/s and 5.7x the median in p99. Four clients, one per core,
    // average over the cores instead.
    s.keys = Scaled(100000, scale);
    s.value_size = 1024;
    s.clients = 4;
    s.zipfian = true;
    s.scan = 0.95;
    s.insert = 0.05;
    s.value_fetch_threads = 1;
  } else {
    return false;
  }
  *spec = s;
  return true;
}

unikv::Options BenchOptions(unikv::Env* env) {
  unikv::Options opt;
  opt.env = env;
  opt.write_buffer_size = 1 * kMiB;
  opt.unsorted_limit = 4 * kMiB;
  opt.partition_size_limit = 24 * kMiB;
  opt.gc_garbage_threshold = 6 * kMiB;
  opt.sorted_table_size = 1 * kMiB;
  opt.block_cache_size = 8 * kMiB;
  return opt;
}

std::vector<std::pair<std::string, uint64_t>> BenchOptionFields() {
  const unikv::Options o = BenchOptions(nullptr);
  return {{"write_buffer_size", o.write_buffer_size},
          {"unsorted_limit", o.unsorted_limit},
          {"partition_size_limit", o.partition_size_limit},
          {"gc_garbage_threshold", o.gc_garbage_threshold},
          {"sorted_table_size", o.sorted_table_size},
          {"block_cache_size", o.block_cache_size}};
}

double SetUpStore(const WorkloadSpec& spec, uint64_t seed, const std::string& dir,
             Store* store, std::string* error) {
  unikv::Env* base = unikv::Env::Default();
  (void)unikv::RemoveDirRecursively(base, dir);  // Leftovers of a past run.
  store->dir = dir;
  store->env = std::make_unique<IoEnv>(base);
  store->model = std::make_unique<KeyModel>(spec.keys, spec.value_size);
  IoEnv::SetThreadRole(Role::kClient);

  const int64_t t0 = NowNs();
  store->io_at_open = store->env->Totals();
  unikv::Options options = BenchOptions(store->env.get());
  if (spec.value_fetch_threads > 0) {
    options.value_fetch_threads = spec.value_fetch_threads;
  }
  unikv::DB* raw = nullptr;
  Status s = unikv::DB::Open(options, dir, &raw);
  if (!s.ok()) {
    *error = "open: " + s.ToString();
    return -1;
  }
  store->db.reset(raw);

  // Load every key once, in a seeded random order.
  std::vector<uint64_t> order(spec.keys);
  for (uint64_t i = 0; i < spec.keys; i++) order[i] = i;
  Rng rng(seed ^ 0x6C6F6164ull);
  for (uint64_t i = spec.keys; i > 1; i--) {
    std::swap(order[i - 1], order[rng.Uniform(i)]);
  }
  Client loader(store->db.get(), store->model.get());
  loader.set_record_latency(false);
  for (uint64_t id : order) loader.Put(id);
  s = store->db->CompactAll();
  if (s.ok() && spec.overwrite_bytes > 0) {
    const uint64_t n = spec.overwrite_bytes / (kKeySize + spec.value_size);
    for (uint64_t i = 0; i < n; i++) loader.Put(rng.Uniform(spec.keys));
    s = store->db->FlushMemTable();
  }
  store->setup_stats = loader.stats();
  if (!s.ok() || loader.stats().failed > 0) {
    *error = "load: " + s.ToString();
    return -1;
  }
  if (!Settle(store, error)) return -1;
  return static_cast<double>(NowNs() - t0) * 1e-9;
}

void TearDownStore(Store* store) {
  store->db.reset();
  (void)unikv::RemoveDirRecursively(unikv::Env::Default(), store->dir);
}

WindowResult RunWindow(const WorkloadSpec& spec, Store* store, uint64_t seed,
                       uint64_t stream, double seconds, bool record_latency) {
  const ScrambledZipfian zipf(spec.keys, spec.zipf_theta);
  std::vector<WindowResult> parts(spec.clients);
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);

  auto body = [&](int c) {
    IoEnv::SetThreadRole(Role::kClient);
    Rng rng(Mix64(seed) ^ Mix64(stream * 1315423911ull + c + 1));
    Client client(store->db.get(), store->model.get());
    client.set_record_latency(record_latency);
    auto pick = [&]() {
      return spec.zipfian ? zipf.Next(&rng) : rng.Uniform(spec.keys);
    };
    std::vector<uint64_t> batch(spec.multiget_batch);
    const unikv::PerfContext before = *unikv::GetPerfContext();
    const double c_get = spec.get, c_put = c_get + spec.put,
                 c_mget = c_put + spec.multiget, c_scan = c_mget + spec.scan;
    // A traced window also ends when the tracer has no room left.
    Tracer* tracer = Tracer::Active();
    for (uint64_t i = 0; NowNs() < deadline; i++) {
      if (tracer != nullptr && (i & 63) == 0 && tracer->full()) break;
      const double u = rng.Real();
      if (u < c_get) {
        client.Get(pick());
      } else if (u < c_put) {
        client.Put(pick());
      } else if (u < c_mget) {
        for (auto& id : batch) id = pick();
        client.MultiGet(batch);
      } else if (u < c_scan) {
        const uint64_t id = pick();
        client.Scan(id, 1 + static_cast<int>(rng.Uniform(spec.scan_max_len)));
      } else {
        client.Insert(&rng);
      }
    }
    parts[c].perf = unikv::GetPerfContext()->DeltaSince(before);
    parts[c].stats = std::move(client.stats());
  };

  std::vector<std::thread> threads;
  for (int c = 1; c < spec.clients; c++) threads.emplace_back(body, c);
  body(0);
  for (auto& t : threads) t.join();

  WindowResult result;
  result.start_ns = start;
  result.seconds = static_cast<double>(NowNs() - start) * 1e-9;
  for (auto& p : parts) {
    result.stats.Merge(p.stats);
    result.perf.Add(p.perf);
  }
  return result;
}

bool WarmUp(const WorkloadSpec& spec, Store* store, uint64_t seed,
            ClientStats* stats) {
  constexpr double kWindowSeconds = 2.0;
  constexpr int kMinWindows = 3, kMaxWindows = 30;
  // After the load, the store's files grow to ~2.2x the live data until
  // the clients have overwritten about four times the loaded bytes; only
  // then do they fall to the 1.3-1.7x they keep afterwards. Warming up
  // for a fixed time let a slow host start the window in that transient.
  constexpr uint64_t kMinOverwrites = 5;
  const uint64_t min_bytes = kMinOverwrites * store->model->LiveUserBytes();
  uint64_t written = 0;
  double prev = -1;
  for (int w = 0; w < kMaxWindows; w++) {
    const IoTotals before = store->env->Totals();
    WindowResult r =
        RunWindow(spec, store, seed, 100 + w, kWindowSeconds, false);
    const IoTotals d = store->env->Totals() - before;
    const double wa = Ratio(static_cast<double>(d.BytesWritten()),
                            static_cast<double>(r.stats.user_bytes_written));
    stats->Merge(r.stats);
    written += r.stats.user_bytes_written;
    std::printf("warmup window %d: write_amp=%.3f requests=%" PRIu64
                " user_bytes_written=%" PRIu64 "\n",
                w, wa, r.stats.attempted, written);
    if (w + 1 >= kMinWindows && written >= min_bytes && prev > 0 &&
        std::fabs(wa / prev - 1) <= 0.2) {
      return true;
    }
    prev = wa;
  }
  return false;
}

bool Settle(Store* store, std::string* error) {
  Status s = store->db->FlushMemTable();
  if (!s.ok()) {
    *error = "flush: " + s.ToString();
    return false;
  }
  auto activity = [&]() {
    const IoTotals t = store->env->Totals();
    uint64_t sum = 0;
    for (const IoCell& c : t.cells) sum += c.calls;
    return sum;
  };
  // Idle once no Env call happened for 200 ms; give up after 60 s.
  constexpr int kQuietPolls = 4;
  uint64_t last = activity();
  int quiet = 0;
  for (int i = 0; i < 1200 && quiet < kQuietPolls; i++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const uint64_t now = activity();
    quiet = now == last ? quiet + 1 : 0;
    last = now;
  }
  if (quiet < kQuietPolls) {
    *error = "background work did not settle within 60 s";
    return false;
  }
  s = store->db->GetBackgroundError();
  if (!s.ok()) {
    *error = "background error: " + s.ToString();
    return false;
  }
  return true;
}

ClientStats VerifyAll(Store* store) {
  Client client(store->db.get(), store->model.get());
  client.set_record_latency(false);
  std::vector<uint64_t> batch;
  const uint64_t n = store->model->num_loaded();
  for (uint64_t id = 0; id < n; id += 64) {
    batch.clear();
    for (uint64_t j = id; j < std::min(n, id + 64); j++) batch.push_back(j);
    client.MultiGet(batch);
  }
  return client.stats();
}

std::map<std::string, double> EngineCounters(unikv::DB* db) {
  std::map<std::string, double> out;
  std::string json;
  if (!db->GetProperty("db.metrics.json", &json)) return out;
  for (const char* section : {"\"counters\":{", "\"stats\":{"}) {
    size_t pos = json.find(section);
    if (pos == std::string::npos) continue;
    pos += std::char_traits<char>::length(section);
    const size_t end = json.find('}', pos);
    while (pos < end) {
      const size_t q1 = json.find('"', pos);
      if (q1 == std::string::npos || q1 >= end) break;
      const size_t q2 = json.find('"', q1 + 1);
      const std::string name = json.substr(q1 + 1, q2 - q1 - 1);
      char* stop = nullptr;
      const double v = std::strtod(json.c_str() + q2 + 2, &stop);
      out[name] = v;
      pos = static_cast<size_t>(stop - json.c_str());
    }
  }
  return out;
}

uint64_t DiskBytes(const std::string& dir) {
  unikv::Env* env = unikv::Env::Default();
  std::vector<std::string> children;
  if (!env->GetChildren(dir, &children).ok()) return 0;
  uint64_t total = 0;
  for (const std::string& c : children) {
    if (c == "." || c == ".." || c == "LOCK" || c.rfind("EVENTS", 0) == 0) {
      continue;
    }
    uint64_t size = 0;
    if (env->GetFileSize(dir + "/" + c, &size).ok()) total += size;
  }
  return total;
}

}  // namespace perfbench
