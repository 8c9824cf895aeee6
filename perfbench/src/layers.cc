// The traced run (--trace 1): an untraced window, then a traced window of
// the same workload, and the per-layer metrics computed from the traced
// window's spans, the clients' PerfContext deltas, the engine's counters
// and its EVENTS log.
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <unordered_map>

#include "common.h"
#include "report.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {

namespace {

// Spans kept in memory for one traced window (40 bytes each); the window
// ends early once this many were recorded.
constexpr size_t kMaxSpans = 2'000'000;

struct SpanTotals {
  uint64_t calls = 0;
  uint64_t bytes = 0;
  int64_t ns = 0;
  void Add(const Span& s) {
    calls++;
    bytes += s.bytes;
    ns += s.end_ns - s.start_ns;
  }
};

bool IsRead(uint8_t op) {
  return op == static_cast<uint8_t>(FileOp::kRead) ||
         op == static_cast<uint8_t>(FileOp::kZeroCopy) ||
         op == static_cast<uint8_t>(FileOp::kZeroCopyMiss);
}

// Spans as raw records (the Span struct, in memory order), and the jobs
// as text beside them.
void WriteSpans(const std::string& path, const std::vector<Span>& spans,
                const std::vector<JobSpan>& jobs, const ClockMap& clock) {
  std::ofstream(path + ".bin", std::ios::binary)
      .write(reinterpret_cast<const char*>(spans.data()),
             static_cast<std::streamsize>(spans.size() * sizeof(Span)));
  std::ofstream out(path + ".jobs.tsv");
  out << "kind\tstart_ns\tend_ns\tbytes_read\tbytes_written\n";
  for (const JobSpan& j : jobs) {
    out << j.kind << '\t' << clock.ToSteadyNs(j.start_us) << '\t'
        << clock.ToSteadyNs(j.end_us) << '\t' << j.bytes_read << '\t'
        << j.bytes_written << '\n';
  }
}

}  // namespace

int RunPerLayer(const Args& a, const WorkloadSpec& spec) {
  const std::string dir = a.data_dir + "/" + spec.name;
  Store store;
  std::string err;
  ClientStats all;
  if (SetUpStore(spec, a.seed, dir, &store, &err) < 0) Fail(err);
  all.Merge(store.setup_stats);
  if (spec.steady_check && !WarmUp(spec, &store, a.seed, &all)) {
    Fail("not steady: warm-up did not level off within 30 windows");
  }

  // Untraced and traced slices alternate, so both sample the same drift
  // of the store and the machine; the overhead compares their rates.
  constexpr int kSlices = 4;
  WindowResult plain, traced;
  auto add = [](WindowResult* to, WindowResult&& from) {
    to->seconds += from.seconds;
    to->stats.Merge(from.stats);
    to->perf.Add(from.perf);
  };
  Tracer tracer(kMaxSpans);
  const ClockMap clock = ClockMap::Now();
  std::map<std::string, double> counters;  // Engine counter deltas, traced.
  std::vector<std::pair<int64_t, int64_t>> traced_us;  // Wall-clock slices.
  for (int i = 0; i < kSlices; i++) {
    const bool trace = i % 2 == 1;
    if (!trace) {
      add(&plain, RunWindow(spec, &store, a.seed, 1 + i, a.seconds / kSlices, true));
      continue;
    }
    const std::map<std::string, double> c0 = EngineCounters(store.db.get());
    const int64_t from_ns = NowNs();
    tracer.Start();
    add(&traced, RunWindow(spec, &store, a.seed, 1 + i, a.seconds / kSlices, true));
    tracer.Stop();
    traced_us.emplace_back(clock.ToWallUs(from_ns), clock.ToWallUs(NowNs()));
    for (const auto& [name, v] : EngineCounters(store.db.get())) {
      auto it = c0.find(name);
      counters[name] += v - (it == c0.end() ? 0.0 : it->second);
    }
  }
  const int64_t end_us = clock.ToWallUs(NowNs());
  all.Merge(plain.stats);
  all.Merge(traced.stats);
  if (!Settle(&store, &err)) Fail(err);
  all.Merge(VerifyAll(&store));
  const std::vector<JobSpan> all_jobs = ReadJobs(store.dir);
  store.db.reset();  // Joins the engine's threads before reading spans.
  const std::vector<Span> spans = tracer.Collect();
  TearDownStore(&store);

  const auto window_jobs = JobCounts(all_jobs, clock.wall_us, end_us);
  std::printf("jobs in window:");
  for (const auto& [k, n] : window_jobs) std::printf(" %s=%d", k.c_str(), n);
  std::printf("\n");
  const std::string unsteady = CheckWindowJobs(spec, window_jobs);
  if (!unsteady.empty()) Fail(unsteady);
  const size_t nesting_errors = CountNestingErrors(spans);
  if (nesting_errors > 0) {
    Fail(std::to_string(nesting_errors) + " spans do not nest in their parent");
  }

  // ------------------------------------------------ spans -> layer totals
  const ClientStats& st = traced.stats;
  const auto n_of = [&](RequestKind k) {
    return static_cast<double>(st.latency_ns[static_cast<size_t>(k)].size());
  };
  const double gets = n_of(RequestKind::kGet);
  const double puts = n_of(RequestKind::kPut);
  const double mgets = n_of(RequestKind::kMultiGet);
  const double scans = n_of(RequestKind::kScan);
  const double lookups = gets + static_cast<double>(st.multiget_keys);
  const double requests = gets + puts + mgets + scans;
  const double user_bytes = static_cast<double>(st.user_bytes_written);

  std::unordered_map<uint32_t, const Span*> roots;
  std::unordered_map<uint32_t, std::vector<Span>> children;
  std::vector<Span> engine_calls;
  SpanTotals put_wal_appends, lookup_sst_reads, lookup_vlog_reads, fg_reads;
  SpanTotals wal_syncs, vlog_zero_copy, vlog_reads_all;
  SpanTotals written[kKinds];
  for (const Span& s : spans) {
    if (s.layer == SpanLayer::kRequest) {
      roots[s.id] = &s;
      continue;
    }
    const auto kind = static_cast<FileKind>(s.file_kind);
    const auto op = static_cast<FileOp>(s.what);
    if (op == FileOp::kAppend) written[s.file_kind].Add(s);
    if (op == FileOp::kSync && kind == FileKind::kWal) wal_syncs.Add(s);
    if (kind == FileKind::kVlog && op == FileOp::kZeroCopy) vlog_zero_copy.Add(s);
    if (kind == FileKind::kVlog && op == FileOp::kRead) vlog_reads_all.Add(s);
    if (s.parent == 0) {
      engine_calls.push_back(s);
    } else {
      children[s.parent].push_back(s);
    }
  }
  double self_ns[kRequestKinds] = {};
  for (const auto& [id, root] : roots) {
    auto it = children.find(id);
    const std::vector<Span> none;
    const std::vector<Span>& kids = it == children.end() ? none : it->second;
    self_ns[root->what] += static_cast<double>(SelfTimeNs(*root, kids));
    const auto what = static_cast<RequestKind>(root->what);
    const bool lookup =
        what == RequestKind::kGet || what == RequestKind::kMultiGet;
    for (const Span& c : kids) {
      const auto kind = static_cast<FileKind>(c.file_kind);
      if (IsRead(c.what)) fg_reads.Add(c);
      if (what == RequestKind::kPut && kind == FileKind::kWal &&
          c.what == static_cast<uint8_t>(FileOp::kAppend)) {
        put_wal_appends.Add(c);
      }
      if (lookup && IsRead(c.what) && kind == FileKind::kSst) {
        lookup_sst_reads.Add(c);
      }
      if (lookup && c.what == static_cast<uint8_t>(FileOp::kRead) &&
          kind == FileKind::kVlog) {
        lookup_vlog_reads.Add(c);
      }
    }
  }

  // ------------------------------------------- EVENTS -> job spans, bytes
  // Jobs overlapping a traced slice own its engine calls; jobs ending in
  // one are counted.
  std::vector<JobSpan> jobs;
  std::vector<JobWindow> windows;
  std::vector<bool> ends_traced;
  for (const JobSpan& j : all_jobs) {
    bool overlap = false, ends = false;
    for (const auto& [from, to] : traced_us) {
      overlap = overlap || (j.end_us >= from && j.start_us <= to);
      ends = ends || (j.end_us >= from && j.end_us <= to);
    }
    if (!overlap) continue;
    jobs.push_back(j);
    windows.push_back({clock.ToSteadyNs(j.start_us), clock.ToSteadyNs(j.end_us)});
    ends_traced.push_back(ends);
  }
  const std::vector<int> owner = AttributeToJobs(windows, engine_calls, 50'000);
  std::map<std::string, double> job_bytes, job_busy_s, job_count;
  for (size_t i = 0; i < engine_calls.size(); i++) {
    if (owner[i] >= 0 &&
        engine_calls[i].what == static_cast<uint8_t>(FileOp::kAppend)) {
      job_bytes[jobs[owner[i]].kind] += engine_calls[i].bytes;
    }
  }
  double gc_read = 0, gc_written = 0;
  for (size_t i = 0; i < jobs.size(); i++) {
    if (!ends_traced[i]) continue;
    const JobSpan& j = jobs[i];
    job_count[j.kind] += 1;
    job_busy_s[j.kind] += static_cast<double>(j.end_us - j.start_us) * 1e-6;
    if (j.kind == "gc") {
      gc_read += static_cast<double>(j.bytes_read);
      gc_written += static_cast<double>(j.bytes_written);
    }
  }

  const unikv::PerfContext& p = traced.perf;
  const auto delta = [&](const char* name) {
    auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second;
  };
  const auto d = [](uint64_t v) { return static_cast<double>(v); };
  const auto us = [](double ns) { return ns / 1000.0; };

  std::vector<Metric> m = {
      // core: request span time not covered by its Env calls.
      {"core.get_self_us", Ratio(us(self_ns[0]), gets), "us"},
      {"core.multiget_self_us_per_key",
       Ratio(us(self_ns[2]), d(st.multiget_keys)), "us"},
      {"core.put_self_us", Ratio(us(self_ns[1]), puts), "us"},
      {"core.scan_self_us", Ratio(us(self_ns[3]), scans), "us"},
      {"core.write_queue_us_per_put",
       Ratio(d(p.write_micros) - d(p.write_wal_micros) -
                 d(p.write_memtable_micros) - d(p.write_stall_micros),
             puts),
       "us"},
      // mem
      {"mem.insert_us_per_put", Ratio(d(p.write_memtable_micros), puts), "us"},
      {"mem.hit_ratio", Ratio(d(p.memtable_hits), lookups), "ratio"},
      // wal
      {"wal.append_calls_per_put", Ratio(d(put_wal_appends.calls), puts),
       "count"},
      {"wal.append_us_per_put", Ratio(us(d(put_wal_appends.ns)), puts), "us"},
      {"wal.sync_calls", d(wal_syncs.calls), "count"},
      {"wal.bytes_per_user_byte",
       Ratio(d(written[static_cast<size_t>(FileKind::kWal)].bytes), user_bytes),
       "ratio"},
      // index
      {"index.lookups_per_get", Ratio(d(p.hash_index_lookups), lookups),
       "count"},
      {"index.probes_per_get", Ratio(d(p.hash_index_probes), lookups), "count"},
      {"index.candidates_per_get", Ratio(d(p.hash_index_candidates), lookups),
       "count"},
      {"index.unsorted_tables_probed_per_get",
       Ratio(d(p.unsorted_tables_probed), lookups), "count"},
      // table
      {"table.block_cache_hit_ratio",
       Ratio(d(p.block_cache_hits), d(p.block_cache_hits + p.block_cache_misses)),
       "ratio"},
      {"table.block_reads_per_get", Ratio(d(p.block_reads), lookups), "count"},
      {"table.sorted_seeks_per_get", Ratio(d(p.sorted_seeks), lookups), "count"},
      {"table.sst_read_us_per_get", Ratio(us(d(lookup_sst_reads.ns)), lookups),
       "us"},
      {"table.table_cache_misses", d(p.table_cache_misses), "count"},
      // vlog
      {"vlog.reads_per_get", Ratio(d(p.vlog_reads), lookups), "count"},
      {"vlog.zero_copy_share",
       Ratio(d(vlog_zero_copy.calls),
             d(vlog_zero_copy.calls + vlog_reads_all.calls)),
       "ratio"},
      {"vlog.pread_us_per_get", Ratio(us(d(lookup_vlog_reads.ns)), lookups),
       "us"},
      {"vlog.span_reads_per_scan", Ratio(delta("vlog_span_reads"), scans),
       "count"},
      {"vlog.read_bytes_per_scan_entry",
       Ratio(delta("vlog_read_bytes"), d(st.scan_entries)), "bytes"},
      {"vlog.multiget_coalesced_reads", d(p.multiget_coalesced_reads), "count"},
  };
  // compaction, per job kind.
  for (const char* k : kJobKinds) {
    const std::string base = std::string("compaction.") + k;
    m.push_back({base + ".count", job_count[k], "count"});
    m.push_back({base + ".busy_s", job_busy_s[k], "s"});
    m.push_back({base + ".bytes_written_per_user_byte",
                 Ratio(job_bytes[k], user_bytes), "ratio"});
  }
  m.push_back({"compaction.gc.live_copy_ratio", Ratio(gc_written, gc_read),
               "ratio"});
  m.push_back({"compaction.stalls", delta("write_stalls"), "count"});
  m.push_back({"compaction.stall_s", delta("stall_micros") * 1e-6, "s"});
  // anchor_view
  m.push_back({"anchor_view.hits_per_scan", Ratio(delta("scan_anchor_hits"), scans),
               "count"});
  m.push_back({"anchor_view.builds", delta("anchor_view_builds"), "count"});
  m.push_back({"anchor_view.bytes_written",
               d(written[static_cast<size_t>(FileKind::kAnchors)].bytes),
               "bytes"});
  // io, by file kind.
  for (FileKind k : {FileKind::kWal, FileKind::kSst, FileKind::kVlog,
                     FileKind::kHidx, FileKind::kAnchors, FileKind::kManifest}) {
    m.push_back({std::string("io.") + FileKindName(k) + ".bytes_written",
                 d(written[static_cast<size_t>(k)].bytes), "bytes"});
  }
  m.push_back({"io.fg_read_us_per_op", Ratio(us(d(fg_reads.ns)), requests),
               "us"});
  // client latencies, from the untraced window.
  for (size_t k = 0; k < kRequestKinds; k++) {
    const LatencySummary s = Summarize(plain.stats.latency_ns[k]);
    const std::string base =
        std::string("client.") + RequestKindName(static_cast<RequestKind>(k));
    m.push_back({base + "_p50_us", s.p50_us, "us"});
    m.push_back({base + "_p99_us", s.p99_us, "us"});
  }
  const double plain_ops = Ratio(d(plain.stats.attempted), plain.seconds);
  const double traced_ops = Ratio(d(traced.stats.attempted), traced.seconds);
  m.push_back({"trace.ops_ratio", Ratio(traced_ops, plain_ops), "ratio"});

  const std::string spans_path = a.out_dir + "/" + spec.name + ".spans";
  WriteSpans(spans_path, spans, jobs, clock);

  std::printf("untraced window %.3fs requests=%" PRIu64 " ops_per_s=%.1f\n",
              plain.seconds, plain.stats.attempted, plain_ops);
  PrintLatencies(plain.stats);
  std::printf("traced window %.3fs requests=%" PRIu64
              " ops_per_s=%.1f spans=%zu%s -> %s\n",
              traced.seconds, traced.stats.attempted, traced_ops, spans.size(),
              tracer.full() ? " (span cap reached)" : "", spans_path.c_str());
  std::printf("tracing overhead: traced/untraced ops_per_s = %.4f\n",
              Ratio(traced_ops, plain_ops));
  for (const Metric& x : m) {
    std::printf("  %-48s %14.4f %s\n", x.name.c_str(), x.value, x.unit.c_str());
  }
  PrintErrors(all);
  const std::string prov = Provenance(a, spec);
  WriteResultFile(a, "{\"provenance\": " + prov + ", \"metrics\": " +
                         MetricsJson(m) + ", \"untraced_latency\": " +
                         LatenciesJson(plain.stats) + ", \"spans\": " +
                         std::to_string(spans.size()) + "}");
  std::printf("provenance %s\n", prov.c_str());
  PrintResult(all, m);
  return 0;
}

}  // namespace perfbench
