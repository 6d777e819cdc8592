// Served-workload benchmark: the paper's Table 1 queries sent over the HGQL
// wire protocol to a DurableStore(PolyglotStore) with tiering behind an
// in-process HgqlServer, solo and crowded, plus durable ingest beside cold
// reads.
//
//   hgbench --workload <table1_solo|table1_crowd|ingest_mixed> --seed <n>
//           --seconds <s> --trace <0|1> --workdir <dir> [--spans <file>]
//           [--git-describe <rev>]
//
// A run: compute every query text's answer on the all-in-graph engine (the
// answer oracle, never timed); set the served store up three times (setup_s
// is the median); warm up; drive the workload over loopback for --seconds;
// then stop the server and drop the store without a checkpoint, reopen it
// and check every acknowledged sample and every query answer. With
// --trace 1 the run also replays requests in-process under spans and
// reports per-layer metrics instead of the end-to-end ones. The last stdout
// line is the JSON result; the exit code is non-zero on a wrong answer, a
// lost acknowledged write or a failed set-up.
//
// The result carries the end-to-end metrics that stay within their bounds
// from run to run on a shared 4-core host: set-up time, store bytes per
// sample and the share of operations that succeeded. Read rate, every class
// latency and tail and the reopen time are printed as notes beside it: on
// that host whole runs slowed by up to 3x, so those figures moved by more
// than the largest allowed bound between runs of the same code.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "checker.h"
#include "common/context.h"
#include "common/rng.h"
#include "query/parser.h"
#include "query/planner.h"
#include "query/profile.h"
#include "server/client.h"
#include "server/server.h"
#include "spans.h"
#include "stats.h"
#include "storage/all_in_graph.h"
#include "storage/durable.h"
#include "storage/env.h"
#include "storage/polyglot.h"
#include "workload.h"

namespace hgbench {
namespace {

namespace fs = std::filesystem;
using hygraph::Interval;
using hygraph::Rng;
using hygraph::Status;
using hygraph::graph::VertexId;
using hygraph::obs::MetricsSnapshot;
using hygraph::query::QueryResult;
using hygraph::server::HgqlClient;
using hygraph::storage::DurableStore;
using hygraph::workloads::BikeSharingDataset;

// ---------------------------------------------------------------------------
// Workloads.

struct WorkloadSpec {
  const char* name;
  /// Closed-loop connections running the Table 1 mix (0 for ingest).
  size_t table1_connections;
  bool ingest;
  /// Cold-tier cache budget. 64 MiB holds every sealed chunk (~1.3 MB);
  /// 256 KiB is about a fifth of them, so cold reads miss.
  size_t cache_budget_bytes;
};

// table1_crowd uses 4 connections, the core count of the machine the
// benchmark was defined on; it is fixed, not read at run time, so the
// offered load is the same everywhere.
constexpr WorkloadSpec kWorkloads[] = {
    {"table1_solo", 1, false, 64u << 20},
    {"table1_crowd", 4, false, 64u << 20},
    {"ingest_mixed", 0, true, 256u << 10},
};

// ingest_mixed: two open-loop writers, each 100 batches/s of 75 station
// samples; one open-loop Poisson reader of Q1/Q2 at 500 q/s. At 200
// batches/s a writer saturates whenever the shared host runs at half
// speed, and its latency from the due time then grows without bound.
constexpr size_t kWriters = 2;
constexpr double kWriterBatchesPerSecond = 100;
constexpr double kReaderQps = 500;
constexpr size_t kCheckpointEvery = 20000;

constexpr size_t kSetupRepeats = 3;
constexpr size_t kReopens = 3;
// Traced-run passes per class (point, fanout, corr).
constexpr size_t kTracePasses[kQueryClasses] = {400, 200, 40};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string workdir;
  std::string spans_path;
  std::string git_describe = "unavailable";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
      have_seed = true;
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
      have_seconds = a->seconds > 0;
    } else if (k == "--trace") {
      a->trace = v == "1";
      have_trace = v == "0" || v == "1";
    } else if (k == "--workdir") {
      a->workdir = v;
    } else if (k == "--spans") {
      a->spans_path = v;
    } else if (k == "--git-describe") {
      a->git_describe = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && have_seconds && have_trace &&
         !a->workload.empty() && !a->workdir.empty();
}

// ---------------------------------------------------------------------------
// The served store.

hygraph::storage::DurableOptions StoreOptions(const WorkloadSpec& w) {
  hygraph::storage::DurableOptions o;
  o.sync_wal = false;  // group commit: the committer fsyncs each batch
  o.checkpoint_every = kCheckpointEvery;
  o.tiering.enabled = true;
  o.tiering.cache_budget_bytes = w.cache_budget_bytes;
  return o;
}

std::unique_ptr<DurableStore> NewStore(const WorkloadSpec& w,
                                       const std::string& dir) {
  return std::make_unique<DurableStore>(
      hygraph::storage::Env::Default(), dir,
      std::make_unique<hygraph::storage::PolyglotStore>(), StoreOptions(w));
}

struct Served {
  std::string dir;
  std::unique_ptr<DurableStore> store;
  std::unique_ptr<hygraph::server::HgqlServer> server;
  std::vector<VertexId> stations;
};

/// Generate, load, checkpoint and start the server: what setup_s times.
Status SetUp(const Args& a, const WorkloadSpec& w, const std::string& dir,
             Served* out) {
  auto dataset =
      hygraph::workloads::GenerateBikeSharing(DatasetConfig(a.seed));
  if (!dataset.ok()) return dataset.status();
  out->dir = dir;
  out->store = NewStore(w, dir);
  HYGRAPH_RETURN_IF_ERROR(out->store->Open());
  auto ids = hygraph::workloads::LoadIntoBackend(*dataset, out->store.get());
  if (!ids.ok()) return ids.status();
  out->stations = std::move(*ids);
  HYGRAPH_RETURN_IF_ERROR(out->store->Checkpoint());
  hygraph::server::ServerOptions so;
  so.enable_metrics_http = false;
  out->server = std::make_unique<hygraph::server::HgqlServer>(
      out->store.get(), out->store.get(), so);
  return out->server->Start();
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

// ---------------------------------------------------------------------------
// Load generation.

/// Latency samples with their completion times.
struct Timed {
  std::vector<double> ms;
  std::vector<uint64_t> done;

  void Add(double latency_ms, uint64_t done_ns) {
    ms.push_back(latency_ms);
    done.push_back(done_ns);
  }
  void Append(const Timed& o) {
    ms.insert(ms.end(), o.ms.begin(), o.ms.end());
    done.insert(done.end(), o.done.begin(), o.done.end());
  }
};

/// What one load thread saw.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;  ///< errors, shed and wrong answers
  uint64_t shed = 0;
  uint64_t wrong = 0;
  uint64_t reads_ok = 0;
  Timed reads[kQueryClasses];
  Timed appends;
  std::vector<double> lag_ms;  ///< open loop: how late each send was
  std::string first_error;

  void Merge(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
    shed += o.shed;
    wrong += o.wrong;
    reads_ok += o.reads_ok;
    for (int c = 0; c < kQueryClasses; ++c) {
      reads[c].Append(o.reads[c]);
    }
    appends.Append(o.appends);
    lag_ms.insert(lag_ms.end(), o.lag_ms.begin(), o.lag_ms.end());
    if (first_error.empty()) first_error = o.first_error;
  }

  void Fail(const Status& s) {
    ++failed;
    if (s.IsResourceExhausted()) ++shed;
    if (first_error.empty()) first_error = s.ToString();
  }

  /// Counts one query response; true when it is correct.
  bool Check(const PooledQuery& q,
             const hygraph::Result<QueryResult>& r) {
    ++attempted;
    if (!r.ok()) {
      Fail(r.status());
      return false;
    }
    std::string why;
    if (!AnswersIdentical(q.expected, *r, &why)) {
      ++failed;
      ++wrong;
      if (first_error.empty()) first_error = "wrong answer: " + why;
      return false;
    }
    ++reads_ok;
    return true;
  }
};

double MsSince(uint64_t from, uint64_t to) {
  return static_cast<double>(to - from) / 1e6;
}

void SleepUntil(uint64_t due_ns) {
  const uint64_t now = NowNanos();
  if (due_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now));
  }
}

/// Q1 or Q2 with equal odds, then a text of it uniformly.
const PooledQuery& DrawPoint(const QueryPool& pool, Rng& rng) {
  const auto& ids = pool.by_query[rng.NextBounded(2)];
  return pool.queries[ids[rng.NextBounded(ids.size())]];
}

/// Q1-Q8 uniformly, dealt in shuffled rounds of all eight, so every stretch
/// of a run carries the same mix (independent draws let the share of the
/// slow Q6 drift from run to run); the text within a query is drawn
/// uniformly from its pool.
class Table1Deck {
 public:
  explicit Table1Deck(uint64_t seed) : rng_(seed) {}

  const PooledQuery& Next(const QueryPool& pool) {
    if (pos_ == order_.size()) {
      for (size_t i = order_.size() - 1; i > 0; --i) {
        std::swap(order_[i], order_[rng_.NextBounded(i + 1)]);
      }
      pos_ = 0;
    }
    const auto& ids = pool.by_query[order_[pos_++]];
    return pool.queries[ids[rng_.NextBounded(ids.size())]];
  }

 private:
  Rng rng_;
  std::array<size_t, 8> order_{0, 1, 2, 3, 4, 5, 6, 7};
  size_t pos_ = order_.size();
};

hygraph::Result<HgqlClient> Connect(const Served& s) {
  return HgqlClient::Connect("127.0.0.1", s.server->port(), "hgbench");
}

/// Closed loop: the Table 1 mix, Q1-Q8 uniform, until `deadline`.
void Table1Connection(const Served& s, const QueryPool& pool, uint64_t seed,
                      size_t thread, uint64_t deadline, Tally* t) {
  auto client = Connect(s);
  if (!client.ok()) {
    ++t->attempted;
    t->Fail(client.status());
    return;
  }
  Table1Deck deck(seed * 1000003 + thread + 1);
  while (NowNanos() < deadline) {
    const PooledQuery& q = deck.Next(pool);
    const uint64_t t0 = NowNanos();
    auto r = client->Query(q.text);
    const uint64_t t1 = NowNanos();
    if (t->Check(q, r)) {
      t->reads[static_cast<int>(q.cls)].Add(MsSince(t0, t1), t1);
    }
  }
  client->Close();
}

/// Open loop: Poisson arrivals of Q1/Q2 at kReaderQps, timed from the due
/// time.
void PoissonReader(const Served& s, const QueryPool& pool, uint64_t seed,
                   uint64_t start, double seconds, Tally* t) {
  auto client = Connect(s);
  if (!client.ok()) {
    ++t->attempted;
    t->Fail(client.status());
    return;
  }
  Rng rng(seed * 7919 + 17);
  double at = 0;
  for (;;) {
    at += rng.NextExponential(1e9 / kReaderQps);
    if (at >= seconds * 1e9) break;
    const uint64_t due = start + static_cast<uint64_t>(at);
    const PooledQuery& q = DrawPoint(pool, rng);
    SleepUntil(due);
    const uint64_t sent = NowNanos();
    auto r = client->Query(q.text);
    const uint64_t done = NowNanos();
    t->lag_ms.push_back(MsSince(due, std::max(due, sent)));
    if (t->Check(q, r)) {
      t->reads[static_cast<int>(q.cls)].Add(MsSince(due, done), done);
    }
  }
  client->Close();
}

/// Durable appends for stations [first_station, first_station + 75).
/// Open loop (period_ns > 0): the k-th batch is due at start + k * period and is
/// timed from its due time. Closed loop (period_ns == 0): back to back.
void Writer(const Served& s, const BikeSharingDataset& d, uint64_t seed,
            size_t first_station, uint64_t first_batch, uint64_t batches,
            uint64_t start, uint64_t period_ns, Tally* t,
            std::vector<uint64_t>* acked) {
  auto client = Connect(s);
  if (!client.ok()) {
    ++t->attempted;
    t->Fail(client.status());
    return;
  }
  for (uint64_t j = first_batch; j < first_batch + batches; ++j) {
    const auto batch = AppendBatch(d, s.stations, seed, first_station, j);
    uint64_t due = NowNanos();
    if (period_ns > 0) {
      due = start + (j - first_batch) * period_ns;
      SleepUntil(due);
      t->lag_ms.push_back(MsSince(due, std::max(due, NowNanos())));
    }
    ++t->attempted;
    const Status st = client->Append(batch);
    const uint64_t done = NowNanos();
    if (st.ok()) {
      acked->push_back(j);
      t->appends.Add(MsSince(due, done), done);
    } else {
      t->Fail(st);
    }
  }
  client->Close();
}

/// `n` texts of class `cls`, cycling through that class's pool.
std::vector<const PooledQuery*> ClassSequence(const QueryPool& pool,
                                              QueryClass cls, size_t n) {
  std::vector<const PooledQuery*> texts;
  for (const PooledQuery& q : pool.queries) {
    if (q.cls == cls) texts.push_back(&q);
  }
  std::vector<const PooledQuery*> seq;
  for (size_t i = 0; i < n && !texts.empty(); ++i) {
    seq.push_back(texts[i % texts.size()]);
  }
  return seq;
}

/// Closed loop on one connection through `seq`; latency per class.
void RunSequence(const Served& s, const std::vector<const PooledQuery*>& seq,
                 Tally* t) {
  auto client = Connect(s);
  if (!client.ok()) {
    ++t->attempted;
    t->Fail(client.status());
    return;
  }
  for (const PooledQuery* q : seq) {
    const uint64_t t0 = NowNanos();
    auto r = client->Query(q->text);
    const uint64_t t1 = NowNanos();
    if (t->Check(*q, r)) {
      t->reads[static_cast<int>(q->cls)].Add(MsSince(t0, t1), t1);
    }
  }
  client->Close();
}

// ---------------------------------------------------------------------------
// Reporting.

/// Windows a run's latency and rate figures are taken over: each is the
/// value of the best window (see BestWindowQuantile).
constexpr size_t kWindows = 5;

double Median(std::vector<double> v) { return Percentile(v, 0.5); }

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string basis;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& basis = "") {
    if (!std::isfinite(value)) value = 0;
    metrics_.push_back({name, value, unit, basis});
  }
  void AddRatio(const std::string& name, const Ratio& r,
                const std::string& unit = "ratio") {
    Add(name, r.value(), unit, r.Basis());
  }
  /// A figure printed beside the result but not part of it.
  void Note(const std::string& name, double value, const std::string& unit,
            const std::string& basis) {
    notes_.push_back({name, value, unit, basis + ", not gated"});
  }
  /// Notes the median and tail of `t` (milliseconds), each from the best
  /// window, with the sample count.
  void NoteLatency(const std::string& prefix, const Timed& t, double tail_q,
                  const char* tail_name) {
    const size_t n = t.ms.size();
    const std::string count =
        "n=" + std::to_string(n) + ", best of up to " +
        std::to_string(kWindows) + " windows";
    Note(prefix + "_p50_ms", BestWindowQuantile(t.ms, t.done, 0.5, kWindows),
         "ms", count);
    std::string basis = count;
    if (!PercentileSupported(n, tail_q)) {
      char buf[96];
      std::snprintf(buf, sizeof(buf),
                    " (UNSUPPORTED: %zu samples support p%g at most)", n,
                    HighestSupportedPercentile(n) * 100);
      basis += buf;
    }
    Note(prefix + "_" + tail_name + "_ms",
         BestWindowQuantile(t.ms, t.done, tail_q, kWindows), "ms", basis);
  }

  void Print(bool correct, uint64_t attempted, uint64_t failed) const {
    for (const Metric& m : metrics_) {
      std::printf("metric %-34s %16.6f %-6s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.basis.c_str());
    }
    for (const Metric& m : notes_) {
      std::printf("note   %-34s %16.6f %-6s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.basis.c_str());
    }
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", metrics_[i].value);
      if (i > 0) json += ", ";
      json += "\"" + metrics_[i].name + "\": {\"value\": " + buf +
              ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<Metric> notes_;
};

// ---------------------------------------------------------------------------
// Traced run: per-layer metrics.

/// One request replayed in-process through the calls the server's query
/// path makes (HgqlServer::HandleQuery, then EncodeResultFrame), each under
/// a span. Returns false on a wrong answer or error.
bool ReplayRequest(const DurableStore& store, const PooledQuery& q,
                   uint64_t request, SpanRecorder* rec) {
  const int64_t root = rec->Begin("request", -1, request);
  auto ast = rec->Around("query.parse", root, request,
                         [&] { return hygraph::query::Parse(q.text); });
  if (!ast.ok()) return false;
  auto plan = rec->Around("query.compile", root, request, [&] {
    return hygraph::query::CompileQuery(*ast, {});
  });
  if (!plan.ok()) return false;
  auto hold = rec->Around("storage.snapshot", root, request,
                          [&] { return store.BeginSnapshot(); });
  auto result = rec->Around("query.execute", root, request, [&] {
    hygraph::QueryContext ctx;
    return hygraph::query::RunPlan(*hold, *plan, nullptr, &ctx);
  });
  std::string why;
  if (!result.ok() || !AnswersIdentical(q.expected, *result, &why)) {
    return false;
  }
  hygraph::server::WireResponse resp;
  resp.has_table = true;
  resp.table = std::move(*result);
  const std::string frame = rec->Around("server.encode", root, request, [&] {
    return hygraph::server::EncodeResultFrame(resp);
  });
  rec->End(root);
  return !frame.empty();
}

struct ClassSpans {
  std::vector<double> parse_us, compile_us, snapshot_us, execute_us,
      encode_us, in_server_us;
};

template <typename Fn>
double MedianMicros(size_t reps, Fn&& fn) {
  std::vector<double> us;
  for (size_t i = 0; i < reps; ++i) {
    const uint64_t t0 = NowNanos();
    fn(i);
    us.push_back(static_cast<double>(NowNanos() - t0) / 1e3);
  }
  return Median(us);
}

/// Per-layer metrics that need the live server: the per-class wire
/// calibration, the traced and untraced in-process replays, the ts
/// micro-timings and PROFILE trees. Wrong answers land in `t`.
void TracedLayers(const Args& a, const Served& s, const BikeSharingDataset& d,
                  const QueryPool& pool, Report* rep, Tally* t) {
  // 1. Wire calibration per class: client RTT and the server's own
  //    request time (server.request_nanos deltas).
  double server_p50_us[kQueryClasses] = {};
  double rtt_p50_us[kQueryClasses] = {};
  Ratio wire_bytes[kQueryClasses];
  for (int c = 0; c < kQueryClasses; ++c) {
    const auto cls = static_cast<QueryClass>(c);
    const MetricsSnapshot before = s.server->MergedMetrics();
    Tally calib;
    RunSequence(s, ClassSequence(pool, cls, kTracePasses[c]), &calib);
    const MetricsSnapshot after = s.server->MergedMetrics();
    t->Merge(calib);
    server_p50_us[c] =
        static_cast<double>(
            HistogramDelta(after, before, "server.request_nanos")
                .Quantile(0.5)) /
        1e3;
    rtt_p50_us[c] = Median(calib.reads[c].ms) * 1e3;
    wire_bytes[c] = {
        static_cast<double>(CounterDelta(after, before, "server.bytes_written")),
        static_cast<double>(CounterDelta(after, before, "server.queries"))};
  }

  // 2. In-process replay of the same requests under spans.
  SpanRecorder rec(true);
  uint64_t request = 0;
  std::vector<const PooledQuery*> order;
  for (int c = 0; c < kQueryClasses; ++c) {
    const auto seq = ClassSequence(pool, QueryClass(c), kTracePasses[c]);
    order.insert(order.end(), seq.begin(), seq.end());
  }
  std::vector<double> traced_us;
  std::vector<double> untraced_us;
  double traced_s = 0;
  double untraced_s = 0;
  // Untraced, traced, untraced, traced: alternating halves keeps drift
  // from landing on one side.
  for (int round = 0; round < 4; ++round) {
    const bool traced = round % 2 == 1;
    SpanRecorder off(false);
    SpanRecorder* r = traced ? &rec : &off;
    const uint64_t begin = NowNanos();
    for (const PooledQuery* q : order) {
      const uint64_t t0 = NowNanos();
      ++t->attempted;
      if (!ReplayRequest(*s.store, *q, ++request, r)) {
        ++t->failed;
        ++t->wrong;
        if (t->first_error.empty()) t->first_error = "replay: " + q->text;
      }
      (traced ? traced_us : untraced_us)
          .push_back(static_cast<double>(NowNanos() - t0) / 1e3);
    }
    (traced ? traced_s : untraced_s) +=
        static_cast<double>(NowNanos() - begin) / 1e9;
  }

  // Fold spans into per-class child durations.
  ClassSpans per[kQueryClasses];
  {
    std::unordered_map<uint64_t, int> cls_of_request;
    uint64_t req = 0;
    for (int round = 0; round < 4; ++round) {
      for (const PooledQuery* q : order) {
        cls_of_request[++req] = static_cast<int>(q->cls);
      }
    }
    std::unordered_map<uint64_t, double> in_server;
    for (const Span& sp : rec.spans()) {
      if (sp.parent < 0) continue;
      ClassSpans& cs = per[cls_of_request[sp.request]];
      const double us = static_cast<double>(sp.duration()) / 1e3;
      const std::string name = sp.name;
      if (name == "query.parse") cs.parse_us.push_back(us);
      if (name == "query.compile") cs.compile_us.push_back(us);
      if (name == "storage.snapshot") cs.snapshot_us.push_back(us);
      if (name == "query.execute") cs.execute_us.push_back(us);
      if (name == "server.encode") {
        cs.encode_us.push_back(us);
      } else {
        in_server[sp.request] += us;
      }
    }
    for (const auto& [req_id, us] : in_server) {
      per[cls_of_request[req_id]].in_server_us.push_back(us);
    }
  }
  if (!a.spans_path.empty() && !rec.WriteJsonLines(a.spans_path)) {
    std::printf("warning: could not write spans to %s\n",
                a.spans_path.c_str());
  }

  const int point = static_cast<int>(QueryClass::kPoint);
  const int fanout = static_cast<int>(QueryClass::kFanout);
  rep->Add("server.rtt_overhead_us", rtt_p50_us[point] - server_p50_us[point],
           "us", "point: client RTT p50 minus server.request_nanos p50");
  rep->Add("server.request_p50_us", server_p50_us[point], "us",
           "point, server.request_nanos");
  rep->AddRatio("server.wire_bytes_per_query", wire_bytes[fanout], "B");
  rep->Add("server.encode_result_us", Median(per[fanout].encode_us), "us",
           "fanout, EncodeResultFrame");
  rep->Add("query.parse_us", Median(per[point].parse_us), "us", "point");
  rep->Add("query.compile_us", Median(per[point].compile_us), "us", "point");
  rep->Add("query.execute_point_us", Median(per[point].execute_us), "us",
           "RunPlan on a pinned view");
  rep->Add("query.execute_fanout_us", Median(per[fanout].execute_us), "us",
           "RunPlan on a pinned view");
  rep->Add("query.execute_corr_us",
           Median(per[static_cast<int>(QueryClass::kCorr)].execute_us), "us",
           "RunPlan on a pinned view");
  rep->Add("storage.snapshot_us", Median(per[point].snapshot_us), "us",
           "point, BeginSnapshot");
  for (int c = 0; c < kQueryClasses; ++c) {
    const double spans = Median(per[c].in_server_us);
    rep->Add(std::string("trace.coverage_") + ClassName(QueryClass(c)) +
                 "_pct",
             server_p50_us[c] > 0 ? 100.0 * spans / server_p50_us[c] : 0, "%",
             "median parse+compile+snapshot+execute spans / server p50 (" +
                 std::to_string(spans) + "/" +
                 std::to_string(server_p50_us[c]) + " us)");
  }
  const double med_traced = Median(traced_us);
  const double med_untraced = Median(untraced_us);
  rep->Add("trace.overhead_pct",
           med_untraced > 0 ? 100.0 * (med_traced - med_untraced) / med_untraced
                            : 0,
           "%",
           "replay p50 traced vs untraced (" + std::to_string(med_traced) +
               "/" + std::to_string(med_untraced) + " us)");
  rep->Add("trace.overhead_qps_pct",
           traced_s > 0 ? 100.0 * (1.0 - untraced_s / traced_s) : 0, "%",
           "replay throughput lost to tracing");

  // 3. ts micro-timings on a pinned view.
  auto view = s.store->BeginSnapshot();
  const Interval all{d.start(), d.end()};
  const size_t reps = std::min<size_t>(16, s.stations.size());
  rep->Add("ts.range_full_us", MedianMicros(reps, [&](size_t i) {
             (void)view->VertexSeriesRange(s.stations[i], "bikes", all);
           }),
           "us", "VertexSeriesRange, one station, full history");
  rep->Add("ts.aggregate_batch_us", MedianMicros(reps, [&](size_t) {
             (void)view->VertexSeriesAggregateBatch(
                 s.stations, "bikes", all, hygraph::ts::AggKind::kAvg);
           }),
           "us", "VertexSeriesAggregateBatch, all stations");
  rep->Add("ts.window_agg_us", MedianMicros(reps, [&](size_t i) {
             (void)view->VertexSeriesWindowAggregate(
                 s.stations[i], "bikes", all, hygraph::kDay,
                 hygraph::ts::AggKind::kAvg);
           }),
           "us", "VertexSeriesWindowAggregate, one station, daily");

  // 4. PROFILE trees: the operator and storage split inside execute.
  for (int c = 0; c < kQueryClasses; ++c) {
    for (const PooledQuery& q : pool.queries) {
      if (static_cast<int>(q.cls) != c) continue;
      auto profiled = hygraph::query::Profile(*view, q.text);
      if (profiled.ok()) {
        std::printf("profile Q%d (%s):\n%s\n", q.table1_id,
                    ClassName(q.cls), profiled->ToString().c_str());
      }
      break;
    }
  }
}

/// Per-layer metrics from counter deltas over the timed phase.
void CounterLayers(const MetricsSnapshot& before, const MetricsSnapshot& after,
                   double phase_s, bool ingest, Report* rep) {
  auto d = [&](const char* name) {
    return static_cast<double>(CounterDelta(after, before, name));
  };
  const double queries = d("server.queries");
  const double appended = d("server.samples_appended");
  const double cow =
      d("concurrency.series_cow_copies") + d("concurrency.topology_cow_copies");
  const double chunk_visits = d("hypertable.chunks_scanned") +
                              d("hypertable.chunks_from_cache") +
                              d("hypertable.chunks_zonemap_skipped");
  const double checkpoints = d("durable.checkpoints");
  const double cold_hits = d("coldtier.cache_hits");
  const double cold_misses = d("coldtier.cache_misses");

  rep->Add("query.count", queries, "count", "server.queries, timed phase");
  rep->AddRatio("server.shed_ratio",
                {d("server.requests_shed"), d("server.requests")});
  rep->AddRatio("server.commit_batch_mean",
                {d("server.commits"), d("server.commit_batches")}, "count");
  rep->AddRatio("query.memo_hit_ratio",
                {d("query.memo_hits"),
                 d("query.memo_hits") + d("query.memo_misses")});
  rep->AddRatio("query.points_per_row",
                {d("hypertable.samples_scanned"), d("query.rows")}, "count");
  rep->AddRatio("storage.cow_copies_per_append", {cow, appended}, "count");
  rep->Add("storage.cow_detaches", cow, "count",
           "series + topology copy-on-write copies");
  rep->Add("durable.checkpoint_p50_ms",
           static_cast<double>(
               HistogramDelta(after, before, "durable.checkpoint_nanos")
                   .Quantile(0.5)) /
               1e6,
           "ms");
  rep->Add("durable.checkpoints", checkpoints, "count");
  rep->AddRatio("durable.write_bytes_per_sample",
                {d("wal.bytes_appended") + d("hypertable.cold_bytes_spilled") +
                     d("serialize.bytes_saved"),
                 appended},
                "B");
  rep->Add("wal.appends", d("wal.appends"), "count");
  rep->AddRatio("wal.appends_per_sync", {d("wal.appends"), d("wal.syncs")},
                "count");
  rep->Add("wal.sync_p50_us",
           static_cast<double>(
               HistogramDelta(after, before, "wal.sync_nanos").Quantile(0.5)) /
               1e3,
           "us");
  rep->AddRatio("ts.chunks_decoded_per_query",
                {d("hypertable.chunks_decoded"), queries}, "count");
  rep->AddRatio("ts.samples_scanned_per_query",
                {d("hypertable.samples_scanned"), queries}, "count");
  rep->AddRatio("ts.chunk_agg_hit_ratio",
                {d("hypertable.chunks_from_cache"), chunk_visits});
  rep->AddRatio("ts.zonemap_skip_ratio",
                {d("hypertable.chunks_zonemap_skipped"), chunk_visits});
  rep->AddRatio("coldtier.hit_ratio", {cold_hits, cold_hits + cold_misses});
  rep->Add("coldtier.misses", cold_misses, "count");
  rep->AddRatio("coldtier.misses_per_query", {cold_misses, queries}, "count");
  rep->AddRatio("coldtier.evictions_per_s",
                {d("coldtier.cache_evictions"), phase_s}, "1/s");
  rep->AddRatio("coldtier.spill_bytes_per_checkpoint",
                {d("hypertable.cold_bytes_spilled"), checkpoints}, "B");
  rep->AddRatio("pool.morsels_per_query",
                {d("hypertable.morsels_dispatched"), queries}, "count");
  rep->AddRatio("pool.stolen_ratio", {d("hypertable.morsels_stolen"),
                                      d("hypertable.morsels_dispatched")});
  rep->AddRatio("pool.busy_ms_per_query",
                {d("concurrency.pool_busy_nanos") / 1e6, queries}, "ms");
  rep->AddRatio("sync.contentions_per_query",
                {d("concurrency.lock_contentions"), queries}, "count");
  rep->Add("sync.contention_p99_us",
           static_cast<double>(
               HistogramDelta(after, before, "concurrency.lock_contention_nanos")
                   .Quantile(0.99)) /
               1e3,
           "us");
  rep->AddRatio("sync.shared_locks_per_query",
                {d("concurrency.lock_shared"), queries}, "count");

  // Proof that the timed phase exercised (or bypassed) the layers its
  // workload is meant to: reported, not enforced.
  const double wal_appends = d("wal.appends");
  if (ingest) {
    std::printf("layer check: checkpoints=%.0f (>0 %s), cold misses=%.0f "
                "(>0 %s), COW detaches=%.0f (>0 %s)\n",
                checkpoints, checkpoints > 0 ? "ok" : "NOT MET", cold_misses,
                cold_misses > 0 ? "ok" : "NOT MET", cow,
                cow > 0 ? "ok" : "NOT MET");
  } else {
    const Ratio hit{cold_hits, cold_hits + cold_misses};
    std::printf("layer check: WAL appends=%.0f (=0 %s), coldtier.hit_ratio="
                "%.6f over %s (=1 %s)\n",
                wal_appends, wal_appends == 0 ? "ok" : "NOT MET",
                hit.value(), hit.Basis().c_str(),
                cold_misses == 0 && cold_hits > 0 ? "ok" : "NOT MET");
  }
}

// ---------------------------------------------------------------------------
// The run.

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

void StopServed(Served* s) {
  if (s->server != nullptr) s->server->Stop();
  s->server.reset();
  s->store.reset();
}

int Run(const Args& a) {
  const WorkloadSpec* w = FindWorkload(a.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  const char* threads_env = std::getenv("HYGRAPH_THREADS");
  std::printf(
      "env: nproc=%u compiler=\"%s\" build_type=%s git_describe=%s "
      "HYGRAPH_THREADS=%s\n",
      std::thread::hardware_concurrency(), HGBENCH_COMPILER,
      HGBENCH_BUILD_TYPE, a.git_describe.c_str(),
      threads_env != nullptr ? threads_env : "(unset)");
  std::printf("workload: %s seed=%llu seconds=%g trace=%d\n", w->name,
              static_cast<unsigned long long>(a.seed), a.seconds,
              a.trace ? 1 : 0);

  std::error_code ec;
  fs::remove_all(a.workdir, ec);
  fs::create_directories(a.workdir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", a.workdir.c_str(),
                 ec.message().c_str());
    return 2;
  }

  // Inputs and the answer oracle (untimed).
  auto dataset =
      hygraph::workloads::GenerateBikeSharing(DatasetConfig(a.seed));
  if (!dataset.ok()) {
    std::fprintf(stderr, "generate: %s\n",
                 dataset.status().ToString().c_str());
    return 2;
  }
  QueryPool pool = BuildQueryPool(*dataset, a.seed);
  std::vector<QueryResult> oracle;
  {
    const uint64_t t0 = NowNanos();
    hygraph::storage::AllInGraphStore all_in_graph;
    if (!hygraph::workloads::LoadIntoBackend(*dataset, &all_in_graph).ok()) {
      std::fprintf(stderr, "oracle load failed\n");
      return 2;
    }
    for (const PooledQuery& q : pool.queries) {
      auto r = hygraph::query::Execute(all_in_graph, q.text);
      if (!r.ok()) {
        std::fprintf(stderr, "oracle Q%d failed: %s\n", q.table1_id,
                     r.status().ToString().c_str());
        return 2;
      }
      oracle.push_back(std::move(*r));
    }
    std::printf("oracle: %zu query texts answered by the all-in-graph "
                "engine in %.1f s\n",
                pool.queries.size(), MsSince(t0, NowNanos()) / 1e3);
  }
  uint64_t dataset_samples = 0;
  for (const auto& st : dataset->stations) dataset_samples += st.bikes.size();
  for (const auto& tr : dataset->trips) {
    dataset_samples += tr.daily_trips.size();
  }

  // Set-up, repeated; the last one is served.
  std::vector<double> setup_s;
  Served served;
  for (size_t k = 0; k < kSetupRepeats; ++k) {
    const std::string dir = a.workdir + "/store" + std::to_string(k);
    Served s;
    const uint64_t t0 = NowNanos();
    const Status st = SetUp(a, *w, dir, &s);
    setup_s.push_back(MsSince(t0, NowNanos()) / 1e3);
    if (!st.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
      StopServed(&s);
      return 2;
    }
    if (k + 1 < kSetupRepeats) {
      StopServed(&s);
      fs::remove_all(dir, ec);
    } else {
      served = std::move(s);
    }
  }

  // The served engine's answers, cross-checked against the oracle once.
  {
    auto view = served.store->BeginSnapshot();
    for (size_t i = 0; i < pool.queries.size(); ++i) {
      PooledQuery& q = pool.queries[i];
      auto r = hygraph::query::Execute(*view, q.text);
      std::string why;
      if (!r.ok() || !AnswersAgree(oracle[i], *r, &why)) {
        std::fprintf(stderr, "Q%d: served engine disagrees with the oracle: "
                     "%s\n  %s\n", q.table1_id,
                     r.ok() ? why.c_str() : r.status().ToString().c_str(),
                     q.text.c_str());
        StopServed(&served);
        return 1;
      }
      q.expected = std::move(*r);
    }
  }

  Tally total;
  // Warm-up over the wire: every text once (fills the cold-tier cache).
  {
    Tally warm;
    std::vector<const PooledQuery*> all;
    for (const PooledQuery& q : pool.queries) all.push_back(&q);
    RunSequence(served, all, &warm);
    if (warm.failed != 0) {
      std::fprintf(stderr, "warm-up: %s\n", warm.first_error.c_str());
      StopServed(&served);
      return 1;
    }
  }

  // Timed phase.
  Tally phase;
  // Per writer: first station, batches sent in the timed phase and the
  // batches acknowledged. The read workloads write only the closing batch.
  const size_t writers = w->ingest ? kWriters : 1;
  std::vector<size_t> writer_first_station(writers);
  std::vector<uint64_t> writer_batches(writers);
  std::vector<std::vector<uint64_t>> acked(writers);
  const MetricsSnapshot before = served.server->MergedMetrics();
  const uint64_t start = NowNanos() + 2000000;  // let every thread connect
  {
    std::vector<Tally> tallies(w->ingest ? kWriters + 1
                                         : w->table1_connections);
    std::vector<std::thread> threads;
    if (w->ingest) {
      const uint64_t batches =
          static_cast<uint64_t>(kWriterBatchesPerSecond * a.seconds);
      const uint64_t period =
          static_cast<uint64_t>(1e9 / kWriterBatchesPerSecond);
      for (size_t k = 0; k < kWriters; ++k) {
        writer_first_station[k] = k * kBatchStations;
        writer_batches[k] = batches;
        threads.emplace_back([&, k, batches, period] {
          Writer(served, *dataset, a.seed, writer_first_station[k], 0,
                 batches, start, period, &tallies[k], &acked[k]);
        });
      }
      threads.emplace_back([&] {
        PoissonReader(served, pool, a.seed, start, a.seconds,
                      &tallies[kWriters]);
      });
    } else {
      const uint64_t deadline =
          start + static_cast<uint64_t>(a.seconds * 1e9);
      for (size_t k = 0; k < w->table1_connections; ++k) {
        threads.emplace_back([&, k, deadline] {
          SleepUntil(start);
          Table1Connection(served, pool, a.seed, k, deadline, &tallies[k]);
        });
      }
    }
    for (std::thread& th : threads) th.join();
    for (const Tally& t : tallies) phase.Merge(t);
  }
  const double phase_s = MsSince(start, NowNanos()) / 1e3;
  const MetricsSnapshot after = served.server->MergedMetrics();
  total.Merge(phase);

  Report rep;
  if (a.trace) {
    Tally traced;
    TracedLayers(a, served, *dataset, pool, &rep, &traced);
    total.Merge(traced);
    CounterLayers(before, after, phase_s, w->ingest, &rep);
    std::vector<double> lag = phase.lag_ms;
    rep.Add("loadgen.lag_p99_ms", Percentile(lag, 0.99), "ms",
            w->ingest ? "n=" + std::to_string(lag.size())
                      : "closed loop: no schedule");
  }

  // Durability close. One more acknowledged batch per writer first, so
  // recovery always has a WAL tail to replay (an automatic checkpoint can
  // land exactly on the last record of the timed phase). Then stop, drop
  // the store without a checkpoint, reopen and verify.
  for (size_t k = 0; k < acked.size(); ++k) {
    Tally tail;
    Writer(served, *dataset, a.seed, writer_first_station[k],
           writer_batches[k], 1, 0, 0, &tail, &acked[k]);
    total.Merge(tail);
  }
  StopServed(&served);
  const double disk_bytes = static_cast<double>(DirBytes(served.dir));
  uint64_t appended_acked = 0;
  for (const auto& v : acked) appended_acked += v.size() * kBatchStations;
  // Open() starts a fresh WAL epoch, so each timed reopen gets its own
  // copy of the dropped directory; the first copy is the one verified.
  std::vector<double> reopen_ms;
  std::unique_ptr<DurableStore> reopened;
  Status open_status;
  for (size_t k = 0; k < kReopens && open_status.ok(); ++k) {
    const std::string copy = a.workdir + "/reopen" + std::to_string(k);
    fs::copy(served.dir, copy, fs::copy_options::recursive, ec);
    if (ec) {
      open_status = Status::IOError("copy for reopen: " + ec.message());
      break;
    }
    const uint64_t t_open = NowNanos();
    auto store = NewStore(*w, copy);
    open_status = store->Open();
    reopen_ms.push_back(MsSince(t_open, NowNanos()));
    if (k == 0) reopened = std::move(store);
  }
  uint64_t lost = 0;
  uint64_t wrong_after_reopen = 0;
  if (!open_status.ok()) {
    std::fprintf(stderr, "reopen failed: %s\n",
                 open_status.ToString().c_str());
    lost = appended_acked + 1;
  } else {
    const auto step = dataset->config.sample_interval;
    for (size_t k = 0; k < acked.size(); ++k) {
      if (acked[k].empty()) continue;
      const uint64_t last = *std::max_element(acked[k].begin(), acked[k].end());
      const Interval span{dataset->end(),
                          dataset->end() + static_cast<hygraph::Timestamp>(
                                               last + 1) * step};
      for (size_t st = writer_first_station[k];
           st < writer_first_station[k] + kBatchStations; ++st) {
        auto series =
            reopened->VertexSeriesRange(served.stations[st], "bikes", span);
        std::unordered_map<hygraph::Timestamp, double> got;
        if (series.ok()) {
          for (const auto& sample : series->samples()) {
            got[sample.t] = sample.value;
          }
        }
        for (uint64_t j : acked[k]) {
          const auto it =
              got.find(dataset->end() + static_cast<hygraph::Timestamp>(j) * step);
          if (it == got.end() || it->second != AppendedValue(a.seed, st, j)) {
            ++lost;
          }
        }
      }
    }
    auto view = reopened->BeginSnapshot();
    for (const PooledQuery& q : pool.queries) {
      auto r = hygraph::query::Execute(*view, q.text);
      std::string why;
      if (!r.ok() || !AnswersIdentical(q.expected, *r, &why)) {
        ++wrong_after_reopen;
        std::fprintf(stderr, "after reopen Q%d: %s\n", q.table1_id,
                     r.ok() ? why.c_str() : r.status().ToString().c_str());
      }
    }
  }
  const hygraph::storage::RecoveryStats recovery =
      reopened != nullptr ? reopened->recovery()
                          : hygraph::storage::RecoveryStats{};
  reopened.reset();
  fs::remove_all(a.workdir, ec);

  total.attempted += pool.queries.size();
  total.failed += wrong_after_reopen;
  total.wrong += wrong_after_reopen;
  total.failed += lost;
  std::printf("durability: %llu acknowledged samples, %llu lost; %llu of "
              "%zu answers wrong after reopen; WAL records replayed %zu\n",
              static_cast<unsigned long long>(appended_acked),
              static_cast<unsigned long long>(lost),
              static_cast<unsigned long long>(wrong_after_reopen),
              pool.queries.size(), recovery.wal_records_replayed);
  std::printf("operations: %llu attempted, %llu failed (%llu shed, %llu "
              "wrong answers, %llu lost samples)\n",
              static_cast<unsigned long long>(total.attempted),
              static_cast<unsigned long long>(total.failed),
              static_cast<unsigned long long>(total.shed),
              static_cast<unsigned long long>(total.wrong),
              static_cast<unsigned long long>(lost));
  if (!total.first_error.empty()) {
    std::printf("first error: %s\n", total.first_error.c_str());
  }

  if (a.trace) {
    rep.Add("recovery.wal_records_replayed",
            static_cast<double>(recovery.wal_records_replayed), "count");
    rep.Add("recovery.cold_chunks_adopted",
            static_cast<double>(recovery.cold_chunks_adopted), "count");
  } else {
    rep.Add("setup_s", Median(setup_s), "s",
            "median of " + std::to_string(setup_s.size()) + " set-ups");
    std::vector<uint64_t> read_done;
    for (const Timed& r : phase.reads) {
      read_done.insert(read_done.end(), r.done.begin(), r.done.end());
    }
    rep.Note("read_qps",
             BestWindowRate(read_done, start,
                            static_cast<uint64_t>(a.seconds * 1e9), kWindows),
             "1/s",
             "best of " + std::to_string(kWindows) + " windows; " +
                 std::to_string(phase.reads_ok) + " reads in " +
                 std::to_string(phase_s) + " s");
    rep.NoteLatency("point", phase.reads[static_cast<int>(QueryClass::kPoint)],
                   0.99, "p99");
    if (w->ingest) {
      rep.NoteLatency("append", phase.appends, 0.99, "p99");
    } else {
      rep.NoteLatency("fanout",
                     phase.reads[static_cast<int>(QueryClass::kFanout)], 0.99,
                     "p99");
      rep.NoteLatency("corr", phase.reads[static_cast<int>(QueryClass::kCorr)],
                     0.9, "p90");
    }
    rep.AddRatio("disk_bytes_per_sample",
                 {disk_bytes,
                  static_cast<double>(dataset_samples + appended_acked)},
                 "B");
    rep.Note("reopen_ms",
             reopen_ms.empty()
                 ? 0
                 : *std::min_element(reopen_ms.begin(), reopen_ms.end()),
             "ms",
             "fastest of " + std::to_string(reopen_ms.size()) + " reopens, " +
                 std::to_string(recovery.wal_records_replayed) +
                 " WAL records replayed");
    rep.AddRatio("op_success_ratio",
                 {static_cast<double>(total.attempted - total.failed),
                  static_cast<double>(total.attempted)});
  }
  const bool correct = total.wrong == 0 && lost == 0;
  rep.Print(correct, total.attempted, total.failed);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace hgbench

int main(int argc, char** argv) {
  hgbench::Args args;
  if (!hgbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: hgbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --workdir <dir> [--spans <file>] "
                 "[--git-describe <rev>]\n");
    return 2;
  }
  return hgbench::Run(args);
}
