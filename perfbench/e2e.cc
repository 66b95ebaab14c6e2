// End-to-end benchmark of the durable SBF stack, driven the way an
// application that embeds libsbf as a crash-safe frequency counter drives
// it: DurableSbf (io/durable_store) over ConcurrentSbf (core/concurrent_sbf,
// core/delta_buffer) over the counter backings (sai).
//
//   sbf_e2e --workload <ingest|query|reopen> --seed <n>
//           --seconds <s> --trace <0|1> --store-root <dir> [--spans <file>]
//
// Every client thread runs a closed loop of 64-key batches (the next batch
// is issued only after the previous one returns), except the paced writer
// of `query`, which issues one batch per millisecond and is timed from the
// moment each batch was due. All inputs -- key streams, probe samples and
// their exact counts -- are generated from --seed before timing starts.
// The amount of work is fixed by --seconds (calibrated rates below), not
// by the clock, so the filter's final state and therefore the accuracy
// metrics depend only on the seed.
//
// Every workload reports the same metrics. Each has one primary call --
// InsertBatch for ingest, EstimateBatch for query, Open for reopen -- whose
// rate and median latency are `ops_per_s` and `op_p50_us`; the other
// timings are printed as `info` lines and left out of the result.
//
// With --trace 0 the run prints the end-to-end metrics. With --trace 1 it
// runs the same phase untraced and then traced on a fresh store, each with
// half of --seconds' work so that the run measures --seconds in all, and
// prints the per-layer metrics plus the traced/untraced ratio of the
// end-to-end timings (the tracing overhead). Spans are recorded only here,
// around calls into each layer's public entry points: the top call is
// timed, then its inputs are replayed through the lower layers, each in a
// child span. A span's self time is its duration minus its children's
// durations, so a top call's self time is what its layers do not explain.
// After its timed phase every traced workload also checkpoints, probes and
// reopens its store, so each reports every layer.
//
// Correctness is checked in the run itself: every InsertBatch status, the
// one-sided guarantee Estimate >= exact count on every sampled probe after
// the writers are joined, and every reopen's verdict and estimates against
// a reference taken before the reopens. A failed check is counted in
// `failed` and makes the process exit non-zero. The last stdout line is one
// JSON object {"correct", "attempted", "failed", "metrics"}.

#include <sched.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <latch>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/bench_json.h"
#include "core/concurrent_sbf.h"
#include "io/delta_log.h"
#include "io/durable_store.h"
#include "io/wire.h"
#include "sai/compact_counter_vector.h"
#include "util/metrics.h"
#include "util/random.h"
#include "workload/zipf.h"

namespace {

namespace fs = std::filesystem;
using sbf::ConcurrentSbf;
using sbf::DurableOptions;
using sbf::DurableSbf;

constexpr size_t kBatch = 64;
constexpr double kZipfSkew = 1.1;

// Work per second of --seconds, calibrated on a 4-CPU x86-64 host so that a
// run lasts about --seconds there. Fixing the work (not the duration) keeps
// the filter's final state, and so E_ratio/E_add, a function of the seed.
constexpr double kIngestKeysPerSecond = 800000;
constexpr int kQueryPacedBatchesPerSecond = 1000;
constexpr double kReopensPerSecond = 10;

// An untraced run sets up at least kMinSetups times and until kSetupBudgetS
// seconds of set-up have run (at most kMaxSetups times); setup_s is the
// median.
constexpr size_t kMinSetups = 3;
constexpr size_t kMaxSetups = 25;
constexpr double kSetupBudgetS = 3.0;
// Readers trace one batch in this many (writers trace every batch).
constexpr uint64_t kReaderTraceEvery = 16;
// A traced write replay syncs its shadow log every this many batches.
constexpr uint64_t kShadowSyncEvery = 16;
// After a traced phase: explicit checkpoints, then reopens, each timed.
constexpr size_t kTracedCheckpoints = 3;
constexpr size_t kTracedReopens = 3;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// A step the run depends on failed (building a store, a checkpoint, a
// shadow replay): the run stops and prints no result.
struct RunError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void Check(const sbf::Status& status, const std::string& what) {
  if (!status.ok()) throw RunError(what + ": " + status.message());
}

template <typename T>
T Take(sbf::StatusOr<T> result, const std::string& what) {
  if (!result.ok()) throw RunError(what + ": " + result.status().message());
  return std::move(result).value();
}

// --- inputs ----------------------------------------------------------------

// Bijective id -> key scramble, so distinct ids are distinct keys and exact
// counts can be kept per id.
uint64_t KeyOf(uint64_t id, uint64_t salt) {
  uint64_t state = id ^ salt;
  return sbf::SplitMix64(state);
}

std::vector<uint64_t> ZipfIds(const sbf::ZipfDistribution& zipf, size_t n,
                              sbf::Xoshiro256& rng) {
  std::vector<uint64_t> ids(n);
  for (uint64_t& id : ids) id = zipf.Sample(rng) - 1;
  return ids;
}

std::vector<uint64_t> UniformIds(uint64_t domain, size_t n,
                                 sbf::Xoshiro256& rng) {
  std::vector<uint64_t> ids(n);
  for (uint64_t& id : ids) id = rng.UniformInt(domain);
  return ids;
}

std::vector<uint64_t> Keys(const std::vector<uint64_t>& ids, uint64_t salt) {
  std::vector<uint64_t> keys(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) keys[i] = KeyOf(ids[i], salt);
  return keys;
}

void CountIds(const std::vector<uint64_t>& ids, std::vector<uint32_t>& counts) {
  for (const uint64_t id : ids) ++counts[id];
}

size_t RoundToBatch(double n) {
  return std::max<size_t>(kBatch, static_cast<size_t>(n) / kBatch * kBatch);
}

// --- store directories -----------------------------------------------------

// A store directory under the run's temp root, removed on destruction
// (which also runs when a RunError unwinds the stack).
class StoreDir {
 public:
  StoreDir(const std::string& root, const std::string& name) {
    std::string tmpl = root + "/" + name + "-XXXXXX";
    if (::mkdtemp(tmpl.data()) == nullptr) {
      throw RunError("cannot create store directory under " + root);
    }
    path_ = tmpl;
  }
  ~StoreDir() {
    std::error_code ignored;
    fs::remove_all(path_, ignored);
  }
  StoreDir(const StoreDir&) = delete;
  StoreDir& operator=(const StoreDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// --- spans -----------------------------------------------------------------

constexpr uint32_t kNoParent = UINT32_MAX;

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  uint32_t parent;  // index in the same thread's buffer, or kNoParent
  uint64_t op;      // spans of one operation share it
  uint64_t units;   // keys or bytes the span processed (0 if neither)
};

// One thread's spans, kept in memory until the run ends.
class SpanBuffer {
 public:
  explicit SpanBuffer(size_t reserve) { spans_.reserve(reserve); }

  uint32_t Open(const char* name, uint32_t parent, uint64_t op) {
    spans_.push_back(Span{name, NowNs(), 0, parent, op, 0});
    return static_cast<uint32_t>(spans_.size() - 1);
  }
  void Close(uint32_t id, uint64_t units = 0) {
    spans_[id].end_ns = NowNs();
    spans_[id].units = units;
  }
  // A span whose timestamps were taken by the caller (the top call, whose
  // timing is also the end-to-end latency sample).
  uint32_t Add(const char* name, int64_t start_ns, int64_t end_ns,
               uint64_t op, uint64_t units) {
    spans_.push_back(Span{name, start_ns, end_ns, kNoParent, op, units});
    return static_cast<uint32_t>(spans_.size() - 1);
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

struct SpanStats {
  std::vector<double> dur_ns;
  std::vector<double> self_ns;
  double total_ns = 0.0;
  uint64_t units = 0;
};

using SpanSummary = std::map<std::string, SpanStats>;

void Summarize(const SpanBuffer& buffer, SpanSummary& summary) {
  const std::vector<Span>& spans = buffer.spans();
  std::vector<double> child_ns(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent != kNoParent) {
      child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const double dur = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    SpanStats& stats = summary[spans[i].name];
    stats.dur_ns.push_back(dur);
    stats.self_ns.push_back(dur - child_ns[i]);
    stats.total_ns += dur;
    stats.units += spans[i].units;
  }
}

// One line per span; `thread` indexes the buffer, `parent` is the parent's
// `id` within it (-1 for a root).
void WriteSpans(const std::string& path,
                const std::vector<std::unique_ptr<SpanBuffer>>& buffers) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
    return;
  }
  out << "thread\tid\tparent\top\tname\tstart_ns\tend_ns\tunits\n";
  for (size_t t = 0; t < buffers.size(); ++t) {
    const std::vector<Span>& spans = buffers[t]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << t << '\t' << i << '\t'
          << (s.parent == kNoParent ? -1 : static_cast<int64_t>(s.parent))
          << '\t' << s.op << '\t' << s.name << '\t' << s.start_ns << '\t'
          << s.end_ns << '\t' << s.units << '\n';
    }
  }
}

// --- statistics --------------------------------------------------------------

// Nearest-rank percentile, q in (0, 1]; NaN (a failed metric) when empty.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return NAN;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

// Samples strictly above the q-th percentile's rank.
size_t SamplesBeyond(size_t n, double q) {
  return n - static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
}

// --- report ----------------------------------------------------------------

// Metrics of one run. A metric added with `in_result` false is printed for
// reading but left out of the result line: it is a figure of a call other
// than the workload's primary one, or it does not repeat from run to run on
// the reference host within the bound a regression gate would need.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "", bool in_result = true) {
    if (!std::isfinite(value)) {
      Fail("metric " + name + " is not finite");
      return;
    }
    metrics_.push_back({name, value, unit, note, in_result});
  }
  // A timing's median and tail, printed only (the result carries the
  // primary call's median as op_p50_us). The tail is the highest percentile
  // with at least ten samples beyond it, so a run with fewer samples is a
  // failure. On the reference host no tail repeated within a tenth across
  // seeds.
  void AddTiming(const std::string& p50_name, const std::string& tail_name,
                 double tail_q, const std::vector<double>& samples,
                 const std::string& unit) {
    const std::string note = "n=" + std::to_string(samples.size());
    Add(p50_name, Percentile(samples, 0.5), unit, note, false);
    if (SamplesBeyond(samples.size(), tail_q) < 10) {
      Fail(tail_name + ": " + note + " leaves fewer than 10 samples beyond it");
      return;
    }
    Add(tail_name, Percentile(samples, tail_q), unit, note, false);
  }
  void Attempt(uint64_t n) { attempted_ += n; }
  // Counts another phase's ops and failures toward this report's verdict.
  void Absorb(const Report& other) {
    attempted_ += other.attempted_;
    failed_ += other.failed_;
    for (const std::string& f : other.failures_) {
      if (failures_.size() < 20) failures_.push_back(f);
    }
  }
  void Fail(const std::string& why, uint64_t n = 1) {
    failed_ += n;
    if (failures_.size() < 20) failures_.push_back(why);
  }
  // Adds `attempted` ops of which `failed` failed, with the first reason.
  void Ops(uint64_t attempted, uint64_t failed, const std::string& why) {
    attempted_ += attempted;
    if (failed > 0) Fail(why, failed);
  }

  bool correct() const { return failed_ == 0; }

  // Human-readable lines, then the context, then the result line (last).
  void Print(const std::string& context_json) const {
    for (const Metric& m : metrics_) {
      std::printf("%-6s %-44s %16s %-8s %s\n", m.in_result ? "metric" : "info",
                  m.name.c_str(), Num(m.value).c_str(), m.unit.c_str(),
                  m.note.c_str());
    }
    const double failed_ratio =
        attempted_ > 0 ? static_cast<double>(failed_) /
                             static_cast<double>(attempted_)
                       : 0.0;
    std::printf("metric %-44s %16s %-8s failed=%llu attempted=%llu\n",
                "failed_op_ratio", Num(failed_ratio).c_str(), "ratio",
                static_cast<unsigned long long>(failed_),
                static_cast<unsigned long long>(attempted_));
    for (const std::string& f : failures_) {
      std::printf("FAILED: %s\n", f.c_str());
    }
    std::printf("{\"context\": %s}\n", context_json.c_str());
    std::string line = "{\"correct\": ";
    line += correct() ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(std::max<uint64_t>(attempted_, 1));
    line += ", \"failed\": " + std::to_string(failed_);
    line += ", \"metrics\": {";
    bool first = true;
    for (const Metric& m : metrics_) {
      if (!m.in_result) continue;
      if (!first) line += ", ";
      first = false;
      line += "\"" + m.name + "\": {\"value\": " + Num(m.value) +
              ", \"unit\": \"" + m.unit + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
  }

  double Value(const std::string& name) const {
    for (const Metric& m : metrics_) {
      if (m.name == name) return m.value;
    }
    return NAN;
  }

  static std::string Num(double v) {
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, r.ptr);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::string note;
    bool in_result;
  };
  std::vector<Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

double PeakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const uintmax_t size = fs::file_size(path, ec);
  if (ec) throw RunError("cannot stat " + path);
  return size;
}

// --- the mixed read/write phase ---------------------------------------------

// Everything a workload's timed phase needs, generated before timing.
struct Inputs {
  // The primary call whose rate and median latency go into the result:
  // the writers' InsertBatch, or the readers' EstimateBatch.
  bool reads_are_primary = false;
  DurableOptions options;
  // Set-up inserts: each key of preload[c] is inserted c times.
  std::map<uint64_t, std::vector<uint64_t>> preload;
  std::vector<std::vector<uint64_t>> writers;   // one closed-loop stream each
  std::vector<uint64_t> paced;                  // the open-loop writer stream
  std::vector<uint64_t> read_probes;            // cycled by the readers
  uint32_t readers = 0;
  // Accuracy sample: keys and their exact counts over everything written.
  std::vector<uint64_t> check_keys;
  std::vector<uint64_t> check_truth;
};

// Per-call latencies of one loop in bounded memory, so that a faster run
// does not use more (rss_peak_mb would then measure the benchmark): when
// the buffer is full every other sample is dropped and from then on only
// every other call is recorded. What is kept is an even sample of all calls.
class LatencySamples {
 public:
  static constexpr size_t kMax = 1 << 20;

  LatencySamples() { us_.reserve(kMax); }
  void Add(double us) {
    const uint64_t call = calls_++;
    if (call % stride_ != 0) return;
    if (us_.size() == kMax) {
      for (size_t i = 0; i < kMax / 2; ++i) us_[i] = us_[2 * i];
      us_.resize(kMax / 2);
      stride_ *= 2;
      if (call % stride_ != 0) return;
    }
    us_.push_back(us);
  }
  const std::vector<double>& us() const { return us_; }

 private:
  std::vector<double> us_;
  uint64_t calls_ = 0;
  uint64_t stride_ = 1;
};

struct Loop {
  LatencySamples lat;
  uint64_t ops = 0;
  uint64_t keys = 0;
  uint64_t failed = 0;
  std::string first_error;
  std::string shadow_error;  // a failed replay invalidates the trace
};

struct MixResult {
  std::vector<Loop> writers;  // closed-loop writers, then the paced writer
  std::vector<Loop> readers;
  double seconds = 0.0;       // first batch issued -> last writer done
  double paced_late_max_us = 0.0;
};

// The lower layers the traced run replays writes into: a shadow
// ConcurrentSbf with the store's options and one shadow log per writer.
struct Shadow {
  explicit Shadow(const sbf::ConcurrentSbfOptions& o) : filter(o) {}
  ConcurrentSbf filter;
  std::string log_dir;
};

struct Store {
  std::unique_ptr<StoreDir> dir;
  std::unique_ptr<DurableSbf> store;
  double setup_seconds = 0.0;
  uint64_t header_bytes = 0;
};

Store SetUp(const std::string& root, const Inputs& in) {
  Store s;
  s.dir = std::make_unique<StoreDir>(root, "store");
  const int64_t t0 = NowNs();
  s.store = Take(DurableSbf::Open(s.dir->path(), in.options), "open fresh store");
  s.header_bytes = s.store->Stats().wal_bytes;
  constexpr size_t kPreloadBatch = 4096;
  for (const auto& [count, keys] : in.preload) {
    for (size_t i = 0; i < keys.size(); i += kPreloadBatch) {
      const size_t n = std::min(kPreloadBatch, keys.size() - i);
      Check(s.store->InsertBatch(keys.data() + i, n, count), "preload");
    }
  }
  if (!in.preload.empty()) Check(s.store->SyncLog(), "preload sync");
  s.setup_seconds = static_cast<double>(NowNs() - t0) * 1e-9;
  if (s.store->Stats().recovery != sbf::RecoveryVerdict::kFreshStart) {
    throw RunError("fresh store did not start fresh");
  }
  return s;
}

bool MoreSetups(const std::vector<double>& times) {
  double total = 0.0;
  for (const double t : times) total += t;
  return times.size() < kMinSetups ||
         (times.size() < kMaxSetups && total < kSetupBudgetS);
}

std::string SetupNote(const std::vector<double>& times) {
  return "median of " + std::to_string(times.size());
}

// Sets up stores until MoreSetups() is satisfied and keeps the last one.
Store SetUpRepeated(const std::string& root, const Inputs& in,
                    std::vector<double>& times) {
  Store kept;
  while (MoreSetups(times)) {
    kept = Store{};  // release the previous store before building the next
    kept = SetUp(root, in);
    times.push_back(kept.setup_seconds);
  }
  return kept;
}

// A shadow log for one writer's replays, in the shadow's own directory.
sbf::io::DeltaLogWriter ShadowLog(const Shadow& shadow, const std::string& name) {
  return Take(sbf::io::DeltaLogWriter::Create(
                  shadow.log_dir + "/wal-shadow-" + name + ".log", 0, {}, false),
              "create shadow log");
}

// Replays one InsertBatch, whose top span is `top`, through the layers
// under it: the shadow filter, the WAL encoder and its CRC, and the shadow
// log (synced every kShadowSyncEvery batches).
void ReplayWrite(const uint64_t* keys, size_t n, uint64_t op, uint32_t top,
                 SpanBuffer& spans, Shadow& shadow,
                 sbf::io::DeltaLogWriter& log, Loop& loop) {
  uint32_t id = spans.Open("core.concurrent_sbf.insert_batch", top, op);
  shadow.filter.InsertBatch(keys, n);
  spans.Close(id, n);
  id = spans.Open("io.delta_log.encode", top, op);
  const std::vector<uint8_t> frame =
      sbf::io::EncodeWalDeltaBatch(op + 1, false, 1, keys, n);
  spans.Close(id, n);
  const uint32_t crc = spans.Open("io.wire.crc", id, op);
  volatile uint32_t sink = sbf::wire::Crc32c(frame);
  (void)sink;
  spans.Close(crc, frame.size());
  id = spans.Open("io.delta_log.append", top, op);
  sbf::Status replay = log.Append(frame);
  spans.Close(id, frame.size());
  if (op % kShadowSyncEvery == 0 && replay.ok()) {
    id = spans.Open("io.delta_log.sync", top, op);
    replay = log.Sync();
    spans.Close(id);
  }
  if (!replay.ok() && loop.shadow_error.empty()) {
    loop.shadow_error = replay.message();
  }
  // An explicit epoch boundary now and then, timed on the shadow.
  if (op % 1024 == 1023) {
    id = spans.Open("core.delta_buffer.flush", kNoParent, op);
    shadow.filter.Flush();
    spans.Close(id);
  }
}

void CountWrite(const sbf::Status& status, size_t n, Loop& loop) {
  ++loop.ops;
  if (status.ok()) {
    loop.keys += n;
  } else if (loop.failed++ == 0) {
    loop.first_error = status.message();
  }
}

MixResult RunMix(DurableSbf& store, const Inputs& in, Shadow* shadow,
                 std::vector<std::unique_ptr<SpanBuffer>>& buffers) {
  const bool traced = shadow != nullptr;
  const size_t num_writers = in.writers.size() + (in.paced.empty() ? 0 : 1);
  const size_t threads = num_writers + in.readers;
  MixResult r;
  r.writers.resize(num_writers);
  r.readers.resize(in.readers);
  std::vector<std::optional<sbf::io::DeltaLogWriter>> logs(num_writers);
  if (traced) {
    for (size_t t = 0; t < threads; ++t) {
      buffers.push_back(std::make_unique<SpanBuffer>(t < num_writers ? 1 << 20
                                                                     : 1 << 18));
    }
    for (size_t w = 0; w < num_writers; ++w) {
      logs[w].emplace(ShadowLog(*shadow, std::to_string(w)));
    }
  }
  auto buffer_of = [&](size_t t) -> SpanBuffer* {
    return traced ? buffers[t].get() : nullptr;
  };

  std::latch start(static_cast<ptrdiff_t>(threads) + 1);
  std::atomic<size_t> writers_left{num_writers};
  std::atomic<bool> stop_readers{false};
  std::vector<std::thread> pool;
  pool.reserve(threads);
  auto writer_done = [&] {
    if (writers_left.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      stop_readers.store(true, std::memory_order_release);
    }
  };

  auto closed_writer = [&](size_t w) {
    const std::vector<uint64_t>& stream = in.writers[w];
    Loop& loop = r.writers[w];
    SpanBuffer* spans = buffer_of(w);
    start.arrive_and_wait();
    for (size_t i = 0; i < stream.size(); i += kBatch) {
      const size_t n = std::min(kBatch, stream.size() - i);
      const uint64_t* keys = stream.data() + i;
      const int64_t t0 = NowNs();
      const sbf::Status status = store.InsertBatch(keys, n);
      const int64_t t1 = NowNs();
      loop.lat.Add(static_cast<double>(t1 - t0) * 1e-3);
      CountWrite(status, n, loop);
      if (spans != nullptr && shadow != nullptr) {
        const uint64_t op = i / kBatch;
        const uint32_t top =
            spans->Add("io.durable.insert_batch", t0, t1, op, n);
        ReplayWrite(keys, n, op, top, *spans, *shadow, *logs[w], loop);
      }
    }
    writer_done();
  };

  double late_max_us = 0.0;
  auto paced_writer = [&] {
    const size_t w = in.writers.size();
    Loop& loop = r.writers[w];
    SpanBuffer* spans = buffer_of(w);
    const int64_t period_ns = 1000000000LL / kQueryPacedBatchesPerSecond;
    start.arrive_and_wait();
    const int64_t begin = NowNs();
    uint64_t op = 0;
    for (size_t i = 0; i < in.paced.size(); i += kBatch, ++op) {
      const int64_t due = begin + static_cast<int64_t>(op) * period_ns;
      int64_t now = NowNs();
      if (now < due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        now = NowNs();
      }
      late_max_us = std::max(late_max_us, static_cast<double>(now - due) * 1e-3);
      const size_t n = std::min(kBatch, in.paced.size() - i);
      const uint64_t* keys = in.paced.data() + i;
      const sbf::Status status = store.InsertBatch(keys, n);
      const int64_t end = NowNs();
      // Open loop: latency counts from when the batch was due.
      loop.lat.Add(static_cast<double>(end - due) * 1e-3);
      CountWrite(status, n, loop);
      if (spans != nullptr && shadow != nullptr) {
        const uint32_t top =
            spans->Add("io.durable.insert_batch", now, end, op, n);
        ReplayWrite(keys, n, op, top, *spans, *shadow, *logs[w], loop);
      }
    }
    writer_done();
  };

  auto reader = [&](uint32_t rd) {
    const size_t t = num_writers + rd;
    Loop& loop = r.readers[rd];
    SpanBuffer* spans = buffer_of(t);
    const std::vector<uint64_t>& probes = in.read_probes;
    const size_t batches = probes.size() / kBatch;
    size_t b = (batches / in.readers) * rd;  // readers start apart
    uint64_t out[kBatch];
    uint64_t sink = 0;
    start.arrive_and_wait();
    for (uint64_t op = 0; !stop_readers.load(std::memory_order_acquire);
         ++op) {
      const uint64_t* keys = probes.data() + (b % batches) * kBatch;
      ++b;
      const int64_t t0 = NowNs();
      store.EstimateBatch(keys, kBatch, out);
      const int64_t t1 = NowNs();
      loop.lat.Add(static_cast<double>(t1 - t0) * 1e-3);
      ++loop.ops;
      loop.keys += kBatch;
      sink += out[0];
      if (spans != nullptr && op % kReaderTraceEvery == 0) {
        // Replaying the same keys right away would time cache-hot
        // lookups, so the replay takes the stream's next batch, which
        // this reader then skips.
        const uint32_t top =
            spans->Add("io.durable.estimate_batch", t0, t1, op, kBatch);
        const uint32_t id =
            spans->Open("core.concurrent_sbf.estimate_batch", top, op);
        store.filter().EstimateBatch(
            probes.data() + (b % batches) * kBatch, kBatch, out);
        spans->Close(id, kBatch);
        ++b;
        sink += out[0];
      }
    }
    volatile uint64_t keep = sink;
    (void)keep;
  };

  try {
    for (size_t w = 0; w < in.writers.size(); ++w) {
      pool.emplace_back(closed_writer, w);
    }
    if (!in.paced.empty()) pool.emplace_back(paced_writer);
    for (uint32_t rd = 0; rd < in.readers; ++rd) pool.emplace_back(reader, rd);
  } catch (...) {
    // Threads already started wait on `start`: release them, stop the
    // readers and join before the state they share goes away.
    stop_readers.store(true, std::memory_order_release);
    start.count_down(static_cast<ptrdiff_t>(threads + 1 - pool.size()));
    for (std::thread& t : pool) t.join();
    throw;
  }

  const int64_t t0 = NowNs();
  start.arrive_and_wait();
  for (std::thread& t : pool) t.join();
  r.seconds = static_cast<double>(NowNs() - t0) * 1e-9;
  r.paced_late_max_us = late_max_us;
  for (const Loop& l : r.writers) {
    if (!l.shadow_error.empty()) throw RunError("shadow log: " + l.shadow_error);
  }
  return r;
}

// The primary call's rate and median latency, in the result.
void ReportPrimary(double ops, double seconds, const std::vector<double>& lat_us,
                   Report& report) {
  report.Add("ops_per_s", ops / seconds, "1/s");
  report.Add("op_p50_us", Percentile(lat_us, 0.5), "us",
             "n=" + std::to_string(lat_us.size()));
}

// Acked-key throughput and per-call latency of one side's loops ("write" or
// "read"), printed under that side's names. Returns the calls made and
// appends their latencies to `lat`.
uint64_t ReportLoops(const std::vector<Loop>& loops, const std::string& side,
                     double seconds, std::vector<double>& lat, Report& report) {
  if (loops.empty()) return 0;
  uint64_t keys = 0;
  uint64_t ops = 0;
  for (const Loop& l : loops) {
    lat.insert(lat.end(), l.lat.us().begin(), l.lat.us().end());
    keys += l.keys;
    ops += l.ops;
    report.Ops(l.ops, l.failed, side + ": " + l.first_error);
  }
  report.Add(side + "_keys_per_s", static_cast<double>(keys) / seconds,
             "keys/s", "", false);
  report.AddTiming(side + "_p50_us", side + "_p99_us", 0.99, lat, "us");
  return ops;
}

void ReportMix(const MixResult& r, bool reads_are_primary, Report& report) {
  std::vector<double> write_lat;
  std::vector<double> read_lat;
  const uint64_t writes =
      ReportLoops(r.writers, "write", r.seconds, write_lat, report);
  const uint64_t reads =
      ReportLoops(r.readers, "read", r.seconds, read_lat, report);
  if (reads_are_primary) {
    ReportPrimary(static_cast<double>(reads), r.seconds, read_lat, report);
  } else {
    ReportPrimary(static_cast<double>(writes), r.seconds, write_lat, report);
  }
}

// E_ratio and E_add (paper Section 6.1) over the accuracy sample, checking
// the one-sided guarantee on every probe. Writers must be joined.
void CheckAccuracy(const ConcurrentSbf& filter,
                   const std::vector<uint64_t>& keys,
                   const std::vector<uint64_t>& truth, Report& report) {
  std::vector<uint64_t> est(keys.size());
  filter.EstimateBatch(keys.data(), keys.size(), est.data());
  sbf::ErrorStats errors;
  uint64_t violations = 0;
  for (size_t i = 0; i < est.size(); ++i) {
    if (est[i] < truth[i]) ++violations;
    errors.Record(est[i], truth[i]);
  }
  report.Ops(est.size(), violations,
             "one-sided guarantee violated: Estimate < exact count");
  report.Add("error_ratio", errors.ErrorRatio(), "ratio",
             "n=" + std::to_string(est.size()));
  report.Add("error_add", errors.AdditiveError(), "count",
             "n=" + std::to_string(est.size()));
}

// --- per-layer counters ------------------------------------------------------

void ReportHealth(const ConcurrentSbf& filter, Report& report) {
  const sbf::FilterHealth health = filter.Health();
  report.Add("core.concurrent_sbf.shard_skew", health.shard_skew, "ratio");
  report.Add("core.health.fill_ratio", health.fill_ratio, "ratio");
  report.Add("core.health.estimated_fpr", health.estimated_fpr, "ratio");
}

// Counter-backing facts, read through shard(i), which needs a quiescent
// filter whose delta buffers are drained (Health() drains them).
void ReportBacking(const ConcurrentSbf& filter, Report& report) {
  uint64_t bits = 0;
  uint64_t counters = 0;
  uint64_t rebuilds = 0;
  uint64_t pushed = 0;
  for (uint32_t i = 0; i < filter.num_shards(); ++i) {
    const sbf::CounterVector& cv = filter.shard(i).counters();
    bits += cv.MemoryUsageBits();
    counters += cv.size();
    if (const auto* cc = dynamic_cast<const sbf::CompactCounterVector*>(&cv)) {
      rebuilds += cc->rebuild_count();
      pushed += cc->pushed_bits_total();
    }
  }
  report.Add("sai.bits_per_counter",
             static_cast<double>(bits) / static_cast<double>(counters),
             "bits");
  report.Add("sai.compact_counter_vector.rebuilds",
             static_cast<double>(rebuilds), "count");
  report.Add("sai.compact_counter_vector.pushed_bits",
             static_cast<double>(pushed), "bits");
  report.Add("sai.saturation_clamps",
             static_cast<double>(filter.saturation().saturation_clamps),
             "count");
}

double P50(const SpanSummary& s, const char* name, bool self = false) {
  const auto it = s.find(name);
  if (it == s.end()) return NAN;
  return Percentile(self ? it->second.self_ns : it->second.dur_ns, 0.5);
}

double P99(const SpanSummary& s, const char* name) {
  const auto it = s.find(name);
  if (it == s.end()) return NAN;
  return Percentile(it->second.dur_ns, 0.99);
}

double PerUnit(const SpanSummary& s, const char* name) {
  const auto it = s.find(name);
  if (it == s.end() || it->second.units == 0) return NAN;
  return it->second.total_ns / static_cast<double>(it->second.units);
}

double UnitsPerSpan(const SpanSummary& s, const char* name) {
  const auto it = s.find(name);
  if (it == s.end() || it->second.dur_ns.empty()) return NAN;
  return static_cast<double>(it->second.units) /
         static_cast<double>(it->second.dur_ns.size());
}

// Every span-derived per-layer metric. Each workload's traced run records
// all of these spans, so a missing one fails the run (Report::Add).
void ReportSpans(const SpanSummary& s, Report& report) {
  // The write path, replayed under each InsertBatch.
  report.Add("io.durable.insert_self_us",
             P50(s, "io.durable.insert_batch", true) * 1e-3, "us");
  report.Add("core.concurrent_sbf.insert_batch_us",
             P50(s, "core.concurrent_sbf.insert_batch") * 1e-3, "us");
  report.Add("io.delta_log.encode_ns_per_key",
             PerUnit(s, "io.delta_log.encode"), "ns/key");
  report.Add("io.delta_log.bytes_per_record",
             UnitsPerSpan(s, "io.delta_log.append"), "B");
  report.Add("io.delta_log.append_us",
             P50(s, "io.delta_log.append") * 1e-3, "us");
  report.Add("io.delta_log.sync_p50_us", P50(s, "io.delta_log.sync") * 1e-3,
             "us");
  report.Add("io.delta_log.sync_p99_us", P99(s, "io.delta_log.sync") * 1e-3,
             "us");
  report.Add("core.delta_buffer.flush_ms",
             P50(s, "core.delta_buffer.flush") * 1e-6, "ms");
  // Over every CRC the replays computed: WAL frames, logs and checkpoints.
  report.Add("io.wire.crc_ns_per_byte", PerUnit(s, "io.wire.crc"), "ns/B");
  // The read path.
  report.Add("core.concurrent_sbf.estimate_batch_us",
             P50(s, "core.concurrent_sbf.estimate_batch") * 1e-3, "us");
  report.Add("core.spectral_bloom_filter.estimate_ns_per_key",
             PerUnit(s, "core.spectral_bloom_filter.estimate_batch"), "ns/key");
  // Checkpoints.
  report.Add("io.durable.checkpoint_ms",
             P50(s, "io.durable.checkpoint") * 1e-6, "ms");
  report.Add("core.concurrent_sbf.serialize_ms",
             P50(s, "core.concurrent_sbf.serialize") * 1e-6, "ms");
  // Recovery, replayed under each reopen.
  report.Add("io.durable.open_self_ms", P50(s, "io.durable.open", true) * 1e-6,
             "ms");
  report.Add("io.durable.recover_self_ms",
             P50(s, "io.durable.recover", true) * 1e-6, "ms");
  report.Add("io.durable.recover_read_ms",
             P50(s, "io.durable.recover_read") * 1e-6, "ms");
  report.Add("io.delta_log.scan_superseded_ms",
             P50(s, "io.delta_log.scan_superseded") * 1e-6, "ms");
  report.Add("io.delta_log.scan_live_ms", P50(s, "io.delta_log.scan_live") * 1e-6,
             "ms");
  report.Add("io.durable.recover_deserialize_ms",
             P50(s, "io.durable.recover_deserialize") * 1e-6, "ms");
  report.Add("io.durable.recover_replay_ms",
             P50(s, "io.durable.recover_replay") * 1e-6, "ms");
}

// Log and checkpoint facts of the store that took the workload's writes.
void ReportWriterStore(const sbf::DurabilityStats& stats, uint64_t header_bytes,
                       Report& report) {
  report.Add("io.delta_log.header_bytes", static_cast<double>(header_bytes),
             "B");
  report.Add("io.durable.checkpoints",
             static_cast<double>(stats.checkpoints_written), "count");
  report.Add("io.durable.checkpoint_retries",
             static_cast<double>(stats.checkpoint_retries), "count");
}

void ReportDeltaCounters(const ConcurrentSbf& filter, Report& report) {
  const sbf::ShardMetrics::Snapshot totals = filter.metrics().Totals();
  report.Add("core.delta_buffer.aggregation",
             totals.delta_merged_keys > 0
                 ? static_cast<double>(totals.inserted_keys) /
                       static_cast<double>(totals.delta_merged_keys)
                 : NAN,
             "ratio");
  report.Add("core.delta_buffer.pending_peak",
             static_cast<double>(totals.delta_buffered_peak), "keys");
}

// Traced/untraced ratio of each end-to-end timing.
void ReportOverhead(const Report& untraced, const Report& traced,
                    Report& report) {
  for (const char* name : {"ops_per_s", "op_p50_us"}) {
    report.Add(std::string("trace.overhead.") + name,
               traced.Value(name) / untraced.Value(name), "ratio");
  }
}

// --- steps every traced workload takes --------------------------------------

// Explicit checkpoints of a quiescent store, each followed by the Serialize
// it performs, replayed on `shadow` (which holds the same counters; the
// store's own filter may be serializing for its background checkpointer).
void TracedCheckpoints(DurableSbf& store, const ConcurrentSbf& shadow,
                       SpanBuffer& spans) {
  for (uint64_t i = 0; i < kTracedCheckpoints; ++i) {
    uint32_t id = spans.Open("io.durable.checkpoint", kNoParent, i);
    Check(store.Checkpoint(), "checkpoint");
    spans.Close(id);
    id = spans.Open("core.concurrent_sbf.serialize", kNoParent, i);
    const std::vector<uint8_t> bytes = shadow.Serialize();
    spans.Close(id, bytes.size());
  }
}

// One shard's EstimateBatch on the keys each 64-key batch of `probes`
// routes to it, without ConcurrentSbf's routing or pending tally; with
// `whole_filter`, also ConcurrentSbf::EstimateBatch of each batch (for a
// workload whose timed phase has no readers). shard(i) needs a quiescent
// filter with drained delta buffers (Health() drains them).
void ProbeShards(const ConcurrentSbf& filter,
                 const std::vector<uint64_t>& probes, bool whole_filter,
                 SpanBuffer& spans) {
  std::vector<std::vector<uint64_t>> routed(filter.num_shards());
  uint64_t out[kBatch];
  const size_t batches = std::min<size_t>(probes.size() / kBatch, 8192);
  for (size_t b = 0; b < batches; ++b) {
    const uint64_t* keys = probes.data() + b * kBatch;
    if (whole_filter) {
      const uint32_t id =
          spans.Open("core.concurrent_sbf.estimate_batch", kNoParent, b);
      filter.EstimateBatch(keys, kBatch, out);
      spans.Close(id, kBatch);
    }
    for (auto& v : routed) v.clear();
    for (size_t i = 0; i < kBatch; ++i) {
      routed[filter.ShardOf(keys[i])].push_back(keys[i]);
    }
    for (uint32_t sh = 0; sh < filter.num_shards(); ++sh) {
      if (routed[sh].empty()) continue;
      const uint32_t id = spans.Open(
          "core.spectral_bloom_filter.estimate_batch", kNoParent, b);
      filter.shard(sh).EstimateBatch(routed[sh].data(), routed[sh].size(), out);
      spans.Close(id, routed[sh].size());
    }
  }
}

// Reads, scans, deserializes and replays `dir` through the public
// functions RecoverStore uses, each in a child span of `parent`.
void ReplayRecovery(const std::string& dir, uint64_t generation,
                    SpanBuffer& spans, uint32_t parent, uint64_t op) {
  std::vector<uint8_t> checkpoint;
  std::vector<uint8_t> superseded;
  std::vector<uint8_t> live;
  uint32_t id = spans.Open("io.durable.recover_read", parent, op);
  Check(sbf::io::ReadFileBytes(sbf::CheckpointPath(dir, generation), &checkpoint),
        "read checkpoint");
  Check(sbf::io::ReadFileBytes(sbf::WalPath(dir, generation - 1), &superseded),
        "read superseded log");
  Check(sbf::io::ReadFileBytes(sbf::WalPath(dir, generation), &live),
        "read live log");
  spans.Close(id, checkpoint.size() + superseded.size() + live.size());

  id = spans.Open("io.delta_log.scan_superseded", parent, op);
  (void)Take(sbf::io::ScanLog(superseded), "scan superseded log");
  spans.Close(id, superseded.size());
  uint32_t crc = spans.Open("io.wire.crc", id, op);
  volatile uint32_t sink = sbf::wire::Crc32c(superseded);
  spans.Close(crc, superseded.size());

  id = spans.Open("io.delta_log.scan_live", parent, op);
  const sbf::io::LogScan scan = Take(sbf::io::ScanLog(live), "scan live log");
  spans.Close(id, live.size());
  crc = spans.Open("io.wire.crc", id, op);
  sink = sbf::wire::Crc32c(live);
  spans.Close(crc, live.size());

  id = spans.Open("io.durable.recover_deserialize", parent, op);
  ConcurrentSbf filter =
      Take(ConcurrentSbf::Deserialize(checkpoint), "deserialize checkpoint");
  spans.Close(id, checkpoint.size());
  crc = spans.Open("io.wire.crc", id, op);
  sink = sbf::wire::Crc32c(checkpoint);
  spans.Close(crc, checkpoint.size());
  (void)sink;

  id = spans.Open("io.durable.recover_replay", parent, op);
  uint64_t keys = 0;
  for (const sbf::io::WalRecord& record : scan.records) {
    if (record.type != sbf::io::WalRecordType::kDeltaBatch) continue;
    filter.InsertBatch(record.keys.data(), record.keys.size(), record.count);
    keys += record.keys.size();
  }
  spans.Close(id, keys);
}

struct ReopenPhase {
  std::vector<double> open_ms;
  double seconds = 0.0;  // the whole loop: opens, checks and closes
  uint64_t replayed_records = 0;
};

// `n` reopens of the store in `dir`, each checked for a clean verdict and
// the `reference` estimates of `probes`. With `spans`, each reopen's
// recovery is then replayed through RecoverStore and the functions it uses.
ReopenPhase Reopens(const std::string& dir, const DurableOptions& options,
                    const std::vector<uint64_t>& probes,
                    const std::vector<uint64_t>& reference, size_t n,
                    SpanBuffer* spans, Report& report) {
  ReopenPhase phase;
  std::vector<uint64_t> est(probes.size());
  uint64_t mismatched = 0;
  const int64_t begin = NowNs();
  for (size_t op = 0; op < n; ++op) {
    const int64_t t0 = NowNs();
    auto opened = DurableSbf::Open(dir, options);
    const int64_t t1 = NowNs();
    if (!opened.ok()) {
      report.Fail("reopen: " + opened.status().message());
      continue;
    }
    std::unique_ptr<DurableSbf> store = std::move(opened).value();
    phase.open_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    const sbf::DurabilityStats stats = store->Stats();
    phase.replayed_records = stats.replayed_records;
    store->EstimateBatch(probes.data(), probes.size(), est.data());
    if (stats.recovery != sbf::RecoveryVerdict::kClean || est != reference) {
      ++mismatched;
    }
    const uint64_t generation = store->generation();
    store.reset();
    if (spans != nullptr) {
      const uint32_t top = spans->Add("io.durable.open", t0, t1, op, 0);
      const uint32_t rec = spans->Open("io.durable.recover", top, op);
      auto outcome = sbf::RecoverStore(dir, nullptr);
      spans->Close(rec);
      if (!outcome.ok()) {
        report.Fail("RecoverStore: " + outcome.status().message());
        continue;
      }
      ReplayRecovery(dir, generation, *spans, rec, op);
    }
  }
  phase.seconds = static_cast<double>(NowNs() - begin) * 1e-9;
  report.Ops(n, mismatched,
             "reopen not clean or estimates differ from the reference");
  return phase;
}

// --- workloads -----------------------------------------------------------------

struct Run {
  std::string root;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string spans_path;
};

size_t SpanCount(const std::vector<std::unique_ptr<SpanBuffer>>& buffers) {
  size_t n = 0;
  for (const auto& b : buffers) n += b->spans().size();
  return n;
}

// Summarizes every buffer, reports the span-derived metrics and the span
// count, and writes the spans out if asked to.
void FinishTrace(const Run& run,
                 const std::vector<std::unique_ptr<SpanBuffer>>& buffers,
                 Report& layers) {
  SpanSummary summary;
  for (const auto& b : buffers) Summarize(*b, summary);
  ReportSpans(summary, layers);
  layers.Add("trace.spans", static_cast<double>(SpanCount(buffers)), "count");
  if (!run.spans_path.empty()) WriteSpans(run.spans_path, buffers);
}

// A shadow for the traced write replays, with its logs in their own
// directory under the run's root.
struct TracedShadow {
  TracedShadow(const std::string& root, const sbf::ConcurrentSbfOptions& o)
      : dir(root, "shadow"), shadow(o) {
    shadow.log_dir = dir.path();
  }
  StoreDir dir;
  Shadow shadow;
};

// After the timed phase: the accuracy sample.
void ReportAccuracy(DurableSbf& store, const Inputs& in, const MixResult& r,
                    Report& e2e) {
  CheckAccuracy(store.filter(), in.check_keys, in.check_truth, e2e);
  if (!in.paced.empty()) {
    // How late the open-loop generator ran behind its schedule.
    e2e.Add("paced_late_max_us", r.paced_late_max_us, "us", "", false);
  }
}

// One explicit checkpoint; its file is checkpoint_bytes.
void ReportCheckpointBytes(DurableSbf& store, const std::string& dir,
                           Report& e2e) {
  Check(store.Checkpoint(), "checkpoint");
  e2e.Add("checkpoint_bytes",
          static_cast<double>(
              FileBytes(sbf::CheckpointPath(dir, store.generation()))),
          "B");
}

void RunMixedWorkload(const Run& run, const Inputs& in, Report& out) {
  if (!run.trace) {
    std::vector<double> setups;
    Store s = SetUpRepeated(run.root, in, setups);
    out.Add("setup_s", Percentile(setups, 0.5), "s", SetupNote(setups));
    std::vector<std::unique_ptr<SpanBuffer>> none;
    const MixResult r = RunMix(*s.store, in, nullptr, none);
    // Before the reporting, whose sorted copies of the latency samples
    // grow with the number of calls made.
    const double rss_mb = PeakRssMb();
    ReportMix(r, in.reads_are_primary, out);
    ReportAccuracy(*s.store, in, r, out);
    ReportCheckpointBytes(*s.store, s.dir->path(), out);
    out.Add("rss_peak_mb", rss_mb, "MB", "through the timed phase");
    return;
  }
  // Untraced, then traced on a fresh store with identical inputs.
  Report untraced;
  {
    Store s = SetUp(run.root, in);
    std::vector<std::unique_ptr<SpanBuffer>> none;
    const MixResult r = RunMix(*s.store, in, nullptr, none);
    ReportMix(r, in.reads_are_primary, untraced);
    ReportAccuracy(*s.store, in, r, untraced);
  }
  Report traced;
  Store s = SetUp(run.root, in);
  TracedShadow shadow(run.root, in.options.filter);
  std::vector<std::unique_ptr<SpanBuffer>> buffers;
  const MixResult r = RunMix(*s.store, in, &shadow.shadow, buffers);
  ReportMix(r, in.reads_are_primary, traced);
  ReportWriterStore(s.store->Stats(), s.header_bytes, out);
  ReportAccuracy(*s.store, in, r, traced);

  DurableSbf& store = *s.store;
  ReportDeltaCounters(store.filter(), out);
  ReportHealth(store.filter(), out);
  ReportBacking(store.filter(), out);
  buffers.push_back(std::make_unique<SpanBuffer>(1 << 17));
  SpanBuffer& post = *buffers.back();
  TracedCheckpoints(store, shadow.shadow.filter, post);
  ProbeShards(store.filter(), in.read_probes, false, post);
  const std::vector<uint64_t> sample(
      in.check_keys.begin(),
      in.check_keys.begin() + std::min<size_t>(in.check_keys.size(), 1 << 14));
  std::vector<uint64_t> reference(sample.size());
  store.EstimateBatch(sample.data(), sample.size(), reference.data());
  s.store.reset();
  const ReopenPhase reopens = Reopens(s.dir->path(), in.options, sample,
                                      reference, kTracedReopens, &post, traced);
  out.Add("io.durable.replayed_records",
          static_cast<double>(reopens.replayed_records), "count");
  FinishTrace(run, buffers, out);
  ReportOverhead(untraced, traced, out);
  out.Absorb(untraced);
  out.Absorb(traced);
}

// ingest: one closed-loop writer and one reader on the compact backing with
// the background checkpointer, Zipf keys. The writer's InsertBatch is the
// primary call.
Inputs IngestInputs(const Run& run) {
  Inputs in;
  in.options.filter.m = 1ull << 22;
  in.options.filter.k = 5;
  in.options.filter.backing = sbf::CounterBacking::kCompact;
  in.options.filter.num_shards = 8;
  in.options.filter.seed = run.seed;
  in.options.sync_each_append = false;
  in.options.background_checkpointer = true;
  in.options.checkpoint_log_bytes = 4ull << 20;
  const uint64_t domain = 1ull << 20;
  const uint64_t salt = run.seed * 0x9E3779B97F4A7C15ull + 1;
  sbf::Xoshiro256 rng(run.seed);
  const sbf::ZipfDistribution zipf(domain, kZipfSkew);
  const std::vector<uint64_t> ids =
      ZipfIds(zipf, RoundToBatch(run.seconds * kIngestKeysPerSecond), rng);
  std::vector<uint32_t> counts(domain, 0);
  CountIds(ids, counts);
  in.writers.push_back(Keys(ids, salt));
  in.readers = 1;
  in.read_probes = Keys(ZipfIds(zipf, 1 << 20, rng), salt);
  // The accuracy sample is the whole key space.
  for (uint64_t id = 0; id < domain; ++id) {
    in.check_keys.push_back(KeyOf(id, salt));
    in.check_truth.push_back(counts[id]);
  }
  return in;
}

// query: one closed-loop reader beside one paced writer over a 2 MB
// fixed64 filter preloaded with Zipf keys; probes uniform over 4x the
// loaded key space. The reader's EstimateBatch is the primary call. On the
// reference host (a 300 MB L3 and memory shared with other tenants) a
// 128 MB filter made the reads memory-bound and their timings spread 15-25%
// across runs, and with two readers the median read took either about 2.1
// or about 3.3 us, fixed per process; one reader over an L2-sized filter
// does not split that way.
Inputs QueryInputs(const Run& run) {
  Inputs in;
  in.options.filter.m = 1ull << 18;
  in.options.filter.k = 5;
  in.options.filter.backing = sbf::CounterBacking::kFixed64;
  in.options.filter.num_shards = 16;
  in.options.filter.seed = run.seed;
  in.options.sync_each_append = false;
  in.options.checkpoint_log_bytes = 0;
  in.reads_are_primary = true;
  const uint64_t domain = 1ull << 15;
  const uint64_t salt = run.seed * 0x9E3779B97F4A7C15ull + 3;
  sbf::Xoshiro256 rng(run.seed);
  const sbf::ZipfDistribution zipf(domain, kZipfSkew);
  // Every id of the domain is preloaded with its expected Zipf frequency
  // over 2^16 occurrences, grouped by frequency into counted batches.
  std::vector<uint32_t> counts(domain, 0);
  const std::vector<uint64_t> freq = zipf.ExpectedFrequencies(2 * domain);
  for (uint64_t id = 0; id < domain; ++id) {
    counts[id] = static_cast<uint32_t>(freq[id]);
    in.preload[freq[id]].push_back(KeyOf(id, salt));
  }
  const size_t paced_batches = static_cast<size_t>(
      std::max(1.0, run.seconds * kQueryPacedBatchesPerSecond));
  const std::vector<uint64_t> paced =
      ZipfIds(zipf, paced_batches * kBatch, rng);
  CountIds(paced, counts);
  in.paced = Keys(paced, salt);
  in.readers = 1;
  in.read_probes = Keys(UniformIds(4 * domain, 1 << 14, rng), salt);
  // The accuracy sample is every id of 32x the loaded key space: at this
  // filter size a sample of only the probes' 4x held too few errors for
  // E_ratio to repeat within a few percent across seeds.
  for (uint64_t id = 0; id < 32 * domain; ++id) {
    in.check_keys.push_back(KeyOf(id, salt));
    in.check_truth.push_back(id < domain ? counts[id] : 0);
  }
  return in;
}

// reopen: repeated DurableSbf::Open of a checkpointed store -- compact,
// m=2^16, S=8, 65,536 records of 16 keys, one checkpoint, a 640-record tail.
constexpr size_t kFixtureRecords = 65536;
constexpr size_t kFixtureTail = 640;
constexpr size_t kFixtureKeysPerRecord = 16;

DurableOptions ReopenOptions(uint64_t seed) {
  DurableOptions options;
  options.filter.m = 1ull << 16;
  options.filter.k = 5;
  options.filter.backing = sbf::CounterBacking::kCompact;
  options.filter.num_shards = 8;
  options.filter.seed = seed;
  options.sync_each_append = false;
  options.checkpoint_log_bytes = 0;
  return options;
}

struct Fixture {
  std::unique_ptr<StoreDir> dir;
  std::unique_ptr<DurableSbf> store;  // open until the caller closes it
  double setup_seconds = 0.0;
  uint64_t header_bytes = 0;
  std::vector<uint64_t> reference;  // estimates of the probe keys
};

// Builds the fixture. With `shadow` (traced), every record's InsertBatch is
// a top span whose inputs are replayed through the write path's layers.
Fixture BuildFixture(const std::string& root, const DurableOptions& options,
                     const std::vector<uint64_t>& keys,
                     const std::vector<uint64_t>& probes, SpanBuffer* spans,
                     Shadow* shadow) {
  Fixture f;
  f.dir = std::make_unique<StoreDir>(root, "reopen");
  std::optional<sbf::io::DeltaLogWriter> log;
  if (spans != nullptr && shadow != nullptr) {
    log.emplace(ShadowLog(*shadow, "fixture"));
  }
  Loop loop;
  const int64_t t0 = NowNs();
  f.store = Take(DurableSbf::Open(f.dir->path(), options), "open fixture");
  f.header_bytes = f.store->Stats().wal_bytes;
  const size_t per = kFixtureKeysPerRecord;
  for (size_t r = 0; r < kFixtureRecords + kFixtureTail; ++r) {
    if (r == kFixtureRecords) Check(f.store->Checkpoint(), "fixture checkpoint");
    const uint64_t* batch = keys.data() + r * per;
    const int64_t w0 = NowNs();
    Check(f.store->InsertBatch(batch, per), "fixture insert");
    if (spans != nullptr && shadow != nullptr) {
      const uint32_t top =
          spans->Add("io.durable.insert_batch", w0, NowNs(), r, per);
      ReplayWrite(batch, per, r, top, *spans, *shadow, *log, loop);
    }
  }
  Check(f.store->SyncLog(), "fixture sync");
  f.setup_seconds = static_cast<double>(NowNs() - t0) * 1e-9;
  if (!loop.shadow_error.empty()) {
    throw RunError("shadow log: " + loop.shadow_error);
  }
  f.reference.resize(probes.size());
  f.store->EstimateBatch(probes.data(), probes.size(), f.reference.data());
  return f;
}

// The reopens' rate and median Open latency are the primary call's; the
// median and tail in ms are printed under their own names.
void ReportReopens(const ReopenPhase& phase, Report& report) {
  std::vector<double> open_us;
  for (const double ms : phase.open_ms) open_us.push_back(ms * 1e3);
  ReportPrimary(static_cast<double>(open_us.size()), phase.seconds, open_us,
                report);
  report.AddTiming("reopen_p50_ms", "reopen_p90_ms", 0.9, phase.open_ms, "ms");
}

void RunReopen(const Run& run, Report& out) {
  const DurableOptions options = ReopenOptions(run.seed);
  const uint64_t domain = 1ull << 20;
  const uint64_t salt = run.seed * 0x9E3779B97F4A7C15ull + 5;
  sbf::Xoshiro256 rng(run.seed);
  const std::vector<uint64_t> ids = UniformIds(
      domain, (kFixtureRecords + kFixtureTail) * kFixtureKeysPerRecord, rng);
  std::vector<uint32_t> counts(domain, 0);
  CountIds(ids, counts);
  const std::vector<uint64_t> keys = Keys(ids, salt);
  const std::vector<uint64_t> sample = UniformIds(domain, 1 << 14, rng);
  const std::vector<uint64_t> probes = Keys(sample, salt);
  std::vector<uint64_t> truth;
  for (const uint64_t id : sample) truth.push_back(counts[id]);
  const size_t reopens = std::max<size_t>(
      100, static_cast<size_t>(run.seconds * kReopensPerSecond));

  // Set-up, repeated for a median when untraced; the last fixture is kept.
  Fixture f;
  std::vector<double> setup_times;
  do {
    f = Fixture{};
    f = BuildFixture(run.root, options, keys, probes, nullptr, nullptr);
    setup_times.push_back(f.setup_seconds);
  } while (!run.trace && MoreSetups(setup_times));
  f.store.reset();

  Report e2e;
  if (!run.trace) {
    e2e.Add("setup_s", Percentile(setup_times, 0.5), "s",
            SetupNote(setup_times));
  }
  ReportReopens(
      Reopens(f.dir->path(), options, probes, f.reference, reopens, nullptr, e2e),
      e2e);
  {
    // One-sided check and accuracy on a recovered store.
    auto store = Take(DurableSbf::Open(f.dir->path(), options), "reopen");
    CheckAccuracy(store->filter(), probes, truth, e2e);
    Check(store->Checkpoint(), "checkpoint");
    e2e.Add("checkpoint_bytes",
            static_cast<double>(FileBytes(
                sbf::CheckpointPath(f.dir->path(), store->generation()))),
            "B");
  }
  if (!run.trace) {
    e2e.Add("rss_peak_mb", PeakRssMb(), "MB");
    out = std::move(e2e);
    return;
  }

  // Traced: the checkpoint above moved the store one generation on, so
  // rebuild the fixture -- its writes traced -- before the traced reopens.
  TracedShadow shadow(run.root, options.filter);
  std::vector<std::unique_ptr<SpanBuffer>> buffers;
  for (int i = 0; i < 3; ++i) buffers.push_back(std::make_unique<SpanBuffer>(1 << 16));
  f = Fixture{};
  f = BuildFixture(run.root, options, keys, probes, buffers[0].get(),
                   &shadow.shadow);
  ReportWriterStore(f.store->Stats(), f.header_bytes, out);
  ReportDeltaCounters(f.store->filter(), out);
  f.store.reset();
  Report traced;
  const ReopenPhase phase = Reopens(f.dir->path(), options, probes,
                                    f.reference, reopens, buffers[1].get(),
                                    traced);
  ReportReopens(phase, traced);
  out.Add("io.durable.replayed_records",
          static_cast<double>(phase.replayed_records), "count");
  {
    auto store = Take(DurableSbf::Open(f.dir->path(), options), "reopen");
    CheckAccuracy(store->filter(), probes, truth, traced);
    ReportHealth(store->filter(), out);
    ReportBacking(store->filter(), out);
    TracedCheckpoints(*store, shadow.shadow.filter, *buffers[2]);
    ProbeShards(store->filter(), probes, true, *buffers[2]);
  }
  FinishTrace(run, buffers, out);
  ReportOverhead(e2e, traced, out);
  out.Absorb(e2e);
  out.Absorb(traced);
}

// --- context ---------------------------------------------------------------

std::string FilesystemName(const std::string& path) {
  struct statfs st {};
  if (::statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<uint64_t>(st.f_type)) {
    case 0xEF53: return "ext2/ext3/ext4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlay";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%llx",
                    static_cast<unsigned long long>(st.f_type));
      return buf;
    }
  }
}

std::string ContextJson(const Run& run, const std::string& workload) {
  std::vector<sbf::bench::BenchJson::Param> params =
      sbf::bench::StandardContext();
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const int nproc =
      ::sched_getaffinity(0, sizeof(cpus), &cpus) == 0 ? CPU_COUNT(&cpus) : 0;
  params.emplace_back("nproc", nproc);
  params.emplace_back("store_fs", FilesystemName(run.root));
  params.emplace_back("workload", workload);
  params.emplace_back("seed", run.seed);
  params.emplace_back("seconds", run.seconds);
  params.emplace_back("trace", run.trace ? 1 : 0);
  std::string json = "{";
  for (size_t i = 0; i < params.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + params[i].key + "\": " + params[i].rendered;
  }
  return json + "}";
}

int Usage() {
  std::fprintf(stderr,
               "usage: sbf_e2e --workload <ingest|query|reopen> "
               "--seed <n> --seconds <s> --trace <0|1> --store-root <dir> "
               "[--spans <file>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Run run;
  std::string workload;
  bool have_seed = false;
  if (argc % 2 == 0) return Usage();  // flags come in --name value pairs
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      run.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      run.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      run.trace = value == "1";
    } else if (flag == "--store-root") {
      run.root = value;
    } else if (flag == "--spans") {
      run.spans_path = value;
    } else {
      return Usage();
    }
  }
  if (workload.empty() || !have_seed || !(run.seconds > 0) || run.root.empty()) {
    return Usage();
  }
  if (run.trace) run.seconds /= 2;  // for each of the two phases
  std::error_code ec;
  if (!fs::is_directory(run.root, ec)) {
    std::fprintf(stderr, "store root %s is not a directory\n", run.root.c_str());
    return 2;
  }

  Report report;
  try {
    if (workload == "ingest") {
      RunMixedWorkload(run, IngestInputs(run), report);
    } else if (workload == "query") {
      RunMixedWorkload(run, QueryInputs(run), report);
    } else if (workload == "reopen") {
      RunReopen(run, report);
    } else {
      return Usage();
    }
  } catch (const RunError& e) {
    std::fprintf(stderr, "sbf_e2e: %s\n", e.what());
    return 3;
  }
  report.Print(ContextJson(run, workload));
  return report.correct() ? 0 : 1;
}
