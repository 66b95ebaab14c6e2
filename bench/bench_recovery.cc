// Durability economics (DESIGN.md §10): what crash recovery costs as the
// delta WAL grows, and what a checkpoint costs to write. Recovery replays
// the log suffix onto the newest good checkpoint, so its time is linear in
// the records written since that checkpoint — the sweep makes the constant
// visible (records/s replayed) and the checkpoint rows show the compaction
// cost that bounds it. A final pair reopens a checkpoint plus the same
// short tail behind 4k and 64k records of history: against the long
// uncheckpointed log it is the argument for the size-triggered background
// checkpointer, and against each other it shows that recovery cost does
// not depend on history the checkpoint already covers. The last row
// checkpoints a large compact store while a writer keeps appending, and
// reports how much of each checkpoint held the log mutex (stalling the
// writer).
//
// Emits BENCH_recovery.json. Wall-clock file I/O is never gated (shared
// runners' disks are noisy); CI gates the history-independence ratio of
// the two checkpointed rows and the blocked share of the loaded
// checkpoints (scripts/check_recovery.py). EXPERIMENTS.md quotes a
// reference transcript.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/bench_json.h"
#include "io/durable_store.h"
#include "util/timer.h"

namespace {

using sbf::ConcurrentSbfOptions;
using sbf::Timer;
using sbf::bench::BenchJson;
using sbf::DurableOptions;
using sbf::DurableSbf;

// A scratch store directory per sweep cell, removed on destruction.
class ScopedDir {
 public:
  ScopedDir() {
    char tmpl[] = "/tmp/sbf_bench_recovery_XXXXXX";
    char* made = mkdtemp(tmpl);
    path_ = made != nullptr ? made : "/tmp/sbf_bench_recovery_fallback";
  }
  ~ScopedDir() { std::system(("rm -rf '" + path_ + "'").c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

DurableOptions MakeOptions() {
  DurableOptions options;
  options.filter.m = 1 << 16;
  options.filter.k = 4;
  options.filter.num_shards = 8;
  options.filter.seed = 7;
  // The backing stays at its default, kCompact.
  // One fsync per append would time the disk, not recovery; batch-sync on
  // close instead (the recovery path being measured is identical).
  options.sync_each_append = false;
  options.checkpoint_log_bytes = 0;  // no size trigger; explicit only
  return options;
}

// Writes `records` delta batches of `batch` keys each and returns the
// final WAL size in bytes.
uint64_t WriteLog(DurableSbf& store, uint64_t records, uint64_t batch) {
  std::vector<uint64_t> keys(batch);
  for (uint64_t r = 0; r < records; ++r) {
    for (uint64_t i = 0; i < batch; ++i) {
      keys[i] = (r * batch + i) * 2654435761u % 1000003;
    }
    if (!store.InsertBatch(keys.data(), keys.size()).ok()) std::abort();
  }
  if (!store.SyncLog().ok()) std::abort();
  return store.Stats().wal_bytes;
}

double TimedReopen(const std::string& dir, const DurableOptions& options,
                   uint64_t expect_replayed) {
  Timer timer;
  auto reopened = DurableSbf::Open(dir, options);
  const double seconds = timer.ElapsedSeconds();
  if (!reopened.ok()) std::abort();
  if (reopened.value()->Stats().replayed_records != expect_replayed) {
    std::abort();
  }
  return seconds;
}

}  // namespace

int main(int argc, char** argv) {
  bool small = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--small") == 0) small = true;
  }
  const uint64_t batch = 16;
  std::vector<uint64_t> sweep = small
                                    ? std::vector<uint64_t>{1000, 4000}
                                    : std::vector<uint64_t>{1000, 4000,
                                                            16000, 64000};

  BenchJson out("BENCH_recovery.json");
  out.SetContext(sbf::bench::StandardContext(/*with_isa=*/false));

  // Recovery time vs log length: an uncheckpointed store replays every
  // record on reopen.
  for (uint64_t records : sweep) {
    ScopedDir dir;
    const DurableOptions options = MakeOptions();
    uint64_t wal_bytes = 0;
    {
      auto store = DurableSbf::Open(dir.path(), options);
      if (!store.ok()) std::abort();
      wal_bytes = WriteLog(*store.value(), records, batch);
    }
    const double seconds = TimedReopen(dir.path(), options, records);
    out.Add("recover_log_only",
            {{"records", records},
             {"batch", batch},
             {"wal_bytes", wal_bytes},
             {"recovery_ms", seconds * 1e3}},
            seconds * 1e9 / static_cast<double>(records),
            static_cast<double>(records) / seconds / 1e6);
  }

  // Checkpoint cost at the same sweep points: serialize + tmp write +
  // fsync + rename + log rotation.
  for (uint64_t records : sweep) {
    ScopedDir dir;
    const DurableOptions options = MakeOptions();
    auto store = DurableSbf::Open(dir.path(), options);
    if (!store.ok()) std::abort();
    WriteLog(*store.value(), records, batch);
    Timer timer;
    if (!store.value()->Checkpoint().ok()) std::abort();
    const double seconds = timer.ElapsedSeconds();
    out.Add("checkpoint",
            {{"records_compacted", records},
             {"batch", batch},
             {"checkpoint_ms", seconds * 1e3}},
            seconds * 1e9 / static_cast<double>(records),
            static_cast<double>(records) / seconds / 1e6);
  }

  // The payoff, and the recovery bound: a checkpoint plus a fixed
  // 640-record tail at two history lengths. Reopen reads only the
  // checkpoint and the logs after it, so its time must not grow with the
  // history behind the checkpoint — scripts/check_recovery.py gates the
  // 64k/4k ratio. Each row is the median of kReopens reopens of one store.
  constexpr uint64_t kTail = 640;
  constexpr int kReopens = 9;
  for (const uint64_t history : {uint64_t{4000}, uint64_t{64000}}) {
    ScopedDir dir;
    const DurableOptions options = MakeOptions();
    {
      auto store = DurableSbf::Open(dir.path(), options);
      if (!store.ok()) std::abort();
      WriteLog(*store.value(), history, batch);
      if (!store.value()->Checkpoint().ok()) std::abort();
      WriteLog(*store.value(), kTail, batch);
    }
    std::vector<double> ms(kReopens);
    for (double& reopen_ms : ms) {
      reopen_ms = TimedReopen(dir.path(), options, kTail) * 1e3;
    }
    std::sort(ms.begin(), ms.end());
    const double median = ms[ms.size() / 2];
    out.Add("recover_checkpointed",
            {{"records_history", history},
             {"records_replayed", kTail},
             {"batch", batch},
             {"reopens", kReopens},
             {"recovery_ms", median},
             {"recovery_min_ms", ms.front()},
             {"recovery_max_ms", ms.back()}},
            median * 1e6 / static_cast<double>(kTail),
            static_cast<double>(kTail) / median / 1e3);
  }

  // Checkpoints under load: a writer appends 64-key batches to a compact
  // m=2^22 store (the perfbench ingest shape) while the main thread
  // checkpoints. Only the snapshot and the log rotation hold the log
  // mutex, so the blocked share of a checkpoint's wall time stays small;
  // check_recovery.py gates it. The first checkpoint, which also builds
  // the empty filter every later log header embeds, is not counted.
  {
    ScopedDir dir;
    DurableOptions options = MakeOptions();
    options.filter.m = 1 << 22;
    const int checkpoints = small ? 3 : 8;
    auto opened = DurableSbf::Open(dir.path(), options);
    if (!opened.ok()) std::abort();
    DurableSbf& store = *opened.value();
    WriteLog(store, 2000, 64);
    if (!store.Checkpoint().ok()) std::abort();
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> appended{0};
    std::thread writer([&] {
      std::vector<uint64_t> keys(64);
      for (uint64_t r = 0; !stop.load(std::memory_order_relaxed); ++r) {
        for (uint64_t i = 0; i < keys.size(); ++i) {
          keys[i] = (r * keys.size() + i) * 2654435761u % 1000003;
        }
        if (!store.InsertBatch(keys.data(), keys.size()).ok()) std::abort();
        appended.fetch_add(1, std::memory_order_relaxed);
      }
    });
    const double blocked_before = store.Stats().checkpoint_blocked_ms;
    const uint64_t appended_before = appended.load();
    double total_ms = 0.0;
    for (int c = 0; c < checkpoints; ++c) {
      Timer timer;
      if (!store.Checkpoint().ok()) std::abort();
      total_ms += timer.ElapsedSeconds() * 1e3;
    }
    const uint64_t batches = appended.load() - appended_before;
    stop.store(true);
    writer.join();
    const double blocked_ms =
        store.Stats().checkpoint_blocked_ms - blocked_before;
    out.Add("checkpoint_under_load",
            {{"m", options.filter.m},
             {"batch", 64},
             {"checkpoints", checkpoints},
             {"checkpoint_ms", total_ms / checkpoints},
             {"blocked_ms", blocked_ms / checkpoints},
             {"blocked_ratio", blocked_ms / total_ms},
             {"writer_batches", batches}},
            total_ms * 1e6 / checkpoints,
            static_cast<double>(batches) / (total_ms * 1e3));
  }

  return out.WriteFile() ? 0 : 1;
}
