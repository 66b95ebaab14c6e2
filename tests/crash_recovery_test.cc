// Crash matrix for the durable store (io/durable_store.h): every injected
// crash point — torn WAL append (mid-record), torn checkpoint write
// (mid-checkpoint), crash before/after the checkpoint rename, fsync
// failure — crossed with every counter backing, plus file-level damage
// (truncated tails, bit flips, deleted checkpoints) that needs no fault
// hooks at all. After every scenario the reopened store must pass
// CheckInvariants() and estimate exactly like a never-crashed reference
// over the acknowledged operations; anything a failed Append did NOT ack
// must be gone. Fault-hook cases skip without SBF_FAULT_INJECTION; the
// file-level cases always run, in normal and SBF_AUDIT builds alike.
//
// WalRecordType coverage (sbf_lint rule 8): kDeltaBatch records carry the
// replayed state; CheckpointSealLandsInOldLog pins kCheckpointSeal.

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/concurrent_sbf.h"
#include "io/delta_log.h"
#include "io/durable_store.h"
#include "io/wire.h"
#include "util/fault_injection.h"
#include "util/status.h"

namespace sbf {
namespace {

constexpr CounterBacking kBackings[] = {
    CounterBacking::kFixed64, CounterBacking::kCompact,
    CounterBacking::kSerialScan};

const char* BackingName(CounterBacking backing) {
  switch (backing) {
    case CounterBacking::kFixed64:
      return "fixed64";
    case CounterBacking::kCompact:
      return "compact";
    case CounterBacking::kSerialScan:
      return "serial-scan";
    default:
      return "?";
  }
}

// Fresh unique store directory under the test tmpdir, removed on scope
// exit (quarantine evidence included).
class ScopedStoreDir {
 public:
  ScopedStoreDir() {
    std::string tmpl = ::testing::TempDir() + "sbf-store-XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    path_ = ::mkdtemp(buf.data());
  }
  ~ScopedStoreDir() {
    const std::string cmd = "rm -rf '" + path_ + "'";
    [[maybe_unused]] const int rc = std::system(cmd.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// Deterministic, delta-buffering-off options so a single-threaded replay
// is bit-faithful to the original ack order (Minimum Selection updates
// commute, and with buffering off both sides apply ops identically).
DurableOptions MakeOptions(CounterBacking backing) {
  DurableOptions options;
  options.filter.m = 1024;
  options.filter.k = 3;
  options.filter.num_shards = 4;
  options.filter.seed = 77;
  options.filter.backing = backing;
  options.filter.policy = SbfPolicy::kMinimumSelection;
  options.filter.delta.enabled = false;
  options.checkpoint_log_bytes = 0;     // tests checkpoint explicitly
  options.checkpoint_interval_ms = 0;
  options.background_checkpointer = false;
  options.checkpoint_retries = 0;       // crash scenarios must not retry
  options.backoff_initial_ms = 1;
  options.backoff_max_ms = 2;
  return options;
}

// The never-crashed reference: the same ops applied to a plain
// ConcurrentSbf with identical configuration.
struct Scenario {
  explicit Scenario(CounterBacking backing)
      : options(MakeOptions(backing)),
        reference(options.filter) {}

  // Applies one acked op to the reference (call only when the store op
  // succeeded).
  void Ack(bool is_remove, const std::vector<uint64_t>& keys,
           uint64_t count) {
    if (is_remove) {
      for (const uint64_t key : keys) reference.Remove(key, count);
    } else {
      reference.InsertBatch(keys.data(), keys.size(), count);
    }
  }

  // Every estimate over the probe range must match the reference exactly.
  void ExpectMatches(const DurableSbf& store, const char* where) const {
    ASSERT_TRUE(store.CheckInvariants().ok()) << where;
    for (uint64_t key = 0; key < 400; ++key) {
      ASSERT_EQ(store.Estimate(key), reference.Estimate(key))
          << where << " key " << key << " backing "
          << BackingName(options.filter.backing);
    }
  }

  DurableOptions options;
  ConcurrentSbf reference;
};

std::vector<uint64_t> KeyRange(uint64_t first, uint64_t n) {
  std::vector<uint64_t> keys(n);
  for (uint64_t i = 0; i < n; ++i) keys[i] = first + i;
  return keys;
}

using StorePtr = std::unique_ptr<DurableSbf>;

StorePtr MustOpen(const std::string& dir, const DurableOptions& options) {
  auto opened = DurableSbf::Open(dir, options);
  EXPECT_TRUE(opened.ok()) << opened.status().message();
  return opened.ok() ? std::move(opened).value() : nullptr;
}

// Flips one bit at `offset` — non-negative counts from the start of the
// file, negative from the end.
void FlipBitAt(const std::string& path, int64_t offset) {
  FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fseek(f, static_cast<long>(offset),
                       offset >= 0 ? SEEK_SET : SEEK_END),
            0);
  const long pos = std::ftell(f);
  int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, pos, SEEK_SET), 0);
  std::fputc(c ^ 0x10, f);
  std::fclose(f);
}

void TruncateBy(const std::string& path, uint64_t cut) {
  FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fseek(f, 0, SEEK_END), 0);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_GT(static_cast<uint64_t>(size), cut);
  ASSERT_EQ(::truncate(path.c_str(), size - static_cast<off_t>(cut)), 0);
}

class CrashRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::Reset(); }
  void TearDown() override { fault::Reset(); }
};

// --- baseline lifecycle (no faults, all builds) ----------------------------

TEST_F(CrashRecoveryTest, FreshStartThenCleanReopen) {
  for (const CounterBacking backing : kBackings) {
    ScopedStoreDir dir;
    Scenario s(backing);
    {
      StorePtr store = MustOpen(dir.path(), s.options);
      ASSERT_NE(store, nullptr);
      EXPECT_EQ(store->Stats().recovery, RecoveryVerdict::kFreshStart);
      const auto keys = KeyRange(0, 200);
      ASSERT_TRUE(store->InsertBatch(keys.data(), keys.size(), 2).ok());
      s.Ack(false, keys, 2);
      ASSERT_TRUE(store->Insert(7, 5).ok());
      s.Ack(false, {7}, 5);
      ASSERT_TRUE(store->Remove(7, 1).ok());
      s.Ack(true, {7}, 1);
      s.ExpectMatches(*store, "live");
    }
    StorePtr reopened = MustOpen(dir.path(), s.options);
    ASSERT_NE(reopened, nullptr);
    const DurabilityStats stats = reopened->Stats();
    EXPECT_EQ(stats.recovery, RecoveryVerdict::kClean);
    EXPECT_FALSE(stats.recovered_torn_tail);
    EXPECT_EQ(stats.quarantined_checkpoints, 0u);
    EXPECT_EQ(stats.replayed_records, 3u);
    s.ExpectMatches(*reopened, "reopened");
  }
}

TEST_F(CrashRecoveryTest, CheckpointThenReplayTail) {
  for (const CounterBacking backing : kBackings) {
    ScopedStoreDir dir;
    Scenario s(backing);
    {
      StorePtr store = MustOpen(dir.path(), s.options);
      ASSERT_NE(store, nullptr);
      const auto before = KeyRange(0, 150);
      ASSERT_TRUE(store->InsertBatch(before.data(), before.size(), 1).ok());
      s.Ack(false, before, 1);
      ASSERT_TRUE(store->Checkpoint().ok());
      EXPECT_EQ(store->generation(), 1u);
      const auto after = KeyRange(150, 80);
      ASSERT_TRUE(store->InsertBatch(after.data(), after.size(), 3).ok());
      s.Ack(false, after, 3);
    }
    StorePtr reopened = MustOpen(dir.path(), s.options);
    ASSERT_NE(reopened, nullptr);
    EXPECT_EQ(reopened->Stats().recovery, RecoveryVerdict::kClean);
    EXPECT_EQ(reopened->generation(), 1u);
    // Only the post-checkpoint tail replays; the bulk loads from the
    // checkpoint.
    EXPECT_EQ(reopened->Stats().replayed_records, 1u);
    s.ExpectMatches(*reopened, "checkpoint+tail");
  }
}

TEST_F(CrashRecoveryTest, CheckpointSealLandsInOldLog) {
  ScopedStoreDir dir;
  Scenario s(CounterBacking::kCompact);
  {
    StorePtr store = MustOpen(dir.path(), s.options);
    ASSERT_NE(store, nullptr);
    ASSERT_TRUE(store->Insert(11, 1).ok());
    ASSERT_TRUE(store->Checkpoint().ok());
  }
  // The rotated-away log must end in a kCheckpointSeal record naming the
  // generation that superseded it.
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(io::ReadFileBytes(WalPath(dir.path(), 0), &bytes).ok());
  auto scan = io::ScanLog(bytes);
  ASSERT_TRUE(scan.ok()) << scan.status().message();
  ASSERT_FALSE(scan.value().records.empty());
  const io::WalRecord& last = scan.value().records.back();
  EXPECT_EQ(last.type, io::WalRecordType::kCheckpointSeal);
  EXPECT_EQ(last.next_generation, 1u);
  EXPECT_EQ(scan.value().records.front().type,
            io::WalRecordType::kDeltaBatch);
}

TEST_F(CrashRecoveryTest, RetentionKeepsTwoGenerations) {
  ScopedStoreDir dir;
  Scenario s(CounterBacking::kFixed64);
  StorePtr store = MustOpen(dir.path(), s.options);
  ASSERT_NE(store, nullptr);
  for (uint64_t round = 0; round < 3; ++round) {
    const auto keys = KeyRange(round * 50, 50);
    ASSERT_TRUE(store->InsertBatch(keys.data(), keys.size(), 1).ok());
    s.Ack(false, keys, 1);
    ASSERT_TRUE(store->Checkpoint().ok());
  }
  EXPECT_EQ(store->generation(), 3u);
  // Generations 3 (current) and 2 (previous) survive; 0 and 1 are pruned.
  EXPECT_EQ(::access(CheckpointPath(dir.path(), 3).c_str(), F_OK), 0);
  EXPECT_EQ(::access(CheckpointPath(dir.path(), 2).c_str(), F_OK), 0);
  EXPECT_EQ(::access(WalPath(dir.path(), 3).c_str(), F_OK), 0);
  EXPECT_EQ(::access(WalPath(dir.path(), 2).c_str(), F_OK), 0);
  EXPECT_NE(::access(CheckpointPath(dir.path(), 1).c_str(), F_OK), 0);
  EXPECT_NE(::access(WalPath(dir.path(), 1).c_str(), F_OK), 0);
  EXPECT_NE(::access(WalPath(dir.path(), 0).c_str(), F_OK), 0);
  store.reset();
  StorePtr reopened = MustOpen(dir.path(), s.options);
  ASSERT_NE(reopened, nullptr);
  s.ExpectMatches(*reopened, "after retention pruning");
}

// --- file-level damage (no fault hooks; runs in every build) ---------------

TEST_F(CrashRecoveryTest, ManuallyTruncatedTailDropsOnlyLastRecord) {
  for (const CounterBacking backing : kBackings) {
    ScopedStoreDir dir;
    Scenario s(backing);
    {
      StorePtr store = MustOpen(dir.path(), s.options);
      ASSERT_NE(store, nullptr);
      const auto keys = KeyRange(0, 100);
      ASSERT_TRUE(store->InsertBatch(keys.data(), keys.size(), 2).ok());
      s.Ack(false, keys, 2);
      // The victim: acked, then torn off below — exactly what a crash
      // between write() and fsync() leaves with sync_each_append off.
      ASSERT_TRUE(store->Insert(999, 4).ok());
    }
    TruncateBy(WalPath(dir.path(), 0), 5);
    StorePtr reopened = MustOpen(dir.path(), s.options);
    ASSERT_NE(reopened, nullptr);
    const DurabilityStats stats = reopened->Stats();
    EXPECT_EQ(stats.recovery, RecoveryVerdict::kTornTail);
    EXPECT_TRUE(stats.recovered_torn_tail);
    EXPECT_EQ(stats.replayed_records, 1u);
    s.ExpectMatches(*reopened, "truncated tail");
    // Appending after the truncation must work (the tail was cut away).
    ASSERT_TRUE(reopened->Insert(5, 1).ok());
  }
}

// A read-only reopen must leave a clean log untouched: no truncate (which
// would update the inode and give the close-time fsync something to write)
// and nothing unsynced. A torn tail is still cut, and left to be synced.
TEST_F(CrashRecoveryTest, ResumeTruncatesOnlyATornTail) {
  ScopedStoreDir dir;
  const DurableOptions options = MakeOptions(CounterBacking::kCompact);
  const std::string path = WalPath(dir.path(), 0);
  uint64_t valid = 0;
  {
    auto created = io::DeltaLogWriter::Create(
        path, 0, ConcurrentSbf(options.filter).Serialize(), false);
    ASSERT_TRUE(created.ok()) << created.status().message();
    io::DeltaLogWriter log = std::move(created).value();
    EXPECT_FALSE(log.unsynced());
    const auto keys = KeyRange(0, 16);
    ASSERT_TRUE(
        log.Append(io::EncodeWalDeltaBatch(1, false, 1, keys.data(), 16)).ok());
    EXPECT_TRUE(log.unsynced());
    ASSERT_TRUE(log.Sync().ok());
    EXPECT_FALSE(log.unsynced());
    valid = log.bytes_written();
  }
  struct stat before{};
  ASSERT_EQ(::stat(path.c_str(), &before), 0);
  ::usleep(20000);  // past the filesystem's timestamp granularity
  {
    auto resumed = io::DeltaLogWriter::Resume(path, valid, false);
    ASSERT_TRUE(resumed.ok()) << resumed.status().message();
    EXPECT_FALSE(resumed.value().unsynced());
  }
  struct stat after{};
  ASSERT_EQ(::stat(path.c_str(), &after), 0);
  EXPECT_EQ(static_cast<uint64_t>(after.st_size), valid);
  EXPECT_EQ(after.st_mtim.tv_sec, before.st_mtim.tv_sec);
  EXPECT_EQ(after.st_mtim.tv_nsec, before.st_mtim.tv_nsec);

  FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  std::fputs("torn!", f);
  std::fclose(f);
  {
    auto resumed = io::DeltaLogWriter::Resume(path, valid, false);
    ASSERT_TRUE(resumed.ok()) << resumed.status().message();
    EXPECT_TRUE(resumed.value().unsynced());
  }
  ASSERT_EQ(::stat(path.c_str(), &after), 0);
  EXPECT_EQ(static_cast<uint64_t>(after.st_size), valid);
}

TEST_F(CrashRecoveryTest, BitFlippedTailRecordIsCleanEndOfLog) {
  ScopedStoreDir dir;
  Scenario s(CounterBacking::kCompact);
  {
    StorePtr store = MustOpen(dir.path(), s.options);
    ASSERT_NE(store, nullptr);
    const auto keys = KeyRange(0, 64);
    ASSERT_TRUE(store->InsertBatch(keys.data(), keys.size(), 1).ok());
    s.Ack(false, keys, 1);
    ASSERT_TRUE(store->Insert(424242, 9).ok());
  }
  // Flip a payload bit inside the final record: CRC kills it, recovery
  // treats it as a torn tail, earlier records survive.
  FlipBitAt(WalPath(dir.path(), 0), -4);
  StorePtr reopened = MustOpen(dir.path(), s.options);
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(reopened->Stats().recovery, RecoveryVerdict::kTornTail);
  EXPECT_EQ(reopened->Stats().replayed_records, 1u);
  s.ExpectMatches(*reopened, "bit-flipped tail");
}

TEST_F(CrashRecoveryTest, CorruptCheckpointQuarantinesAndFallsBack) {
  for (const CounterBacking backing : kBackings) {
    ScopedStoreDir dir;
    Scenario s(backing);
    {
      StorePtr store = MustOpen(dir.path(), s.options);
      ASSERT_NE(store, nullptr);
      const auto a = KeyRange(0, 120);
      ASSERT_TRUE(store->InsertBatch(a.data(), a.size(), 1).ok());
      s.Ack(false, a, 1);
      ASSERT_TRUE(store->Checkpoint().ok());
      const auto b = KeyRange(120, 60);
      ASSERT_TRUE(store->InsertBatch(b.data(), b.size(), 2).ok());
      s.Ack(false, b, 2);
      ASSERT_TRUE(store->Checkpoint().ok());
      const auto c = KeyRange(180, 30);
      ASSERT_TRUE(store->InsertBatch(c.data(), c.size(), 1).ok());
      s.Ack(false, c, 1);
    }
    // Damage the newest checkpoint's payload. CRC validation rejects it
    // long before any field is trusted, so this is safe under SBF_AUDIT
    // too; recovery must fall back to generation 1 and replay wal-1 +
    // wal-2 to reach the same state.
    FlipBitAt(CheckpointPath(dir.path(), 2), -8);
    StorePtr reopened = MustOpen(dir.path(), s.options);
    ASSERT_NE(reopened, nullptr);
    const DurabilityStats stats = reopened->Stats();
    EXPECT_EQ(stats.recovery, RecoveryVerdict::kQuarantined);
    EXPECT_EQ(stats.quarantined_checkpoints, 1u);
    s.ExpectMatches(*reopened, "quarantined checkpoint");
    // The damaged file is kept aside as evidence, not deleted.
    EXPECT_EQ(::access((CheckpointPath(dir.path(), 2) + ".quarantined").c_str(),
                       F_OK),
              0);
    EXPECT_NE(::access(CheckpointPath(dir.path(), 2).c_str(), F_OK), 0);
  }
}

TEST_F(CrashRecoveryTest, CorruptSupersededLogIsNeverOpened) {
  for (const CounterBacking backing : kBackings) {
    ScopedStoreDir dir;
    Scenario s(backing);
    {
      StorePtr store = MustOpen(dir.path(), s.options);
      ASSERT_NE(store, nullptr);
      const auto a = KeyRange(0, 100);
      ASSERT_TRUE(store->InsertBatch(a.data(), a.size(), 2).ok());
      s.Ack(false, a, 2);
      ASSERT_TRUE(store->Checkpoint().ok());
      const auto b = KeyRange(100, 50);
      ASSERT_TRUE(store->InsertBatch(b.data(), b.size(), 1).ok());
      s.Ack(false, b, 1);
    }
    // wal-0 is superseded by the intact checkpoint-1: recovery reads only
    // the checkpoint and wal-1, so a destroyed wal-0 header changes
    // nothing — no quarantine, no verdict downgrade, and the file stays
    // where retention will delete it at the next checkpoint.
    FlipBitAt(WalPath(dir.path(), 0), 25);  // inside the header frame
    StorePtr reopened = MustOpen(dir.path(), s.options);
    ASSERT_NE(reopened, nullptr);
    const DurabilityStats stats = reopened->Stats();
    EXPECT_EQ(stats.recovery, RecoveryVerdict::kClean);
    EXPECT_EQ(stats.quarantined_checkpoints, 0u);
    EXPECT_EQ(stats.replayed_records, 1u);
    s.ExpectMatches(*reopened, "corrupt superseded log");
    EXPECT_EQ(::access(WalPath(dir.path(), 0).c_str(), F_OK), 0);
    EXPECT_NE(
        ::access((WalPath(dir.path(), 0) + ".quarantined").c_str(), F_OK), 0);
  }
}

TEST_F(CrashRecoveryTest, FallbackCheckpointReplaysItsLogAgain) {
  for (const CounterBacking backing : kBackings) {
    ScopedStoreDir dir;
    Scenario s(backing);
    {
      StorePtr store = MustOpen(dir.path(), s.options);
      ASSERT_NE(store, nullptr);
      const auto a = KeyRange(0, 80);
      ASSERT_TRUE(store->InsertBatch(a.data(), a.size(), 1).ok());
      s.Ack(false, a, 1);
      ASSERT_TRUE(store->Checkpoint().ok());
      const auto b = KeyRange(80, 70);
      ASSERT_TRUE(store->InsertBatch(b.data(), b.size(), 3).ok());
      s.Ack(false, b, 3);
      ASSERT_TRUE(store->Remove(5, 1).ok());
      s.Ack(true, {5}, 1);
      ASSERT_TRUE(store->Checkpoint().ok());
      const auto c = KeyRange(150, 20);
      ASSERT_TRUE(store->InsertBatch(c.data(), c.size(), 2).ok());
      s.Ack(false, c, 2);
    }
    // With checkpoint-2 gone, wal-1 is no longer superseded: recovery
    // bases on checkpoint-1 and must read wal-1 (two deltas and the seal)
    // before wal-2 (one delta).
    FlipBitAt(CheckpointPath(dir.path(), 2), -8);
    StorePtr reopened = MustOpen(dir.path(), s.options);
    ASSERT_NE(reopened, nullptr);
    const DurabilityStats stats = reopened->Stats();
    EXPECT_EQ(stats.recovery, RecoveryVerdict::kQuarantined);
    EXPECT_EQ(stats.quarantined_checkpoints, 1u);
    EXPECT_EQ(stats.replayed_records, 4u);
    EXPECT_EQ(reopened->generation(), 2u);
    s.ExpectMatches(*reopened, "fallback replays wal-1");
  }
}

TEST_F(CrashRecoveryTest, AllCheckpointsLostRebuildsFromLogsAlone) {
  ScopedStoreDir dir;
  Scenario s(CounterBacking::kFixed64);
  {
    StorePtr store = MustOpen(dir.path(), s.options);
    ASSERT_NE(store, nullptr);
    const auto a = KeyRange(0, 90);
    ASSERT_TRUE(store->InsertBatch(a.data(), a.size(), 1).ok());
    s.Ack(false, a, 1);
    ASSERT_TRUE(store->Checkpoint().ok());
    const auto b = KeyRange(90, 40);
    ASSERT_TRUE(store->InsertBatch(b.data(), b.size(), 1).ok());
    s.Ack(false, b, 1);
  }
  // The only checkpoint dies; wal-0 (with its embedded empty-filter
  // configuration) plus wal-1 still reconstruct everything.
  FlipBitAt(CheckpointPath(dir.path(), 1), -8);
  StorePtr reopened = MustOpen(dir.path(), s.options);
  ASSERT_NE(reopened, nullptr);
  const DurabilityStats stats = reopened->Stats();
  EXPECT_EQ(stats.recovery, RecoveryVerdict::kLogOnlyRebuild);
  EXPECT_EQ(stats.quarantined_checkpoints, 1u);
  s.ExpectMatches(*reopened, "log-only rebuild");
}

TEST_F(CrashRecoveryTest, NothingUsableIsUnrecoverable) {
  ScopedStoreDir dir;
  Scenario s(CounterBacking::kCompact);
  {
    StorePtr store = MustOpen(dir.path(), s.options);
    ASSERT_NE(store, nullptr);
    ASSERT_TRUE(store->Insert(1, 1).ok());
    ASSERT_TRUE(store->Checkpoint().ok());
  }
  // Kill the checkpoint AND both log headers: no base state survives
  // anywhere, which must surface as a clean error, not a crash or an
  // empty filter pretending to be the store.
  FlipBitAt(CheckpointPath(dir.path(), 1), -8);
  FlipBitAt(WalPath(dir.path(), 0), 25);   // inside the header frame
  FlipBitAt(WalPath(dir.path(), 1), 25);
  auto opened = DurableSbf::Open(dir.path(), s.options);
  EXPECT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), Status::Code::kDataLoss);
}

TEST_F(CrashRecoveryTest, LeftoverTmpFilesAreDeletedOnOpen) {
  ScopedStoreDir dir;
  Scenario s(CounterBacking::kCompact);
  {
    StorePtr store = MustOpen(dir.path(), s.options);
    ASSERT_NE(store, nullptr);
    ASSERT_TRUE(store->Insert(3, 2).ok());
    s.Ack(false, {3}, 2);
  }
  // A crashed checkpoint leaves checkpoint-1.sbf.tmp; recovery must sweep
  // it without ever considering it a checkpoint.
  const std::string tmp = CheckpointPath(dir.path(), 1) + ".tmp";
  FILE* f = std::fopen(tmp.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("partial garbage", f);
  std::fclose(f);
  StorePtr reopened = MustOpen(dir.path(), s.options);
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(reopened->Stats().recovery, RecoveryVerdict::kClean);
  EXPECT_NE(::access(tmp.c_str(), F_OK), 0);
  s.ExpectMatches(*reopened, "tmp swept");
}

// --- injected crash points (need SBF_FAULT_INJECTION) ----------------------

class CrashPointTest : public CrashRecoveryTest {
 protected:
  void SetUp() override {
#ifndef SBF_FAULT_INJECTION
    GTEST_SKIP() << "built without SBF_FAULT_INJECTION";
#endif
    CrashRecoveryTest::SetUp();
  }
};

TEST_F(CrashPointTest, TornAppendMidRecordIsNotAcked) {
  for (const CounterBacking backing : kBackings) {
    for (uint64_t seed = 0; seed < 4; ++seed) {
      ScopedStoreDir dir;
      Scenario s(backing);
      {
        StorePtr store = MustOpen(dir.path(), s.options);
        ASSERT_NE(store, nullptr);
        const auto keys = KeyRange(0, 80);
        ASSERT_TRUE(store->InsertBatch(keys.data(), keys.size(), 1).ok());
        s.Ack(false, keys, 1);
        // Crash point: the next append persists only a prefix of its
        // record. The op fails (never acked) and the store wedges like a
        // dead process.
        fault::ArmFileFault(fault::FileFault::kShortWrite, 1, seed);
        const auto doomed = KeyRange(500, 16);
        const Status torn =
            store->InsertBatch(doomed.data(), doomed.size(), 7);
        EXPECT_FALSE(torn.ok());
        EXPECT_EQ(fault::InjectedFileFaults(), 1u);
        EXPECT_TRUE(store->Stats().wedged);
        // Wedged: mutations fail, reads keep serving.
        EXPECT_FALSE(store->Insert(1, 1).ok());
        EXPECT_EQ(store->Estimate(0), s.reference.Estimate(0));
      }
      fault::Reset();
      StorePtr reopened = MustOpen(dir.path(), s.options);
      ASSERT_NE(reopened, nullptr);
      const DurabilityStats stats = reopened->Stats();
      EXPECT_EQ(stats.recovery, RecoveryVerdict::kTornTail)
          << BackingName(backing) << " seed " << seed;
      s.ExpectMatches(*reopened, "torn append");
      ASSERT_TRUE(reopened->Insert(5, 1).ok());  // tail truncated; append ok
    }
  }
}

TEST_F(CrashPointTest, TornCheckpointWriteLeavesOldStateIntact) {
  for (const CounterBacking backing : kBackings) {
    ScopedStoreDir dir;
    Scenario s(backing);
    {
      StorePtr store = MustOpen(dir.path(), s.options);
      ASSERT_NE(store, nullptr);
      const auto keys = KeyRange(0, 70);
      ASSERT_TRUE(store->InsertBatch(keys.data(), keys.size(), 2).ok());
      s.Ack(false, keys, 2);
      // Crash point: the checkpoint tmp is torn mid-write. The rename
      // never happens, so nothing durable changed; the store is NOT
      // wedged and the WAL still carries everything.
      fault::ArmFileFault(fault::FileFault::kShortWrite, 1, 3);
      const Status crashed = store->Checkpoint();
      EXPECT_FALSE(crashed.ok());
      EXPECT_FALSE(store->Stats().wedged);
      EXPECT_EQ(store->generation(), 0u);
      fault::Reset();
      // The same store can still append and even checkpoint afterwards.
      ASSERT_TRUE(store->Insert(901, 1).ok());
      s.Ack(false, {901}, 1);
    }
    StorePtr reopened = MustOpen(dir.path(), s.options);
    ASSERT_NE(reopened, nullptr);
    EXPECT_EQ(reopened->Stats().recovery, RecoveryVerdict::kClean);
    s.ExpectMatches(*reopened, "torn checkpoint write");
  }
}

TEST_F(CrashPointTest, CrashBeforeRenameKeepsPreviousGeneration) {
  for (const CounterBacking backing : kBackings) {
    ScopedStoreDir dir;
    Scenario s(backing);
    {
      StorePtr store = MustOpen(dir.path(), s.options);
      ASSERT_NE(store, nullptr);
      const auto keys = KeyRange(0, 60);
      ASSERT_TRUE(store->InsertBatch(keys.data(), keys.size(), 1).ok());
      s.Ack(false, keys, 1);
      fault::ArmFileFault(fault::FileFault::kFailBeforeRename, 1);
      const Status crashed = store->Checkpoint();
      EXPECT_FALSE(crashed.ok());
      EXPECT_EQ(fault::InjectedFileFaults(), 1u);
      EXPECT_EQ(store->generation(), 0u);
      EXPECT_FALSE(store->Stats().wedged);
    }
    fault::Reset();
    // checkpoint-1.sbf must not exist (only its tmp, which Open sweeps).
    EXPECT_NE(::access(CheckpointPath(dir.path(), 1).c_str(), F_OK), 0);
    StorePtr reopened = MustOpen(dir.path(), s.options);
    ASSERT_NE(reopened, nullptr);
    EXPECT_EQ(reopened->Stats().recovery, RecoveryVerdict::kClean);
    EXPECT_EQ(reopened->generation(), 0u);
    s.ExpectMatches(*reopened, "crash before rename");
  }
}

TEST_F(CrashPointTest, CrashAfterRenameResumesAtNewGeneration) {
  for (const CounterBacking backing : kBackings) {
    ScopedStoreDir dir;
    Scenario s(backing);
    {
      StorePtr store = MustOpen(dir.path(), s.options);
      ASSERT_NE(store, nullptr);
      const auto keys = KeyRange(0, 60);
      ASSERT_TRUE(store->InsertBatch(keys.data(), keys.size(), 3).ok());
      s.Ack(false, keys, 3);
      // Crash point: the new checkpoint became visible but the process
      // died before rotating logs. The store must wedge — appending more
      // to wal-0 would hide acked records from recovery, which replays
      // from the newest checkpoint.
      fault::ArmFileFault(fault::FileFault::kFailAfterRename, 1);
      const Status crashed = store->Checkpoint();
      EXPECT_FALSE(crashed.ok());
      EXPECT_TRUE(store->Stats().wedged);
      EXPECT_FALSE(store->Insert(1, 1).ok());
    }
    fault::Reset();
    EXPECT_EQ(::access(CheckpointPath(dir.path(), 1).c_str(), F_OK), 0);
    StorePtr reopened = MustOpen(dir.path(), s.options);
    ASSERT_NE(reopened, nullptr);
    EXPECT_EQ(reopened->Stats().recovery, RecoveryVerdict::kClean);
    // Recovery adopts generation 1 and creates the missing wal-1.
    EXPECT_EQ(reopened->generation(), 1u);
    EXPECT_EQ(::access(WalPath(dir.path(), 1).c_str(), F_OK), 0);
    s.ExpectMatches(*reopened, "crash after rename");
    ASSERT_TRUE(reopened->Insert(77, 1).ok());
  }
}

TEST_F(CrashPointTest, FsyncFailureDuringCheckpointIsClean) {
  for (const CounterBacking backing : kBackings) {
    ScopedStoreDir dir;
    Scenario s(backing);
    s.options.sync_each_append = false;  // appends skip fsync; the armed
                                         // fault hits the checkpoint body
    {
      StorePtr store = MustOpen(dir.path(), s.options);
      ASSERT_NE(store, nullptr);
      const auto keys = KeyRange(0, 50);
      ASSERT_TRUE(store->InsertBatch(keys.data(), keys.size(), 1).ok());
      s.Ack(false, keys, 1);
      fault::ArmFileFault(fault::FileFault::kFsyncFail, 1);
      const Status crashed = store->Checkpoint();
      EXPECT_FALSE(crashed.ok());
      EXPECT_EQ(store->generation(), 0u);
      fault::Reset();
      ASSERT_TRUE(store->SyncLog().ok());  // records still reach disk
    }
    StorePtr reopened = MustOpen(dir.path(), s.options);
    ASSERT_NE(reopened, nullptr);
    EXPECT_EQ(reopened->Stats().recovery, RecoveryVerdict::kClean);
    s.ExpectMatches(*reopened, "fsync failure");
  }
}

TEST_F(CrashPointTest, TransientFsyncFailureIsRetriedWithBackoff) {
  ScopedStoreDir dir;
  Scenario s(CounterBacking::kCompact);
  s.options.sync_each_append = false;
  s.options.checkpoint_retries = 3;  // transient faults may retry
  StorePtr store = MustOpen(dir.path(), s.options);
  ASSERT_NE(store, nullptr);
  const auto keys = KeyRange(0, 40);
  ASSERT_TRUE(store->InsertBatch(keys.data(), keys.size(), 1).ok());
  s.Ack(false, keys, 1);
  // One-shot fault: the first attempt fails, the backoff retry succeeds.
  fault::ArmFileFault(fault::FileFault::kFsyncFail, 1);
  ASSERT_TRUE(store->Checkpoint().ok());
  const DurabilityStats stats = store->Stats();
  EXPECT_EQ(stats.checkpoints_written, 1u);
  EXPECT_EQ(stats.checkpoint_retries, 1u);
  EXPECT_EQ(stats.checkpoint_failures, 0u);
  EXPECT_EQ(store->generation(), 1u);
  s.ExpectMatches(*store, "retried checkpoint");
}

// --- background checkpointer ------------------------------------------------

TEST_F(CrashRecoveryTest, BackgroundCheckpointerFiresOnLogSize) {
  ScopedStoreDir dir;
  Scenario s(CounterBacking::kFixed64);
  s.options.background_checkpointer = true;
  s.options.checkpoint_log_bytes = 2048;  // a few hundred records
  {
    StorePtr store = MustOpen(dir.path(), s.options);
    ASSERT_NE(store, nullptr);
    for (uint64_t key = 0; key < 200; ++key) {
      ASSERT_TRUE(store->Insert(key, 1).ok());
      s.Ack(false, {key}, 1);
    }
    // The size trigger should fire without any explicit Checkpoint().
    for (int spin = 0; spin < 500; ++spin) {
      if (store->Stats().checkpoints_written > 0) break;
      ::usleep(10 * 1000);
    }
    EXPECT_GT(store->Stats().checkpoints_written, 0u);
    EXPECT_GE(store->generation(), 1u);
  }
  StorePtr reopened = MustOpen(dir.path(), s.options);
  ASSERT_NE(reopened, nullptr);
  s.ExpectMatches(*reopened, "background checkpointer");
}

// Appends that land in the old log while a checkpoint runs used to re-arm
// the size trigger, so every real checkpoint was followed by one of a log
// holding only its header. One burst crosses the threshold once, so exactly
// one checkpoint may follow.
TEST_F(CrashRecoveryTest, BackgroundCheckpointerDoesNotCheckpointAnEmptyLog) {
  ScopedStoreDir dir;
  Scenario s(CounterBacking::kCompact);
  s.options.background_checkpointer = true;
  s.options.checkpoint_log_bytes = 4096;
  StorePtr store = MustOpen(dir.path(), s.options);
  ASSERT_NE(store, nullptr);
  // Single-key records are 40 bytes: the burst crosses 4096 bytes of
  // records once and stays below twice that.
  for (uint64_t key = 0; key < 150; ++key) {
    ASSERT_TRUE(store->Insert(key, 1).ok());
  }
  for (int spin = 0; spin < 500; ++spin) {
    if (store->Stats().checkpoints_written > 0) break;
    ::usleep(10 * 1000);
  }
  ::usleep(2 * 200 * 1000);  // two of the checkpointer's wait periods
  const DurabilityStats stats = store->Stats();
  EXPECT_EQ(stats.checkpoints_written, 1u) << stats.ToString();
  EXPECT_GT(stats.last_checkpoint_ms, 0.0);
  EXPECT_LE(stats.checkpoint_blocked_ms, stats.last_checkpoint_ms);
}

// A rotated log's header embeds the same empty-filter frame a fresh
// sharded filter serializes to, for every backing.
TEST_F(CrashRecoveryTest, RotatedLogHeaderEmbedsTheEmptyFilter) {
  for (const CounterBacking backing : kBackings) {
    ScopedStoreDir dir;
    Scenario s(backing);
    {
      StorePtr store = MustOpen(dir.path(), s.options);
      ASSERT_NE(store, nullptr);
      ASSERT_TRUE(store->Insert(9, 2).ok());
      ASSERT_TRUE(store->Checkpoint().ok());
    }
    const std::vector<uint8_t> expected =
        ConcurrentSbf(s.options.filter).Serialize();
    for (const uint64_t g : {0, 1}) {
      std::vector<uint8_t> bytes;
      ASSERT_TRUE(io::ReadFileBytes(WalPath(dir.path(), g), &bytes).ok());
      auto scan = io::ScanLog(bytes);
      ASSERT_TRUE(scan.ok()) << scan.status().message();
      const wire::ByteSpan frame = scan.value().header.empty_filter_frame;
      EXPECT_EQ(std::vector<uint8_t>(frame.begin(), frame.end()), expected)
          << BackingName(backing) << " wal-" << g;
    }
  }
}

// --- the copied tail: crash between the new log and the rename -------------

// Re-encodes delta `records` (sequences included) exactly as the store
// wrote them.
std::vector<uint8_t> EncodeRecords(const std::vector<io::WalRecord>& records) {
  std::vector<uint8_t> out;
  for (const io::WalRecord& r : records) {
    const std::vector<uint8_t> frame = io::EncodeWalDeltaBatch(
        r.sequence, r.is_remove, r.count, r.keys.data(), r.keys.size());
    out.insert(out.end(), frame.begin(), frame.end());
  }
  return out;
}

// checkpoint-1 + wal-1 + a hand-built wal-2 that begins with a copy of
// wal-1's last two records: what a crash after the checkpoint protocol
// created wal-2 but before it renamed checkpoint-2 leaves behind.
void BuildGapStore(const std::string& dir, Scenario& s) {
  {
    StorePtr store = MustOpen(dir, s.options);
    ASSERT_NE(store, nullptr);
    const auto a = KeyRange(0, 90);
    ASSERT_TRUE(store->InsertBatch(a.data(), a.size(), 1).ok());
    s.Ack(false, a, 1);
    ASSERT_TRUE(store->Checkpoint().ok());
    for (uint64_t i = 0; i < 3; ++i) {
      const auto b = KeyRange(90 + 40 * i, 40);
      ASSERT_TRUE(store->InsertBatch(b.data(), b.size(), i + 1).ok());
      s.Ack(false, b, i + 1);
    }
    ASSERT_TRUE(store->Remove(3, 1).ok());
    s.Ack(true, {3}, 1);
  }
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(io::ReadFileBytes(WalPath(dir, 1), &bytes).ok());
  auto scan = io::ScanLog(bytes);
  ASSERT_TRUE(scan.ok()) << scan.status().message();
  const std::vector<io::WalRecord>& records = scan.value().records;
  ASSERT_EQ(records.size(), 4u);
  const std::vector<io::WalRecord> tail(records.end() - 2, records.end());
  auto wal2 = io::DeltaLogWriter::Create(
      WalPath(dir, 2), 2, ConcurrentSbf(s.options.filter).Serialize(), false,
      EncodeRecords(tail));
  ASSERT_TRUE(wal2.ok()) << wal2.status().message();
}

TEST_F(CrashRecoveryTest, CopiedTailReplaysOnce) {
  for (const CounterBacking backing : kBackings) {
    ScopedStoreDir dir;
    Scenario s(backing);
    BuildGapStore(dir.path(), s);
    {
      StorePtr reopened = MustOpen(dir.path(), s.options);
      ASSERT_NE(reopened, nullptr);
      const DurabilityStats stats = reopened->Stats();
      EXPECT_EQ(stats.recovery, RecoveryVerdict::kClean);
      EXPECT_EQ(reopened->generation(), 2u);
      // wal-1's four records; wal-2's two copies are skipped.
      EXPECT_EQ(stats.replayed_records, 4u);
      s.ExpectMatches(*reopened, "copied tail");
      // Appends go on from the copied records' sequences.
      ASSERT_TRUE(reopened->Insert(555, 2).ok());
      s.Ack(false, {555}, 2);
    }
    StorePtr again = MustOpen(dir.path(), s.options);
    ASSERT_NE(again, nullptr);
    EXPECT_EQ(again->Stats().recovery, RecoveryVerdict::kClean);
    s.ExpectMatches(*again, "copied tail, appended");
  }
}

// Generation 2 has no checkpoint. Retention must keep checkpoint-1 after
// checkpoint-3 lands, so damage to checkpoint-3 still falls back to a
// checkpoint instead of rebuilding from a log's empty filter.
TEST_F(CrashRecoveryTest, GenerationGapKeepsTheFallbackCheckpoint) {
  for (const CounterBacking backing : kBackings) {
    ScopedStoreDir dir;
    Scenario s(backing);
    BuildGapStore(dir.path(), s);
    {
      StorePtr store = MustOpen(dir.path(), s.options);
      ASSERT_NE(store, nullptr);
      const auto e = KeyRange(300, 30);
      ASSERT_TRUE(store->InsertBatch(e.data(), e.size(), 2).ok());
      s.Ack(false, e, 2);
      ASSERT_TRUE(store->Checkpoint().ok());
      EXPECT_EQ(store->generation(), 3u);
      const auto f = KeyRange(330, 20);
      ASSERT_TRUE(store->InsertBatch(f.data(), f.size(), 1).ok());
      s.Ack(false, f, 1);
    }
    EXPECT_EQ(::access(CheckpointPath(dir.path(), 1).c_str(), F_OK), 0);
    FlipBitAt(CheckpointPath(dir.path(), 3), -8);
    StorePtr reopened = MustOpen(dir.path(), s.options);
    ASSERT_NE(reopened, nullptr);
    const DurabilityStats stats = reopened->Stats();
    EXPECT_EQ(stats.recovery, RecoveryVerdict::kQuarantined);
    EXPECT_EQ(stats.quarantined_checkpoints, 1u);
    EXPECT_EQ(reopened->generation(), 3u);
    s.ExpectMatches(*reopened, "fallback across a generation gap");
  }
}

// A reopen whose live log holds only its header continues the sequence
// from the log before it; restarting at 1 would make a later fallback
// replay skip the new records as copies.
TEST_F(CrashRecoveryTest, EmptyLiveLogContinuesTheSequence) {
  ScopedStoreDir dir;
  Scenario s(CounterBacking::kCompact);
  {
    StorePtr store = MustOpen(dir.path(), s.options);
    ASSERT_NE(store, nullptr);
    const auto a = KeyRange(0, 50);
    ASSERT_TRUE(store->InsertBatch(a.data(), a.size(), 1).ok());
    s.Ack(false, a, 1);
    ASSERT_TRUE(store->Checkpoint().ok());
    const auto b = KeyRange(50, 50);
    ASSERT_TRUE(store->InsertBatch(b.data(), b.size(), 1).ok());
    s.Ack(false, b, 1);
    ASSERT_TRUE(store->Checkpoint().ok());
  }
  {
    StorePtr store = MustOpen(dir.path(), s.options);
    ASSERT_NE(store, nullptr);
    const auto c = KeyRange(0, 100);
    ASSERT_TRUE(store->InsertBatch(c.data(), c.size(), 1).ok());
    s.Ack(false, c, 1);
  }
  FlipBitAt(CheckpointPath(dir.path(), 2), -8);
  StorePtr reopened = MustOpen(dir.path(), s.options);
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(reopened->Stats().recovery, RecoveryVerdict::kQuarantined);
  s.ExpectMatches(*reopened, "fallback after an empty live log");
}

// --- checkpoints concurrent with appends ------------------------------------

// One thread appends insert and remove batches while another checkpoints
// in a loop. Every acked batch must survive a reopen exactly once: none
// lost at a cut, none replayed twice from a copied tail.
void RunConcurrentCheckpoints(CounterBacking backing, bool sync_each_append) {
  ScopedStoreDir dir;
  Scenario s(backing);
  s.options.filter.m = 1 << 14;
  s.reference = ConcurrentSbf(s.options.filter);
  s.options.sync_each_append = sync_each_append;
  const uint64_t batches = sync_each_append ? 300 : 3000;
  std::atomic<bool> done{false};
  uint64_t checkpoints = 0;
  {
    StorePtr store = MustOpen(dir.path(), s.options);
    ASSERT_NE(store, nullptr);
    std::thread checkpointer([&] {
      while (!done.load(std::memory_order_acquire)) {
        const Status status = store->Checkpoint();
        EXPECT_TRUE(status.ok()) << status.message();
        if (!status.ok()) return;
        ++checkpoints;
      }
    });
    for (uint64_t b = 0; b < batches; ++b) {
      // Every fifth batch removes one occurrence of the batch before it.
      const bool remove = b % 5 == 4;
      const auto keys = KeyRange(((remove ? b - 1 : b) * 7) % 380, 16);
      if (remove) {
        for (const uint64_t key : keys) {
          const Status status = store->Remove(key, 1);
          ASSERT_TRUE(status.ok()) << status.message();
        }
        s.Ack(true, keys, 1);
      } else {
        const uint64_t count = 1 + b % 3;
        const Status status = store->InsertBatch(keys.data(), keys.size(),
                                                 count);
        ASSERT_TRUE(status.ok()) << status.message();
        s.Ack(false, keys, count);
      }
    }
    done.store(true, std::memory_order_release);
    checkpointer.join();
    EXPECT_GT(checkpoints, 0u);
    s.ExpectMatches(*store, "live, concurrent checkpoints");
  }
  StorePtr reopened = MustOpen(dir.path(), s.options);
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(reopened->Stats().recovery, RecoveryVerdict::kClean);
  s.ExpectMatches(*reopened, "reopened, concurrent checkpoints");
}

TEST(DurableConcurrentCheckpoint, CompactUnsynced) {
  RunConcurrentCheckpoints(CounterBacking::kCompact, false);
}
TEST(DurableConcurrentCheckpoint, CompactSyncEachAppend) {
  RunConcurrentCheckpoints(CounterBacking::kCompact, true);
}
TEST(DurableConcurrentCheckpoint, Fixed64Unsynced) {
  RunConcurrentCheckpoints(CounterBacking::kFixed64, false);
}
TEST(DurableConcurrentCheckpoint, Fixed64SyncEachAppend) {
  RunConcurrentCheckpoints(CounterBacking::kFixed64, true);
}

// --- stats rendering --------------------------------------------------------

TEST_F(CrashRecoveryTest, StatsRenderOneLine) {
  ScopedStoreDir dir;
  Scenario s(CounterBacking::kCompact);
  StorePtr store = MustOpen(dir.path(), s.options);
  ASSERT_NE(store, nullptr);
  ASSERT_TRUE(store->Insert(1, 1).ok());
  const std::string line = store->Stats().ToString();
  EXPECT_NE(line.find("recovery=fresh-start"), std::string::npos) << line;
  EXPECT_NE(line.find("wal_bytes="), std::string::npos) << line;
  EXPECT_NE(line.find("wedged=0"), std::string::npos) << line;
  EXPECT_STREQ(RecoveryVerdictName(RecoveryVerdict::kUnrecoverable),
               "unrecoverable");
}

}  // namespace
}  // namespace sbf
