#include "core/concurrent_sbf.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "core/batch_kernels.h"
#include "core/sbf_algebra.h"
#include "hashing/hash.h"
#include "sai/fixed_counter_vector.h"
#include "util/bits.h"
#include "util/check.h"
#include "util/fault_injection.h"
#include "util/health.h"
#include "util/prefetch.h"
#include "util/audit.h"
#include "util/thread_annotations.h"

namespace sbf {
namespace {

constexpr uint32_t kMaxK = 64;
constexpr uint32_t kMaxShards = 4096;
constexpr uint64_t kSeedSalt = 0x5BF5AA17C0DEull;
constexpr uint64_t kRouterSalt = 0x5BF707E2D811ull;
// Counters migrated per exclusive-lock acquisition on the locked expansion
// path: small enough that readers interleave between chunks.
constexpr uint64_t kMigrateChunk = 256;
// Keys routed per delta-batch chunk before the per-shard pending tallies
// are published (amortizes the shared fetch_adds over the chunk).
constexpr size_t kDeltaBatchChunk = 512;
// The epoch staleness clock is consulted once per this many buffered ops.
constexpr uint64_t kClockCheckMask = 63;
// Per-thread delta storage is clamped to this many bytes by shrinking the
// per-shard map capacity (a 4096-shard filter would otherwise cost ~70 MiB
// per writing thread at the default capacity).
constexpr size_t kMaxDeltaBytesPerThread = 4u << 20;
// Bytes per delta-map slot: key + net + occupancy byte.
constexpr size_t kDeltaSlotBytes = 2 * sizeof(uint64_t) + 1;

// Relaxed atomic load from a logically-const counter word. atomic_ref of a
// const type is C++26; the const_cast is sound because the referenced word
// is always backed by a mutable BitVector.
uint64_t AtomicLoad(const uint64_t& word) {
  return std::atomic_ref<uint64_t>(const_cast<uint64_t&>(word))
      .load(std::memory_order_relaxed);
}

bool SameShardOptions(const SbfOptions& a, const SbfOptions& b) {
  return a.m == b.m && a.k == b.k && a.policy == b.policy &&
         a.backing == b.backing && a.seed == b.seed &&
         a.hash_kind == b.hash_kind;
}

bool SameOptions(const ConcurrentSbfOptions& a, const ConcurrentSbfOptions& b) {
  return a.m == b.m && a.k == b.k && a.policy == b.policy &&
         a.backing == b.backing && a.seed == b.seed &&
         a.hash_kind == b.hash_kind && a.num_shards == b.num_shards;
}

// Old counter i's rep'th preimage position after a c-fold expansion — the
// same correspondence SpectralBloomFilter::ExpandTo relies on (multiply-
// shift partitions the new range into consecutive runs of c; double-mix
// replicates residues mod the old size).
uint64_t FoldPosition(HashFamily::Kind kind, uint64_t old_m, uint64_t c,
                      uint64_t i, uint64_t rep) {
  return kind == HashFamily::Kind::kModuloMultiply ? i * c + rep
                                                   : i + rep * old_m;
}

// Groups `keys` by destination shard (CountingSortByShard kernel over
// per-call scratch): [starts[s], starts[s+1]) of `grouped` are (stably)
// the keys routed to shard s, ready to feed the per-shard batch kernels as
// one contiguous slice; `order` holds the original index of each grouped
// key, for scattering results back into input order.
void GroupByShard(const ConcurrentSbf& filter, const uint64_t* keys, size_t n,
                  std::vector<uint64_t>* grouped, std::vector<uint32_t>* order,
                  std::vector<size_t>* starts) {
  const uint32_t num_shards = filter.num_shards();
  grouped->resize(n);
  order->resize(n);
  starts->resize(num_shards + 1);
  std::vector<uint32_t> shard_scratch(n);
  std::vector<size_t> cursor_scratch(num_shards);
  CountingSortByShard(
      keys, n, num_shards,
      [&filter](uint64_t key) { return filter.ShardOf(key); },
      grouped->data(), order->data(), starts->data(), shard_scratch.data(),
      cursor_scratch.data());
}

// Counter-word view of a filter's kFixed64 backing for the lock-free
// pipelines: counter i is word i, accessed with relaxed atomics.
struct AtomicWordView {
  uint64_t* words;
};

// Magnitude/sign split of a two's-complement net occurrence count.
bool NetIsAdd(uint64_t net) { return static_cast<int64_t>(net) >= 0; }
uint64_t NetMagnitude(uint64_t net) {
  return NetIsAdd(net) ? net : ~net + 1;
}

}  // namespace

SbfOptions ShardOptions(const ConcurrentSbfOptions& options, uint32_t index) {
  SbfOptions shard;
  shard.m = CeilDiv(options.m, options.num_shards);
  shard.k = options.k;
  shard.policy = options.policy;
  shard.backing = options.backing;
  shard.hash_kind = options.hash_kind;
  // Decorrelated per-shard hash functions: shards are independent filters.
  // The seed does not depend on m, so expansion keeps each shard's family.
  shard.seed = Mix64(options.seed ^ (kSeedSalt + index));
  return shard;
}

ConcurrentSbf::ConcurrentSbf(ConcurrentSbfOptions options)
    : options_(options),
      shard_m_(CeilDiv(options.m, std::max<uint32_t>(options.num_shards, 1))),
      router_salt_(Mix64(options.seed ^ kRouterSalt)),
      lock_free_(options.backing == CounterBacking::kFixed64 &&
                 options.policy == SbfPolicy::kMinimumSelection),
      delta_active_(options.delta.enabled &&
                    options.policy == SbfPolicy::kMinimumSelection),
      metrics_(options.num_shards) {
  SBF_CHECK_MSG(options_.m >= 1, "ConcurrentSbf needs m >= 1");
  SBF_CHECK_MSG(
      options_.num_shards >= 1 && options_.num_shards <= kMaxShards,
      "ConcurrentSbf needs 1 <= num_shards <= 4096");
  shards_.reserve(options_.num_shards);
  for (uint32_t s = 0; s < options_.num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(ShardOptions(options_, s)));
  }
  if (delta_active_) {
    // Sanitize the delta tuning: power-of-two capacity, clamped so one
    // thread's buffers stay within kMaxDeltaBytesPerThread, merge
    // threshold within capacity.
    DeltaBufferOptions& delta = options_.delta;
    uint32_t capacity = 2;
    while (capacity < delta.capacity && capacity < (1u << 30)) capacity <<= 1;
    while (capacity > 2 &&
           static_cast<size_t>(capacity) * options_.num_shards *
                   kDeltaSlotBytes >
               kMaxDeltaBytesPerThread) {
      capacity >>= 1;
    }
    delta.capacity = capacity;
    delta.merge_keys = std::max<uint32_t>(
        1, std::min(delta.merge_keys, std::max<uint32_t>(1, capacity / 2)));
    registry_ = std::make_shared<DeltaRegistry>();
    util::MutexLock lock(registry_->mu);
    registry_->owner = this;
  }
}

ConcurrentSbf::~ConcurrentSbf() { DetachRegistry(); }

ConcurrentSbf::ConcurrentSbf(ConcurrentSbf&& other) noexcept
    : options_(std::move(other.options_)),
      shard_m_(other.shard_m_),
      router_salt_(other.router_salt_),
      lock_free_(other.lock_free_),
      delta_active_(other.delta_active_),
      shards_(std::move(other.shards_)),
      metrics_(std::move(other.metrics_)),
      registry_(std::move(other.registry_)) {
  other.delta_active_ = false;
  if (registry_ != nullptr) {
    // Buffered deltas reference keys, not positions, so they stay valid
    // across the move; only the drain target changes.
    util::MutexLock lock(registry_->mu);
    registry_->owner = this;
  }
}

ConcurrentSbf& ConcurrentSbf::operator=(ConcurrentSbf&& other) noexcept {
  if (this == &other) return *this;
  DetachRegistry();
  options_ = std::move(other.options_);
  shard_m_ = other.shard_m_;
  router_salt_ = other.router_salt_;
  lock_free_ = other.lock_free_;
  delta_active_ = other.delta_active_;
  shards_ = std::move(other.shards_);
  metrics_ = std::move(other.metrics_);
  registry_ = std::move(other.registry_);
  other.delta_active_ = false;
  if (registry_ != nullptr) {
    util::MutexLock lock(registry_->mu);
    registry_->owner = this;
  }
  return *this;
}

void ConcurrentSbf::DetachRegistry() {
  if (registry_ == nullptr) return;
  FlushAllBuffers();
  {
    util::MutexLock lock(registry_->mu);
    registry_->owner = nullptr;
  }
  registry_.reset();
}

uint32_t ConcurrentSbf::ShardOf(uint64_t key) const noexcept {
  // Mixing before the modulo keeps the router independent of the per-shard
  // hash families (which consume the raw key).
  return static_cast<uint32_t>(Mix64(key ^ router_salt_) %
                               options_.num_shards);
}

uint64_t* ConcurrentSbf::FilterWords(SpectralBloomFilter& f) {
  // Only valid for the kFixed64 backing, where counter i is word i.
  auto& fixed = static_cast<FixedWidthCounterVector&>(f.mutable_counters());
  return fixed.mutable_words();
}

const uint64_t* ConcurrentSbf::FilterWords(const SpectralBloomFilter& f) {
  return static_cast<const FixedWidthCounterVector&>(f.counters()).words();
}

void ConcurrentSbf::AtomicApply(SpectralBloomFilter& filter, uint64_t key,
                                uint64_t count, bool add) {
  uint64_t positions[kMaxK];
  filter.hash().Positions(key, positions);
  uint64_t* words = FilterWords(filter);
  const uint32_t k = options_.k;
  for (uint32_t i = 0; i < k; ++i) {
    std::atomic_ref<uint64_t> word(words[positions[i]]);
    if (add) {
      word.fetch_add(count, std::memory_order_relaxed);
    } else {
      word.fetch_sub(count, std::memory_order_relaxed);
    }
  }
}

uint64_t ConcurrentSbf::CombinedEstimate(const SpectralBloomFilter& live,
                                         const SpectralBloomFilter& pending,
                                         uint64_t key,
                                         bool atomic_reads) const {
  // Probe j of the old family corresponds to probe j of the new one (same
  // seed, rebuilt range), so the per-probe sum live[old_j] + pending[new_j]
  // bounds the key's true pre-window + in-window count from above, and the
  // min over j is exactly the estimate a single merged filter would give.
  uint64_t old_pos[kMaxK];
  uint64_t new_pos[kMaxK];
  live.hash().Positions(key, old_pos);
  pending.hash().Positions(key, new_pos);
  const uint32_t k = options_.k;
  uint64_t min_value = ~0ull;
  if (atomic_reads) {
    const uint64_t* live_words = FilterWords(live);
    const uint64_t* pending_words = FilterWords(pending);
    for (uint32_t j = 0; j < k; ++j) {
      const uint64_t sum = AtomicLoad(live_words[old_pos[j]]) +
                           AtomicLoad(pending_words[new_pos[j]]);
      min_value = std::min(min_value, sum);
    }
  } else {
    for (uint32_t j = 0; j < k; ++j) {
      const uint64_t sum = live.counters().Get(old_pos[j]) +
                           pending.counters().Get(new_pos[j]);
      min_value = std::min(min_value, sum);
    }
  }
  return min_value;
}

void ConcurrentSbf::InsertLockFree(Shard& s, uint64_t key, uint64_t count) {
  // Dekker handshake with ExpandShard: our seq-cst refcount increment and
  // pending load pair with the migrator's seq-cst pending publish and
  // refcount drain (DESIGN.md §11, "window handshake" — both seq-cst sites
  // are on sbf_analyze's allowlist). Either we observe the window (and
  // write only pending), or the migrator observes our increment and waits
  // before freezing live.
  s.live_writers.fetch_add(1, std::memory_order_seq_cst);
  SpectralBloomFilter* pending = s.pending_ptr.load(std::memory_order_seq_cst);
  if (pending != nullptr) {
    // Relaxed exit: this branch wrote nothing to live, so there is nothing
    // to publish — the decrement only releases the migrator's drain spin,
    // which re-reads live_writers seq-cst.
    s.live_writers.fetch_sub(1, std::memory_order_relaxed);
    AtomicApply(*pending, key, count, /*add=*/true);
  } else {
    AtomicApply(*s.live_ptr.load(std::memory_order_acquire), key, count,
                /*add=*/true);
    // Release exit: publishes the counter stores above to the migrator,
    // whose seq-cst live_writers spin (ExpandShard) is the matching read —
    // the fold must observe every drained writer's counters.
    s.live_writers.fetch_sub(1, std::memory_order_release);
  }
  s.net_items.fetch_add(count, std::memory_order_relaxed);
}

void ConcurrentSbf::RemoveLockFree(Shard& s, uint64_t key, uint64_t count) {
  // Counter updates are mod-2^64 fetch_sub, so a remove landing in pending
  // while its paired insert went to live still cancels exactly once the
  // fold adds the two filters together (the lock-free Remove contract:
  // only remove previously inserted occurrences).
  // Same handshake and exit orders as InsertLockFree (relaxed when only
  // pending was written, release to publish live-counter stores to the
  // migrator's seq-cst drain spin).
  s.live_writers.fetch_add(1, std::memory_order_seq_cst);
  SpectralBloomFilter* pending = s.pending_ptr.load(std::memory_order_seq_cst);
  if (pending != nullptr) {
    s.live_writers.fetch_sub(1, std::memory_order_relaxed);
    AtomicApply(*pending, key, count, /*add=*/false);
  } else {
    AtomicApply(*s.live_ptr.load(std::memory_order_acquire), key, count,
                /*add=*/false);
    s.live_writers.fetch_sub(1, std::memory_order_release);
  }
  s.net_items.fetch_sub(count, std::memory_order_relaxed);
}

uint64_t ConcurrentSbf::EstimateLockFree(const Shard& s, uint64_t key) const {
  // Pending before live: if we observe the window closed (pending null
  // reading the migrator's clearing store), the subsequent live load is
  // coherence-ordered after the swap and sees the folded filter — the
  // window's content is never missed. Observing pending while live has
  // already swapped reads the same filter twice: a transient, one-sided
  // (over) estimate.
  const SpectralBloomFilter* pending =
      s.pending_ptr.load(std::memory_order_acquire);
  const SpectralBloomFilter* live = s.live_ptr.load(std::memory_order_acquire);
  if (pending != nullptr) {
    return CombinedEstimate(*live, *pending, key, /*atomic_reads=*/true);
  }
  uint64_t positions[kMaxK];
  live->hash().Positions(key, positions);
  const uint64_t* words = FilterWords(*live);
  uint64_t min_value = ~0ull;
  for (uint32_t i = 0; i < options_.k; ++i) {
    min_value = std::min(min_value, AtomicLoad(words[positions[i]]));
    if (min_value == 0) break;
  }
  return min_value;
}

void ConcurrentSbf::InsertLockFreeBatch(Shard& s, const uint64_t* keys,
                                        size_t n, uint64_t count) {
  // One window check covers the whole shard slice; holding the refcount
  // across the batch just extends the migrator's drain by one pipeline.
  // Same handshake/exit orders as InsertLockFree.
  s.live_writers.fetch_add(1, std::memory_order_seq_cst);
  SpectralBloomFilter* pending = s.pending_ptr.load(std::memory_order_seq_cst);
  SpectralBloomFilter* target;
  if (pending != nullptr) {
    s.live_writers.fetch_sub(1, std::memory_order_relaxed);
    target = pending;
  } else {
    target = s.live_ptr.load(std::memory_order_acquire);
  }
  const HashFamily& hash = target->hash();
  const uint32_t k = options_.k;
  AtomicWordView view{FilterWords(*target)};
  BatchPipeline(
      view, keys, n,
      [&hash](uint64_t key, uint64_t* pos) { hash.Positions(key, pos); },
      [k](const AtomicWordView& v, const uint64_t* pos) {
        for (uint32_t j = 0; j < k; ++j) SBF_PREFETCH_WRITE(v.words + pos[j]);
      },
      [k, count](AtomicWordView& v, const uint64_t* pos, size_t) {
        for (uint32_t j = 0; j < k; ++j) {
          std::atomic_ref<uint64_t>(v.words[pos[j]])
              .fetch_add(count, std::memory_order_relaxed);
        }
      });
  if (pending == nullptr) {
    s.live_writers.fetch_sub(1, std::memory_order_release);
  }
  s.net_items.fetch_add(n * count, std::memory_order_relaxed);
}

void ConcurrentSbf::EstimateLockFreeBatch(const Shard& s,
                                          const uint64_t* keys, size_t n,
                                          uint64_t* out) const {
  const SpectralBloomFilter* pending =
      s.pending_ptr.load(std::memory_order_acquire);
  const SpectralBloomFilter* live = s.live_ptr.load(std::memory_order_acquire);
  if (pending != nullptr) {
    // Dual-write window: per-key combined probes (the window is short;
    // pipelining the two-filter gather is not worth the code).
    for (size_t i = 0; i < n; ++i) {
      out[i] = CombinedEstimate(*live, *pending, keys[i],
                                /*atomic_reads=*/true);
    }
    return;
  }
  const HashFamily& hash = live->hash();
  const uint32_t k = options_.k;
  AtomicWordView view{const_cast<uint64_t*>(FilterWords(*live))};
  BatchPipeline(
      view, keys, n,
      [&hash](uint64_t key, uint64_t* pos) { hash.Positions(key, pos); },
      [k](const AtomicWordView& v, const uint64_t* pos) {
        for (uint32_t j = 0; j < k; ++j) SBF_PREFETCH(v.words + pos[j]);
      },
      [k, out](const AtomicWordView& v, const uint64_t* pos, size_t i) {
        uint64_t min_value = AtomicLoad(v.words[pos[0]]);
        for (uint32_t j = 1; j < k; ++j) {
          const uint64_t value = AtomicLoad(v.words[pos[j]]);
          min_value = value < min_value ? value : min_value;
        }
        out[i] = min_value;
      });
}

// --- delta-buffer plumbing -------------------------------------------------

DeltaSet& ConcurrentSbf::CallerDeltaSet() {
  return *ThreadDeltaSet(registry_, options_.num_shards, options_.delta);
}

bool ConcurrentSbf::ShouldMergeEpoch(
    const DeltaSet& set, const DeltaSet::ShardState& state) const {
  const DeltaBufferOptions& opt = set.options();
  if (state.size >= opt.merge_keys) return true;
  if (opt.max_epoch_micros > 0 && state.epoch_open &&
      (state.ops_since_merge & kClockCheckMask) == 0) {
    const auto age = std::chrono::steady_clock::now() - state.epoch_start;
    if (age >= std::chrono::microseconds(opt.max_epoch_micros)) return true;
  }
  return false;
}

void ConcurrentSbf::BufferDelta(DeltaSet& set, uint32_t shard_index,
                                uint64_t key, uint64_t count, bool remove) {
  DeltaSet::ShardState& state = set.state(shard_index);
  const uint64_t delta = remove ? ~count + 1 : count;
  if (!DeltaAccumulate(set.map(shard_index), key, delta, &state.size)) {
    // Map full: merge this shard's epoch and retry against the now-empty
    // map (cannot fail twice). The op being buffered is not yet in the map
    // nor in pending_contrib, so the forced merge's bookkeeping balances.
    MergeShardDelta(set, shard_index);
    const bool ok =
        DeltaAccumulate(set.map(shard_index), key, delta, &state.size);
    SBF_DCHECK(ok);
    (void)ok;
  }
  if (!remove) {
    // Publish before returning: a completed insert is covered by the
    // pending tally until the merge moves it into the counters.
    shards_[shard_index]->pending_ops.fetch_add(count,
                                                std::memory_order_relaxed);
    state.pending_contrib += count;
  }
  state.net_ops += delta;
  if (!state.epoch_open) {
    state.epoch_open = true;
    if (set.options().max_epoch_micros > 0) {
      state.epoch_start = std::chrono::steady_clock::now();
    }
  }
  ++state.ops_since_merge;
  if (ShouldMergeEpoch(set, state)) MergeShardDelta(set, shard_index);
}

void ConcurrentSbf::MergeShardDelta(DeltaSet& set, uint32_t shard_index) {
  DeltaSet::ShardState& state = set.state(shard_index);
  Shard& s = *shards_[shard_index];
  if (state.size > 0) {
    metrics_.RecordDeltaBufferedPeak(shard_index, state.size);
    uint32_t applied = 0;
    if (lock_free_) {
      // One expansion-window handshake covers the whole drain (the same
      // protocol as InsertLockFreeBatch).
      s.live_writers.fetch_add(1, std::memory_order_seq_cst);
      SpectralBloomFilter* pending =
          s.pending_ptr.load(std::memory_order_seq_cst);
      if (pending != nullptr) {
        s.live_writers.fetch_sub(1, std::memory_order_relaxed);
      }
      SpectralBloomFilter* target =
          pending != nullptr ? pending
                             : s.live_ptr.load(std::memory_order_acquire);
      applied = DeltaDrain(
          set.map(shard_index), [this, target](uint64_t key, uint64_t net) {
            AtomicApply(*target, key, NetMagnitude(net), NetIsAdd(net));
          });
      if (pending == nullptr) {
        s.live_writers.fetch_sub(1, std::memory_order_release);
      }
      s.net_items.fetch_add(state.net_ops, std::memory_order_relaxed);
    } else {
      util::WriterMutexLock lock(s.mu);
      SpectralBloomFilter& f = s.pending ? *s.pending : *s.live;
      // Gather-then-apply: the epoch's adds go through the filter's
      // decoded-view bulk path (position-sorted, each touched counter
      // group decoded and written back once) instead of k probes per key.
      // Buffered nets on this path are add-only — Remove() flushes and
      // applies directly on clamped backings — so the remove arm is
      // defensive only.
      std::vector<std::pair<uint64_t, uint64_t>> adds;
      applied =
          DeltaDrain(set.map(shard_index), [&adds, &f](uint64_t key,
                                                       uint64_t net) {
            if (NetIsAdd(net)) {
              adds.emplace_back(key, net);
            } else {
              f.Remove(key, NetMagnitude(net));
            }
          });
      f.ApplyAddBatch(adds.data(), adds.size());
    }
    state.size = 0;
    metrics_.RecordDeltaMerge(shard_index, applied);
  }
  // Release the pending tally only after the counters carry the deltas
  // (release pairs with the readers' acquire): a reader that observes the
  // lowered tally also observes the applied counters, so estimates never
  // dip below flushed + buffered.
  if (state.pending_contrib > 0) {
    s.pending_ops.fetch_sub(state.pending_contrib,
                            std::memory_order_release);
    state.pending_contrib = 0;
  }
  state.net_ops = 0;
  state.ops_since_merge = 0;
  state.epoch_open = false;
}

void ConcurrentSbf::ApplyNetDelta(Shard& s, uint64_t key, uint64_t net) {
  SBF_DCHECK(lock_free_);
  const bool add = NetIsAdd(net);
  const uint64_t magnitude = NetMagnitude(net);
  // Same handshake/exit orders as InsertLockFree.
  s.live_writers.fetch_add(1, std::memory_order_seq_cst);
  SpectralBloomFilter* pending =
      s.pending_ptr.load(std::memory_order_seq_cst);
  if (pending != nullptr) {
    s.live_writers.fetch_sub(1, std::memory_order_relaxed);
    AtomicApply(*pending, key, magnitude, add);
  } else {
    AtomicApply(*s.live_ptr.load(std::memory_order_acquire), key, magnitude,
                add);
    s.live_writers.fetch_sub(1, std::memory_order_release);
  }
}

void ConcurrentSbf::DrainOwnShard(uint32_t shard_index) const {
  DeltaSet* set = ThreadDeltaSetIfExists(registry_.get());
  if (set == nullptr) return;
  auto* self = const_cast<ConcurrentSbf*>(this);
  util::MutexLock lock(set->mu);
  DeltaSet::ShardState& state = set->state(shard_index);
  if (state.size > 0 || state.pending_contrib > 0) {
    self->MergeShardDelta(*set, shard_index);
  }
}

void ConcurrentSbf::DrainOwnAll() const {
  DeltaSet* set = ThreadDeltaSetIfExists(registry_.get());
  if (set == nullptr) return;
  auto* self = const_cast<ConcurrentSbf*>(this);
  util::MutexLock lock(set->mu);
  for (uint32_t s = 0; s < options_.num_shards; ++s) {
    DeltaSet::ShardState& state = set->state(s);
    if (state.size > 0 || state.pending_contrib > 0) {
      self->MergeShardDelta(*set, s);
    }
  }
}

void ConcurrentSbf::DrainDeltaSet(DeltaSet& set) {
  util::MutexLock lock(set.mu);
  for (uint32_t s = 0; s < options_.num_shards; ++s) {
    DeltaSet::ShardState& state = set.state(s);
    if (state.size > 0 || state.pending_contrib > 0) {
      MergeShardDelta(set, s);
    }
  }
}

void ConcurrentSbf::FlushAllBuffers() {
  if (!delta_active_ || registry_ == nullptr) return;
  util::MutexLock registry_lock(registry_->mu);
  // The canonical cross-thread drain: per shard, gather every thread's
  // buffered entries, aggregate per key and apply in ascending key order —
  // the flushed image is independent of which thread buffered which ops
  // (Minimum Selection increments commute). Cold path; may allocate.
  std::vector<std::pair<uint64_t, uint64_t>> entries;
  for (uint32_t shard_index = 0; shard_index < options_.num_shards;
       ++shard_index) {
    entries.clear();
    uint64_t contrib = 0;
    uint64_t net_ops = 0;
    for (const std::shared_ptr<DeltaSet>& set : registry_->sets) {
      util::MutexLock set_lock(set->mu);
      DeltaSet::ShardState& state = set->state(shard_index);
      if (state.size > 0) {
        metrics_.RecordDeltaBufferedPeak(shard_index, state.size);
        DeltaDrain(set->map(shard_index),
                   [&entries](uint64_t key, uint64_t net) {
                     entries.emplace_back(key, net);
                   });
        state.size = 0;
      }
      // Transfer the tally responsibility to this drain; the shard's
      // pending_ops itself stays raised until the counters are updated.
      contrib += state.pending_contrib;
      net_ops += state.net_ops;
      state.pending_contrib = 0;
      state.net_ops = 0;
      state.ops_since_merge = 0;
      state.epoch_open = false;
    }
    if (entries.empty() && contrib == 0) continue;
    std::sort(entries.begin(), entries.end());
    Shard& s = *shards_[shard_index];
    uint64_t applied = 0;
    if (lock_free_) {
      for (size_t i = 0; i < entries.size();) {
        const uint64_t key = entries[i].first;
        uint64_t net = 0;
        for (; i < entries.size() && entries[i].first == key; ++i) {
          net += entries[i].second;
        }
        if (net == 0) continue;
        ApplyNetDelta(s, key, net);
        ++applied;
      }
      s.net_items.fetch_add(net_ops, std::memory_order_relaxed);
    } else {
      // Locked path: net per key, then one decoded-view bulk apply on the
      // target filter — each counter group the drain touches is decoded
      // and written back once, which is where the compact backing's flush
      // cost used to go (a width re-scan per probe). Nets here are
      // add-only (Remove() flushes and applies directly on this path);
      // the remove arm is defensive.
      util::WriterMutexLock lock(s.mu);
      SpectralBloomFilter& f = s.pending ? *s.pending : *s.live;
      std::vector<std::pair<uint64_t, uint64_t>> adds;
      adds.reserve(entries.size());
      for (size_t i = 0; i < entries.size();) {
        const uint64_t key = entries[i].first;
        uint64_t net = 0;
        for (; i < entries.size() && entries[i].first == key; ++i) {
          net += entries[i].second;
        }
        if (net == 0) continue;
        if (NetIsAdd(net)) {
          adds.emplace_back(key, net);
        } else {
          f.Remove(key, NetMagnitude(net));
        }
        ++applied;
      }
      f.ApplyAddBatch(adds.data(), adds.size());
    }
    if (!entries.empty()) {
      metrics_.RecordDeltaMerge(shard_index, applied);
    }
    if (contrib > 0) {
      s.pending_ops.fetch_sub(contrib, std::memory_order_release);
    }
  }
}

void ConcurrentSbf::Flush() { FlushAllBuffers(); }

uint64_t ConcurrentSbf::PendingDeltaOps() const noexcept {
  uint64_t total = 0;
  for (uint32_t s = 0; s < options_.num_shards; ++s) {
    total += shards_[s]->pending_ops.load(std::memory_order_relaxed);
  }
  return total;
}

// --- point & batch ops -----------------------------------------------------

void ConcurrentSbf::Insert(uint64_t key, uint64_t count) {
  const uint32_t s = ShardOf(key);
  if (delta_active_) {
    DeltaSet& set = CallerDeltaSet();
    util::MutexLock lock(set.mu);
    BufferDelta(set, s, key, count, /*remove=*/false);
    metrics_.RecordInsert(s, 1);
    return;
  }
  Shard& shard = *shards_[s];
  if (lock_free_) {
    InsertLockFree(shard, key, count);
  } else {
    util::WriterMutexLock lock(shard.mu);
    (shard.pending ? *shard.pending : *shard.live).Insert(key, count);
  }
  metrics_.RecordInsert(s, 1);
}

void ConcurrentSbf::Remove(uint64_t key, uint64_t count) {
  const uint32_t s = ShardOf(key);
  if (delta_active_) {
    if (lock_free_) {
      // Buffered removes never raise the pending tally (an unapplied
      // remove only over-reports — the safe direction). Counter updates
      // wrap mod 2^64, so a remove merged before the insert it cancels
      // (buffered by another thread) still nets out exactly.
      DeltaSet& set = CallerDeltaSet();
      util::MutexLock lock(set.mu);
      BufferDelta(set, s, key, count, /*remove=*/true);
      metrics_.RecordRemove(s, 1);
      return;
    }
    // Clamped backings make removes order-sensitive: a remove applied
    // before the insert it cancels clamps at zero and the occurrences are
    // lost. Flushing every buffer first restores the caller's ordering
    // ("only remove previously inserted occurrences" — such inserts are
    // by then either applied or in a buffer the flush gathers), so the
    // direct remove below never clamps. Removes are the rare op on every
    // workload this path serves; inserts stay buffered.
    Flush();
  }
  Shard& shard = *shards_[s];
  if (lock_free_) {
    RemoveLockFree(shard, key, count);
  } else {
    util::WriterMutexLock lock(shard.mu);
    // During a window the pre-window occurrences live in the old filter;
    // removing them from pending clamps at zero (tallied) and leaves a
    // benign one-sided overestimate that the fold does not disturb.
    (shard.pending ? *shard.pending : *shard.live).Remove(key, count);
  }
  metrics_.RecordRemove(s, 1);
}

uint64_t ConcurrentSbf::Estimate(uint64_t key) const {
  const uint32_t s = ShardOf(key);
  const Shard& shard = *shards_[s];
  metrics_.RecordEstimate(s, 1);
  if (delta_active_) {
    // Read-your-writes: the calling thread's own buffers for this shard
    // are merged first, so single-threaded use is exactly a plain SBF.
    DrainOwnShard(s);
    // Acquire the pending tally BEFORE probing: pairs with the merge's
    // release decrement, so a reader that sees the lowered tally also sees
    // the applied counters — the estimate never dips below the flushed +
    // buffered frequency (other threads' buffered ops are covered by the
    // tally, a one-sided overestimate until their epoch merges).
    const uint64_t pending = shard.pending_ops.load(std::memory_order_acquire);
    uint64_t base;
    if (lock_free_) {
      base = EstimateLockFree(shard, key);
    } else {
      util::ReaderMutexLock lock(shard.mu);
      base = shard.pending
                 ? CombinedEstimate(*shard.live, *shard.pending, key,
                                    /*atomic_reads=*/false)
                 : shard.live->Estimate(key);
    }
    return base + pending;
  }
  if (lock_free_) return EstimateLockFree(shard, key);
  util::ReaderMutexLock lock(shard.mu);
  if (shard.pending) {
    return CombinedEstimate(*shard.live, *shard.pending, key,
                            /*atomic_reads=*/false);
  }
  return shard.live->Estimate(key);
}

void ConcurrentSbf::InsertBatch(const uint64_t* keys, size_t n,
                                uint64_t count) {
  if (n == 0) return;
  if (delta_active_) {
    // Accumulate into the calling thread's maps; the shared per-shard
    // pending tallies are published once per shard per chunk rather than
    // per key (the buffered ops only need to be covered by the tally by
    // the time InsertBatch returns — mid-chunk they are not yet completed
    // inserts). A chunk's forced mid-accumulation merge may apply entries
    // whose tally is still unpublished; the later publish then transiently
    // over-covers (the safe direction) until the next merge rebalances.
    DeltaSet& set = CallerDeltaSet();
    util::MutexLock lock(set.mu);
    uint64_t* chunk_pending = set.batch_pending();
    uint32_t* touched = set.batch_touched();
    size_t at = 0;
    while (at < n) {
      const size_t chunk_end = std::min(n, at + kDeltaBatchChunk);
      uint32_t num_touched = 0;
      for (size_t i = at; i < chunk_end; ++i) {
        const uint32_t s = ShardOf(keys[i]);
        DeltaSet::ShardState& state = set.state(s);
        if (!DeltaAccumulate(set.map(s), keys[i], count, &state.size)) {
          MergeShardDelta(set, s);
          const bool ok =
              DeltaAccumulate(set.map(s), keys[i], count, &state.size);
          SBF_DCHECK(ok);
          (void)ok;
        }
        if (chunk_pending[s] == 0) touched[num_touched++] = s;
        chunk_pending[s] += count;
      }
      for (uint32_t t = 0; t < num_touched; ++t) {
        const uint32_t s = touched[t];
        Shard& shard = *shards_[s];
        DeltaSet::ShardState& state = set.state(s);
        const uint64_t occurrences = chunk_pending[s];
        const uint64_t group_keys = count > 0 ? occurrences / count : 0;
        chunk_pending[s] = 0;
        shard.pending_ops.fetch_add(occurrences, std::memory_order_relaxed);
        state.pending_contrib += occurrences;
        state.net_ops += occurrences;
        state.ops_since_merge += group_keys;
        if (!state.epoch_open) {
          state.epoch_open = true;
          if (set.options().max_epoch_micros > 0) {
            state.epoch_start = std::chrono::steady_clock::now();
          }
        }
        metrics_.RecordInsert(s, group_keys);
        metrics_.RecordBatch(s);
        if (ShouldMergeEpoch(set, state)) MergeShardDelta(set, s);
      }
      at = chunk_end;
    }
    return;
  }
  std::vector<uint64_t> grouped;
  std::vector<uint32_t> order;
  std::vector<size_t> starts;
  GroupByShard(*this, keys, n, &grouped, &order, &starts);
  for (uint32_t s = 0; s < options_.num_shards; ++s) {
    const size_t begin = starts[s], end = starts[s + 1];
    if (begin == end) continue;
    Shard& shard = *shards_[s];
    if (lock_free_) {
      InsertLockFreeBatch(shard, grouped.data() + begin, end - begin, count);
    } else {
      util::WriterMutexLock lock(shard.mu);
      (shard.pending ? *shard.pending : *shard.live)
          .InsertBatch(grouped.data() + begin, end - begin, count);
    }
    metrics_.RecordInsert(s, end - begin);
    metrics_.RecordBatch(s);
  }
}

void ConcurrentSbf::EstimateBatch(const uint64_t* keys, size_t n,
                                  uint64_t* out) const {
  if (n == 0) return;
  std::vector<uint64_t> grouped;
  std::vector<uint32_t> order;
  std::vector<size_t> starts;
  GroupByShard(*this, keys, n, &grouped, &order, &starts);
  std::vector<uint64_t> shard_out(n);
  for (uint32_t s = 0; s < options_.num_shards; ++s) {
    const size_t begin = starts[s], end = starts[s + 1];
    if (begin == end) continue;
    const Shard& shard = *shards_[s];
    metrics_.RecordEstimate(s, end - begin);
    metrics_.RecordBatch(s);
    uint64_t pending = 0;
    if (delta_active_) {
      DrainOwnShard(s);
      pending = shard.pending_ops.load(std::memory_order_acquire);
    }
    if (lock_free_) {
      EstimateLockFreeBatch(shard, grouped.data() + begin, end - begin,
                            shard_out.data() + begin);
    } else {
      util::ReaderMutexLock lock(shard.mu);
      if (shard.pending) {
        for (size_t i = begin; i < end; ++i) {
          shard_out[i] = CombinedEstimate(*shard.live, *shard.pending,
                                          grouped[i], /*atomic_reads=*/false);
        }
      } else {
        shard.live->EstimateBatch(grouped.data() + begin, end - begin,
                                  shard_out.data() + begin);
      }
    }
    if (pending > 0) {
      for (size_t i = begin; i < end; ++i) shard_out[i] += pending;
    }
  }
  for (size_t i = 0; i < n; ++i) out[order[i]] = shard_out[i];
}

Status ConcurrentSbf::Merge(const ConcurrentSbf& other) {
  if (this == &other) {
    return Status::FailedPrecondition("ConcurrentSbf self-merge not supported");
  }
  if (!SameOptions(options_, other.options_)) {
    return Status::FailedPrecondition(
        "ConcurrentSbf merge requires identical options (shards, m, k, seed, "
        "policy, backing)");
  }
  // Mid-epoch deltas buffered against either operand must be observed:
  // drain both sides before the pointwise add (Flush only mutates counter
  // state, which is what Merge reads — logically const for `other`).
  const_cast<ConcurrentSbf&>(other).Flush();
  Flush();
  for (uint32_t s = 0; s < options_.num_shards; ++s) {
    Shard& dst = *shards_[s];
    const Shard& src = *other.shards_[s];
    // The pair guard's std::scoped_lock deadlock-avoidance handles
    // concurrent A.Merge(B) and B.Merge(A).
    util::SharedMutexLockPair locks(dst.mu, src.mu);
    if (lock_free_) {
      // Atomic pointwise add so the merge is race-free against concurrent
      // lock-free inserters on either operand.
      uint64_t* dst_words = FilterWords(*dst.live);
      const uint64_t* src_words = FilterWords(*src.live);
      for (uint64_t i = 0; i < shard_m_; ++i) {
        const uint64_t add = AtomicLoad(src_words[i]);
        if (add > 0) {
          std::atomic_ref<uint64_t>(dst_words[i])
              .fetch_add(add, std::memory_order_relaxed);
        }
      }
      dst.net_items.fetch_add(
          src.net_items.load(std::memory_order_relaxed),
          std::memory_order_relaxed);
    } else {
      const Status status = UnionInto(dst.live.get(), *src.live);
      if (!status.ok()) return status;
    }
  }
  SBF_AUDIT_INVARIANTS(*this);
  return Status::Ok();
}

SpectralBloomFilter ConcurrentSbf::SnapshotShard(size_t i) const {
  const_cast<ConcurrentSbf*>(this)->Flush();
  const Shard& shard = *shards_[i];
  if (lock_free_) {
    const SpectralBloomFilter& live =
        *shard.live_ptr.load(std::memory_order_acquire);
    SpectralBloomFilter snap = live.CloneEmpty();
    const uint64_t* words = FilterWords(live);
    const uint64_t m = live.m();
    for (uint64_t j = 0; j < m; ++j) {
      const uint64_t v = AtomicLoad(words[j]);
      if (v > 0) snap.mutable_counters().Set(j, v);
    }
    snap.set_total_items(shard.net_items.load(std::memory_order_relaxed));
    return snap;
  }
  util::ReaderMutexLock lock(shard.mu);
  return *shard.live;
}

uint64_t ConcurrentSbf::TotalItems() const {
  const_cast<ConcurrentSbf*>(this)->Flush();
  uint64_t total = 0;
  for (uint32_t s = 0; s < options_.num_shards; ++s) {
    const Shard& shard = *shards_[s];
    if (lock_free_) {
      total += shard.net_items.load(std::memory_order_relaxed);
    } else {
      util::ReaderMutexLock lock(shard.mu);
      total += shard.live->total_items();
      if (shard.pending) total += shard.pending->total_items();
    }
  }
  return total;
}

size_t ConcurrentSbf::MemoryUsageBits() const {
  size_t total = 0;
  for (uint32_t s = 0; s < options_.num_shards; ++s) {
    const Shard& shard = *shards_[s];
    if (lock_free_) {
      total += shard.live_ptr.load(std::memory_order_acquire)
                   ->MemoryUsageBits();
    } else {
      util::ReaderMutexLock lock(shard.mu);
      total += shard.live->MemoryUsageBits();
    }
  }
  if (registry_ != nullptr) {
    util::MutexLock lock(registry_->mu);
    for (const std::shared_ptr<DeltaSet>& set : registry_->sets) {
      util::MutexLock set_lock(set->mu);
      total += set->MemoryBits();
    }
  }
  return total;
}

std::string ConcurrentSbf::Name() const {
  std::string name = "CSBF-";
  name += options_.policy == SbfPolicy::kMinimumSelection ? "MS" : "MI";
  name += "/";
  name += CounterBackingName(options_.backing);
  name += "[S=" + std::to_string(options_.num_shards) + "]";
  if (delta_active_) name += "+delta";
  return name;
}

FilterHealth ConcurrentSbf::Health() const {
  // The fill scan must observe mid-epoch inserts (the latent-bug fix this
  // PR pins with a regression test): drain all buffers first, then report
  // anything re-buffered by racing writers in pending_delta_ops.
  const_cast<ConcurrentSbf*>(this)->Flush();
  FilterHealth health;
  health.shard_fill.reserve(options_.num_shards);
  for (uint32_t s = 0; s < options_.num_shards; ++s) {
    const Shard& shard = *shards_[s];
    uint64_t m = 0;
    OccupancyCounts counts;
    SaturationStats stats;
    if (lock_free_) {
      const SpectralBloomFilter& live =
          *shard.live_ptr.load(std::memory_order_acquire);
      m = live.m();
      const uint64_t* words = FilterWords(live);
      for (uint64_t j = 0; j < m; ++j) {
        const uint64_t v = AtomicLoad(words[j]);
        counts.nonzero += v > 0;
        counts.saturated += v == ~0ull;
      }
      stats = live.counters().saturation();
    } else {
      util::ReaderMutexLock lock(shard.mu);
      m = shard.live->m();
      counts = shard.live->counters().ScanOccupancy();
      stats = shard.live->counters().saturation();
    }
    health.counters += m;
    health.nonzero_counters += counts.nonzero;
    health.saturated_counters += counts.saturated;
    health.saturation_clamps += stats.saturation_clamps;
    health.underflow_clamps += stats.underflow_clamps;
    health.shard_fill.push_back(
        m == 0 ? 0.0
               : static_cast<double>(counts.nonzero) / static_cast<double>(m));
  }
  health.pending_delta_ops = PendingDeltaOps();
  FinalizeHealth(options_.k, options_.health, &health);
  return health;
}

SaturationStats ConcurrentSbf::saturation() const {
  SaturationStats stats;
  for (uint32_t s = 0; s < options_.num_shards; ++s) {
    const Shard& shard = *shards_[s];
    if (lock_free_) {
      stats += shard.live_ptr.load(std::memory_order_acquire)
                   ->counters()
                   .saturation();
    } else {
      util::ReaderMutexLock lock(shard.mu);
      stats += shard.live->counters().saturation();
    }
  }
  return stats;
}

void ConcurrentSbf::ExpandShard(Shard& shard,
                                std::unique_ptr<SpectralBloomFilter> pending) {
  const uint64_t new_m = pending->m();
  const HashFamily::Kind kind = options_.hash_kind;
  if (lock_free_) {
    // Lock-free readers/writers never touch shard.mu, so taking it here is
    // uncontended — it exists to serialize against other whole-filter
    // operations (Merge, snapshots) and to keep the unique_ptr swaps below
    // provable under thread-safety analysis.
    util::WriterMutexLock lock(shard.mu);
    const uint64_t old_m = shard.live->m();
    const uint64_t c = new_m / old_m;
    // Open the window: new writers divert to pending, then drain writers
    // that loaded a null pending and still target live (the seq-cst pair
    // of InsertLockFree/RemoveLockFree; both sides are on sbf_analyze's
    // allowlist — DESIGN.md §11 "window handshake").
    shard.pending = std::move(pending);
    shard.pending_ptr.store(shard.pending.get(), std::memory_order_seq_cst);
    while (shard.live_writers.load(std::memory_order_seq_cst) != 0) {
      std::this_thread::yield();
    }
    // live is now frozen for writers; fold-add it into pending while
    // readers keep combining both filters. fetch_add tolerates the
    // concurrent window writes landing in pending.
    const uint64_t* old_words = FilterWords(*shard.live);
    uint64_t* new_words = FilterWords(*shard.pending);
    for (uint64_t i = 0; i < old_m; ++i) {
      const uint64_t v = AtomicLoad(old_words[i]);
      if (v == 0) continue;
      for (uint64_t rep = 0; rep < c; ++rep) {
        std::atomic_ref<uint64_t>(new_words[FoldPosition(kind, old_m, c, i,
                                                         rep)])
            .fetch_add(v, std::memory_order_relaxed);
      }
    }
    shard.pending->mutable_counters().MergeSaturationStats(
        shard.live->counters().saturation());
    // Swap live first, clear pending second: a reader that still observes
    // the window combines the new filter with itself (a transient, one-
    // sided overestimate); a reader that observes it closed is coherence-
    // ordered after the swap and sees the folded filter. The old filter is
    // retired, not freed — unsynchronized readers may still hold it.
    shard.retired.push_back(std::move(shard.live));
    shard.live = std::move(shard.pending);
    shard.live_ptr.store(shard.live.get(), std::memory_order_release);
    shard.pending_ptr.store(nullptr, std::memory_order_release);
    return;
  }
  // Locked path: the window opens under the exclusive lock; migration runs
  // in short chunks so readers interleave between lock acquisitions.
  uint64_t old_m = 0;
  {
    util::WriterMutexLock lock(shard.mu);
    old_m = shard.live->m();
    shard.pending = std::move(pending);
  }
  const uint64_t c = new_m / old_m;
  for (uint64_t start = 0; start < old_m; start += kMigrateChunk) {
    util::WriterMutexLock lock(shard.mu);
    const uint64_t end = std::min(old_m, start + kMigrateChunk);
    for (uint64_t i = start; i < end; ++i) {
      const uint64_t v = shard.live->counters().Get(i);
      if (v == 0) continue;
      for (uint64_t rep = 0; rep < c; ++rep) {
        shard.pending->mutable_counters().Increment(
            FoldPosition(kind, old_m, c, i, rep), v);
      }
    }
  }
  util::WriterMutexLock lock(shard.mu);
  shard.pending->set_total_items(shard.pending->total_items() +
                                 shard.live->total_items());
  shard.pending->mutable_counters().MergeSaturationStats(
      shard.live->counters().saturation());
  shard.retired.push_back(std::move(shard.live));
  shard.live = std::move(shard.pending);
  shard.live_ptr.store(shard.live.get(), std::memory_order_release);
}

Status ConcurrentSbf::ExpandTo(uint64_t new_m) {
  if (new_m == options_.m) return Status::Ok();
  if (new_m < options_.m || new_m % options_.m != 0) {
    return Status::InvalidArgument(
        "ExpandTo needs new_m to be a multiple of the current m");
  }
  const uint64_t c = new_m / options_.m;
  const uint64_t new_shard_m = CeilDiv(new_m, options_.num_shards);
  if (new_shard_m != c * shard_m_) {
    // Rounding would desynchronize per-shard sizes from the fold factor
    // (and from what Deserialize derives). Guaranteed to hold when m is a
    // multiple of num_shards.
    return Status::InvalidArgument(
        "ExpandTo needs per-shard sizes to scale by the same factor as m "
        "(pick m divisible by num_shards)");
  }
  // Drain buffered deltas into the pre-expansion counters so the fold
  // migrates them; deltas buffered by racing writers during the expansion
  // re-hash at merge time and land through the window protocol.
  Flush();
  // Allocate every shard's pending filter up front — the only fallible
  // step — so a failure returns with the filter fully unexpanded rather
  // than half-migrated.
  std::vector<std::unique_ptr<SpectralBloomFilter>> pendings;
  pendings.reserve(options_.num_shards);
  for (uint32_t s = 0; s < options_.num_shards; ++s) {
    if (fault::ShouldFailAllocation()) {
      return Status::ResourceExhausted(
          "ConcurrentSbf expansion allocation failed at shard " +
          std::to_string(s));
    }
    SbfOptions shard_options = ShardOptions(options_, s);
    shard_options.m = new_shard_m;
    pendings.push_back(std::make_unique<SpectralBloomFilter>(shard_options));
  }
  for (uint32_t s = 0; s < options_.num_shards; ++s) {
    ExpandShard(*shards_[s], std::move(pendings[s]));
  }
  options_.m = new_m;
  shard_m_ = new_shard_m;
  SBF_AUDIT_INVARIANTS(*this);
  return Status::Ok();
}

StatusOr<bool> ConcurrentSbf::ExpandIfDegraded() {
  if (Health().state == HealthState::kHealthy) return false;
  Status status = ExpandTo(options_.m * 2);
  if (!status.ok()) return status;
  return true;
}

std::vector<uint8_t> ConcurrentSbf::Serialize() const {
  return TakeSnapshot().Encode();
}

ConcurrentSbf::Snapshot ConcurrentSbf::TakeSnapshot() const {
  const_cast<ConcurrentSbf*>(this)->Flush();
  SBF_AUDIT_INVARIANTS(*this);
  Snapshot snap{options_, {}};
  snap.shards.reserve(options_.num_shards);
  for (uint32_t s = 0; s < options_.num_shards; ++s) {
    snap.shards.push_back(SnapshotShard(s));
  }
  return snap;
}

std::vector<uint8_t> ConcurrentSbf::Snapshot::Encode() const {
  wire::Writer payload;
  payload.PutVarint(options.num_shards);
  payload.PutVarint(options.m);
  payload.PutU64(options.seed);
  for (const SpectralBloomFilter& shard : shards) {
    payload.PutFrame(shard.Serialize());
  }
  return wire::SealFrame(wire::kMagicShardedSbf, wire::kFormatVersion,
                         std::move(payload));
}

StatusOr<ConcurrentSbf> ConcurrentSbf::Deserialize(wire::ByteSpan bytes) {
  auto reader = wire::OpenFrame(bytes, wire::kMagicShardedSbf,
                                wire::kFormatVersion, "sharded SBF");
  if (!reader.ok()) return reader.status();
  wire::Reader& in = reader.value();
  const uint64_t num_shards = in.ReadVarint();
  const uint64_t total_m = in.ReadVarint();
  const uint64_t seed = in.ReadU64();
  if (!in.ok()) return in.status();
  if (num_shards < 1 || num_shards > kMaxShards) {
    return Status::DataLoss("bad sharded SBF shard count");
  }
  if (total_m < 1) return Status::DataLoss("bad sharded SBF m");

  // Peel the embedded per-shard frames.
  std::vector<SpectralBloomFilter> shard_filters;
  shard_filters.reserve(num_shards);
  for (uint64_t s = 0; s < num_shards; ++s) {
    const wire::ByteSpan blob = in.ReadFrameSpan();
    if (!in.ok()) {
      return Status::DataLoss("sharded SBF truncated at shard " +
                              std::to_string(s));
    }
    auto shard = SpectralBloomFilter::Deserialize(blob);
    if (!shard.ok()) return shard.status();
    shard_filters.push_back(std::move(shard).value());
  }
  Status status = in.ExpectEnd("sharded SBF");
  if (!status.ok()) return status;

  // Reconstruct the frontend options from the header + shard 0, then check
  // every shard against the options it must have been built with. This
  // catches blob reordering, shard-count tampering and mixed-backing blobs.
  ConcurrentSbfOptions options;
  options.num_shards = static_cast<uint32_t>(num_shards);
  options.m = total_m;
  options.seed = seed;
  options.k = shard_filters[0].k();
  options.policy = shard_filters[0].options().policy;
  options.backing = shard_filters[0].options().backing;
  options.hash_kind = shard_filters[0].options().hash_kind;
  for (uint64_t s = 0; s < num_shards; ++s) {
    if (!SameShardOptions(shard_filters[s].options(),
                          ShardOptions(options, static_cast<uint32_t>(s)))) {
      return Status::DataLoss("sharded SBF shard " + std::to_string(s) +
                              " inconsistent with header");
    }
  }

  ConcurrentSbf filter(options);
  for (uint64_t s = 0; s < num_shards; ++s) {
    Shard& shard = *filter.shards_[s];
    // `filter` is not yet shared, but the lock keeps the guarded access
    // provable (and is free).
    util::WriterMutexLock lock(shard.mu);
    // Assign through the stable live object so live_ptr stays valid.
    *shard.live = std::move(shard_filters[s]);
    if (filter.lock_free_) {
      shard.net_items.store(shard.live->total_items(),
                            std::memory_order_relaxed);
      shard.live->set_total_items(0);
    }
  }
  SBF_AUDIT_INVARIANTS(filter);
  return filter;
}


Status ConcurrentSbf::CheckInvariants() const {
  if (shards_.size() != options_.num_shards || options_.num_shards < 1) {
    return Status::FailedPrecondition(
        "concurrent SBF: shard count disagrees with options");
  }
  if (shard_m_ != CeilDiv(options_.m, options_.num_shards)) {
    return Status::FailedPrecondition(
        "concurrent SBF: per-shard size disagrees with m / num_shards");
  }
  if (metrics_.num_shards() != options_.num_shards) {
    return Status::FailedPrecondition(
        "concurrent SBF: metrics shard count disagrees with options");
  }
  if (delta_active_) {
    if (registry_ == nullptr) {
      return Status::FailedPrecondition(
          "concurrent SBF: delta buffering active but registry missing");
    }
    util::MutexLock lock(registry_->mu);
    if (registry_->owner != this) {
      return Status::FailedPrecondition(
          "concurrent SBF: delta registry owner link broken");
    }
  }
  for (uint32_t i = 0; i < options_.num_shards; ++i) {
    const Shard& shard = *shards_[i];
    // Audit requires quiescence, so the shared lock is uncontended; it
    // makes the live/pending reads provable.
    util::ReaderMutexLock lock(shard.mu);
    if (shard.live == nullptr) {
      return Status::FailedPrecondition(
          "concurrent SBF: shard has no live filter");
    }
    if (shard.pending != nullptr ||
        shard.pending_ptr.load(std::memory_order_acquire) != nullptr) {
      return Status::FailedPrecondition(
          "concurrent SBF: shard caught inside an expansion window (audit "
          "requires quiescence)");
    }
    if (shard.live_ptr.load(std::memory_order_acquire) != shard.live.get()) {
      return Status::FailedPrecondition(
          "concurrent SBF: shard live pointer mirror out of sync");
    }
    if (!SameShardOptions(shard.live->options(), ShardOptions(options_, i))) {
      return Status::FailedPrecondition(
          "concurrent SBF: shard filter options disagree with the derived "
          "per-shard options");
    }
    const Status status = shard.live->CheckInvariants();
    if (!status.ok()) return status;
  }
  return Status::Ok();
}

}  // namespace sbf
