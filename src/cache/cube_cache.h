#ifndef RASED_CACHE_CUBE_CACHE_H_
#define RASED_CACHE_CUBE_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cube/cube_codec.h"
#include "index/temporal_index.h"
#include "index/temporal_key.h"
#include "obs/metrics_registry.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace rased {

/// How the cache decides what lives inside its byte budget.
enum class CachePolicy {
  /// The paper's strategy (Section VII-A): statically preload the most
  /// recent cubes level by level, giving each level its (beta, gamma,
  /// theta) share of the byte budget and the remainder to daily. Nothing
  /// is admitted or evicted at query time.
  kRasedRecency = 0,
  /// Classic LRU admission/eviction on the query path (ablation baseline).
  kLru = 1,
  /// Recency preload of daily cubes only (alpha = 1), the degenerate
  /// configuration Section VII-B's example warns about.
  kAllDaily = 2,
};

struct CacheOptions {
  /// Cache capacity in bytes — the paper's 2 GB deployment figure. Every
  /// entry holds a cube in an encoded form and is charged exactly that
  /// form's SerializedBytes(), so the budget bounds the cube bytes the
  /// cache really holds. Warm selects cubes by their stored (catalog) size
  /// and holds them in that form; while the selection leaves budget to
  /// spare, delta-varint cubes are widened to dense, newest first, each
  /// only if its dense size still fits, because a delta body cannot be
  /// sliced and dense aggregation reads only the queried cells.
  uint64_t byte_budget = uint64_t{2} << 30;

  /// Per-level byte shares for kRasedRecency; must sum to ~1. Defaults
  /// are the deployment values of Section VIII.
  double alpha = 0.4;   // daily
  double beta = 0.35;   // weekly
  double gamma = 0.2;   // monthly
  double theta = 0.05;  // yearly

  CachePolicy policy = CachePolicy::kRasedRecency;

  /// When non-null, the cache registers live rased_cache_* counters and
  /// gauges here at construction (hits/misses/admissions/evictions/
  /// preloads, resident cubes/bytes, budget). The registry must outlive
  /// the cache.
  MetricsRegistry* metrics = nullptr;

  /// Budget with guaranteed room for `cubes` cubes of any encoding — the
  /// conversion helper for configurations historically expressed in
  /// slots. Counts the blob header per cube because the adaptive encoder's
  /// worst case (dense fallback) serializes to cube_bytes + header.
  static uint64_t BytesForCubes(size_t cubes, const CubeSchema& schema) {
    return static_cast<uint64_t>(cubes) *
           (schema.cube_bytes() + CubeBlobHeader::kBytes);
  }
};

struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t preloaded = 0;
  uint64_t evictions = 0;
};

/// In-memory cube cache standing between the query executor and the index
/// pager (Section VII-A). Lookups are zero-I/O; the executor charges disk
/// cost only for misses. Entries are EncodedCubes — the stored form, or a
/// dense widening of it (see CacheOptions::byte_budget) — and hits
/// aggregate through the codec exactly like misses do.
///
/// Threading contract: CubeCache is internally synchronized. Lookups,
/// inserts, invalidation, warming, and stats are safe from any number of
/// dashboard worker threads concurrently. Entries are immutable once
/// admitted and handed out as shared_ptr, so a reader keeps its cube alive
/// even if an LRU eviction or InvalidateRange drops the entry mid-read.
/// Warm() pins one catalog snapshot and reconciles against it without
/// blocking readers or writers (its reads charge the pager like any
/// query's).
///
/// MVCC validation: every entry remembers the page its cube was read
/// from, and Find/Contains/Insert treat that page id as the entry's
/// version: a lookup hits only when the caller's snapshot resolves the key
/// to the same page, so a cube cached under a retired epoch can never
/// serve a query pinned to a newer one (RebuildMonth always stages
/// replacement cubes to fresh pages). Entries for untouched keys keep
/// their page across publications and keep hitting — no blanket
/// invalidation on epoch bumps.
class CubeCache {
 public:
  explicit CubeCache(const CacheOptions& options);

  /// Brings the cache to the policy's selection for one pinned snapshot of
  /// `index`'s current version. For kRasedRecency/kAllDaily the selection
  /// is the newest cubes per level that fit their byte shares (pure
  /// catalog metadata), plus the widening of CacheOptions::byte_budget.
  /// Entries already holding a selected (key, page) in the selected form
  /// are kept, entries no longer selected are dropped first, and only the
  /// rest is read, with one batched ReadCubes per level. kLru: no-op (the
  /// cache fills on demand). Non-blocking: queries keep running (and
  /// hitting) while Warm reconciles.
  Status Warm(const TemporalIndex* index) RASED_EXCLUDES(mu_);

  /// Returns the entry cached for `key` from `page` (the caller's snapshot
  /// resolution of `key`), or nullptr; counts a hit/miss. A page mismatch
  /// counts as a miss and leaves the entry in place — a reader pinned to
  /// the entry's own version can still hit it. For kLru the entry is
  /// refreshed. The returned pointer remains valid after eviction.
  std::shared_ptr<const EncodedCube> Find(const CubeKey& key, PageId page)
      RASED_EXCLUDES(mu_);

  /// Hands a cube fetched from `page` to the cache, charged its
  /// SerializedBytes(). Only the kLru policy admits it (the paper's static
  /// policy never changes at query time); LRU entries keep the form they
  /// are given.
  void Insert(const CubeKey& key, PageId page, EncodedCube cube)
      RASED_EXCLUDES(mu_);

  /// Whether Insert can ever admit (true only for kLru). Lets the executor
  /// skip copying misses out of their batch under the static policies.
  bool AdmitsOnQuery() const {
    return options_.policy == CachePolicy::kLru;
  }

  /// Page-validated membership test (the optimizer's IsCached probe).
  bool Contains(const CubeKey& key, PageId page) const RASED_EXCLUDES(mu_);

  /// Drops every cached cube whose window overlaps `range`. Called when
  /// the monthly rebuild rewrites a month's cubes (and its month/year
  /// ancestors) underneath the cache; callers re-Warm afterwards to refill
  /// the freed bytes. In-flight readers holding shared_ptrs are unharmed.
  void InvalidateRange(const DateRange& range) RASED_EXCLUDES(mu_);

  size_t size() const RASED_EXCLUDES(mu_);
  /// Sum of SerializedBytes() over the held entries.
  uint64_t bytes_used() const RASED_EXCLUDES(mu_);
  const CacheOptions& options() const { return options_; }
  CacheStats stats() const RASED_EXCLUDES(mu_);
  void ResetStats() RASED_EXCLUDES(mu_);
  void Clear() RASED_EXCLUDES(mu_);

 private:
  /// One cube of a Warm selection: where it is stored, the form to hold
  /// it in and the bytes that form is charged.
  struct Selected {
    CubeKey key;
    PageId page = kInvalidPageId;
    CubeEncoding form = CubeEncoding::kDenseRaw;
    uint64_t bytes = 0;
  };

  void AdmitLru(const CubeKey& key, PageId page,
                std::shared_ptr<const EncodedCube> cube) RASED_REQUIRES(mu_);
  /// Appends to `out` the newest cubes of `level` whose stored sizes fit
  /// in `max_bytes`, newest first; returns the bytes they take.
  static uint64_t Select(const CatalogSnapshot& snapshot, Level level,
                         uint64_t max_bytes, std::vector<Selected>* out);
  /// Reads `todo` (cubes of one level) in one batch and admits them.
  void Load(const TemporalIndex* index, const CatalogSnapshot& snapshot,
            const std::vector<Selected>& todo) RASED_EXCLUDES(mu_);
  /// Sets the resident gauges from entries_/bytes_used_.
  void PublishSizeLocked() RASED_REQUIRES(mu_);

  const CacheOptions options_;  // immutable after construction

  /// Registry handles (all set together in the constructor when
  /// options_.metrics is non-null, else all null). The counters update
  /// lock-free; the resident gauge is set under mu_ right after entry
  /// surgery so it always mirrors entries_.size().
  struct CacheMetrics {
    Counter* hits = nullptr;
    Counter* misses = nullptr;
    Counter* admissions = nullptr;
    Counter* evictions = nullptr;
    Counter* preloads = nullptr;
    Gauge* resident = nullptr;        // cubes
    Gauge* resident_bytes = nullptr;  // cube bytes held
    Gauge* budget_bytes = nullptr;    // configured byte budget
  };
  CacheMetrics metrics_ RASED_CONST_AFTER_INIT;

  /// Guards every mutable member below. Held only for map/list surgery,
  /// never across index I/O (Warm reads and copies a batch first, then
  /// locks to admit it), so worker threads contend only on pointer-sized
  /// critical sections.
  mutable Mutex mu_;

  CacheStats stats_ RASED_GUARDED_BY(mu_);

  // Entry storage. lru_list_ is maintained only under the kLru policy.
  // Cubes are shared_ptr<const> so hits escape the lock safely.
  struct Entry {
    std::shared_ptr<const EncodedCube> cube;
    /// Page the cube was read from — the entry's version for MVCC
    /// validation.
    PageId page = kInvalidPageId;
    std::list<CubeKey>::iterator lru_it;
    bool in_lru = false;
  };
  std::unordered_map<CubeKey, Entry, CubeKeyHash> entries_
      RASED_GUARDED_BY(mu_);
  std::list<CubeKey> lru_list_ RASED_GUARDED_BY(mu_);  // front = most recent
  /// Sum of entries_[*].cube->SerializedBytes() — the budget charge.
  uint64_t bytes_used_ RASED_GUARDED_BY(mu_) = 0;
};

}  // namespace rased

#endif  // RASED_CACHE_CUBE_CACHE_H_
