#include "cache/cube_cache.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "cube/cube_codec.h"
#include "util/logging.h"

namespace rased {

CubeCache::CubeCache(const CacheOptions& options) : options_(options) {
  if (options_.metrics != nullptr) {
    MetricsRegistry* registry = options_.metrics;
    metrics_.hits = registry->GetCounter("rased_cache_hits_total",
                                         "Cube cache lookup hits");
    metrics_.misses = registry->GetCounter("rased_cache_misses_total",
                                           "Cube cache lookup misses");
    metrics_.admissions =
        registry->GetCounter("rased_cache_admissions_total",
                             "Cubes admitted on the query path (LRU policy)");
    metrics_.evictions = registry->GetCounter("rased_cache_evictions_total",
                                              "Cubes evicted to make room");
    metrics_.preloads = registry->GetCounter(
        "rased_cache_preloads_total", "Cubes preloaded by the static policy");
    metrics_.resident =
        registry->GetGauge("rased_cache_resident_cubes",
                           "Cubes currently resident in the cache");
    metrics_.resident_bytes =
        registry->GetGauge("rased_cache_resident_bytes",
                           "Cube body bytes held in the cache");
    metrics_.budget_bytes = registry->GetGauge(
        "rased_cache_budget_bytes", "Configured cache byte budget");
    metrics_.budget_bytes->Set(static_cast<int64_t>(options_.byte_budget));
  }
}

uint64_t CubeCache::Select(const CatalogSnapshot& snapshot, Level level,
                          uint64_t max_bytes, std::vector<Selected>* out) {
  // Walk the level newest to oldest (LatestKeys returns newest last) and
  // take the contiguous prefix whose stored sizes fit — pure catalog
  // metadata, so sizing never costs I/O.
  uint64_t selected_bytes = 0;
  const std::vector<CubeKey> keys =
      snapshot.LatestKeys(level, std::numeric_limits<size_t>::max());
  for (auto kit = keys.rbegin(); kit != keys.rend(); ++kit) {
    std::optional<CubeLoc> loc = snapshot.LocOf(*kit);
    if (!loc.has_value()) continue;  // raced away; snapshot makes this moot
    // Legacy seed cubes carry no blob header on disk but are held as
    // ordinary kDenseRaw EncodedCubes, header charge included.
    const uint64_t bytes =
        loc->blob_bytes + (loc->legacy ? CubeBlobHeader::kBytes : 0);
    if (selected_bytes + bytes > max_bytes) break;
    selected_bytes += bytes;
    out->push_back(Selected{*kit, loc->first_page, loc->encoding, bytes});
  }
  return selected_bytes;
}

void CubeCache::Load(const TemporalIndex* index,
                     const CatalogSnapshot& snapshot,
                     const std::vector<Selected>& todo) {
  if (todo.empty()) return;
  std::vector<CubeKey> keys;
  for (const Selected& s : todo) keys.push_back(s.key);
  auto batch = index->ReadCubes(snapshot, keys);
  Status status = batch.status();
  // Copy (and widen) outside the lock; admission is pointer surgery.
  std::vector<std::shared_ptr<const EncodedCube>> cubes(todo.size());
  for (size_t j = 0; status.ok() && j < todo.size(); ++j) {
    Result<EncodedCube> cube = batch.value().Extract(j);
    if (todo[j].form != cube.value().encoding()) cube = cube.value().Widened();
    status = cube.status();
    if (status.ok()) {
      cubes[j] = std::make_shared<const EncodedCube>(std::move(cube).value());
    }
  }
  if (!status.ok()) {
    RASED_LOG(Warning) << "cache preload of " << keys.size() << " "
                       << LevelName(keys.front().level)
                       << " cubes failed: " << status.ToString();
    return;
  }
  MutexLock lock(&mu_);
  for (size_t j = 0; j < todo.size(); ++j) {
    auto [it, inserted] = entries_.try_emplace(keys[j]);
    if (!inserted) bytes_used_ -= it->second.cube->SerializedBytes();
    it->second.cube = std::move(cubes[j]);
    it->second.page = todo[j].page;
    bytes_used_ += it->second.cube->SerializedBytes();
    ++stats_.preloaded;
    if (metrics_.preloads != nullptr) metrics_.preloads->Increment();
  }
  PublishSizeLocked();
}

Status CubeCache::Warm(const TemporalIndex* index) {
  if (options_.policy == CachePolicy::kLru) return Status::OK();
  // One snapshot for the whole pass: every entry carries the page of the
  // same published version, and maintenance concurrent with the warm
  // neither blocks nor is blocked by it.
  CatalogSnapshot snapshot = index->Snapshot();
  const uint64_t budget = options_.byte_budget;

  // ---- Select: newest first per level, by stored size.
  std::vector<Selected> selected;
  uint64_t used = 0;
  if (options_.policy == CachePolicy::kAllDaily) {
    used = Select(snapshot, Level::kDaily, budget, &selected);
  } else {
    // kRasedRecency: split the byte budget by (alpha, beta, gamma, theta);
    // whatever the coarser levels cannot fill (an index may simply have
    // fewer weekly cubes than beta's share of bytes) falls back to daily,
    // the level with the most nodes. Compression multiplies here: the
    // shares are bytes, so compact cubes cost only what they store.
    const double b = static_cast<double>(budget);
    const std::pair<Level, double> shares[] = {
        {Level::kWeekly, options_.beta},
        {Level::kMonthly, options_.gamma},
        {Level::kYearly, options_.theta}};
    for (const auto& [level, share] : shares) {
      used += Select(snapshot, level,
                     static_cast<uint64_t>(std::floor(share * b)), &selected);
    }
    used += Select(snapshot, Level::kDaily, used < budget ? budget - used : 0,
                   &selected);
  }

  // ---- Widen: delta cubes to dense, newest first, while the dense size
  // still fits what the selection left of the budget.
  std::vector<Selected*> deltas;
  for (Selected& s : selected) {
    if (s.form == CubeEncoding::kDeltaVarint) deltas.push_back(&s);
  }
  std::stable_sort(deltas.begin(), deltas.end(),
                   [](const Selected* a, const Selected* b) {
                     return a->key.range().last > b->key.range().last;
                   });
  const uint64_t dense_bytes =
      index->options().schema.cube_bytes() + CubeBlobHeader::kBytes;
  for (Selected* s : deltas) {
    const uint64_t grown = used - s->bytes + dense_bytes;
    if (grown > budget) break;
    used = grown;
    s->form = CubeEncoding::kDenseRaw;
    s->bytes = dense_bytes;
  }

  // ---- Reconcile: keep entries already holding a selected (key, page) in
  // the selected form, drop everything else first (so the budget holds
  // throughout), then read only the missing cubes, one batch per level.
  std::unordered_map<CubeKey, size_t, CubeKeyHash> wanted;
  for (size_t i = 0; i < selected.size(); ++i) {
    wanted.emplace(selected[i].key, i);
  }
  std::vector<bool> held(selected.size(), false);
  {
    MutexLock lock(&mu_);
    for (auto it = entries_.begin(); it != entries_.end();) {
      auto w = wanted.find(it->first);
      if (w != wanted.end() && it->second.page == selected[w->second].page &&
          it->second.cube->encoding() == selected[w->second].form) {
        held[w->second] = true;
        ++it;
        continue;
      }
      // Static policies never link entries into lru_list_.
      bytes_used_ -= it->second.cube->SerializedBytes();
      it = entries_.erase(it);
    }
    PublishSizeLocked();
  }
  std::vector<Selected> todo[kNumLevels];
  for (size_t i = 0; i < selected.size(); ++i) {
    if (!held[i]) {
      todo[static_cast<int>(selected[i].key.level)].push_back(selected[i]);
    }
  }
  for (const std::vector<Selected>& level_todo : todo) {
    Load(index, snapshot, level_todo);
  }
  return Status::OK();
}

std::shared_ptr<const EncodedCube> CubeCache::Find(const CubeKey& key,
                                                   PageId page) {
  MutexLock lock(&mu_);
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.page != page) {
    // Absent, or cached from a different page (a different version of the
    // cube): never serve it to this snapshot.
    ++stats_.misses;
    if (metrics_.misses != nullptr) metrics_.misses->Increment();
    return nullptr;
  }
  ++stats_.hits;
  if (metrics_.hits != nullptr) metrics_.hits->Increment();
  if (options_.policy == CachePolicy::kLru && it->second.in_lru) {
    lru_list_.splice(lru_list_.begin(), lru_list_, it->second.lru_it);
  }
  return it->second.cube;
}

void CubeCache::Insert(const CubeKey& key, PageId page, EncodedCube cube) {
  if (options_.policy != CachePolicy::kLru) return;
  auto shared = std::make_shared<const EncodedCube>(std::move(cube));
  MutexLock lock(&mu_);
  AdmitLru(key, page, std::move(shared));
}

bool CubeCache::Contains(const CubeKey& key, PageId page) const {
  MutexLock lock(&mu_);
  auto it = entries_.find(key);
  return it != entries_.end() && it->second.page == page;
}

void CubeCache::AdmitLru(const CubeKey& key, PageId page,
                         std::shared_ptr<const EncodedCube> cube) {
  const uint64_t bytes = cube->SerializedBytes();
  if (bytes > options_.byte_budget) return;  // can never fit
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    bytes_used_ = bytes_used_ - it->second.cube->SerializedBytes() + bytes;
    it->second.cube = std::move(cube);
    it->second.page = page;
    if (it->second.in_lru) {
      lru_list_.splice(lru_list_.begin(), lru_list_, it->second.lru_it);
    }
    PublishSizeLocked();
    return;
  }
  while (bytes_used_ + bytes > options_.byte_budget && !lru_list_.empty()) {
    CubeKey victim = lru_list_.back();
    lru_list_.pop_back();
    auto vit = entries_.find(victim);
    if (vit != entries_.end()) {
      bytes_used_ -= vit->second.cube->SerializedBytes();
      entries_.erase(vit);
    }
    ++stats_.evictions;
    if (metrics_.evictions != nullptr) metrics_.evictions->Increment();
  }
  lru_list_.push_front(key);
  entries_.emplace(key, Entry{std::move(cube), page, lru_list_.begin(), true});
  bytes_used_ += bytes;
  if (metrics_.admissions != nullptr) metrics_.admissions->Increment();
  PublishSizeLocked();
}

void CubeCache::InvalidateRange(const DateRange& range) {
  MutexLock lock(&mu_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->first.range().Overlaps(range)) {
      bytes_used_ -= it->second.cube->SerializedBytes();
      if (it->second.in_lru) lru_list_.erase(it->second.lru_it);
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
  PublishSizeLocked();
}

void CubeCache::PublishSizeLocked() {
  if (metrics_.resident == nullptr) return;
  metrics_.resident->Set(static_cast<int64_t>(entries_.size()));
  metrics_.resident_bytes->Set(static_cast<int64_t>(bytes_used_));
}

size_t CubeCache::size() const {
  MutexLock lock(&mu_);
  return entries_.size();
}

uint64_t CubeCache::bytes_used() const {
  MutexLock lock(&mu_);
  return bytes_used_;
}

CacheStats CubeCache::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

void CubeCache::ResetStats() {
  MutexLock lock(&mu_);
  stats_ = CacheStats{};
}

void CubeCache::Clear() {
  MutexLock lock(&mu_);
  entries_.clear();
  lru_list_.clear();
  bytes_used_ = 0;
  PublishSizeLocked();
}

}  // namespace rased
