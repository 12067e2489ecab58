#include "core/pool_manager.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/fault_injection.h"
#include "common/log.h"

namespace mmwave::core {

InstanceSignature make_signature(
    const net::Network& net, const std::vector<video::LinkDemand>& demands) {
  InstanceSignature sig;
  sig.fingerprint = instance_fingerprint(net, demands);
  sig.links = net.num_links();
  sig.channels = net.num_channels();
  sig.features.reserve(static_cast<std::size_t>(net.num_links()) * 2 +
                       net.num_rate_levels());
  // Per-link best-channel direct gain in log10: blockage is a multiplicative
  // attenuation, so nearby blockage states differ by a few dB here and far
  // states by tens — exactly the geometry the distance metric should see.
  for (int l = 0; l < net.num_links(); ++l) {
    double best = 0.0;
    for (int k = 0; k < net.num_channels(); ++k)
      best = std::max(best, net.direct_gain(l, k));
    sig.features.push_back(best > 0.0 ? std::log10(best) : -300.0);
  }
  for (int q = 0; q < net.num_rate_levels(); ++q)
    sig.features.push_back(net.rate_level(q).sinr_threshold);
  // Demands in log-ish scale so one heavy GoP does not drown the gains.
  for (const video::LinkDemand& d : demands)
    sig.features.push_back(std::log1p(std::max(0.0, d.total())));
  return sig;
}

double signature_distance(const InstanceSignature& a,
                          const InstanceSignature& b) {
  if (a.links != b.links || a.channels != b.channels ||
      a.features.size() != b.features.size()) {
    return std::numeric_limits<double>::infinity();
  }
  if (a.fingerprint == b.fingerprint) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < a.features.size(); ++i) {
    const double d = a.features[i] - b.features[i];
    sum += d * d;
  }
  return a.features.empty() ? 0.0
                            : sum / static_cast<double>(a.features.size());
}

PoolManager::PoolManager(PoolManagerOptions options)
    : options_(std::move(options)) {}

namespace {

/// Eviction penalty (higher = evicted sooner) for `meta` at epoch `now`:
/// recency plus the last observed reduced cost, which is >= 0 at an
/// optimum and squashed into [0, 1) so a badly-priced column costs at most
/// kRcWeight epochs of seniority.
double penalty(const PoolColumnMeta& meta, std::int64_t now) {
  const double age =
      static_cast<double>(std::max<std::int64_t>(0, now - meta.last_used_epoch));
  const double rc = std::max(0.0, meta.last_reduced_cost);
  return age + kRcWeight * (rc / (1.0 + rc));
}

/// The checkpoint's pool as manager entries.  Without aligned metadata (a
/// degraded pool_meta section) each column gets cold scores: identity from
/// the checkpoint header, basis from tau, age/rc unknown.
std::vector<PoolManager::Entry> checkpoint_entries(const CgCheckpoint& c) {
  const bool have_meta = c.pool_meta.size() == c.pool.size();
  std::vector<PoolManager::Entry> entries(c.pool.size());
  for (std::size_t s = 0; s < c.pool.size(); ++s) {
    PoolManager::Entry& e = entries[s];
    e.column = c.pool[s];
    e.tau = s < c.pool_tau.size() ? c.pool_tau[s] : 0.0;
    if (have_meta) {
      e.meta = c.pool_meta[s];
    } else {
      e.meta.fingerprint = c.fingerprint;
      e.meta.in_basis = e.tau > 0.0;
    }
  }
  return entries;
}

/// Replaces the checkpoint's pool/pool_tau/pool_meta with `entries`.
void write_entries(const std::vector<PoolManager::Entry>& entries,
                   CgCheckpoint* c) {
  c->pool.clear();
  c->pool_tau.clear();
  c->pool_meta.clear();
  c->pool.reserve(entries.size());
  for (const PoolManager::Entry& e : entries) {
    c->pool.push_back(e.column);
    c->pool_tau.push_back(e.tau);
    c->pool_meta.push_back(e.meta);
  }
}

/// Fingerprints that still own at least one column of `entries`.
std::unordered_set<std::uint64_t> live_fingerprints(
    const std::vector<PoolManager::Entry>& entries) {
  std::unordered_set<std::uint64_t> live;
  live.reserve(entries.size());
  for (const PoolManager::Entry& e : entries) live.insert(e.meta.fingerprint);
  return live;
}

}  // namespace

std::int64_t PoolManager::evict(std::vector<Entry>& entries,
                                std::int64_t now) const {
  const int cap = options_.cap;
  if (cap <= 0) return 0;
  std::int64_t evicted = 0;
  while (static_cast<int>(entries.size()) > cap) {
    // Deterministic victim selection: scan in insertion order, keep the
    // strictly-worst penalty (ties resolve to the oldest entry).  Basis
    // columns are never candidates, even if that pins the pool above cap.
    int victim = -1;
    double worst = -1.0;
    int best = -1;
    double best_penalty = std::numeric_limits<double>::infinity();
    for (int i = 0; i < static_cast<int>(entries.size()); ++i) {
      if (entries[i].meta.in_basis) continue;
      const double p = penalty(entries[i].meta, now);
      if (p > worst) {
        worst = p;
        victim = i;
      }
      if (p < best_penalty) {
        best_penalty = p;
        best = i;
      }
    }
    if (victim < 0) break;  // only basis columns remain
    // Scripted mis-eviction: the policy picks the most valuable non-basis
    // column instead of the least.  The basis stays protected regardless.
    if (common::fault_fires(common::faults::kPoolEvictWrongColumn)) {
      victim = best;
    }
    entries.erase(entries.begin() + victim);
    ++evicted;
  }
  return evicted;
}

std::vector<sched::Schedule> PoolManager::seed(
    const InstanceSignature& signature) {
  ++metrics_.seed_calls;
  if (entries_.empty() || instances_.empty()) return {};

  // Rank known instances by distance; the exact fingerprint (distance 0)
  // naturally sorts first.  Ties (e.g. two identical past states) resolve
  // by most recent store, then insertion order — all deterministic.
  struct Ranked {
    double distance;
    std::int64_t last_epoch;
    int index;
  };
  std::vector<Ranked> ranked;
  ranked.reserve(instances_.size());
  for (int i = 0; i < static_cast<int>(instances_.size()); ++i) {
    const double d = signature_distance(signature, instances_[i].signature);
    if (!std::isfinite(d)) continue;  // incompatible dimensions
    ranked.push_back({d, instances_[i].last_epoch, i});
  }
  std::sort(ranked.begin(), ranked.end(), [](const Ranked& a, const Ranked& b) {
    if (a.distance != b.distance) return a.distance < b.distance;
    if (a.last_epoch != b.last_epoch) return a.last_epoch > b.last_epoch;
    return a.index < b.index;
  });
  const int neighbours =
      std::min<int>(kMaxNeighbours, static_cast<int>(ranked.size()));

  std::vector<sched::Schedule> out;
  std::unordered_set<std::string> seen;
  for (int n = 0; n < neighbours; ++n) {
    const std::uint64_t fp =
        instances_[ranked[n].index].signature.fingerprint;
    const bool is_neighbour = fp != signature.fingerprint;
    for (const Entry& e : entries_) {
      if (e.meta.fingerprint != fp) continue;
      if (!seen.insert(e.column.key()).second) continue;
      out.push_back(e.column);
      ++metrics_.seeded_columns;
      if (is_neighbour) ++metrics_.neighbour_seeded;
    }
  }
  return out;
}

void PoolManager::store(const InstanceSignature& signature,
                        const net::Network& net, const CgResult& result) {
  ++epoch_;
  ++metrics_.stores;

  // This result's basis is now THE current basis: the previous protection
  // lapses before the new pool merges in.
  for (Entry& e : entries_) e.meta.in_basis = false;

  const std::vector<PoolColumnMeta> scored =
      score_pool(net, result, signature.fingerprint, epoch_);
  std::unordered_map<std::string, int> by_key;
  by_key.reserve(entries_.size());
  for (int i = 0; i < static_cast<int>(entries_.size()); ++i)
    by_key.emplace(entries_[i].column.key(), i);

  for (std::size_t s = 0; s < result.pool.size(); ++s) {
    const double tau =
        s < result.pool_tau.size() ? result.pool_tau[s] : 0.0;
    const auto it = by_key.find(result.pool[s].key());
    if (it != by_key.end()) {
      // Known column: refresh its lifecycle record (a column re-proving
      // itself on a new instance migrates to that instance's fingerprint).
      Entry& e = entries_[it->second];
      e.tau = tau;
      e.meta = scored[s];
    } else {
      Entry e;
      e.column = result.pool[s];
      e.tau = tau;
      e.meta = scored[s];
      by_key.emplace(e.column.key(), static_cast<int>(entries_.size()));
      entries_.push_back(std::move(e));
    }
  }

  // Refresh the instance index.
  bool known = false;
  for (KnownInstance& inst : instances_) {
    if (inst.signature.fingerprint == signature.fingerprint) {
      inst.signature = signature;  // demands may differ at equal fingerprint
      inst.last_epoch = epoch_;
      known = true;
      break;
    }
  }
  if (!known) instances_.push_back({signature, epoch_});

  evict_and_prune();
}

void PoolManager::evict_and_prune() {
  metrics_.evicted += evict(entries_, epoch_);
  const std::unordered_set<std::uint64_t> live = live_fingerprints(entries_);
  instances_.erase(
      std::remove_if(instances_.begin(), instances_.end(),
                     [&](const KnownInstance& inst) {
                       return live.count(inst.signature.fingerprint) == 0;
                     }),
      instances_.end());
}

void PoolManager::import_checkpoint(const CgCheckpoint& checkpoint) {
  std::unordered_map<std::string, int> by_key;
  by_key.reserve(entries_.size());
  for (int i = 0; i < static_cast<int>(entries_.size()); ++i)
    by_key.emplace(entries_[i].column.key(), i);
  for (Entry& e : checkpoint_entries(checkpoint)) {
    const auto it = by_key.find(e.column.key());
    if (it != by_key.end()) {
      entries_[it->second] = std::move(e);
    } else {
      by_key.emplace(e.column.key(), static_cast<int>(entries_.size()));
      entries_.push_back(std::move(e));
    }
  }
  // Cross-instance state: advance the epoch clock so restored recency
  // values stay meaningful, then merge the persisted neighbour index (by
  // fingerprint: refresh known instances, append unknown ones in saved
  // order so seeding stays deterministic).
  if (checkpoint.pool_epoch > epoch_) epoch_ = checkpoint.pool_epoch;
  for (const PoolIndexEntry& e : checkpoint.pool_index) {
    bool merged = false;
    for (KnownInstance& inst : instances_) {
      if (inst.signature.fingerprint != e.fingerprint) continue;
      if (e.last_epoch > inst.last_epoch) inst.last_epoch = e.last_epoch;
      if (inst.signature.features.empty() && !e.features.empty()) {
        inst.signature.links = e.links;
        inst.signature.channels = e.channels;
        inst.signature.features = e.features;
      }
      merged = true;
      break;
    }
    if (merged) continue;
    InstanceSignature sig;
    sig.fingerprint = e.fingerprint;
    sig.links = e.links;
    sig.channels = e.channels;
    sig.features = e.features;
    instances_.push_back({std::move(sig), e.last_epoch});
  }
  bool known = false;
  for (const KnownInstance& inst : instances_)
    known = known || inst.signature.fingerprint == checkpoint.fingerprint;
  if (!known && !checkpoint.pool.empty()) {
    InstanceSignature sig;  // featureless: identity only, until a store()
    sig.fingerprint = checkpoint.fingerprint;
    sig.links = checkpoint.links;
    sig.channels = checkpoint.channels;
    instances_.push_back({std::move(sig), epoch_});
  }
  evict_and_prune();
}

CgCheckpoint PoolManager::export_checkpoint(const CgCheckpoint& base) const {
  CgCheckpoint out = base;
  write_entries(entries_, &out);
  out.pool_meta_degraded = false;
  // Persist the manager's cross-instance state so a restarted
  // process recovers neighbour seeding and recency scoring, not just one
  // instance's columns.
  out.pool_epoch = epoch_;
  out.pool_index.clear();
  out.pool_index.reserve(instances_.size());
  for (const KnownInstance& inst : instances_) {
    PoolIndexEntry e;
    e.fingerprint = inst.signature.fingerprint;
    e.links = inst.signature.links;
    e.channels = inst.signature.channels;
    e.last_epoch = inst.last_epoch;
    e.features = inst.signature.features;
    out.pool_index.push_back(std::move(e));
  }
  out.pool_index_degraded = false;
  return out;
}

void PoolManager::trim_checkpoint(CgCheckpoint* checkpoint) const {
  if (options_.cap <= 0) return;
  std::vector<Entry> entries = checkpoint_entries(*checkpoint);
  const std::int64_t evicted = evict(entries, epoch_);
  if (evicted > 0) {
    MMWAVE_LOG_INFO << "pool: checkpoint trimmed by " << evicted
                    << " column(s) to cap " << options_.cap;
  }
  write_entries(entries, checkpoint);
  const std::unordered_set<std::uint64_t> live = live_fingerprints(entries);
  std::vector<PoolIndexEntry>& index = checkpoint->pool_index;
  index.erase(std::remove_if(index.begin(), index.end(),
                             [&](const PoolIndexEntry& e) {
                               return live.count(e.fingerprint) == 0;
                             }),
              index.end());
}

}  // namespace mmwave::core
