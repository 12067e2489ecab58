// Thread-safe facade over one core::PoolManager shared by many piconets.
//
// PoolManager itself is deliberately unsynchronized (one session loop at a
// time); a fleet of concurrent solves sharing its multi-instance fingerprint
// index needs a locking contract on top.  SharedPoolManager serializes every
// operation behind one mutex, which keeps the manager's determinism contract
// intact in the only form a concurrent caller can rely on:
//
//   * Each individual operation is atomic: seed() never observes a store()
//     half applied, eviction scans never race a concurrent store().
//   * For any fixed serialization order of operations the pool contents,
//     eviction victims and metrics are bit-identical to an unsynchronized
//     PoolManager fed the same sequence — the lock adds no decision points.
//   * Correctness is order-independent: warm-start candidates are
//     feasibility-repaired by the caller before the master sees them, so
//     WHICH columns a seed() returns can only change solve speed, never the
//     certified optimum (the warm-equivalence invariant).
//
// Cross-request snapshots (drain checkpoints, session adoption) go through
// export_checkpoint()/import_checkpoint() under the same lock.
#pragma once

#include <mutex>
#include <vector>

#include "core/pool_manager.h"

namespace mmwave::core {

class SharedPoolManager {
 public:
  explicit SharedPoolManager(PoolManagerOptions options = {})
      : manager_(std::move(options)) {}

  SharedPoolManager(const SharedPoolManager&) = delete;
  SharedPoolManager& operator=(const SharedPoolManager&) = delete;

  /// Warm-start candidates for `signature` (PoolManager::seed under lock).
  std::vector<sched::Schedule> seed(const InstanceSignature& signature) {
    std::lock_guard<std::mutex> lock(mu_);
    return manager_.seed(signature);
  }

  /// Ingests one finished solve (PoolManager::store under lock).
  void store(const InstanceSignature& signature, const net::Network& net,
             const CgResult& result) {
    std::lock_guard<std::mutex> lock(mu_);
    manager_.store(signature, net, result);
  }

  void import_checkpoint(const CgCheckpoint& checkpoint) {
    std::lock_guard<std::mutex> lock(mu_);
    manager_.import_checkpoint(checkpoint);
  }

  CgCheckpoint export_checkpoint(const CgCheckpoint& base) const {
    std::lock_guard<std::mutex> lock(mu_);
    return manager_.export_checkpoint(base);
  }

  /// Copies (not references): the underlying storage may move under a
  /// concurrent store(), so callers get a stable snapshot.
  PoolManagerMetrics metrics() const {
    std::lock_guard<std::mutex> lock(mu_);
    return manager_.metrics();
  }
  std::vector<PoolManager::Entry> entries() const {
    std::lock_guard<std::mutex> lock(mu_);
    return manager_.entries();
  }
  int size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return manager_.size();
  }
  PoolManagerOptions options() const {
    std::lock_guard<std::mutex> lock(mu_);
    return manager_.options();
  }
  /// Starts a fresh accounting window; the pool itself stays warm.  Resets
  /// EVERY counter — the window identities (pool_hits + pool_misses ==
  /// resolves and friends) only hold when all counters reset together.
  void reset_metrics() {
    std::lock_guard<std::mutex> lock(mu_);
    manager_.reset_metrics();
  }

 private:
  mutable std::mutex mu_;
  PoolManager manager_;
};

}  // namespace mmwave::core
