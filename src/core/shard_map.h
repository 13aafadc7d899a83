#ifndef PULLMON_CORE_SHARD_MAP_H_
#define PULLMON_CORE_SHARD_MAP_H_

#include <cstdint>
#include <vector>

#include "core/chronon.h"

namespace pullmon {

/// Consistent-hash assignment of resources to shards (DESIGN.md
/// section 16). The in-process sharded engine and the future
/// multi-proxy tier share this map, so the partition a resource lands in
/// today is the proxy instance it would be served by after the
/// distributed split — and growing the shard count reassigns only the
/// keys the new shard takes over, never keys between surviving shards
/// (the property the stability test pins down).
///
/// Classic ring construction: every shard projects `vnodes` points onto
/// a 64-bit ring via SplitMix64, a key hashes onto the ring, and the
/// first point clockwise owns it. More vnodes flatten the load spread at
/// the cost of a larger (binary-searched, read-only) ring.
class ShardMap {
 public:
  static constexpr int kDefaultVnodes = 64;

  /// `num_shards` >= 1; `vnodes` >= 1. `salt` perturbs every ring
  /// position, so two maps with different salts are independent.
  explicit ShardMap(int num_shards, int vnodes = kDefaultVnodes,
                    uint64_t salt = 0x5A17D00DULL);

  int num_shards() const { return num_shards_; }
  int vnodes() const { return vnodes_; }

  /// The shard owning an arbitrary 64-bit key.
  int ShardOf(uint64_t key) const;

  /// The shard owning a resource id (the hot call: resource ids are the
  /// keys the executor shards by).
  int ShardOfResource(ResourceId resource) const {
    return ShardOf(static_cast<uint64_t>(resource));
  }

  /// Precomputed shard of every resource in [0, num_resources) — the
  /// executor resolves per-probe lookups through this dense vector
  /// instead of binary-searching the ring.
  std::vector<int> AssignResources(int num_resources) const;

 private:
  struct RingPoint {
    uint64_t position;
    int shard;
  };

  int num_shards_;
  int vnodes_;
  /// Sorted by (position, shard); read-only after construction, so
  /// concurrent ShardOf() lookups need no synchronization.
  std::vector<RingPoint> ring_;
};

}  // namespace pullmon

#endif  // PULLMON_CORE_SHARD_MAP_H_
