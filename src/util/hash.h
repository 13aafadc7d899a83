#ifndef PULLMON_UTIL_HASH_H_
#define PULLMON_UTIL_HASH_H_

#include <cstdint>
#include <string_view>

namespace pullmon {

/// The FNV-1a 64-bit offset basis: the hash of the empty string.
inline constexpr uint64_t kFnv1a64Basis = 0xcbf29ce484222325ULL;

/// The basis feed validators and parse-cache content keys hash from: the
/// standard one with its last decimal digit dropped (1469598103934665603
/// instead of 14695981039346656037). Served ETags, snapshots and golden
/// tests pin values derived from it, so those two keys keep it.
inline constexpr uint64_t kFnv1a64FeedBasis = 1469598103934665603ULL;

/// FNV-1a over `bytes`, continuing from `hash`. Hashing a concatenation
/// equals chaining the pieces: Fnv1a64(b, Fnv1a64(a)) == Fnv1a64(a + b).
/// Not cryptographic; used for content keys, validators and config
/// fingerprints, all of which are pinned by golden tests.
inline uint64_t Fnv1a64(std::string_view bytes,
                        uint64_t hash = kFnv1a64Basis) {
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// FNV-1a 32-bit over `bytes` from the standard basis: the checksum of
/// every snapshot and WAL record frame, which pinned-byte tests fix.
inline uint32_t Fnv1a32(std::string_view bytes) {
  uint32_t hash = 2166136261u;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 16777619u;
  }
  return hash;
}

}  // namespace pullmon

#endif  // PULLMON_UTIL_HASH_H_
