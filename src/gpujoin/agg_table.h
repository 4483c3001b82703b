// Key-aggregated build tables: how the host executes an aggregate-mode
// shared-memory hash probe (Section III-B, Listing 2).
//
// Probing a Listing 2 table with key k walks every build tuple hashed to
// k's slot — the chain steps the kernel is charged for — and matches the
// ones whose key is k. When the join only aggregates, the order of that
// walk is invisible, so a table needs to answer just two questions per
// probe tuple: how long is its slot's chain, and how many build tuples
// (with what payload sum) carry its key. An AggTable stores exactly
// that, so a probe costs two lookups instead of a pointer chase:
//
//   lengths — per hash slot of the kernel's table, its chain length;
//   keys    — per distinct build key, the key, and in the parallel
//             `aggs` array (match count << 48) | payload sum, in an
//             open-addressed table at most a quarter full.
//
// Zero marks an empty key entry. A build key can be zero, so key 0's
// aggregate is parked, after every other key is in, at the first empty
// entry of its own probe sequence: a probe for key 0 stops exactly
// there, and a probe for any other key that stops at an empty entry
// reads no aggregate. Chain lengths and counts stay below 2^16 (build
// chunks hold fewer than 65535 tuples), so payload sums stay below 2^48.

#ifndef GJOIN_GPUJOIN_AGG_TABLE_H_
#define GJOIN_GPUJOIN_AGG_TABLE_H_

#include <cstdint>
#include <vector>

#include "src/gpujoin/bucket_chains.h"

namespace gjoin::gpujoin {

/// \brief One co-partition's key-aggregated build table, in storage that
/// its owner reuses across builds: grown to the largest table seen, and
/// each build zeroes only the entries it uses, so resetting costs no
/// more than building.
class AggTable {
 public:
  /// Builds the table of R partition `p` of `chains`, which holds
  /// `build_tuples` (< 65535) tuples, for a kernel table of `hash_slots`
  /// slots under `radix_bits` partitioning.
  void Build(const BucketChains& chains, uint32_t p, uint32_t build_tuples,
             int radix_bits, uint32_t hash_slots);

  /// Probes `n` tuples as the kernel's chain walks would: adds the chain
  /// steps they take to `steps`, their matches to `matches` and the
  /// matches' (build + probe payload) sums to `checksum`.
  void Probe(const uint32_t* probe_keys, const uint32_t* probe_pays,
             uint32_t n, uint64_t* steps, uint64_t* matches,
             uint64_t* checksum) const;

 private:
  std::vector<uint16_t> lengths_;
  std::vector<uint32_t> keys_;
  std::vector<uint64_t> aggs_;
  uint32_t key_mask_ = 0;
  uint32_t hash_slots_ = 0;
  int radix_bits_ = 0;
};

}  // namespace gjoin::gpujoin

#endif  // GJOIN_GPUJOIN_AGG_TABLE_H_
