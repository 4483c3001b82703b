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
//
// A ChunkAggTable does the same for a build partition larger than one
// chunk, which the kernel joins as hash-based block nested loops: one
// Listing 2 table per chunk of R_p, and every probe tuple probes each of
// them. Chunk c's chain for slot s holds exactly the chunk's tuples of
// slot s, so the table resolves both questions per chunk:
//
//   rows — per hash slot, a dense row of its chain length in every chunk;
//   keys — per distinct build key, its runs: one (chunk, (match count
//          << 48) | payload sum) per chunk holding the key, ascending by
//          chunk. Counts are per chunk, so the packing above holds even
//          for a key with more than 2^16 copies in R_p.
//
// A probe tuple adds its slot's row to per-chunk step counts and reads
// its key's runs: one row and one key lookup instead of a walk over
// every build tuple of its slot. Keys are hashed and key 0 is parked as
// in an AggTable, but past 4 chunks the key table is sized by the
// distinct keys seen, not by the tuples: it doubles whenever it would
// pass a quarter full, so a skewed partition's few hot keys keep it
// small.

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

/// \brief One oversized co-partition's chunk-resolved key-aggregated
/// build table (see the header comment), in storage reused across builds
/// like an AggTable's.
class ChunkAggTable {
 public:
  /// Builds the table of R partition `p` of `chains`, which holds
  /// `build_tuples` tuples, for block nested loops over chunks of
  /// `chunk_tuples` (< 65535) tuples in chain order, each with a kernel
  /// table of `hash_slots` slots under `radix_bits` partitioning.
  void Build(const BucketChains& chains, uint32_t p, uint32_t build_tuples,
             uint32_t chunk_tuples, int radix_bits, uint32_t hash_slots);

  /// Probes `n` tuples of one probe bucket against every chunk, as the
  /// kernel's per-chunk chain walks would: adds the chain steps and the
  /// matches they take in chunk c to `steps[c * stride]` and
  /// `hits[c * stride]`, their matches to `matches` and the matches'
  /// (build + probe payload) sums to `checksum`.
  void Probe(const uint32_t* probe_keys, const uint32_t* probe_pays,
             uint32_t n, uint64_t* steps, uint64_t* hits, size_t stride,
             uint64_t* matches, uint64_t* checksum);

 private:
  /// Set in Entry::tag for a key held by several chunks.
  static constexpr uint32_t kSpread = 1u << 31;

  /// A key-table entry; key 0 marks an empty one. A key held by one
  /// chunk keeps its run inline: `tag` is the chunk and `val` the
  /// aggregate. A key held by several chunks has kSpread | (its Spread's
  /// index) in `tag` and (first run << 32) | (run count) in `val`.
  struct Entry {
    uint32_t key;
    uint32_t tag;
    uint64_t val;
  };
  /// One chunk's aggregate of a key held by several chunks.
  struct Run {
    uint64_t agg;
    uint32_t chunk;
  };
  /// Build state of a key held by several chunks.
  struct Spread {
    uint32_t key;
    uint32_t runs;    // chunks holding it
    uint32_t last;    // last chunk seen
    uint32_t cursor;  // next run to fill
  };

  /// Empties a key table of `key_cap` entries, plus the spare entry past
  /// it where key 0 builds.
  void ClearKeys(uint32_t key_cap);
  /// The entry of `key`, or where it goes: key 0's is the spare entry.
  uint32_t EntryOf(uint32_t key) const;
  /// Doubles the key table, reinserting its keys.
  void GrowKeys();

  /// hash_slots_ rows of chunks_ chain lengths.
  std::vector<uint16_t> rows_;
  /// The key table, then the entry key 0 builds in.
  std::vector<Entry> entries_;
  std::vector<Run> runs_;
  // Build and probe scratch.
  std::vector<Entry> old_entries_;
  std::vector<Spread> spreads_;
  std::vector<uint64_t> step_acc_;
  uint32_t key_mask_ = 0;
  uint32_t hash_slots_ = 0;
  uint32_t chunks_ = 0;
  int radix_bits_ = 0;
};

}  // namespace gjoin::gpujoin

#endif  // GJOIN_GPUJOIN_AGG_TABLE_H_
