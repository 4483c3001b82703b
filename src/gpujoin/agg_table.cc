#include "src/gpujoin/agg_table.h"

#include <algorithm>

#include "src/util/bits.h"

namespace gjoin::gpujoin {

namespace {

constexpr uint64_t kOne = uint64_t{1} << 48;
constexpr uint64_t kSumMask = kOne - 1;

/// Entries of a key table for `build_tuples` build tuples: at most a
/// quarter full. Measured on 2048-tuple co-partitions: at half full, the
/// probes that step past their home entry cost a third more probe time
/// than this.
uint32_t KeyCapacity(uint32_t build_tuples) {
  return static_cast<uint32_t>(
      util::NextPowerOfTwo(std::max<uint32_t>(4 * build_tuples, 16)));
}

/// The entry of `key` in an open-addressed key table whose entry k holds
/// key `key_at(k)`, or the first empty entry of its probe sequence: where
/// a new key goes, where a probe for an absent key stops, and — for key
/// 0, which is never inserted — where key 0's aggregate is parked once
/// every other key is in.
template <typename KeyAt>
uint32_t FindEntry(const KeyAt& key_at, uint32_t mask, uint32_t key) {
  uint32_t k = util::Mix32(key) & mask;
  while (key_at(k) != key && key_at(k) != 0) k = (k + 1) & mask;
  return k;
}

/// Chunks of distinct keys a ChunkAggTable's key table holds before it
/// first grows: co-processing's co-partitions span about 3.4 chunks.
/// Measured on 8192-tuple partitions of distinct keys in chunks of 3072:
/// starting from one chunk's keys and growing cost the join about a
/// third more host time. Presizing for 16 chunks raised abl_assignment's
/// peak RSS by about 10 MB, idle key entries of its skewed partitions.
constexpr uint32_t kPresizedChunks = 4;

}  // namespace

void AggTable::Build(const BucketChains& chains, uint32_t p,
                     uint32_t build_tuples, int radix_bits,
                     uint32_t hash_slots) {
  const uint32_t key_cap = KeyCapacity(build_tuples);
  if (keys_.size() < key_cap) {
    keys_.resize(key_cap);
    aggs_.resize(key_cap);
  }
  if (lengths_.size() < hash_slots) lengths_.resize(hash_slots);
  std::fill_n(lengths_.data(), hash_slots, 0);
  std::fill_n(keys_.data(), key_cap, 0);
  key_mask_ = key_cap - 1;
  hash_slots_ = hash_slots;
  radix_bits_ = radix_bits;

  uint32_t* keys = keys_.data();
  uint64_t* aggs = aggs_.data();
  const auto key_at = [keys](uint32_t k) { return keys[k]; };
  const uint32_t cap = chains.bucket_capacity();
  uint64_t zero_agg = 0;
  for (int32_t b = chains.heads()[p]; b != BucketChains::kNull;
       b = chains.next()[b]) {
    const size_t base = static_cast<size_t>(b) * cap;
    const uint32_t* bkeys = chains.keys() + base;
    const uint32_t* bpays = chains.payloads() + base;
    for (uint32_t i = 0; i < chains.fill()[b]; ++i) {
      const uint32_t key = bkeys[i];
      ++lengths_[util::HashTableSlot(key, radix_bits, hash_slots)];
      if (key == 0) {
        zero_agg += kOne + bpays[i];
        continue;
      }
      const uint32_t k = FindEntry(key_at, key_mask_, key);
      const uint64_t prior = keys[k] == 0 ? 0 : aggs[k];
      keys[k] = key;
      aggs[k] = prior + kOne + bpays[i];
    }
  }
  aggs[FindEntry(key_at, key_mask_, 0)] = zero_agg;
}

void AggTable::Probe(const uint32_t* probe_keys, const uint32_t* probe_pays,
                     uint32_t n, uint64_t* steps, uint64_t* matches,
                     uint64_t* checksum) const {
  const uint16_t* lengths = lengths_.data();
  const uint32_t* keys = keys_.data();
  const uint64_t* aggs = aggs_.data();
  const auto key_at = [keys](uint32_t k) { return keys[k]; };
  uint64_t st = 0, m = 0, c = 0;
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t key = probe_keys[i];
    st += lengths[util::HashTableSlot(key, radix_bits_, hash_slots_)];
    const uint32_t k = FindEntry(key_at, key_mask_, key);
    const uint64_t agg = keys[k] == key ? aggs[k] : 0;
    const uint64_t count = agg >> 48;
    m += count;
    c += (agg & kSumMask) + count * probe_pays[i];
  }
  *steps += st;
  *matches += m;
  *checksum += c;
}

void ChunkAggTable::ClearKeys(uint32_t key_cap) {
  if (entries_.size() < key_cap + 1) entries_.resize(key_cap + 1);
  std::fill_n(entries_.data(), key_cap + 1, Entry{});
  key_mask_ = key_cap - 1;
}

uint32_t ChunkAggTable::EntryOf(uint32_t key) const {
  if (key == 0) return key_mask_ + 1;
  const Entry* entries = entries_.data();
  const auto key_at = [entries](uint32_t k) { return entries[k].key; };
  return FindEntry(key_at, key_mask_, key);
}

void ChunkAggTable::GrowKeys() {
  const uint32_t old_cap = key_mask_ + 1;
  old_entries_.assign(entries_.data(), entries_.data() + old_cap + 1);
  ClearKeys(2 * old_cap);
  for (uint32_t k = 0; k < old_cap; ++k) {
    if (old_entries_[k].val != 0) {
      entries_[EntryOf(old_entries_[k].key)] = old_entries_[k];
    }
  }
  entries_[EntryOf(0)] = old_entries_[old_cap];
}

void ChunkAggTable::Build(const BucketChains& chains, uint32_t p,
                          uint32_t build_tuples, uint32_t chunk_tuples,
                          int radix_bits, uint32_t hash_slots) {
  chunks_ = static_cast<uint32_t>(
      util::CeilDiv(uint64_t{build_tuples}, uint64_t{chunk_tuples}));
  const size_t row_entries = static_cast<size_t>(hash_slots) * chunks_;
  if (rows_.size() < row_entries) rows_.resize(row_entries);
  std::fill_n(rows_.data(), row_entries, 0);
  // The key table starts sized for the keys of up to kPresizedChunks
  // chunks and doubles whenever it would pass a quarter full: a skewed
  // partition's few hot keys keep it small however many tuples carry
  // them.
  ClearKeys(KeyCapacity(
      std::min(build_tuples, kPresizedChunks * chunk_tuples)));
  spreads_.clear();
  hash_slots_ = hash_slots;
  radix_bits_ = radix_bits;

  // Visits R_p in chain order as (chunk, key, payload).
  const uint32_t cap = chains.bucket_capacity();
  const auto for_each_r = [&](auto&& fn) {
    uint32_t chunk = 0, room = chunk_tuples;
    for (int32_t b = chains.heads()[p]; b != BucketChains::kNull;
         b = chains.next()[b]) {
      const size_t base = static_cast<size_t>(b) * cap;
      const uint32_t* bkeys = chains.keys() + base;
      const uint32_t* bpays = chains.payloads() + base;
      for (uint32_t i = 0; i < chains.fill()[b]; ++i) {
        fn(chunk, bkeys[i], bpays[i]);
        if (--room == 0) {
          ++chunk;
          room = chunk_tuples;
        }
      }
    }
  };

  // Pass 1: slot rows, and every key's entry, aggregated inline while
  // one chunk holds the key. Key 0 builds in the spare entry past the
  // table. An entry is unused while its aggregate is 0.
  uint16_t* rows = rows_.data();
  uint32_t distinct = 0;
  for_each_r([&](uint32_t chunk, uint32_t key, uint32_t pay) {
    const uint32_t slot = util::HashTableSlot(key, radix_bits, hash_slots);
    ++rows[static_cast<size_t>(slot) * chunks_ + chunk];
    uint32_t k = EntryOf(key);
    if (key != 0 && entries_[k].val == 0 && 4 * ++distinct > key_mask_ + 1) {
      GrowKeys();  // a new key would pass a quarter full
      k = EntryOf(key);
    }
    Entry& e = entries_[k];
    if (e.val == 0) {
      e = {key, chunk, kOne + pay};
    } else if (e.tag == chunk) {
      e.val += kOne + pay;
    } else if ((e.tag & kSpread) == 0) {
      e.tag = kSpread | static_cast<uint32_t>(spreads_.size());
      spreads_.push_back({key, 2, chunk, 0});
    } else {
      Spread& sp = spreads_[e.tag & ~kSpread];
      if (sp.last != chunk) {
        ++sp.runs;
        sp.last = chunk;
      }
    }
  });

  // Pass 2, only for keys that several chunks hold: their runs, laid out
  // in spread order and aggregated afresh. R_p is visited in chunk
  // order, so a key's runs open in ascending chunk order.
  if (!spreads_.empty()) {
    uint32_t total = 0;
    for (Spread& sp : spreads_) {
      sp.cursor = total;
      sp.last = UINT32_MAX;
      total += sp.runs;
    }
    if (runs_.size() < total) runs_.resize(total);
    Run* runs = runs_.data();
    for_each_r([&](uint32_t chunk, uint32_t key, uint32_t pay) {
      const Entry& e = entries_[EntryOf(key)];
      if ((e.tag & kSpread) == 0) return;
      Spread& sp = spreads_[e.tag & ~kSpread];
      if (sp.last != chunk) {
        sp.last = chunk;
        runs[sp.cursor++] = {0, chunk};
      }
      runs[sp.cursor - 1].agg += kOne + pay;
    });
    for (const Spread& sp : spreads_) {
      entries_[EntryOf(sp.key)].val =
          static_cast<uint64_t>(sp.cursor - sp.runs) << 32 | sp.runs;
    }
  }
  // Key 0 last: where a probe for key 0 stops (an empty entry's inline
  // run counts no matches if key 0 is absent).
  const Entry* entries = entries_.data();
  const auto key_at = [entries](uint32_t k) { return entries[k].key; };
  entries_[FindEntry(key_at, key_mask_, 0)] = entries_[key_mask_ + 1];
}

void ChunkAggTable::Probe(const uint32_t* probe_keys,
                          const uint32_t* probe_pays, uint32_t n,
                          uint64_t* steps, uint64_t* hits, size_t stride,
                          uint64_t* matches, uint64_t* checksum) {
  const uint32_t chunks = chunks_;
  step_acc_.assign(chunks, 0);
  uint64_t* const acc = step_acc_.data();
  const uint16_t* const rows = rows_.data();
  const Entry* const entries = entries_.data();
  const auto key_at = [entries](uint32_t k) { return entries[k].key; };
  const Run* const runs = runs_.data();
  const uint32_t key_mask = key_mask_;
  const uint32_t hash_slots = hash_slots_;
  const int radix_bits = radix_bits_;
  uint64_t m = 0, c = 0;
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t key = probe_keys[i];
    const uint32_t slot = util::HashTableSlot(key, radix_bits, hash_slots);
    const uint16_t* row = rows + static_cast<size_t>(slot) * chunks;
    for (uint32_t ch = 0; ch < chunks; ++ch) acc[ch] += row[ch];
    const Entry& e = entries[FindEntry(key_at, key_mask, key)];
    if (e.key == key) {
      if ((e.tag & kSpread) == 0) {
        const uint64_t count = e.val >> 48;
        hits[e.tag * stride] += count;
        m += count;
        c += (e.val & kSumMask) + count * probe_pays[i];
      } else {
        const Run* run = runs + (e.val >> 32);
        const Run* const end = run + static_cast<uint32_t>(e.val);
        for (; run < end; ++run) {
          const uint64_t count = run->agg >> 48;
          hits[run->chunk * stride] += count;
          m += count;
          c += (run->agg & kSumMask) + count * probe_pays[i];
        }
      }
    }
  }
  for (uint32_t ch = 0; ch < chunks; ++ch) steps[ch * stride] += acc[ch];
  *matches += m;
  *checksum += c;
}

}  // namespace gjoin::gpujoin
