// Columnar relation representation shared by every join implementation.
//
// The paper's workload (Section V-A) mimics the standard CPU-join
// evaluation setup [3-5]: narrow tables of <4-byte key, 4-byte payload>
// stored column-wise. The payload column carries row identifiers; the
// payload *width* experiments (Figs. 9/10) model wider, late-materialized
// attributes via `logical_payload_bytes`, which the cost models consume
// while the physical representation keeps 4-byte row ids (exactly how
// late materialization works: the join moves ids, the gather moves
// attribute bytes).

#ifndef GJOIN_DATA_RELATION_H_
#define GJOIN_DATA_RELATION_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/util/status.h"

namespace gjoin::data {

/// \brief A narrow columnar table: keys plus row-id payloads.
struct Relation {
  std::vector<uint32_t> keys;
  std::vector<uint32_t> payloads;

  /// Width of the logical payload carried per tuple (>= 4). Values above
  /// 4 model late-materialized attribute gathers (Figs. 9/10).
  int logical_payload_bytes = 4;

  /// Host NUMA socket where the columns reside (0 = near the GPU).
  int numa_socket = 0;

  /// Number of tuples.
  size_t size() const { return keys.size(); }
  /// True iff the relation has no tuples.
  bool empty() const { return keys.empty(); }
  /// True iff the payload column holds size() entries, as Append keeps
  /// it; joins read size() payloads, so entry points reject relations
  /// where this is false.
  bool ColumnsMatch() const { return payloads.size() == keys.size(); }

  /// Physical bytes per tuple as stored and moved by the join (4-byte key
  /// + 4-byte row id).
  static constexpr int kTupleBytes = 8;

  /// Total physical bytes of the relation.
  uint64_t bytes() const {
    return static_cast<uint64_t>(size()) * kTupleBytes;
  }

  /// Reserves storage for `n` tuples.
  void Reserve(size_t n) {
    keys.reserve(n);
    payloads.reserve(n);
  }

  /// Appends one tuple.
  void Append(uint32_t key, uint32_t payload) {
    keys.push_back(key);
    payloads.push_back(payload);
  }
};

/// OK iff `rel`'s columns match; otherwise kInvalid naming `where` and
/// both column lengths. Every join reads size() payloads, so the places
/// that read a relation's columns check this first.
[[nodiscard]]
inline util::Status CheckColumns(const Relation& rel, const char* where) {
  if (rel.ColumnsMatch()) return util::Status::OK();
  return util::Status::Invalid(
      std::string(where) + ": relation has " + std::to_string(rel.keys.size()) +
      " keys but " + std::to_string(rel.payloads.size()) + " payloads");
}

/// \brief Non-owning view of a contiguous tuple range of a Relation.
///
/// Segmented and chunked pipelines hand slices of a host relation to the
/// device without materializing per-segment copies; the view is valid
/// only as long as the underlying Relation is.
struct RelationView {
  const uint32_t* keys = nullptr;
  const uint32_t* payloads = nullptr;
  size_t size = 0;
  int logical_payload_bytes = 4;

  /// Views the whole relation.
  static RelationView Of(const Relation& rel) {
    return {rel.keys.data(), rel.payloads.data(), rel.size(),
            rel.logical_payload_bytes};
  }

  /// Views tuples [begin, end) of `rel`; `begin <= end <= rel.size()`.
  static RelationView Slice(const Relation& rel, size_t begin, size_t end) {
    return {rel.keys.data() + begin, rel.payloads.data() + begin,
            end - begin, rel.logical_payload_bytes};
  }

  /// Physical bytes of the viewed join columns.
  uint64_t bytes() const {
    return static_cast<uint64_t>(size) * Relation::kTupleBytes;
  }
};

}  // namespace gjoin::data

#endif  // GJOIN_DATA_RELATION_H_
