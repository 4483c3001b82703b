#include "src/systems/dbmsx.h"

#include <algorithm>

#include "src/gpujoin/nonpartitioned.h"
#include "src/hw/pcie.h"

namespace gjoin::systems {

using gjoin::gpujoin::JoinStats;

util::Result<JoinStats> DbmsXJoin(sim::Device* device,
                                  const data::Relation& build,
                                  const data::Relation& probe,
                                  const DbmsXConfig& config) {
  uint32_t max_key = 0;
  for (uint32_t k : build.keys) max_key = std::max(max_key, k);
  for (uint32_t k : probe.keys) max_key = std::max(max_key, k);
  if (max_key >= config.max_key_domain) {
    return util::Status::ExecutionError(
        "DBMS-X: key domain exceeds internal integer representation");
  }

  // Functional execution on a relaxed-capacity scratch device; DBMS-X's
  // engine runs a non-partitioned hash join.
  sim::Device scratch = sim::RelaxedCapacityDevice(*device);
  GJOIN_ASSIGN_OR_RETURN(
      gjoin::gpujoin::DeviceRelation r_dev,
      gjoin::gpujoin::DeviceRelation::Upload(&scratch, build));
  GJOIN_ASSIGN_OR_RETURN(
      gjoin::gpujoin::DeviceRelation s_dev,
      gjoin::gpujoin::DeviceRelation::Upload(&scratch, probe));
  gjoin::gpujoin::NonPartitionedJoinConfig np;
  GJOIN_ASSIGN_OR_RETURN(
      JoinStats kernel,
      gjoin::gpujoin::NonPartitionedJoin(&scratch, r_dev, s_dev, np));

  JoinStats stats = kernel;
  stats.seconds = config.codegen_overhead_s +
                  kernel.seconds * config.engine_overhead_factor;

  const bool resident =
      build.size() <= config.residency_cutoff_tuples &&
      probe.size() <= config.residency_cutoff_tuples;
  if (!resident) {
    // Out-of-GPU mode: the join's random accesses reach host memory
    // zero-copy; throughput collapses by roughly an order of magnitude
    // (Fig. 15, right extreme).
    const hw::PcieModel pcie(device->spec().pcie);
    const double uva_s =
        pcie.UvaStreamSeconds(build.bytes() + probe.bytes()) +
        pcie.UvaRandomSeconds(2 * probe.size() + build.size());
    stats.transfer_s = uva_s;
    stats.seconds += uva_s;
  }
  return stats;
}

}  // namespace gjoin::systems
