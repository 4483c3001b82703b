// Service lifecycle: deadlines, cancellation, and overload shedding.
//
//   ./service_lifecycle [--tuples=400000] [--clients=8] [--queue=4]
//
// A preview of the future gjoind service loop: a burst of join requests
// arrives at a session whose admission queue is bounded, every request
// carries a modeled deadline, and one client gives up before the batch
// runs. Deadline-aware admission sheds what cannot finish on time, the
// rest completes, and the Prometheus exposition shows the lifecycle
// counters a load balancer would scrape.

#include <cstdio>
#include <vector>

#include "src/api/gjoin.h"
#include "src/data/generator.h"
#include "src/exec/session.h"
#include "src/obs/metrics.h"
#include "src/util/flags.h"
#include "src/util/status.h"

int main(int argc, char** argv) {
  using namespace gjoin;
  auto flags = util::ValueOrExit(
      std::move(util::Flags::Parse(argc, argv)), "service_lifecycle");
  util::ExitOnError(flags.AllowOnly({"tuples", "clients", "queue"}),
                    "service_lifecycle");
  const size_t tuples = static_cast<size_t>(util::ValueOrExit(
      flags.GetInt("tuples", 400'000), "service_lifecycle"));
  const int clients = static_cast<int>(
      util::ValueOrExit(flags.GetInt("clients", 8), "service_lifecycle"));
  const size_t queue = static_cast<size_t>(
      util::ValueOrExit(flags.GetInt("queue", 4), "service_lifecycle"));

  // Each client submits its own relations — no artifact sharing, the
  // worst case for an overloaded queue.
  std::vector<data::Relation> builds;
  std::vector<data::Relation> probes;
  builds.reserve(static_cast<size_t>(clients));
  probes.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    builds.push_back(data::MakeUniqueUniform(tuples, /*seed=*/100 + c));
    probes.push_back(
        data::MakeUniformProbe(2 * tuples, tuples, /*seed=*/200 + c));
  }

  api::JoinConfig cfg;
  cfg.strategy = api::Strategy::kInGpu;

  // Size the SLO from an unloaded one-query run: enough modeled time
  // for a full queue depth back to back. An unbounded queue would blow
  // through it under the burst below — the admission limit is what
  // keeps it meetable.
  double solo_makespan = 0;
  {
    sim::Device baseline_device(hw::HardwareSpec::Icde2019Testbed());
    exec::Session baseline(&baseline_device);
    baseline.Submit(builds[0], probes[0], cfg);
    util::ExitOnError(baseline.Run(), "service_lifecycle");
    solo_makespan = baseline.stats().makespan_s;
  }
  cfg.deadline_s = solo_makespan * (static_cast<double>(queue) + 1);

  sim::Device device(hw::HardwareSpec::Icde2019Testbed());
  obs::MetricsRegistry registry;

  // A bounded admission queue with deadline-aware shedding: over-limit
  // or unmeetable requests report a typed kOverloaded instead of
  // dragging every admitted query's latency down with them.
  exec::SessionConfig session_cfg;
  session_cfg.max_queued_queries = queue;
  session_cfg.admission = api::AdmissionPolicy::kDeadlineAware;
  session_cfg.metrics = &registry;
  exec::Session session(&device, session_cfg);

  std::vector<exec::QueryHandle> admitted;
  int refused = 0;
  for (int c = 0; c < clients; ++c) {
    auto handle = session.TrySubmit(builds[static_cast<size_t>(c)],
                                    probes[static_cast<size_t>(c)], cfg);
    if (handle.ok()) {
      admitted.push_back(*handle);
    } else {
      ++refused;  // A real service would retry elsewhere or back off.
    }
  }

  // One admitted client disconnects before the batch runs.
  if (!admitted.empty()) {
    util::ExitOnError(session.Cancel(admitted.back()), "service_lifecycle");
  }

  util::ExitOnError(session.Run(), "service_lifecycle");

  int completed = 0;
  int missed = 0;
  int cancelled = 0;
  int shed = 0;
  for (exec::QueryHandle h : admitted) {
    const exec::QueryResult& result = session.result(h);
    switch (result.status.code()) {
      case util::StatusCode::kOk:
        ++completed;
        break;
      case util::StatusCode::kDeadlineExceeded:
        ++missed;
        break;
      case util::StatusCode::kCancelled:
        ++cancelled;
        break;
      case util::StatusCode::kOverloaded:
        ++shed;  // Admitted, then displaced by a meetable arrival.
        break;
      default:
        std::fprintf(stderr, "unexpected failure: %s\n",
                     result.status.ToString().c_str());
        return 1;
    }
  }

  const exec::SessionStats& stats = session.stats();
  std::printf("offered:    %d requests (queue limit %zu)\n", clients, queue);
  std::printf("refused:    %d at the door (TrySubmit kOverloaded)\n",
              refused);
  std::printf("completed:  %d within the %.3f ms modeled deadline\n",
              completed, cfg.deadline_s * 1e3);
  std::printf("missed:     %d | cancelled: %d | shed after admission: %d\n",
              missed, cancelled, shed);
  std::printf("makespan:   %.3f ms modeled\n", stats.makespan_s * 1e3);
  std::printf("\n--- /metrics preview ---\n%s",
              registry.PrometheusText().c_str());

  // The service invariant this example exists to show: bounded queue +
  // deadline-aware admission means everything admitted and not
  // cancelled either finishes on time or is shed — nothing limps past
  // its deadline.
  if (missed != 0 ||
      completed + cancelled + shed != static_cast<int>(admitted.size())) {
    std::fprintf(stderr, "admitted work missed its deadline\n");
    return 1;
  }
  return 0;
}
