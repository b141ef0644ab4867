// The benchmark's workloads, generated from a seed.
//
// Each workload is a capture file plus what the attacker calibrates on
// and the ground truth the answers are scored against. The program
// under test only ever sees the capture and the calibration sessions;
// calibration always comes from a different seed than the traffic.
//
//   bulk_video    the paper's cohort: Table I viewers (mixed operating
//                 conditions, behaviour-driven choices), each on its own
//                 client address with a staggered start, merged in
//                 capture-time order. Bytes-heavy, in order.
//   viewer_churn  monitor::SyntheticFleetSource: thousands of short
//                 sessions, hundreds in flight. Per-packet and
//                 per-viewer costs dominate.
//   lossy_video   bulk_video after sim::drop_segments (1%) and
//                 sim::jitter_order (3 ms): the same layers off their
//                 fast path. Not in BENCHMARK.json: on this traffic the
//                 monitor's answers differ from the batch decoder's for
//                 a few viewers per seed, so the gate fails; it stays
//                 runnable as a reproducer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "gate.hpp"
#include "wm/core/pipeline.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  std::filesystem::path capture;
  std::size_t packets = 0;
  std::uint64_t bytes = 0;
  std::vector<wm::core::CalibrationSession> calibration;
  TruthMap truth;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Generate `name` for `seed`, writing its capture under `work_dir`.
/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed,
                                     const std::filesystem::path& work_dir);

}  // namespace perfbench
