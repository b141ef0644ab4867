// The benchmark's correctness gate.
//
// Every timed pass hands in the per-viewer choice sequences its path
// produced. The gate checks the invariants the library promises — the
// online monitor answers exactly what the batch decoder answers, and
// neither depends on the shard count — by comparing each path against
// the batch reference, viewer by viewer. A viewer whose sequence
// differs (or is missing) is one failed operation. Separately, the
// reference answers are scored against ground truth with the library's
// own scorer, giving the paper's worst-case per-viewer accuracy.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "wm/sim/streaming.hpp"
#include "wm/story/graph.hpp"

namespace perfbench {

/// Client address -> the viewer's choices in question order.
using ChoiceMap = std::map<std::string, std::vector<wm::story::Choice>>;
/// Client address -> the viewer's ground truth.
using TruthMap = std::map<std::string, wm::sim::SessionGroundTruth>;

struct GateTally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// First few mismatches, for the error report.
  std::vector<std::string> mismatches;
};

/// Compare `answers` with `reference` for every viewer in `truth`,
/// adding one attempt per viewer (and one failure per differing or
/// missing viewer, or per answer for a viewer not in `truth`).
void check_path(const std::string& path, const ChoiceMap& answers,
                const ChoiceMap& reference, const TruthMap& truth,
                GateTally& tally);

/// Worst per-viewer choice accuracy of `answers` against ground truth
/// (core::aggregate_scores over core::score_session).
[[nodiscard]] double worst_accuracy(const ChoiceMap& answers,
                                    const TruthMap& truth);

}  // namespace perfbench
