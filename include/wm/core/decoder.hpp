// Choice decoding: from classified record events to the viewer's
// choice sequence (and, with the script graph, their path).
//
// §III: "the number and type of JSON files sent indicate the choice
// made by the viewer" — each type-1 JSON marks a question appearing;
// a type-2 JSON before the next type-1 means the viewer overrode the
// default at that question.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "wm/core/classifier.hpp"
#include "wm/core/features.hpp"
#include "wm/story/graph.hpp"

namespace wm::core {

/// One decoded question event.
struct InferredQuestion {
  std::size_t index = 0;  // 1-based appearance order
  util::SimTime question_time;
  story::Choice choice = story::Choice::kDefault;
  std::optional<util::SimTime> override_time;  // set for non-default
  /// 1.0 = every supporting record parsed from contiguous stream bytes.
  /// Lowered (never raised) when loss touched the evidence — see
  /// DecodeOptions for the taint rules.
  double confidence = 1.0;
  /// Semicolon-joined tags explaining each confidence reduction
  /// ("type1_after_gap", "type2_presumed_lost_type1", "gap_in_window").
  std::string evidence;
};

/// Full inference result for one session.
struct InferredSession {
  std::vector<InferredQuestion> questions;
  /// Classified observations, for diagnostics.
  std::size_t type1_records = 0;
  std::size_t type2_records = 0;
  std::size_t other_records = 0;

  [[nodiscard]] std::vector<story::Choice> choices() const;
};

/// A span of stream bytes the reassembler declared unrecoverable, as
/// seen by the decoder. Feeding the gap timeline in lets the decoder
/// flag inferences that straddle a hole as low-confidence instead of
/// silently reporting them at full strength.
struct GapSpan {
  util::SimTime at;            // when the gap was declared
  std::uint64_t bytes = 0;     // stream bytes it covered
};

/// Knobs for gap-aware decoding. Defaults reproduce the historical
/// behaviour exactly when `gaps` is empty and no observation carries
/// `after_gap`.
struct DecodeOptions {
  /// Duplicate-suppression window for adjacent type-1 classifications
  /// (retransmission artifacts / band misfires).
  util::Duration min_question_gap = util::Duration::millis(120);
  /// Stream gaps affecting this viewer's traffic, in any order
  /// (decode_choices sorts a copy; ChoiceDecoder takes them through
  /// on_gap instead).
  std::vector<GapSpan> gaps;
  /// A gap this close before a question — or anywhere before the next
  /// question — may have swallowed one of its markers.
  util::Duration gap_window = util::Duration::seconds(1);
  /// Confidence when the anchoring record itself parsed right after a
  /// gap/resync, and for questions synthesized from an orphaned type-2.
  double after_gap_confidence = 0.5;
  /// Confidence cap when a gap merely falls inside a question's window.
  double gap_window_confidence = 0.6;
};

/// The §III rule, one record at a time: the single decoder behind both
/// decode_choices and monitor::ContinuousMonitor. It holds one viewer's
/// running state — the duplicate-suppression stamp, the last question
/// anchor, the open question, the question count and a gap history —
/// and no copy of the options: every call takes them and reads every
/// field but `gaps`, which arrive through on_gap().
///
/// Gap awareness:
///  * a type-1 marked after_gap opens its question at reduced
///    confidence;
///  * a type-2 with a gap between it and the last question anchor
///    synthesizes a new low-confidence non-default question (the type-1
///    that should anchor it was presumably lost) instead of crediting
///    the override to the previous question at full confidence;
///  * a gap near a question's decision window caps its confidence when
///    the question settles.
///
/// A question stays open until its successor opens (on_record settles
/// it, bounded by the successor's time) or its owner calls settle().
/// decode_choices only settles at the end, so every gap before the
/// successor counts; an online owner settles early — on an override, a
/// timer or an eviction — and a gap that arrives after that can no
/// longer cap the settled question.
class ChoiceDecoder {
 public:
  /// What one record did to the decode.
  struct Step {
    /// The previous question, settled because this record opened its
    /// successor.
    std::optional<InferredQuestion> settled;
    /// This record opened a question: a type-1, or a type-2 after a
    /// hole, which synthesizes one.
    bool opened = false;
    /// This record decided the open question's choice: an override, or
    /// a synthesized question (born non-default). No later record can
    /// change it.
    bool decided = false;
  };

  /// Unrecoverable loss on the viewer's upload stream, fed in time
  /// order. At most `max_gaps` spans are kept; the oldest fall off.
  void on_gap(GapSpan gap, std::size_t max_gaps);

  /// One classified record, fed in time order after every gap at or
  /// before its timestamp.
  Step on_record(const ClientRecordObservation& observation, RecordClass cls,
                 const DecodeOptions& options);

  /// Close the open question and return it. Its confidence is capped
  /// when a remembered gap lies within `gap_window` before it or
  /// anywhere after it (before `next_question_at`, when set).
  InferredQuestion settle(std::optional<util::SimTime> next_question_at,
                          const DecodeOptions& options);

  [[nodiscard]] bool open() const { return open_; }
  /// The open question (meaningful while open()).
  [[nodiscard]] const InferredQuestion& question() const { return question_; }
  /// Questions opened so far; also the open question's index.
  [[nodiscard]] std::size_t questions() const { return questions_; }

  /// Pre-size the gap history so heap_bytes() stays fixed.
  void reserve_gaps(std::size_t max_gaps) { gaps_.reserve(max_gaps); }
  [[nodiscard]] std::size_t heap_bytes() const {
    return gaps_.capacity() * sizeof(GapSpan);
  }

 private:
  void open_question(util::SimTime at, Step& step, const DecodeOptions& options);

  /// Gap history: a time-ordered ring whose oldest span sits at
  /// gap_head_ once it is full.
  std::vector<GapSpan> gaps_;
  std::size_t gap_head_ = 0;
  std::optional<util::SimTime> last_type1_;  // duplicate suppression
  /// The last time a question opened, by a real type-1 or a synthesized
  /// orphan: the boundary for attributing a gap to the next override.
  /// Separate from last_type1_ so synthesis never feeds the
  /// duplicate-suppression window.
  std::optional<util::SimTime> last_anchor_;
  InferredQuestion question_;
  std::size_t questions_ = 0;
  bool open_ = false;
};

/// Decode a classified observation sequence (callers pass it in time
/// order): a fold over ChoiceDecoder that feeds each record after every
/// gap at or before its timestamp, and settles each question when its
/// successor opens or at the end.
InferredSession decode_choices(
    const RecordClassifier& classifier,
    const std::vector<ClientRecordObservation>& observations,
    const DecodeOptions& options);

/// Historical entry point: decode with default options. `min_question_gap`
/// guards against double-counting when a type-1 upload is retransmitted
/// or a band misfire produces two adjacent type-1 classifications.
InferredSession decode_choices(
    const RecordClassifier& classifier,
    const std::vector<ClientRecordObservation>& observations,
    util::Duration min_question_gap = util::Duration::millis(120));

/// Map a decoded choice sequence onto the script graph, recovering the
/// segments the viewer watched (the paper's behavioural payload).
struct InferredPath {
  std::vector<story::SegmentId> segments;
  std::vector<std::string> segment_names;
  bool reached_ending = false;
  /// Graph traversal consumed fewer choices than inferred (signals
  /// over-detection) or more (under-detection).
  std::int64_t choice_surplus = 0;
};

InferredPath reconstruct_path(const story::StoryGraph& graph,
                              const std::vector<story::Choice>& choices);

}  // namespace wm::core
