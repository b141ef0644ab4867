#include "wm/core/decoder.hpp"

#include <algorithm>

namespace wm::core {

std::vector<story::Choice> InferredSession::choices() const {
  std::vector<story::Choice> out;
  out.reserve(questions.size());
  for (const InferredQuestion& q : questions) out.push_back(q.choice);
  return out;
}

namespace {

/// Lower a question's confidence (min-combine) and record why.
void taint(InferredQuestion& question, double confidence, const char* tag) {
  question.confidence = std::min(question.confidence, confidence);
  if (!question.evidence.empty()) question.evidence += ';';
  question.evidence += tag;
}

/// Any gap strictly after `after` (or anywhere, when unset) and at or
/// before `until`? `gaps` is a time-ordered ring starting at `head`.
bool gap_between(const std::vector<GapSpan>& gaps, std::size_t head,
                 std::optional<util::SimTime> after, util::SimTime until) {
  for (std::size_t i = 0; i < gaps.size(); ++i) {
    const GapSpan& gap = gaps[(head + i) % gaps.size()];
    if (gap.at > until) break;
    if (!after || gap.at > *after) return true;
  }
  return false;
}

/// Any gap at or after `start` and before `before` (when set)? Same
/// ring as gap_between.
bool gap_in_window(const std::vector<GapSpan>& gaps, std::size_t head,
                   util::SimTime start, std::optional<util::SimTime> before) {
  for (std::size_t i = 0; i < gaps.size(); ++i) {
    const GapSpan& gap = gaps[(head + i) % gaps.size()];
    if (before && gap.at >= *before) break;
    if (gap.at >= start) return true;
  }
  return false;
}

}  // namespace

void ChoiceDecoder::on_gap(GapSpan gap, std::size_t max_gaps) {
  if (max_gaps == 0) return;
  if (gaps_.size() < max_gaps) {
    gaps_.push_back(gap);
  } else {
    gaps_[gap_head_] = gap;
    gap_head_ = (gap_head_ + 1) % max_gaps;
  }
}

void ChoiceDecoder::open_question(util::SimTime at, Step& step,
                                  const DecodeOptions& options) {
  // A successor settles its predecessor: overrides only ever attach to
  // the most recent question.
  if (open_) step.settled = settle(at, options);
  last_anchor_ = at;
  question_ = InferredQuestion{};
  question_.index = ++questions_;
  question_.question_time = at;
  open_ = true;
  step.opened = true;
}

ChoiceDecoder::Step ChoiceDecoder::on_record(
    const ClientRecordObservation& observation, RecordClass cls,
    const DecodeOptions& options) {
  Step step;
  const util::SimTime at = observation.timestamp;
  switch (cls) {
    case RecordClass::kType1Json:
      // Suppress duplicates (retransmission artifacts, band misfires).
      if (last_type1_ && at - *last_type1_ < options.min_question_gap) break;
      last_type1_ = at;
      open_question(at, step, options);  // default until a type-2 shows
      if (observation.after_gap) {
        taint(question_, options.after_gap_confidence, "type1_after_gap");
      }
      break;
    case RecordClass::kType2Json:
      if (gap_between(gaps_, gap_head_, last_anchor_, at) ||
          (questions_ == 0 && observation.after_gap)) {
        // A hole sits between the last question anchor and this
        // override: the type-1 that should anchor it was presumably
        // lost in the gap. Synthesize the question at low confidence
        // rather than crediting the override to the previous question
        // at full strength.
        open_question(at, step, options);
        question_.choice = story::Choice::kNonDefault;
        question_.override_time = at;
        taint(question_, options.after_gap_confidence,
              "type2_presumed_lost_type1");
        step.decided = true;
        break;
      }
      // Stray (nothing to attach to, or already settled), or not the
      // first override of its question: only the first counts.
      if (!open_ || question_.choice != story::Choice::kDefault) break;
      question_.choice = story::Choice::kNonDefault;
      question_.override_time = at;
      if (observation.after_gap) {
        taint(question_, options.after_gap_confidence, "type2_after_gap");
      }
      step.decided = true;
      break;
    case RecordClass::kOther:
      break;
  }
  return step;
}

InferredQuestion ChoiceDecoder::settle(
    std::optional<util::SimTime> next_question_at,
    const DecodeOptions& options) {
  open_ = false;
  InferredQuestion question = std::move(question_);
  // A gap shortly before the question appeared, or anywhere before the
  // next one, may have swallowed one of its markers (most importantly a
  // lost override).
  if (gap_in_window(gaps_, gap_head_,
                    question.question_time - options.gap_window,
                    next_question_at)) {
    taint(question, options.gap_window_confidence, "gap_in_window");
  }
  return question;
}

InferredSession decode_choices(
    const RecordClassifier& classifier,
    const std::vector<ClientRecordObservation>& observations,
    const DecodeOptions& options) {
  InferredSession out;
  std::vector<GapSpan> gaps = options.gaps;
  std::sort(gaps.begin(), gaps.end(), [](const GapSpan& a, const GapSpan& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.bytes < b.bytes;
  });

  ChoiceDecoder decoder;
  auto next_gap = gaps.cbegin();
  for (const ClientRecordObservation& obs : observations) {
    for (; next_gap != gaps.cend() && next_gap->at <= obs.timestamp; ++next_gap) {
      decoder.on_gap(*next_gap, gaps.size());
    }
    const RecordClass cls = classifier.classify(obs.record_length);
    switch (cls) {
      case RecordClass::kType1Json: ++out.type1_records; break;
      case RecordClass::kType2Json: ++out.type2_records; break;
      case RecordClass::kOther: ++out.other_records; break;
    }
    ChoiceDecoder::Step step = decoder.on_record(obs, cls, options);
    if (step.settled) out.questions.push_back(std::move(*step.settled));
  }
  for (; next_gap != gaps.cend(); ++next_gap) decoder.on_gap(*next_gap, gaps.size());
  if (decoder.open()) {
    out.questions.push_back(decoder.settle(std::nullopt, options));
  }
  return out;
}

InferredSession decode_choices(
    const RecordClassifier& classifier,
    const std::vector<ClientRecordObservation>& observations,
    util::Duration min_question_gap) {
  DecodeOptions options;
  options.min_question_gap = min_question_gap;
  return decode_choices(classifier, observations, options);
}

InferredPath reconstruct_path(const story::StoryGraph& graph,
                              const std::vector<story::Choice>& choices) {
  InferredPath out;
  const story::StoryGraph::Traversal traversal = graph.traverse(choices);
  out.segments = traversal.path;
  out.segment_names.reserve(traversal.path.size());
  for (story::SegmentId id : traversal.path) {
    out.segment_names.push_back(graph.segment(id).name);
  }
  out.reached_ending = traversal.reached_ending;
  out.choice_surplus = static_cast<std::int64_t>(choices.size()) -
                       static_cast<std::int64_t>(traversal.choices_consumed);
  return out;
}

}  // namespace wm::core
