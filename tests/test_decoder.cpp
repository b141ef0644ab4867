// Choice decoding and path reconstruction, plus evaluation scoring.
#include <gtest/gtest.h>

#include "wm/core/decoder.hpp"
#include "wm/core/eval.hpp"
#include "wm/story/bandersnatch.hpp"

namespace wm::core {
namespace {

/// A fixed classifier for decoder tests: 2212 = type-1, 3000 = type-2.
class FixedClassifier final : public RecordClassifier {
 public:
  void fit(const std::vector<LabeledObservation>&) override {}
  [[nodiscard]] RecordClass classify(std::uint16_t length) const override {
    if (length == 2212) return RecordClass::kType1Json;
    if (length == 3000) return RecordClass::kType2Json;
    return RecordClass::kOther;
  }
  [[nodiscard]] std::string name() const override { return "fixed"; }
  [[nodiscard]] bool fitted() const override { return true; }
};

ClientRecordObservation obs(double seconds, std::uint16_t length) {
  ClientRecordObservation out;
  out.timestamp = util::SimTime::from_seconds(seconds);
  out.record_length = length;
  return out;
}

TEST(Decoder, DefaultWhenNoType2Follows) {
  FixedClassifier clf;
  const auto result = decode_choices(
      clf, {obs(1.0, 2212), obs(5.0, 2212), obs(9.0, 2212)});
  ASSERT_EQ(result.questions.size(), 3u);
  for (const InferredQuestion& q : result.questions) {
    EXPECT_EQ(q.choice, story::Choice::kDefault);
    EXPECT_FALSE(q.override_time.has_value());
  }
}

TEST(Decoder, Type2MarksNonDefault) {
  FixedClassifier clf;
  const auto result = decode_choices(
      clf, {obs(1.0, 2212), obs(2.0, 3000), obs(5.0, 2212), obs(9.0, 2212),
            obs(9.5, 3000)});
  ASSERT_EQ(result.questions.size(), 3u);
  EXPECT_EQ(result.questions[0].choice, story::Choice::kNonDefault);
  EXPECT_EQ(result.questions[1].choice, story::Choice::kDefault);
  EXPECT_EQ(result.questions[2].choice, story::Choice::kNonDefault);
  ASSERT_TRUE(result.questions[0].override_time.has_value());
  EXPECT_DOUBLE_EQ(result.questions[0].override_time->to_seconds(), 2.0);
}

TEST(Decoder, OthersInterleavedIgnored) {
  FixedClassifier clf;
  const auto result = decode_choices(
      clf, {obs(0.5, 404), obs(1.0, 2212), obs(1.5, 700), obs(2.0, 3000),
            obs(2.5, 16408), obs(5.0, 2212)});
  ASSERT_EQ(result.questions.size(), 2u);
  EXPECT_EQ(result.questions[0].choice, story::Choice::kNonDefault);
  EXPECT_EQ(result.questions[1].choice, story::Choice::kDefault);
  EXPECT_EQ(result.other_records, 3u);
}

TEST(Decoder, DuplicateType1Suppressed) {
  FixedClassifier clf;
  // A retransmitted type-1 60ms later must not create a phantom question.
  const auto result = decode_choices(
      clf, {obs(1.0, 2212), obs(1.06, 2212), obs(5.0, 2212)});
  EXPECT_EQ(result.questions.size(), 2u);
  EXPECT_EQ(result.type1_records, 3u);
}

TEST(Decoder, DistantType1NotSuppressed) {
  FixedClassifier clf;
  const auto result =
      decode_choices(clf, {obs(1.0, 2212), obs(1.5, 2212)});
  EXPECT_EQ(result.questions.size(), 2u);
}

TEST(Decoder, StrayType2BeforeAnyQuestionIgnored) {
  FixedClassifier clf;
  const auto result = decode_choices(clf, {obs(0.5, 3000), obs(1.0, 2212)});
  ASSERT_EQ(result.questions.size(), 1u);
  EXPECT_EQ(result.questions[0].choice, story::Choice::kDefault);
}

TEST(Decoder, SecondType2ForSameQuestionIgnored) {
  FixedClassifier clf;
  const auto result =
      decode_choices(clf, {obs(1.0, 2212), obs(2.0, 3000), obs(2.5, 3000)});
  ASSERT_EQ(result.questions.size(), 1u);
  EXPECT_EQ(result.questions[0].choice, story::Choice::kNonDefault);
  EXPECT_DOUBLE_EQ(result.questions[0].override_time->to_seconds(), 2.0);
  EXPECT_EQ(result.type2_records, 2u);
}

TEST(Decoder, EmptyObservationsEmptyResult) {
  FixedClassifier clf;
  const auto result = decode_choices(clf, {});
  EXPECT_TRUE(result.questions.empty());
  EXPECT_TRUE(result.choices().empty());
}

// --- gap-aware confidence ---------------------------------------------

ClientRecordObservation tainted_obs(double seconds, std::uint16_t length) {
  ClientRecordObservation out = obs(seconds, length);
  out.after_gap = true;
  return out;
}

GapSpan gap_at(double seconds, std::uint64_t bytes) {
  GapSpan gap;
  gap.at = util::SimTime::from_seconds(seconds);
  gap.bytes = bytes;
  return gap;
}

TEST(Decoder, CleanStreamDecodesAtFullConfidence) {
  FixedClassifier clf;
  const auto result = decode_choices(
      clf, {obs(1.0, 2212), obs(2.0, 3000), obs(5.0, 2212)}, DecodeOptions{});
  ASSERT_EQ(result.questions.size(), 2u);
  for (const InferredQuestion& q : result.questions) {
    EXPECT_DOUBLE_EQ(q.confidence, 1.0);
    EXPECT_TRUE(q.evidence.empty());
  }
}

TEST(Decoder, Type1AfterGapOpensLowConfidenceQuestion) {
  FixedClassifier clf;
  const auto result = decode_choices(
      clf, {tainted_obs(1.0, 2212), obs(5.0, 2212)}, DecodeOptions{});
  ASSERT_EQ(result.questions.size(), 2u);
  EXPECT_LT(result.questions[0].confidence, 1.0);
  EXPECT_NE(result.questions[0].evidence.find("type1_after_gap"),
            std::string::npos);
  // The later, untainted question is unaffected.
  EXPECT_DOUBLE_EQ(result.questions[1].confidence, 1.0);
}

TEST(Decoder, OrphanType2AfterGapSynthesizesLowConfidenceQuestion) {
  // A hole sits between question 1's anchor and the type-2: the type-1
  // that should anchor the override was presumably inside the gap, so
  // the decoder must NOT credit the override to question 1 at full
  // strength — it synthesizes a new low-confidence non-default.
  FixedClassifier clf;
  DecodeOptions options;
  options.gaps = {gap_at(4.0, 6000)};
  const auto result = decode_choices(
      clf, {obs(1.0, 2212), obs(5.0, 3000)}, options);
  ASSERT_EQ(result.questions.size(), 2u);
  EXPECT_EQ(result.questions[0].choice, story::Choice::kDefault);
  EXPECT_EQ(result.questions[1].choice, story::Choice::kNonDefault);
  EXPECT_LT(result.questions[1].confidence, 1.0);
  EXPECT_NE(result.questions[1].evidence.find("type2_presumed_lost_type1"),
            std::string::npos);
}

TEST(Decoder, GapInsideQuestionWindowCapsConfidence) {
  FixedClassifier clf;
  DecodeOptions options;
  options.gaps = {gap_at(2.0, 1400)};  // between Q1 (1.0) and Q2 (5.0)
  const auto result = decode_choices(
      clf, {obs(1.0, 2212), obs(5.0, 2212), obs(6.0, 3000)}, options);
  ASSERT_EQ(result.questions.size(), 2u);
  // The gap could have swallowed Q1's override: capped, and tagged.
  EXPECT_LT(result.questions[0].confidence, 1.0);
  EXPECT_NE(result.questions[0].evidence.find("gap_in_window"),
            std::string::npos);
}

TEST(Decoder, GapAfterEarlySettleCapsOnlyTheFold) {
  // Q1 opens at 1.0 and is overridden at 2.0; a gap lands at 3.0,
  // before Q2 opens at 5.0. The fold settles Q1 only when Q2 opens, so
  // the gap still caps it. A decoder settled at the override (as the
  // monitor does) has not seen the gap yet and keeps full confidence.
  FixedClassifier clf;
  DecodeOptions options;
  options.gaps = {gap_at(3.0, 1400)};
  const std::vector<ClientRecordObservation> observations = {
      obs(1.0, 2212), obs(2.0, 3000), obs(5.0, 2212)};
  const auto folded = decode_choices(clf, observations, options);
  ASSERT_EQ(folded.questions.size(), 2u);
  EXPECT_EQ(folded.questions[0].choice, story::Choice::kNonDefault);
  EXPECT_DOUBLE_EQ(folded.questions[0].confidence, 0.6);
  EXPECT_EQ(folded.questions[0].evidence, "gap_in_window");

  ChoiceDecoder decoder;
  EXPECT_TRUE(decoder.on_record(observations[0], RecordClass::kType1Json,
                                options).opened);
  const ChoiceDecoder::Step override_step =
      decoder.on_record(observations[1], RecordClass::kType2Json, options);
  ASSERT_TRUE(override_step.decided);
  const InferredQuestion settled = decoder.settle(std::nullopt, options);
  EXPECT_FALSE(decoder.open());
  decoder.on_gap(options.gaps[0], 16);
  EXPECT_EQ(settled.index, 1u);
  EXPECT_EQ(settled.choice, story::Choice::kNonDefault);
  EXPECT_DOUBLE_EQ(settled.confidence, 1.0);
  EXPECT_TRUE(settled.evidence.empty());
  // The next question opens with nothing left to settle.
  const ChoiceDecoder::Step next =
      decoder.on_record(observations[2], RecordClass::kType1Json, options);
  EXPECT_TRUE(next.opened);
  EXPECT_FALSE(next.settled.has_value());
  EXPECT_EQ(decoder.question().index, 2u);
}

TEST(Decoder, DefaultOptionsReproduceHistoricalDecode) {
  // With no gaps and no after_gap taints the gap-aware overload must
  // be byte-equivalent to the historical min_question_gap entry point.
  FixedClassifier clf;
  const std::vector<ClientRecordObservation> observations = {
      obs(1.0, 2212), obs(1.06, 2212), obs(2.0, 3000),
      obs(5.0, 2212), obs(9.0, 2212),  obs(9.5, 3000)};
  const auto historical =
      decode_choices(clf, observations, util::Duration::millis(120));
  const auto gap_aware = decode_choices(clf, observations, DecodeOptions{});
  ASSERT_EQ(historical.questions.size(), gap_aware.questions.size());
  for (std::size_t i = 0; i < historical.questions.size(); ++i) {
    EXPECT_EQ(historical.questions[i].choice, gap_aware.questions[i].choice);
    EXPECT_EQ(historical.questions[i].question_time,
              gap_aware.questions[i].question_time);
    EXPECT_DOUBLE_EQ(gap_aware.questions[i].confidence, 1.0);
  }
}

TEST(ReconstructPath, FollowsChoicesThroughGraph) {
  const story::StoryGraph graph = story::make_bandersnatch();
  const std::vector<story::Choice> choices(13, story::Choice::kDefault);
  const InferredPath path = reconstruct_path(graph, choices);
  EXPECT_FALSE(path.segments.empty());
  EXPECT_TRUE(path.reached_ending);
  EXPECT_EQ(path.segment_names.front(), "SEGMENT_0_OPENING");
  EXPECT_GE(path.choice_surplus, 0);
}

TEST(ReconstructPath, SurplusSignalsOverDetection) {
  const story::StoryGraph graph = story::make_bandersnatch();
  // Way more choices than any path consumes.
  const std::vector<story::Choice> choices(40, story::Choice::kNonDefault);
  const InferredPath path = reconstruct_path(graph, choices);
  EXPECT_GT(path.choice_surplus, 0);
}

// --- eval --------------------------------------------------------------

sim::SessionGroundTruth truth_of(const std::vector<story::Choice>& choices) {
  sim::SessionGroundTruth truth;
  for (std::size_t i = 0; i < choices.size(); ++i) {
    sim::QuestionOutcome q;
    q.index = i + 1;
    q.choice = choices[i];
    q.question_time = util::SimTime::from_seconds(static_cast<double>(i) * 10);
    truth.questions.push_back(q);
  }
  return truth;
}

InferredSession inferred_of(const std::vector<story::Choice>& choices) {
  InferredSession out;
  for (std::size_t i = 0; i < choices.size(); ++i) {
    InferredQuestion q;
    q.index = i + 1;
    q.choice = choices[i];
    out.questions.push_back(q);
  }
  return out;
}

TEST(Eval, PerfectSession) {
  using story::Choice;
  const std::vector<Choice> choices{Choice::kDefault, Choice::kNonDefault};
  const SessionScore score = score_session(truth_of(choices), inferred_of(choices));
  EXPECT_EQ(score.choices_correct, 2u);
  EXPECT_DOUBLE_EQ(score.choice_accuracy, 1.0);
  EXPECT_TRUE(score.question_count_match);
}

TEST(Eval, MissedQuestionCountsAsWrong) {
  using story::Choice;
  const auto truth = truth_of({Choice::kDefault, Choice::kNonDefault,
                               Choice::kDefault});
  const auto inferred = inferred_of({Choice::kDefault, Choice::kNonDefault});
  const SessionScore score = score_session(truth, inferred);
  EXPECT_EQ(score.choices_correct, 2u);
  EXPECT_NEAR(score.choice_accuracy, 2.0 / 3.0, 1e-12);
  EXPECT_FALSE(score.question_count_match);
}

TEST(Eval, ExtraInferredQuestionDoesNotInflate) {
  using story::Choice;
  const auto truth = truth_of({Choice::kDefault});
  const auto inferred = inferred_of({Choice::kDefault, Choice::kNonDefault});
  const SessionScore score = score_session(truth, inferred);
  EXPECT_DOUBLE_EQ(score.choice_accuracy, 1.0);
  EXPECT_FALSE(score.question_count_match);
}

TEST(Eval, EmptyTruthScoresPerfect) {
  const SessionScore score = score_session(truth_of({}), inferred_of({}));
  EXPECT_DOUBLE_EQ(score.choice_accuracy, 1.0);
}

TEST(Eval, AggregateWorstCase) {
  using story::Choice;
  std::vector<SessionScore> scores;
  scores.push_back(score_session(truth_of({Choice::kDefault, Choice::kDefault}),
                                 inferred_of({Choice::kDefault, Choice::kDefault})));
  scores.push_back(
      score_session(truth_of({Choice::kDefault, Choice::kNonDefault}),
                    inferred_of({Choice::kDefault, Choice::kDefault})));
  const AggregateScore agg = aggregate_scores(scores);
  EXPECT_EQ(agg.sessions, 2u);
  EXPECT_EQ(agg.questions, 4u);
  EXPECT_EQ(agg.correct, 3u);
  EXPECT_DOUBLE_EQ(agg.worst_accuracy, 0.5);
  EXPECT_DOUBLE_EQ(agg.mean_accuracy, 0.75);
  EXPECT_DOUBLE_EQ(agg.pooled_accuracy, 0.75);
}

TEST(Eval, AggregateEmpty) {
  const AggregateScore agg = aggregate_scores({});
  EXPECT_DOUBLE_EQ(agg.worst_accuracy, 1.0);
  EXPECT_DOUBLE_EQ(agg.mean_accuracy, 1.0);
}

}  // namespace
}  // namespace wm::core
