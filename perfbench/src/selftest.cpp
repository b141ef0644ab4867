// Checks of the benchmark's own machinery: the correctness gate must
// catch a single flipped answer, and the timing summaries must agree
// with Python's statistics.quantiles, which is how run-to-run spread
// is judged.
//
//   perfbench_selftest   (exit 0 = all checks passed)
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "gate.hpp"
#include "trace.hpp"

using namespace perfbench;
using wm::story::Choice;

namespace {

int failures = 0;

void expect(bool condition, const std::string& what) {
  if (!condition) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

TruthMap make_truth() {
  TruthMap truth;
  const std::vector<std::vector<Choice>> scripts = {
      {Choice::kDefault, Choice::kNonDefault, Choice::kDefault},
      {Choice::kNonDefault, Choice::kNonDefault},
      {Choice::kDefault, Choice::kDefault, Choice::kNonDefault, Choice::kDefault},
  };
  for (std::size_t v = 0; v < scripts.size(); ++v) {
    wm::sim::SessionGroundTruth session;
    for (std::size_t q = 0; q < scripts[v].size(); ++q) {
      wm::sim::QuestionOutcome outcome;
      outcome.index = q + 1;
      outcome.choice = scripts[v][q];
      session.questions.push_back(outcome);
    }
    truth.emplace("10.1.0." + std::to_string(v + 1), session);
  }
  return truth;
}

ChoiceMap answers_from(const TruthMap& truth) {
  ChoiceMap answers;
  for (const auto& [client, session] : truth) answers.emplace(client, session.choices());
  return answers;
}

void gate_catches_one_flipped_answer() {
  const TruthMap truth = make_truth();
  const ChoiceMap reference = answers_from(truth);

  GateTally clean;
  check_path("monitor", reference, reference, truth, clean);
  expect(clean.attempted == truth.size(), "one attempt per viewer");
  expect(clean.failed == 0, "identical answers pass");
  expect(near(worst_accuracy(reference, truth), 1.0), "perfect answers score 1");

  ChoiceMap flipped = reference;
  Choice& answer = flipped.at("10.1.0.3")[2];
  answer = answer == Choice::kDefault ? Choice::kNonDefault : Choice::kDefault;
  GateTally tally;
  check_path("fleet", flipped, reference, truth, tally);
  expect(tally.failed == 1, "one flipped answer is one failed operation");
  expect(tally.mismatches.size() == 1 &&
             tally.mismatches[0].find("10.1.0.3") != std::string::npos,
         "the mismatch names the viewer");
  expect(near(worst_accuracy(flipped, truth), 0.75), "flipped viewer scores 3/4");

  ChoiceMap missing = reference;
  missing.erase("10.1.0.1");
  GateTally dropped;
  check_path("batch_sharded", missing, reference, truth, dropped);
  expect(dropped.failed == 1, "a missing viewer fails");

  ChoiceMap extra = reference;
  extra.emplace("10.9.9.9", std::vector<Choice>{Choice::kDefault});
  GateTally unknown;
  check_path("monitor", extra, reference, truth, unknown);
  expect(unknown.failed == 1 && unknown.attempted == truth.size() + 1,
         "answers for an unknown viewer fail");
}

void quartiles_match_python() {
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  const Quartiles ten = quartiles({7, 1, 3, 10, 2, 9, 4, 8, 5, 6});
  expect(near(ten.q1, 2.75) && near(ten.median, 5.5) && near(ten.q3, 8.25),
         "quartiles of 1..10");
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  const Quartiles two = quartiles({2, 1});
  expect(near(two.q1, 0.75) && near(two.median, 1.5) && near(two.q3, 2.25),
         "quartiles of two values extrapolate like Python");

  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  const Summary summary = summarize(hundred);
  expect(summary.count == 100, "summary counts samples");
  expect(summary.high_percentile && near(*summary.high_percentile, 90.0) &&
             near(summary.high_value, 90.0),
         "p90 is the highest percentile with ten samples beyond it");
  expect(!summarize({1, 2, 3}).high_percentile, "no high percentile below 20 samples");
}

void self_time_subtracts_children() {
  Tracer tracer;
  const int root = tracer.begin("root");
  const int child = tracer.begin("child");
  tracer.end(child);
  tracer.end(root);
  const auto self = tracer.self_times();
  const Span& r = tracer.spans()[0];
  const Span& c = tracer.spans()[1];
  expect(c.parent == 0, "child records its parent");
  expect(self[0] == (r.end_ns - r.start_ns) - (c.end_ns - c.start_ns),
         "root self time excludes the child");
  expect(self[1] == c.end_ns - c.start_ns, "leaf self time is its duration");
}

}  // namespace

int main() {
  gate_catches_one_flipped_answer();
  quartiles_match_python();
  self_time_subtracts_children();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
