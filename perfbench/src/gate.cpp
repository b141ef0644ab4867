#include "gate.hpp"

#include "wm/core/eval.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kMaxReported = 5;

/// "D" for a default pick, "N" for an override, in question order.
std::string spell(const std::vector<wm::story::Choice>& choices) {
  std::string out;
  for (const wm::story::Choice choice : choices) {
    out += choice == wm::story::Choice::kDefault ? 'D' : 'N';
  }
  return out;
}

void report(GateTally& tally, std::string message) {
  ++tally.failed;
  if (tally.mismatches.size() < kMaxReported) {
    tally.mismatches.push_back(std::move(message));
  }
}

}  // namespace

void check_path(const std::string& path, const ChoiceMap& answers,
                const ChoiceMap& reference, const TruthMap& truth,
                GateTally& tally) {
  static const std::vector<wm::story::Choice> kNone;
  const auto lookup = [](const ChoiceMap& map, const std::string& client)
      -> const std::vector<wm::story::Choice>& {
    const auto it = map.find(client);
    return it == map.end() ? kNone : it->second;
  };
  for (const auto& [client, unused] : truth) {
    ++tally.attempted;
    const auto& answer = lookup(answers, client);
    const auto& expected = lookup(reference, client);
    if (answer != expected) {
      report(tally, path + ": viewer " + client + " answered " + spell(answer) +
                        ", batch " + spell(expected));
    }
  }
  for (const auto& [client, unused] : answers) {
    if (truth.count(client) == 0) {
      ++tally.attempted;
      report(tally, path + ": answers for unknown viewer " + client);
    }
  }
}

double worst_accuracy(const ChoiceMap& answers, const TruthMap& truth) {
  std::vector<wm::core::SessionScore> scores;
  for (const auto& [client, session_truth] : truth) {
    wm::core::InferredSession inferred;
    const auto it = answers.find(client);
    if (it != answers.end()) {
      for (std::size_t i = 0; i < it->second.size(); ++i) {
        wm::core::InferredQuestion question;
        question.index = i + 1;
        question.choice = it->second[i];
        inferred.questions.push_back(question);
      }
    }
    scores.push_back(wm::core::score_session(session_truth, inferred));
  }
  return wm::core::aggregate_scores(scores).worst_accuracy;
}

}  // namespace perfbench
