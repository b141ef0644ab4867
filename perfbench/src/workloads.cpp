#include "workloads.hpp"

#include <algorithm>
#include <stdexcept>

#include "wm/dataset/attributes.hpp"
#include "wm/dataset/choice_policy.hpp"
#include "wm/monitor/workload.hpp"
#include "wm/net/checksum.hpp"
#include "wm/net/packet.hpp"
#include "wm/net/pcap.hpp"
#include "wm/sim/impairments.hpp"
#include "wm/sim/profile.hpp"
#include "wm/sim/session.hpp"
#include "wm/story/bandersnatch.hpp"
#include "wm/util/rng.hpp"

namespace perfbench {

namespace {

using wm::net::Packet;

// Cohort size: ~7.5k packets of ~1.45 kB per viewer, so the capture is
// ~260 MB — large enough that a pass takes a few hundred milliseconds.
constexpr std::size_t kViewers = 24;
// Viewers start this far apart (plus up to the same again at random).
constexpr double kStaggerSeconds = 4.0;
// Churn fleet: 29-packet sessions, a few hundred in flight.
constexpr std::size_t kChurnSessions = 8000;
constexpr std::size_t kChurnConcurrency = 300;
constexpr std::size_t kChurnCalibrationSessions = 16;
// Impairments of the lossy workload.
constexpr double kLossRate = 0.01;
constexpr double kJitterSeconds = 0.003;
// Seeds of the calibration corpus live in a separate range from the
// traffic seeds.
constexpr std::uint64_t kCalibrationSeedBase = 0xCA11B000ull;

std::uint16_t word_at(const wm::util::Bytes& data, std::size_t offset) {
  return static_cast<std::uint16_t>((data[offset] << 8) | data[offset + 1]);
}

void put_word(wm::util::Bytes& data, std::size_t offset, std::uint16_t word) {
  data[offset] = static_cast<std::uint8_t>(word >> 8);
  data[offset + 1] = static_cast<std::uint8_t>(word & 0xff);
}

/// RFC 1624 incremental update of a checksum for one changed word.
std::uint16_t checksum_update(std::uint16_t checksum, std::uint16_t old_word,
                              std::uint16_t new_word) {
  std::uint32_t sum = static_cast<std::uint16_t>(~checksum);
  sum += static_cast<std::uint16_t>(~old_word);
  sum += new_word;
  while ((sum >> 16) != 0) sum = (sum & 0xffffu) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum);
}

/// Move every IPv4 frame of one viewer from `from` to `to` (either
/// address field), repairing the IP and TCP/UDP checksums.
void readdress(std::vector<Packet>& packets, wm::net::Ipv4Address from,
               wm::net::Ipv4Address to) {
  constexpr std::size_t kIp = 14;
  const std::uint16_t from_hi = static_cast<std::uint16_t>(from.value() >> 16);
  const std::uint16_t from_lo = static_cast<std::uint16_t>(from.value());
  const std::uint16_t to_hi = static_cast<std::uint16_t>(to.value() >> 16);
  const std::uint16_t to_lo = static_cast<std::uint16_t>(to.value());
  for (Packet& packet : packets) {
    wm::util::Bytes& data = packet.data;
    if (data.size() < kIp + 20 || data[12] != 0x08 || data[13] != 0x00) continue;
    const std::size_t header = static_cast<std::size_t>(data[kIp] & 0x0f) * 4;
    if (header < 20 || data.size() < kIp + header) continue;
    std::size_t transport_checksum = 0;
    const std::size_t transport = kIp + header;
    if (data[kIp + 9] == 6 && data.size() >= transport + 18) {
      transport_checksum = transport + 16;
    } else if (data[kIp + 9] == 17 && data.size() >= transport + 8 &&
               word_at(data, transport + 6) != 0) {
      transport_checksum = transport + 6;
    }
    bool changed = false;
    for (const std::size_t field : {kIp + 12, kIp + 16}) {
      if (word_at(data, field) != from_hi || word_at(data, field + 2) != from_lo) {
        continue;
      }
      put_word(data, field, to_hi);
      put_word(data, field + 2, to_lo);
      if (transport_checksum != 0) {
        std::uint16_t sum = word_at(data, transport_checksum);
        sum = checksum_update(sum, from_hi, to_hi);
        sum = checksum_update(sum, from_lo, to_lo);
        put_word(data, transport_checksum, sum);
      }
      changed = true;
    }
    if (!changed) continue;
    put_word(data, kIp + 10, 0);
    put_word(data, kIp + 10,
             wm::net::internet_checksum(wm::util::BytesView(data.data() + kIp, header)));
  }
}

std::vector<wm::story::Choice> alternating_choices() {
  std::vector<wm::story::Choice> out;
  for (int i = 0; i < 13; ++i) {
    out.push_back(i % 2 == 0 ? wm::story::Choice::kNonDefault
                             : wm::story::Choice::kDefault);
  }
  return out;
}

void write_capture(Workload& workload, const std::vector<Packet>& packets) {
  wm::net::PcapWriter writer(workload.capture);
  for (const Packet& packet : packets) {
    writer.write(packet);
    workload.bytes += packet.data.size();
  }
  writer.flush();
  workload.packets = packets.size();
}

/// bulk_video and lossy_video: the Table I cohort on distinct client
/// addresses, optionally impaired, merged in capture-time order.
///
/// Viewers are drawn and simulated exactly as dataset::generate_dataset
/// does, except that every viewer runs the cohort's most common OS and
/// browser (Windows, Chrome). Those two attributes shift the state-JSON
/// length bands (paper Fig. 2), and one calibrated classifier cannot
/// separate overlapping bands of several profiles; platform, traffic and
/// connection stay mixed. The attacker calibrates one session per
/// remaining operating condition.
void make_cohort(Workload& workload, std::uint64_t seed, bool lossy) {
  const wm::story::StoryGraph graph = wm::story::make_bandersnatch();
  const auto profile = [](wm::sim::OperationalConditions conditions) {
    conditions.os = wm::sim::OperatingSystem::kWindows;
    conditions.browser = wm::sim::Browser::kChrome;
    return conditions;
  };

  std::uint64_t calibration_seed = kCalibrationSeedBase + seed * 64;
  for (const auto platform : {wm::sim::Platform::kDesktop, wm::sim::Platform::kLaptop}) {
    for (const auto traffic : {wm::sim::TrafficCondition::kMorning,
                               wm::sim::TrafficCondition::kNoon,
                               wm::sim::TrafficCondition::kNight}) {
      for (const auto connection :
           {wm::sim::ConnectionType::kWired, wm::sim::ConnectionType::kWireless}) {
        wm::sim::SessionConfig config;
        config.conditions.platform = platform;
        config.conditions.traffic = traffic;
        config.conditions.connection = connection;
        config.conditions = profile(config.conditions);
        config.seed = calibration_seed++;
        auto session = wm::sim::simulate_session(graph, alternating_choices(), config);
        workload.calibration.push_back(wm::core::CalibrationSession{
            std::move(session.capture.packets), std::move(session.truth)});
      }
    }
  }

  wm::util::Rng cohort_rng(seed);
  const std::vector<wm::dataset::Viewer> cohort =
      wm::dataset::sample_cohort(kViewers, cohort_rng);
  wm::util::Rng rng(seed ^ 0x5157A66E5ull);
  std::vector<Packet> merged;
  for (std::size_t index = 0; index < cohort.size(); ++index) {
    const wm::dataset::Viewer& viewer = cohort[index];
    wm::util::Rng viewer_rng(seed ^ (0x9e3779b97f4a7c15ull * viewer.id));
    const auto choices = wm::dataset::draw_choices(graph, viewer.behavioral, viewer_rng);
    wm::sim::SessionConfig config;
    config.conditions = profile(viewer.operational);
    config.seed = viewer_rng.next_u64();
    wm::sim::SessionResult session = wm::sim::simulate_session(graph, choices, config);

    std::vector<Packet>& packets = session.capture.packets;
    const wm::net::Ipv4Address client(10, 1, static_cast<std::uint8_t>(index >> 8),
                                      static_cast<std::uint8_t>(1 + (index & 0xff)));
    readdress(packets, session.capture.client_ip, client);
    const auto start = wm::util::Duration::from_seconds(
        kStaggerSeconds * (static_cast<double>(index) + rng.uniform()));
    for (Packet& packet : packets) packet.timestamp += start;
    if (lossy) {
      packets = wm::sim::drop_segments(packets, kLossRate, rng);
      packets = wm::sim::jitter_order(packets, kJitterSeconds, rng);
    }
    workload.truth.emplace(client.to_string(), std::move(session.truth));
    merged.insert(merged.end(), std::make_move_iterator(packets.begin()),
                  std::make_move_iterator(packets.end()));
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const Packet& a, const Packet& b) {
                     return a.timestamp < b.timestamp;
                   });
  write_capture(workload, merged);
}

/// The template session's ground truth, for calibrating on it the way
/// an analyst calibrates on labelled sessions.
wm::sim::SessionGroundTruth churn_truth(const wm::monitor::WorkloadConfig& config) {
  wm::sim::SessionGroundTruth truth;
  // make_session_template anchors question q at 200 ms + q * spacing
  // and sends an override's type-2 upload override_delay later.
  const auto first = wm::util::SimTime::from_seconds(0.2);
  for (std::size_t q = 0; q < config.questions_per_session; ++q) {
    wm::sim::QuestionOutcome outcome;
    outcome.index = q + 1;
    outcome.question_time =
        first + config.question_spacing * static_cast<std::int64_t>(q);
    const bool overridden = wm::monitor::question_overridden(config, q);
    outcome.choice =
        overridden ? wm::story::Choice::kNonDefault : wm::story::Choice::kDefault;
    outcome.decision_time =
        outcome.question_time + (overridden ? config.override_delay
                                            : config.question_spacing * 0.5);
    truth.questions.push_back(outcome);
  }
  return truth;
}

void make_churn(Workload& workload, std::uint64_t seed) {
  wm::monitor::WorkloadConfig config;
  config.sessions = kChurnSessions;
  config.concurrency = kChurnConcurrency;
  config.seed = seed;

  for (std::size_t i = 0; i < kChurnCalibrationSessions; ++i) {
    wm::monitor::WorkloadConfig calibration = config;
    calibration.seed = kCalibrationSeedBase + seed * 64 + i;
    workload.calibration.push_back(wm::core::CalibrationSession{
        wm::monitor::make_session_template(calibration), churn_truth(calibration)});
  }

  // Every session replays one script, so every viewer shares one truth;
  // the viewers are the client addresses of the sessions' SYNs.
  const wm::sim::SessionGroundTruth truth = churn_truth(config);
  wm::monitor::SyntheticFleetSource source(config);
  std::vector<Packet> packets;
  packets.reserve(source.packets_total());
  while (auto packet = source.next()) packets.push_back(std::move(*packet));
  for (const Packet& packet : packets) {
    const auto decoded = wm::net::decode_packet(packet);
    if (!decoded || !decoded->has_ipv4() || !decoded->has_tcp()) continue;
    const auto& tcp = decoded->tcp();
    if (tcp.syn && !tcp.ack) {
      workload.truth.emplace(decoded->ipv4().source.to_string(), truth);
    }
  }
  if (workload.truth.size() != kChurnSessions) {
    throw std::runtime_error("viewer_churn: expected one client per session");
  }
  write_capture(workload, packets);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"bulk_video", "viewer_churn",
                                                 "lossy_video"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       const std::filesystem::path& work_dir) {
  Workload workload;
  workload.name = name;
  workload.capture = work_dir / (name + "-" + std::to_string(seed) + ".pcap");
  if (name == "bulk_video") {
    make_cohort(workload, seed, /*lossy=*/false);
  } else if (name == "viewer_churn") {
    make_churn(workload, seed);
  } else if (name == "lossy_video") {
    make_cohort(workload, seed, /*lossy=*/true);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return workload;
}

}  // namespace perfbench
