// wm_perfbench — the repository's end-to-end and per-layer benchmark.
//
//   wm_perfbench --workload <bulk_video|viewer_churn|lossy_video>
//                --seed <n> --seconds <s> --trace <0|1>
//                [--work-dir <dir>]
//
// Generates the workload from the seed (untimed), times the program's
// own set-up (calibration, capture open, monitor construction), then
// spends --seconds on interleaved passes over the capture through the
// four public paths users call:
//
//   batch          AttackPipeline::infer_capture, shards=0, per_client
//   batch_sharded  the same call with shards=2
//   monitor        ContinuousMonitor::consume + finish on the mmap'd capture
//   fleet          MonitorFleet{shards=2}::consume + finish
//
// Every pass is checked by the correctness gate (gate.hpp). With
// --trace 0 the last stdout line carries the end-to-end metrics; with
// --trace 1 a separate, traced run times each layer through its public
// functions, writes every span and timing summary to
// <work-dir>/trace-<workload>-<seed>.json, and the last line carries the
// per-layer metrics. Generated captures also live in the work dir and
// are deleted on exit.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "alloc_count.hpp"
#include "gate.hpp"
#include "trace.hpp"
#include "workloads.hpp"
#include "wm/core/decoder.hpp"
#include "wm/core/engine/source.hpp"
#include "wm/core/pipeline.hpp"
#include "wm/monitor/fleet.hpp"
#include "wm/monitor/monitor.hpp"
#include "wm/net/packet.hpp"
#include "wm/obs/registry.hpp"
#include "wm/tls/record_stream.hpp"
#include "wm/util/rng.hpp"

namespace fs = std::filesystem;
using namespace perfbench;

namespace {

// Set-up is repeated until this much time is spent (at least
// kMinSetupReps times) and its median is reported.
constexpr int kMinSetupReps = 5;
constexpr int kMaxSetupReps = 40;
constexpr double kSetupBudgetSeconds = 1.5;
// Timed rounds run at least this often even if --seconds is short.
constexpr int kMinRounds = 3;
constexpr std::size_t kFleetShards = 2;
constexpr std::size_t kSlab = wm::net::DecodedSlab::kCapacity;

/// Named series of samples (seconds, counts or ratios), in the order
/// they were taken.
using Timings = std::map<std::string, std::vector<double>>;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  fs::path work_dir = ".bench_build/perfbench-work";
};

Options parse_options(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(options.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return options;
}

fs::path trace_path(const Options& options) {
  return options.work_dir /
         ("trace-" + options.workload + "-" + std::to_string(options.seed) + ".json");
}

double seconds_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e9;
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// CPU time the hypervisor gave to other guests while this one wanted
/// to run (the "steal" column of /proc/stat), summed over all CPUs; 0
/// where the kernel does not report it.
double host_steal_seconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  std::uint64_t field = 0;
  std::uint64_t steal = 0;
  stat >> cpu;
  for (int i = 0; i < 8 && (stat >> field); ++i) steal = field;
  return static_cast<double>(steal) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double median(const std::vector<double>& values) {
  return quartiles(values).median;
}

// --- CPU affinity ------------------------------------------------------

/// Pins the process to as many cores as the running path has threads:
/// one for the single-threaded paths, three (dispatcher + two workers)
/// for the sharded ones. Threads inherit the mask of the thread that
/// creates them, so pinning before constructing an engine or fleet
/// pins its workers too.
class Affinity {
 public:
  Affinity() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
      for (std::size_t cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
      }
    }
  }

  void pin(std::size_t threads) {
    if (cpus_.empty()) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    const std::size_t count = std::min(threads, cpus_.size());
    for (std::size_t i = cpus_.size() - count; i < cpus_.size(); ++i) {
      CPU_SET(cpus_[i], &set);
    }
    pinned_ = sched_setaffinity(0, sizeof set, &set) == 0;
  }

  /// The cores a path with `threads` threads runs on, as "a,b,c".
  [[nodiscard]] std::string mask(std::size_t threads) const {
    std::string out;
    const std::size_t count = std::min(threads, cpus_.size());
    for (std::size_t i = cpus_.size() - count; i < cpus_.size(); ++i) {
      if (!out.empty()) out += ",";
      out += std::to_string(cpus_[i]);
    }
    return out;
  }
  [[nodiscard]] bool pinned() const { return pinned_; }

 private:
  std::vector<std::size_t> cpus_;
  bool pinned_ = false;
};

// --- Host-drift reference kernel -----------------------------------------

/// A dependent random walk over a fixed 16 MB table: its time tracks
/// the host's memory latency, not the program, so whoever reads the
/// results can tell a slower host from a slower program.
class ReferenceKernel {
 public:
  ReferenceKernel() : table_(kEntries) {
    std::iota(table_.begin(), table_.end(), 0u);
    // Sattolo's shuffle: one cycle through every entry.
    wm::util::Rng rng(0x5EF5EF5EFull);
    for (std::size_t i = kEntries - 1; i > 0; --i) {
      std::swap(table_[i], table_[rng.next_below(i)]);
    }
  }

  double run_ms() {
    const std::int64_t start = now_ns();
    std::uint32_t index = 0;
    for (std::size_t step = 0; step < kSteps; ++step) index = table_[index];
    const std::int64_t end = now_ns();
    sink_ = index;
    return static_cast<double>(end - start) / 1e6;
  }

 private:
  static constexpr std::size_t kEntries = std::size_t{1} << 22;
  static constexpr std::size_t kSteps = std::size_t{1} << 16;
  std::vector<std::uint32_t> table_;
  std::uint32_t sink_ = 0;
};

// --- Event sinks -----------------------------------------------------------

/// Records the wall time at which each batch was handed to the fleet,
/// keyed by the batch's last capture timestamp, so a sink can tell how
/// long after hand-over an event left the fleet.
class StampingSource final : public wm::engine::PacketSource {
 public:
  StampingSource(wm::engine::PacketSource& inner, std::size_t max_batches)
      : inner_(inner), marks_(max_batches) {}

  std::optional<wm::net::Packet> next() override { return inner_.next(); }
  [[nodiscard]] const std::optional<wm::Error>& error() const override {
    return inner_.error();
  }
  [[nodiscard]] std::size_t read_batch(wm::engine::PacketBatch& out,
                                       std::size_t max) override {
    const std::size_t got = inner_.read_batch(out, max);
    const std::size_t used = count_.load(std::memory_order_relaxed);
    if (got != 0 && used < marks_.size()) {
      marks_[used] = Mark{out[got - 1].timestamp.nanos(), now_ns()};
      count_.store(used + 1, std::memory_order_release);
    }
    return got;
  }

  /// Wall time at which the packet with capture time `at` was handed
  /// over; unset when it has not been (yet).
  [[nodiscard]] std::optional<std::int64_t> handed_over(wm::util::SimTime at) const {
    const std::size_t used = count_.load(std::memory_order_acquire);
    const auto end = marks_.begin() + static_cast<std::ptrdiff_t>(used);
    const auto it = std::lower_bound(
        marks_.begin(), end, at.nanos(),
        [](const Mark& mark, std::int64_t nanos) { return mark.capture_ns < nanos; });
    if (it == end) return std::nullopt;
    return it->wall_ns;
  }

 private:
  struct Mark {
    std::int64_t capture_ns = 0;
    std::int64_t wall_ns = 0;
  };
  wm::engine::PacketSource& inner_;
  std::vector<Mark> marks_;
  std::atomic<std::size_t> count_{0};
};

/// Collects each viewer's final answers. Safe for the fleet's
/// concurrent shard callbacks; optionally measures emission lag
/// against a StampingSource while the source is still being pumped.
class AnswerSink final : public wm::engine::EventSink {
 public:
  explicit AnswerSink(const StampingSource* stamps = nullptr) : stamps_(stamps) {}

  void on_choice_inferred(const wm::engine::ChoiceInferredEvent& event) override {
    const std::int64_t wall = now_ns();
    std::optional<std::int64_t> handed;
    if (stamps_ != nullptr && pumping_.load(std::memory_order_acquire)) {
      handed = stamps_->handed_over(event.at);
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    answers_[std::string(event.client)].push_back(event.question.choice);
    if (handed) lags_ms_.push_back(static_cast<double>(wall - *handed) / 1e6);
  }

  void stop_lag_sampling() { pumping_.store(false, std::memory_order_release); }

  ChoiceMap take_answers() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return std::move(answers_);
  }
  std::vector<double> take_lags() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return std::move(lags_ms_);
  }

 private:
  const StampingSource* stamps_;
  std::atomic<bool> pumping_{true};
  std::mutex mutex_;
  ChoiceMap answers_;
  std::vector<double> lags_ms_;
};

ChoiceMap per_client_choices(const wm::core::InferReport& report) {
  ChoiceMap out;
  for (const auto& [client, session] : report.per_client) {
    out.emplace(client, session.choices());
  }
  return out;
}

// --- The benchmark ---------------------------------------------------------

struct PassOutcome {
  double seconds = 0.0;
  ChoiceMap answers;
  std::uint64_t backpressure_waits = 0;  // batch passes
  wm::monitor::MonitorStats monitor;     // monitor passes
  wm::monitor::FleetStats fleet;         // fleet passes
  double cpu_seconds = 0.0;
  std::uint64_t allocations = 0;
  std::int64_t peak_heap_bytes = 0;
  std::vector<double> lags_ms;
};

class Bench {
 public:
  explicit Bench(Workload workload) : workload_(std::move(workload)) {
    // The simulator's choice window is 10 s; answers become final only
    // once it has closed, as online == batch requires.
    monitor_config_.evidence_window = wm::util::Duration::seconds(12);
  }

  /// The program's own set-up, repeated; returns the median seconds.
  double measure_setup() {
    affinity_.pin(1);
    std::vector<double> samples;
    const std::int64_t begin = now_ns();
    while (static_cast<int>(samples.size()) < kMinSetupReps ||
           (static_cast<int>(samples.size()) < kMaxSetupReps &&
            seconds_between(begin, now_ns()) < kSetupBudgetSeconds)) {
      const std::int64_t start = now_ns();
      auto pipeline = std::make_unique<wm::core::AttackPipeline>("interval");
      pipeline->calibrate(workload_.calibration);
      auto source = open_source();
      wm::monitor::ContinuousMonitor monitor(pipeline->classifier(), monitor_config_);
      samples.push_back(seconds_between(start, now_ns()));
      pipeline_ = std::move(pipeline);
    }
    setup_samples_ = samples;
    return median(samples);
  }

  PassOutcome batch(std::size_t shards) {
    affinity_.pin(shards == 0 ? 1 : shards + 1);
    wm::core::InferOptions infer;
    infer.shards = shards;
    infer.per_client = true;
    PassOutcome out;
    const HeapCounters before = heap_counters();
    reset_heap_peak();
    const std::int64_t start = now_ns();
    auto report = pipeline_->infer_capture(workload_.capture, infer);
    const std::int64_t end = now_ns();
    const HeapCounters after = heap_counters();
    if (!report.ok()) throw std::runtime_error(report.error().to_string());
    out.seconds = seconds_between(start, end);
    out.peak_heap_bytes = after.peak_bytes - before.live_bytes;
    out.allocations = after.allocations - before.allocations;
    out.backpressure_waits = report->stats.backpressure_waits;
    out.answers = per_client_choices(*report);
    return out;
  }

  PassOutcome monitor(wm::obs::Registry* registry = nullptr) {
    affinity_.pin(1);
    auto source = open_source();
    wm::monitor::MonitorConfig config = monitor_config_;
    config.metrics = registry;
    AnswerSink sink;
    PassOutcome out;
    const HeapCounters before = heap_counters();
    reset_heap_peak();
    {
      wm::monitor::ContinuousMonitor monitor(pipeline_->classifier(), config, &sink);
      const std::int64_t start = now_ns();
      monitor.consume(*source);
      out.monitor = monitor.finish();
      out.seconds = seconds_between(start, now_ns());
    }
    const HeapCounters after = heap_counters();
    out.peak_heap_bytes = after.peak_bytes - before.live_bytes;
    out.allocations = after.allocations - before.allocations;
    out.answers = sink.take_answers();
    return out;
  }

  PassOutcome fleet(bool measure_lag) {
    affinity_.pin(kFleetShards + 1);
    auto source = open_source();
    std::optional<StampingSource> stamped;
    if (measure_lag) stamped.emplace(*source, workload_.packets + 1);
    wm::engine::PacketSource& feed = stamped ? *stamped : *source;
    AnswerSink sink(stamped ? &*stamped : nullptr);
    wm::monitor::FleetConfig config;
    config.shards = kFleetShards;
    config.monitor = monitor_config_;
    PassOutcome out;
    const HeapCounters before = heap_counters();
    {
      wm::monitor::MonitorFleet fleet(pipeline_->classifier(), config, &sink);
      const double cpu_start = cpu_seconds();
      const std::int64_t start = now_ns();
      fleet.consume(feed);
      sink.stop_lag_sampling();
      out.fleet = fleet.finish();
      out.seconds = seconds_between(start, now_ns());
      out.cpu_seconds = cpu_seconds() - cpu_start;
    }
    out.allocations = heap_counters().allocations - before.allocations;
    out.answers = sink.take_answers();
    out.lags_ms = sink.take_lags();
    return out;
  }

  /// Gate one pass's answers against the batch reference.
  void check(const std::string& path, const ChoiceMap& answers) {
    if (!reference_) reference_ = answers;
    check_path(path, answers, *reference_, workload_.truth, tally_);
  }

  double host_reference_ms() {
    affinity_.pin(1);
    return kernel_.run_ms();
  }

  [[nodiscard]] const Workload& workload() const { return workload_; }
  [[nodiscard]] const wm::core::RecordClassifier& classifier() const {
    return pipeline_->classifier();
  }
  [[nodiscard]] const GateTally& tally() const { return tally_; }
  [[nodiscard]] const std::vector<double>& setup_samples() const { return setup_samples_; }
  [[nodiscard]] Affinity& affinity() { return affinity_; }

  std::unique_ptr<wm::engine::PacketSource> open_source() const {
    auto source = wm::engine::open_capture(workload_.capture);
    if (!source.ok()) throw std::runtime_error(source.error().to_string());
    return std::move(*source);
  }

 private:
  Workload workload_;
  wm::monitor::MonitorConfig monitor_config_;
  std::unique_ptr<wm::core::AttackPipeline> pipeline_;
  Affinity affinity_;
  ReferenceKernel kernel_;
  std::optional<ChoiceMap> reference_;
  GateTally tally_;
  std::vector<double> setup_samples_;
};

// --- Output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.10g", value);
  return buffer;
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ", ";
    out += quoted(metrics[i].name) + ": {\"value\": " + number(metrics[i].value) +
           ", \"unit\": " + quoted(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string timings_json(const Timings& timings) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, values] : timings) {
    if (!first) out += ", ";
    first = false;
    out += quoted(name) + ": " + summary_json(summarize(values));
  }
  return out + "}";
}

/// Every sample of every timing, in measurement order.
std::string samples_json(const Timings& timings) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, values] : timings) {
    out += (first ? "" : ", ") + quoted(name) + ": [";
    first = false;
    for (std::size_t i = 0; i < values.size(); ++i) {
      out += (i == 0 ? "" : ", ") + number(values[i]);
    }
    out += "]";
  }
  return out + "}";
}

/// Run facts every output records: workload, seed, pinning, threads.
std::string run_info_json(const Options& options, Bench& bench, int rounds,
                          double steal_s) {
  const Workload& workload = bench.workload();
  std::string out = "{\"workload\": " + quoted(workload.name) +
                    ", \"seed\": " + std::to_string(options.seed) +
                    ", \"trace\": " + (options.trace ? "1" : "0") +
                    ", \"hardware_threads\": " +
                    std::to_string(std::thread::hardware_concurrency()) +
                    ", \"affinity\": {\"single\": " + quoted(bench.affinity().mask(1)) +
                    ", \"sharded\": " + quoted(bench.affinity().mask(kFleetShards + 1)) +
                    ", \"pinned\": " + (bench.affinity().pinned() ? "true" : "false") +
                    "}, \"packets\": " + std::to_string(workload.packets) +
                    ", \"bytes\": " + std::to_string(workload.bytes) +
                    ", \"viewers\": " + std::to_string(workload.truth.size()) +
                    ", \"rounds\": " + std::to_string(rounds) +
                    ", \"host_steal_s\": " + number(steal_s) +
                    ", \"gate_mismatches\": [";
  const auto& mismatches = bench.tally().mismatches;
  for (std::size_t i = 0; i < mismatches.size(); ++i) {
    if (i != 0) out += ", ";
    out += quoted(mismatches[i]);
  }
  return out + "]}";
}

/// The result line. Correct means every pass met the gate; accuracy
/// against ground truth is a metric, since the attack is statistical.
void print_result(const GateTally& tally, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              tally.failed == 0 ? "true" : "false", tally.attempted, tally.failed,
              metrics_json(metrics).c_str());
  std::fflush(stdout);
}

double mb(std::int64_t bytes) { return static_cast<double>(bytes) / 1e6; }

// --- Rounds ---------------------------------------------------------------------

/// Warm-up: one gated pass of every path, filling caches and lazy state.
/// Heap peaks and answers are exact, so they are taken from here.
std::map<std::string, PassOutcome> warm_up(Bench& bench) {
  std::map<std::string, PassOutcome> out;
  out["batch"] = bench.batch(0);
  out["batch_sharded"] = bench.batch(2);
  out["monitor"] = bench.monitor();
  out["fleet"] = bench.fleet(false);
  // The batch answers, gated first, are the reference for every pass.
  for (const std::string name : {"batch", "batch_sharded", "monitor", "fleet"}) {
    bench.check(name, out[name].answers);
  }
  return out;
}

/// One untraced, gated pass of every path, each beside a reference
/// kernel run; pass times land in timings["<prefix><path>_s"].
void untraced_round(Bench& bench, const std::string& prefix, Timings& timings) {
  const std::vector<std::pair<std::string, std::function<PassOutcome()>>> paths = {
      {"batch", [&] { return bench.batch(0); }},
      {"batch_sharded", [&] { return bench.batch(2); }},
      {"monitor", [&] { return bench.monitor(); }},
      {"fleet", [&] { return bench.fleet(false); }},
  };
  for (const auto& [name, run] : paths) {
    timings["host.ref_ms"].push_back(bench.host_reference_ms());
    const PassOutcome pass = run();
    bench.check(name, pass.answers);
    timings[prefix + name + "_s"].push_back(pass.seconds);
  }
}

// --- End-to-end run (--trace 0) -----------------------------------------------

int run_end_to_end(const Options& options, Bench& bench) {
  const Workload& workload = bench.workload();
  const double setup_s = bench.measure_setup();
  const auto packets = static_cast<double>(workload.packets);

  std::map<std::string, PassOutcome> warm = warm_up(bench);
  Timings timings;
  const double steal_begin = host_steal_seconds();
  const std::int64_t begin = now_ns();
  int rounds = 0;
  while (rounds < kMinRounds || seconds_between(begin, now_ns()) < options.seconds) {
    ++rounds;
    untraced_round(bench, "", timings);
  }
  timings["setup_s"] = bench.setup_samples();

  const std::vector<Metric> metrics = {
      {"setup_s", setup_s, "s"},
      {"batch_pkts_per_s", packets / median(timings["batch_s"]), "pkt/s"},
      {"batch_sharded_pkts_per_s", packets / median(timings["batch_sharded_s"]), "pkt/s"},
      {"monitor_pkts_per_s", packets / median(timings["monitor_s"]), "pkt/s"},
      {"fleet_pkts_per_s", packets / median(timings["fleet_s"]), "pkt/s"},
      // The paper's statistic, on the monitor's online answers.
      {"choice_accuracy", worst_accuracy(warm["monitor"].answers, workload.truth), "ratio"},
      {"batch_peak_heap_mb", mb(warm["batch"].peak_heap_bytes), "MB"},
      {"monitor_peak_heap_mb", mb(warm["monitor"].peak_heap_bytes), "MB"},
  };
  std::printf("{\"run\": %s, \"timings\": %s, \"samples\": %s}\n",
              run_info_json(options, bench, rounds, host_steal_seconds() - steal_begin).c_str(),
              timings_json(timings).c_str(), samples_json(timings).c_str());
  print_result(bench.tally(), metrics);
  return 0;
}

// --- Traced run (--trace 1) ----------------------------------------------------

/// What the replica chain found: per-viewer answers plus the record and
/// flow counters the per-layer metrics need.
struct ReplicaOutcome {
  ChoiceMap answers;
  std::size_t client_records = 0;
  std::uint64_t gaps = 0;
  std::uint64_t resyncs = 0;
  std::uint64_t peak_active_flows = 0;
  double skipped_byte_share = 0.0;
};

/// The batch path rebuilt from its layers' public functions, each call
/// in its own span: capture scan, slab decode (probe), TLS record
/// extraction, record classification (probe), per-viewer choice decode.
/// The probes repeat work the chain's next step does internally, so
/// they sit outside the "replica" span that the coverage check sums.
ReplicaOutcome run_replica(Bench& bench, Tracer& tracer) {
  ReplicaOutcome out;
  std::unique_ptr<wm::engine::PacketSource> source;
  std::vector<wm::net::PacketView> views;
  std::vector<wm::tls::StreamEvent> events;
  wm::tls::RecordStreamExtractor::Config config;
  config.retain_events = false;
  wm::tls::RecordStreamExtractor extractor(config);
  {
    const ScopedSpan replica(tracer, "replica");
    {
      const ScopedSpan span(tracer, "net.scan");
      source = bench.open_source();
      wm::engine::PacketBatch batch;
      views.reserve(bench.workload().packets);
      while (source->read_views(batch, kSlab) != 0) {
        views.insert(views.end(), batch.views(), batch.views() + batch.size());
      }
    }
    {
      const ScopedSpan span(tracer, "tls.feed_batch");
      for (std::size_t i = 0; i < views.size(); i += kSlab) {
        extractor.feed_batch(views.data() + i, std::min(kSlab, views.size() - i),
                             events, /*stable_payload=*/true);
      }
      auto tail = extractor.flush();
      events.insert(events.end(), tail.begin(), tail.end());
    }
    {
      const ScopedSpan span(tracer, "core.decode_choices");
      std::map<std::string, std::vector<wm::core::ClientRecordObservation>> observations;
      std::map<std::string, std::vector<wm::core::GapSpan>> gaps;
      for (const wm::tls::StreamEvent& event : events) {
        const wm::net::Endpoint& client = event.flow.client;
        std::string key = client.is_v6 ? client.v6.to_string() : client.v4.to_string();
        if (event.kind == wm::tls::StreamEvent::Kind::kGap) {
          if (event.gap.direction == wm::net::FlowDirection::kClientToServer) {
            gaps[key].push_back(wm::core::GapSpan{event.gap.timestamp, event.gap.length});
          }
          continue;
        }
        if (!event.event.is_client_application_data()) continue;
        wm::core::ClientRecordObservation observation;
        observation.timestamp = event.event.timestamp;
        observation.record_length = event.event.record_length;
        observation.after_gap = event.event.after_gap;
        observations[key].push_back(observation);
      }
      for (auto& [client, list] : observations) {
        std::stable_sort(list.begin(), list.end(), [](const auto& a, const auto& b) {
          return a.timestamp < b.timestamp;
        });
        wm::core::DecodeOptions options;
        options.gaps = gaps[client];
        out.client_records += list.size();
        const auto session = wm::core::decode_choices(bench.classifier(), list, options);
        if (!session.questions.empty()) out.answers.emplace(client, session.choices());
      }
    }
  }
  {
    const ScopedSpan span(tracer, "net.decode_slab");
    wm::net::DecodedSlab slab;
    for (std::size_t i = 0; i < views.size(); i += kSlab) {
      wm::net::decode_slab(views.data() + i, std::min(kSlab, views.size() - i), slab);
    }
  }
  {
    const ScopedSpan span(tracer, "core.classify");
    std::size_t type1 = 0;
    for (const wm::tls::StreamEvent& event : events) {
      if (event.kind == wm::tls::StreamEvent::Kind::kRecord &&
          event.event.is_client_application_data() &&
          bench.classifier().classify(event.event.record_length) ==
              wm::core::RecordClass::kType1Json) {
        ++type1;
      }
    }
    if (type1 == 0) throw std::runtime_error("replica: no question markers classified");
  }

  out.gaps = extractor.gaps();
  out.resyncs = extractor.tls_resyncs();
  out.peak_active_flows = extractor.peak_active_flows();
  // Body-skip share: stream bytes inside application-data records
  // longer than the largest TCP payload, which necessarily span several
  // segments and so are streamed past rather than buffered.
  wm::net::DecodedSlab slab;
  std::uint64_t stream_bytes = 0;
  std::uint32_t largest_payload = 0;
  for (std::size_t i = 0; i < views.size(); i += kSlab) {
    const std::size_t count = std::min(kSlab, views.size() - i);
    wm::net::decode_slab(views.data() + i, count, slab);
    for (std::size_t k = 0; k < count; ++k) {
      if (slab.lens[k].status != wm::net::LensStatus::kTcp) continue;
      stream_bytes += slab.lens[k].payload_length;
      largest_payload = std::max(largest_payload, slab.lens[k].payload_length);
    }
  }
  std::uint64_t skipped = 0;
  for (const wm::tls::StreamEvent& event : events) {
    if (event.kind == wm::tls::StreamEvent::Kind::kRecord &&
        event.event.content_type == wm::tls::ContentType::kApplicationData &&
        event.event.record_length > largest_payload) {
      skipped += event.event.record_length;
    }
  }
  out.skipped_byte_share =
      stream_bytes == 0 ? 0.0 : static_cast<double>(skipped) / static_cast<double>(stream_bytes);
  return out;
}

void write_trace_file(const Options& options, Bench& bench, int rounds, double steal_s,
                      const Tracer& tracer,
                      const Timings& timings,
                      const std::vector<Metric>& metrics) {
  Timings span_self;
  const auto self = tracer.self_times();
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    span_self[spans[i].name].push_back(static_cast<double>(self[i]) / 1e6);
  }
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  std::ostringstream out;
  out << "{\"run\": " << run_info_json(options, bench, rounds, steal_s)
      << ",\n \"metrics\": " << metrics_json(metrics)
      << ",\n \"timings\": " << timings_json(timings)
      << ",\n \"span_self_ms\": " << timings_json(span_self)
      << ",\n \"spans\": [";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out << (i == 0 ? "\n  " : ",\n  ") << "{\"name\": " << quoted(spans[i].name)
        << ", \"start_us\": " << number(static_cast<double>(spans[i].start_ns - origin) / 1e3)
        << ", \"end_us\": " << number(static_cast<double>(spans[i].end_ns - origin) / 1e3)
        << ", \"parent\": " << spans[i].parent << "}";
  }
  out << "\n]}\n";
  const fs::path path = trace_path(options);
  std::ofstream file(path);
  file << out.str();
  if (!file) throw std::runtime_error("cannot write " + path.string());
}

int run_traced(const Options& options, Bench& bench) {
  const Workload& workload = bench.workload();
  const auto packets = static_cast<double>(workload.packets);
  bench.measure_setup();

  warm_up(bench);

  Tracer tracer;
  Timings timings;
  std::vector<double> lags_ms;
  ReplicaOutcome replica;
  PassOutcome monitor_traced;
  const auto record = [&](const std::string& name, double value) {
    timings[name].push_back(value);
  };
  const auto ref = [&] {
    const ScopedSpan span(tracer, "host.ref");
    record("host.ref_ms", bench.host_reference_ms());
  };
  const auto traced = [&](const std::string& name, const std::function<PassOutcome()>& run) {
    ref();
    const ScopedSpan span(tracer, "path." + name);
    PassOutcome pass = run();
    bench.check(name, pass.answers);
    record("traced." + name + "_s", pass.seconds);
    return pass;
  };

  const double steal_begin = host_steal_seconds();
  const std::int64_t begin = now_ns();
  int rounds = 0;
  while (rounds < kMinRounds || seconds_between(begin, now_ns()) < options.seconds) {
    ++rounds;
    // Untraced passes, timed exactly as the end-to-end run times them.
    untraced_round(bench, "untraced.", timings);

    // The same passes under spans, with their per-layer counters.
    traced("batch", [&] { return bench.batch(0); });
    const PassOutcome sharded = traced("batch_sharded", [&] { return bench.batch(2); });
    record("engine.backpressure_waits", static_cast<double>(sharded.backpressure_waits));
    monitor_traced = traced("monitor", [&] { return bench.monitor(); });
    record("monitor.allocs_per_pkt", static_cast<double>(monitor_traced.allocations) / packets);
    const PassOutcome fleet = traced("fleet", [&] { return bench.fleet(true); });
    record("fleet.backpressure_waits", static_cast<double>(fleet.fleet.backpressure_waits));
    record("fleet.merge_deferrals", static_cast<double>(fleet.fleet.merge_deferrals));
    record("fleet.cpu_s_per_mpkt", fleet.cpu_seconds / (packets / 1e6));
    record("fleet.allocs_per_pkt", static_cast<double>(fleet.allocations) / packets);
    std::uint64_t busiest = 0;
    for (const auto& shard : fleet.fleet.shards) busiest = std::max(busiest, shard.packets);
    record("fleet.shard_skew", static_cast<double>(busiest) * static_cast<double>(kFleetShards) /
                                   std::max(1.0, static_cast<double>(fleet.fleet.packets)));
    lags_ms.insert(lags_ms.end(), fleet.lags_ms.begin(), fleet.lags_ms.end());

    // The monitor with an observability registry attached.
    ref();
    {
      const ScopedSpan span(tracer, "path.monitor_obs");
      wm::obs::Registry registry;
      PassOutcome pass = bench.monitor(&registry);
      bench.check("monitor_obs", pass.answers);
      record("obs.monitor_s", pass.seconds);
    }

    // The batch path rebuilt layer by layer.
    ref();
    bench.affinity().pin(1);
    const std::size_t first_span = tracer.spans().size();
    replica = run_replica(bench, tracer);
    bench.check("replica", replica.answers);
    // The chain's self times sum to the duration of its root span.
    const Span& root = tracer.spans()[first_span];
    record("replica_s", seconds_between(root.start_ns, root.end_ns));
  }

  // Per-span timings (total duration, seconds) for the layer metrics.
  Timings span_s;
  for (const Span& span : tracer.spans()) {
    span_s[span.name].push_back(seconds_between(span.start_ns, span.end_ns));
  }
  const auto med = [&](const Timings& from, const std::string& name) {
    const auto it = from.find(name);
    return it == from.end() ? 0.0 : median(it->second);
  };
  const double untraced_batch = med(timings, "untraced.batch_s");
  const double untraced_monitor = med(timings, "untraced.monitor_s");
  const double scan = med(span_s, "net.scan");
  const double feed = med(span_s, "tls.feed_batch");
  const double decode = med(span_s, "net.decode_slab");
  const double records = static_cast<double>(std::max<std::size_t>(replica.client_records, 1));
  double untraced_sum = 0.0;
  double traced_sum = 0.0;
  for (const std::string name : {"batch", "batch_sharded", "monitor", "fleet"}) {
    untraced_sum += med(timings, "untraced." + name + "_s");
    traced_sum += med(timings, "traced." + name + "_s");
  }
  const wm::monitor::MonitorStats& mstats = monitor_traced.monitor;
  const std::vector<Metric> metrics = {
      {"net.scan_ns_per_pkt", scan * 1e9 / packets, "ns/pkt"},
      {"net.decode_ns_per_pkt", decode * 1e9 / packets, "ns/pkt"},
      {"tls.extract_ns_per_pkt", (feed - decode) * 1e9 / packets, "ns/pkt"},
      {"tls.skipped_byte_share", replica.skipped_byte_share, "ratio"},
      {"tls.gaps", static_cast<double>(replica.gaps), "count"},
      {"tls.resyncs", static_cast<double>(replica.resyncs), "count"},
      {"tls.peak_active_flows", static_cast<double>(replica.peak_active_flows), "count"},
      {"core.classify_ns_per_record", med(span_s, "core.classify") * 1e9 / records, "ns/record"},
      {"core.decode_ns_per_record", med(span_s, "core.decode_choices") * 1e9 / records,
       "ns/record"},
      {"core.glue_ns_per_pkt", (untraced_batch - med(timings, "replica_s")) * 1e9 / packets,
       "ns/pkt"},
      {"engine.backpressure_waits", med(timings, "engine.backpressure_waits"), "count"},
      {"engine.shard2_speedup", untraced_batch / med(timings, "untraced.batch_sharded_s"),
       "ratio"},
      {"monitor.self_ns_per_pkt", (untraced_monitor - scan - feed) * 1e9 / packets, "ns/pkt"},
      {"monitor.timer_fires_per_kpkt", static_cast<double>(mstats.timer_fires) * 1e3 / packets,
       "1/kpkt"},
      {"monitor.bytes_per_viewer",
       static_cast<double>(mstats.peak_memory_bytes) /
           std::max(1.0, static_cast<double>(mstats.peak_viewers)),
       "B"},
      {"monitor.allocs_per_pkt", med(timings, "monitor.allocs_per_pkt"), "1/pkt"},
      {"fleet.backpressure_waits", med(timings, "fleet.backpressure_waits"), "count"},
      {"fleet.merge_deferrals", med(timings, "fleet.merge_deferrals"), "count"},
      {"fleet.shard_skew", med(timings, "fleet.shard_skew"), "ratio"},
      {"fleet.cpu_s_per_mpkt", med(timings, "fleet.cpu_s_per_mpkt"), "s/Mpkt"},
      {"fleet.allocs_per_pkt", med(timings, "fleet.allocs_per_pkt"), "1/pkt"},
      {"fleet.emit_lag_p50_ms", summarize(lags_ms).quartiles.median, "ms"},
      {"fleet.emit_lag_p99_ms",
       lags_ms.empty() ? 0.0
                       : [&] {
                           std::vector<double> sorted = lags_ms;
                           std::sort(sorted.begin(), sorted.end());
                           const auto rank = static_cast<std::size_t>(
                               0.99 * static_cast<double>(sorted.size()));
                           return sorted[std::min(rank, sorted.size() - 1)];
                         }(),
       "ms"},
      {"obs.overhead_ratio", med(timings, "obs.monitor_s") / untraced_monitor - 1.0, "ratio"},
      {"trace.coverage", med(timings, "replica_s") / untraced_batch, "ratio"},
      {"trace.overhead_ratio", traced_sum / untraced_sum - 1.0, "ratio"},
      {"host.ref_ms", med(timings, "host.ref_ms"), "ms"},
  };
  timings["fleet.emit_lag_ms"] = lags_ms;
  const double steal_s = host_steal_seconds() - steal_begin;
  write_trace_file(options, bench, rounds, steal_s, tracer, timings, metrics);
  std::printf("{\"run\": %s, \"trace_file\": %s}\n",
              run_info_json(options, bench, rounds, steal_s).c_str(),
              quoted(trace_path(options).string()).c_str());
  print_result(bench.tally(), metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  try {
    options = parse_options(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "wm_perfbench: %s\n", error.what());
    return 2;
  }
  fs::path capture;
  int status = 1;
  try {
    fs::create_directories(options.work_dir);
    const std::int64_t start = now_ns();
    Workload workload = make_workload(options.workload, options.seed, options.work_dir);
    capture = workload.capture;
    std::fprintf(stderr, "wm_perfbench: %s seed %llu: %zu packets, %zu viewers, generated in %.2fs\n",
                 options.workload.c_str(), static_cast<unsigned long long>(options.seed),
                 workload.packets, workload.truth.size(),
                 seconds_between(start, now_ns()));
    Bench bench(std::move(workload));
    status = options.trace ? run_traced(options, bench) : run_end_to_end(options, bench);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "wm_perfbench: %s\n", error.what());
    status = 1;
  }
  std::error_code ignored;
  if (!capture.empty()) fs::remove(capture, ignored);
  return status;
}
