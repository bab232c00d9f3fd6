// End-to-end benchmark program for ltefp.
//
// Runs one workload through the public library calls, times it with tracing
// off (end-to-end metrics) or on (per-layer metrics), checks every output,
// and prints one JSON result line last on stdout:
//
//   ltefp_bench --workload paper|city|monitor|contacts --seed N
//                    --seconds S --trace 0|1 --workdir DIR
//                    [--size full|tiny] [--corrupt] [--spans FILE]
//                    [--expected FILE]
//
// The workload inputs are generated from --seed alone. --size tiny shrinks
// every workload to a smoke-test scale; --corrupt flips one output before it
// is checked (the benchmark's own tests use it to prove the checks bite).
// Wall time is read here, at the bench edge: clocks stay out of src/.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/app_id.hpp"
#include "apps/population.hpp"
#include "attacks/citysynth.hpp"
#include "attacks/collect.hpp"
#include "attacks/correlation.hpp"
#include "attacks/pipeline.hpp"
#include "attacks/replay.hpp"
#include "common/cpu.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "dtw/dtw.hpp"
#include "features/dataset.hpp"
#include "sniffer/sniffer.hpp"
#include "sniffer/trace.hpp"
#include "stream/daemon.hpp"
#include "stream/replay_source.hpp"
#include "stream/verdict.hpp"
#include "tracestore/corpus.hpp"
#include "tracestore/format.hpp"
#include "tracestore/synth.hpp"

namespace fs = std::filesystem;
using namespace ltefp;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Statistics and digests

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (p in (0, 100]); +inf samples stay +inf.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void add(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
  }
  void add(const std::string& s) { add(s.data(), s.size()); }
  void add_double(double d) { add(&d, sizeof d); }
};

/// The digest most repetitions produced (ties: the smallest), the
/// reference for outputs that have no stored expected value.
std::uint64_t most_common(const std::vector<std::uint64_t>& digests) {
  std::map<std::uint64_t, int> counts;
  for (const std::uint64_t d : digests) ++counts[d];
  return std::max_element(counts.begin(), counts.end(),
                          [](const auto& a, const auto& b) { return a.second < b.second; })
      ->first;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t file_digest(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::ostringstream bytes;
  bytes << in.rdbuf();
  Fnv f;
  f.add(bytes.str());
  return f.h;
}

/// Every file of a corpus directory by name, with its content digest.
std::map<std::string, std::uint64_t> directory_digests(const fs::path& dir) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file()) out[e.path().filename().string()] = file_digest(e.path());
  }
  return out;
}

// ---------------------------------------------------------------------------
// Spans: recorded in memory by the traced run, written out at exit.

struct Span {
  std::string name;
  double start = 0.0;  // seconds since program start
  double end = 0.0;
  int parent = -1;
  int run = 0;
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  void set_enabled(bool on) { enabled_ = on; }
  void set_run(int run) { run_ = run; }

  int open(const std::string& name) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, now(), 0.0, stack_.empty() ? -1 : stack_.back(), run_});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = now();
    stack_.pop_back();
  }

  /// Self time (duration minus direct children) summed per span name, for
  /// the spans of one run.
  std::map<std::string, double> self_times(int run) const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.run == run && s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].run != run) continue;
      out[spans_[i].name] += spans_[i].end - spans_[i].start - child[i];
    }
    return out;
  }

  /// Summed duration per span name for one run.
  std::map<std::string, double> totals(int run) const {
    std::map<std::string, double> out;
    for (const Span& s : spans_) {
      if (s.run == run) out[s.name] += s.end - s.start;
    }
    return out;
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[256];
      std::snprintf(line, sizeof line,
                    "  {\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, \"end\": %.9f, "
                    "\"parent\": %d, \"run\": %d}%s\n",
                    i, s.name.c_str(), s.start, s.end, s.parent, s.run,
                    i + 1 < spans_.size() ? "," : "");
      out << line;
    }
    out << "]}\n";
  }

 private:
  double now() const { return seconds_between(origin_, Clock::now()); }

  Clock::time_point origin_;
  bool enabled_ = false;
  int run_ = 0;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span around one call into a layer.
class Scope {
 public:
  Scope(Tracer& tracer, const std::string& name) : tracer_(tracer), id_(tracer.open(name)) {}
  ~Scope() { tracer_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

// ---------------------------------------------------------------------------
// Options, host fingerprint, result

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;
  bool tiny = false;
  bool corrupt = false;
  std::string spans_path;
  std::string expected_path;
};

[[noreturn]] void usage(const std::string& why) {
  throw std::invalid_argument(why +
                              "\nusage: ltefp_bench --workload paper|city|monitor|contacts "
                              "--seed N --seconds S --trace 0|1 --workdir DIR "
                              "[--size full|tiny] [--corrupt] [--spans FILE] "
                              "[--expected FILE]");
}

Options parse_options(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--corrupt") {
      o.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        o.workload = v;
      } else if (a == "--seed") {
        o.seed = std::stoull(v);
        have_seed = true;
      } else if (a == "--seconds") {
        o.seconds = std::stod(v);
      } else if (a == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        o.trace = v == "1";
      } else if (a == "--workdir") {
        o.workdir = v;
      } else if (a == "--size") {
        if (v != "full" && v != "tiny") usage("--size takes full or tiny");
        o.tiny = v == "tiny";
      } else if (a == "--spans") {
        o.spans_path = v;
      } else if (a == "--expected") {
        o.expected_path = v;
      } else {
        usage("unknown flag " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a + ": " + v);
    }
  }
  if (o.workload.empty() || !have_seed || o.workdir.empty()) {
    usage("--workload, --seed and --workdir are required");
  }
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string m = line.substr(colon + 1);
        m.erase(0, m.find_first_not_of(' '));
        return m;
      }
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct CpuTimes {
  double user = 0.0;
  double sys = 0.0;
};

CpuTimes cpu_times() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return {tv(ru.ru_utime), tv(ru.ru_stime)};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

/// What every workload hands back to main().
struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> end_to_end;  // beside setup_s / peak_rss_mb
  std::vector<Metric> per_layer;   // traced run only
  std::vector<std::string> notes;  // human-readable summary lines
};

/// The per-layer metric names every traced run reports (0 where a layer
/// does no work in that workload).
const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"common.user_cpu_s", "s"},          {"common.sys_cpu_s", "s"},
      {"common.cpu_util", "ratio"},        {"attacks.collect_s", "s"},
      {"attacks.records", "count"},        {"lte.run_for_s", "s"},
      {"lte.self_s", "s"},                 {"lte.sim_ms_per_s", "ms/s"},
      {"lte.subframes_observed", "count"}, {"sniffer.decode_s", "s"},
      {"sniffer.decoded", "count"},        {"sniffer.missed", "count"},
      {"sniffer.miss_ratio", "ratio"},     {"sniffer.rach", "count"},
      {"sniffer.paging", "count"},         {"features.window_s", "s"},
      {"features.windows", "count"},       {"features.split_s", "s"},
      {"ml.train_s", "s"},                 {"ml.train_rows_per_s", "rows/s"},
      {"ml.predict_s", "s"},               {"ml.predict_rows_per_s", "rows/s"},
      {"tracestore.write_s", "s"},         {"tracestore.bytes_per_record", "bytes"},
      {"tracestore.open_s", "s"},          {"tracestore.range_scan_s", "s"},
      {"tracestore.files_opened", "count"}, {"tracestore.chunks_decoded", "count"},
      {"tracestore.chunks_skipped", "count"}, {"tracestore.chunk_decode_ratio", "ratio"},
      {"stream.run_s", "s"},               {"stream.records", "count"},
      {"stream.sessions", "count"},        {"stream.window_verdicts", "count"},
      {"stream.final_verdicts", "count"},  {"stream.batches", "count"},
      {"stream.queue_full_ratio", "ratio"}, {"stream.pacer_late_p50_ms", "ms"},
      {"stream.pacer_late_p99_ms", "ms"},  {"dtw.matrix_s", "s"},
      {"dtw.pairs", "count"},              {"dtw.rank_s", "s"},
      {"dtw.candidates", "count"},         {"dtw.full_dp", "count"},
      {"dtw.lb_kim_pruned", "count"},      {"dtw.lb_keogh_pruned", "count"},
      {"dtw.abandoned", "count"},          {"dtw.full_dp_ratio", "ratio"},
      {"trace.run_s", "s"},                {"trace.overhead_s", "s"},
      {"trace.coverage", "ratio"},
  };
  return units;
}

/// Collects per-layer values by name; unset layers report 0.
class LayerMetrics {
 public:
  void set(const std::string& name, double value) { values_[name] = value; }
  std::vector<Metric> finish() const {
    std::vector<Metric> out;
    for (const auto& [name, unit] : layer_metric_units()) {
      const auto it = values_.find(name);
      out.push_back({name, it == values_.end() ? 0.0 : it->second, unit});
    }
    for (const auto& [name, value] : values_) {
      const bool known = std::any_of(layer_metric_units().begin(), layer_metric_units().end(),
                                     [&](const auto& u) { return u.first == name; });
      if (!known) throw std::logic_error("unlisted layer metric " + name);
    }
    return out;
  }

 private:
  std::map<std::string, double> values_;
};

/// Repetition loop shared by every workload: at least `min_reps`, then
/// until the time budget is spent.
template <typename Fn>
int repeat_for(double seconds, int min_reps, Fn&& body) {
  const auto start = Clock::now();
  int reps = 0;
  while (reps < min_reps || seconds_between(start, Clock::now()) < seconds) {
    body(reps);
    ++reps;
  }
  return reps;
}

/// Median of one named span-derived quantity over the traced runs.
double median_over(const std::vector<std::map<std::string, double>>& per_run,
                   const std::string& name) {
  std::vector<double> v;
  for (const auto& m : per_run) {
    const auto it = m.find(name);
    v.push_back(it == m.end() ? 0.0 : it->second);
  }
  return median(v);
}

void add_cpu_layers(LayerMetrics& layers, const CpuTimes& before, const CpuTimes& after,
                    double wall_s, int reps) {
  const double user = (after.user - before.user) / reps;
  const double sys = (after.sys - before.sys) / reps;
  layers.set("common.user_cpu_s", user);
  layers.set("common.sys_cpu_s", sys);
  const double wall = wall_s / reps;
  if (wall > 0.0) layers.set("common.cpu_util", (user + sys) / (wall * thread_count()));
}

/// Reports the traced-vs-untraced comparison and span coverage of the
/// root "run" span: the share of run time the layer spans' self times
/// account for.
void add_trace_layers(LayerMetrics& layers, const Tracer& tracer,
                      const std::vector<int>& traced_runs, double untraced_run_s) {
  std::vector<double> run_s, coverage;
  for (const int r : traced_runs) {
    const auto self = tracer.self_times(r);
    const auto total = tracer.totals(r);
    const double run = total.count("run") ? total.at("run") : 0.0;
    double layered = 0.0;
    for (const auto& [name, t] : self) {
      if (name != "run") layered += t;
    }
    run_s.push_back(run);
    if (run > 0.0) coverage.push_back(layered / run);
  }
  layers.set("trace.run_s", median(run_s));
  layers.set("trace.overhead_s", median(run_s) - untraced_run_s);
  layers.set("trace.coverage", median(coverage));
}

// ---------------------------------------------------------------------------
// Workload: paper — the Table III lab campaign.

attacks::PipelineConfig paper_config(const Options& o) {
  attacks::PipelineConfig c;
  c.op = lte::Operator::kLab;
  c.link = lte::LinkFilter::kBoth;
  c.traces_per_app = o.tiny ? 1 : 3;
  c.trace_duration = o.tiny ? seconds(10) : minutes(4);
  c.seed = o.seed;
  if (o.tiny) c.forest.num_trees = 10;
  return c;
}

std::uint64_t score_digest(const std::vector<attacks::AppScore>& scores) {
  Fnv f;
  for (const auto& s : scores) {
    const auto app = static_cast<int>(s.app);
    f.add(&app, sizeof app);
    f.add_double(s.f_score);
    f.add_double(s.precision);
    f.add_double(s.recall);
  }
  return f.h;
}

/// Expected per-app score digests, one `seed digest` pair per line, for the
/// full-size paper workload (perfbench/expected_paper.txt). No file, no
/// expectations.
std::map<std::uint64_t, std::uint64_t> load_expected(const std::string& path) {
  std::map<std::uint64_t, std::uint64_t> out;
  if (path.empty()) return out;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::uint64_t seed = 0;
    std::string digest;
    if (ls >> seed >> digest) out[seed] = std::stoull(digest, nullptr, 16);
  }
  return out;
}

Outcome run_paper(const Options& o, Tracer& tracer, std::vector<double>& setup_s) {
  const attacks::PipelineConfig config = paper_config(o);

  // Set-up: a reduced campaign warms the pool, allocator and caches, so the
  // first timed repetition is not a cold start.
  for (int i = 0; i < 3; ++i) {
    const auto t0 = Clock::now();
    attacks::PipelineConfig warm = config;
    warm.traces_per_app = o.tiny ? 1 : 2;
    warm.trace_duration = o.tiny ? seconds(5) : minutes(1);
    (void)attacks::run_fingerprint_experiment(warm);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  const auto expected = load_expected(o.expected_path);
  const auto want_it = o.tiny ? expected.end() : expected.find(o.seed);
  const bool have_expected = want_it != expected.end();

  Outcome out;
  std::vector<double> untraced_s;
  std::vector<int> traced_runs;
  std::vector<std::uint64_t> digests;
  std::size_t records = 0, decoded = 0, missed = 0, windows = 0, train_rows = 0, test_rows = 0;
  std::vector<std::map<std::string, double>> per_run;

  const CpuTimes cpu0 = cpu_times();
  const auto wall0 = Clock::now();
  const int reps = repeat_for(o.seconds, 3, [&](int rep) {
    // The traced run alternates untraced and traced repetitions, so the
    // tracing overhead is measured under the same conditions.
    const bool traced = o.trace && rep % 2 == 1;
    tracer.set_enabled(traced);
    tracer.set_run(rep);
    std::vector<attacks::AppScore> scores;
    const auto t0 = Clock::now();
    if (!traced) {
      scores = attacks::run_fingerprint_experiment(config);
    } else {
      // run_fingerprint_experiment's steps, one span each.
      Scope run(tracer, "run");
      std::vector<attacks::CollectedTrace> traces;
      {
        Scope s(tracer, "attacks.collect");
        traces = attacks::collect_all_traces(config);
      }
      features::Dataset data;
      {
        Scope s(tracer, "features.window");
        features::WindowConfig window;
        window.window_ms = config.window_ms;
        window.link = config.link;
        data = attacks::dataset_from_traces(traces, window);
      }
      std::pair<features::Dataset, features::Dataset> split;
      {
        Scope s(tracer, "features.split");
        Rng rng(config.seed ^ 0xABCDEF);
        split = features::train_test_split(data, 0.8, rng);
      }
      attacks::FingerprintPipeline pipeline(config);
      {
        Scope s(tracer, "ml.train");
        pipeline.train(split.first);
      }
      ml::ConfusionMatrix cm(apps::kNumApps);
      {
        Scope s(tracer, "ml.predict");
        cm = pipeline.evaluate(split.second);
      }
      scores = attacks::scores_from_confusion(cm);
      records = 0;
      decoded = 0;
      missed = 0;
      for (const auto& t : traces) {
        records += t.trace.size();
        decoded += t.decoded_dcis;
        missed += t.missed_dcis;
      }
      windows = data.samples.size();
      train_rows = split.first.samples.size();
      test_rows = split.second.samples.size();
    }
    const double wall = seconds_between(t0, Clock::now());
    tracer.set_enabled(false);
    if (traced) {
      traced_runs.push_back(rep);
      per_run.push_back(tracer.totals(rep));
    } else {
      untraced_s.push_back(wall);
    }
    if (o.corrupt && rep == 0) scores[0].f_score = std::nextafter(scores[0].f_score, 2.0);
    digests.push_back(score_digest(scores));
  });
  const double timed_wall = seconds_between(wall0, Clock::now());
  const CpuTimes cpu1 = cpu_times();
  tracer.set_enabled(false);

  // Every repetition is one op: its scores must equal the seed's expected
  // digest, or (for a seed without one) the other repetitions'.
  const std::uint64_t ref = have_expected ? want_it->second : most_common(digests);
  for (const std::uint64_t d : digests) {
    ++out.attempted;
    if (d != ref) ++out.failed;
  }
  out.notes.push_back("paper: scores digest " + hex64(most_common(digests)) +
                      (have_expected ? ", expected " + hex64(ref)
                                     : " (no expected digest for this seed: repetitions "
                                       "cross-checked)"));

  if (records == 0) {
    // Record count for the capacity metric: one untimed collection.
    for (const auto& t : attacks::collect_all_traces(config)) records += t.trace.size();
  }
  const double run_s = median(untraced_s);
  out.end_to_end = {
      {"run_s", run_s, "s"},
      {"capacity_records_per_s", static_cast<double>(records) / run_s, "records/s"},
      {"lag_p50_ms", 1e3 * percentile(untraced_s, 50), "ms"},
      {"lag_p99_ms", 1e3 * percentile(untraced_s, 99), "ms"},
  };
  if (o.trace) {
    LayerMetrics layers;
    add_cpu_layers(layers, cpu0, cpu1, timed_wall, reps);
    layers.set("attacks.collect_s", median_over(per_run, "attacks.collect"));
    layers.set("attacks.records", static_cast<double>(records));
    layers.set("sniffer.decoded", static_cast<double>(decoded));
    layers.set("sniffer.missed", static_cast<double>(missed));
    if (decoded + missed) {
      layers.set("sniffer.miss_ratio",
                 static_cast<double>(missed) / static_cast<double>(decoded + missed));
    }
    layers.set("features.window_s", median_over(per_run, "features.window"));
    layers.set("features.windows", static_cast<double>(windows));
    layers.set("features.split_s", median_over(per_run, "features.split"));
    const double train_s = median_over(per_run, "ml.train");
    const double predict_s = median_over(per_run, "ml.predict");
    layers.set("ml.train_s", train_s);
    layers.set("ml.predict_s", predict_s);
    if (train_s > 0) layers.set("ml.train_rows_per_s", static_cast<double>(train_rows) / train_s);
    if (predict_s > 0) {
      layers.set("ml.predict_rows_per_s", static_cast<double>(test_rows) / predict_s);
    }
    add_trace_layers(layers, tracer, traced_runs, run_s);
    out.per_layer = layers.finish();
  }
  return out;
}

// ---------------------------------------------------------------------------
// Shared by city and monitor: the daemon's model and verdict sinks.

/// A small lab model for workloads whose timed phase must not train: the
/// daemon only needs some trained classifier to batch-predict through.
std::unique_ptr<attacks::FingerprintPipeline> train_small_model(std::uint64_t seed, bool tiny) {
  attacks::PipelineConfig c;
  c.op = lte::Operator::kLab;
  c.traces_per_app = tiny ? 1 : 2;
  c.trace_duration = tiny ? seconds(5) : minutes(1);
  c.seed = derive_seed({seed, 0x6D6F64656CULL});
  if (tiny) c.forest.num_trees = 10;
  auto pipeline = std::make_unique<attacks::FingerprintPipeline>(c);
  pipeline->train(attacks::build_dataset(c));
  return pipeline;
}

/// Digests the CSV form of a verdict stream without storing it.
class DigestSink final : public stream::VerdictSink {
 public:
  void emit(const stream::VerdictRecord& v) override {
    digest_.add(stream::to_csv(v));
    digest_.add("\n", 1);
  }
  std::uint64_t digest() const { return digest_.h; }

 private:
  Fnv digest_;
};

/// The benchmark's thread plan, from the pool size it starts with (nproc
/// unless LTEFP_THREADS says otherwise).
///  - A daemon pass splits the machine: half the threads are daemon workers
///    and the pool they predict through shrinks to the other half, so the
///    workers, the pool's extra threads and the thread running the daemon
///    add up to the machine.
///  - The city engine runs on half the machine. Its per-subframe fork/join
///    gets slower and far noisier past two of four threads on a shared
///    4-vCPU Xeon VM (one seed: 5.4-6.2 s at 2, 6.8-8.6 s at 3, 8-15.5 s at
///    4 threads), which would bury every other change under host noise.
struct ThreadPlan {
  int machine = thread_count();

  int daemon_workers() const { return std::max(1, machine / 2); }
  int daemon_pool() const { return std::max(1, machine - daemon_workers()); }
  int city_engine() const { return std::max(1, machine / 2); }
};

/// Sets the pool size for the lifetime of a scope.
class ScopedPool {
 public:
  explicit ScopedPool(int threads) : saved_(thread_count()) { set_thread_count(threads); }
  ~ScopedPool() { set_thread_count(saved_); }
  ScopedPool(const ScopedPool&) = delete;
  ScopedPool& operator=(const ScopedPool&) = delete;

 private:
  int saved_;
};

double queue_full_ratio(const stream::StreamStats& stats, const stream::StreamConfig& config) {
  if (stats.queue_high_water.empty()) return 0.0;
  return static_cast<double>(
             *std::max_element(stats.queue_high_water.begin(), stats.queue_high_water.end())) /
         static_cast<double>(config.queue_capacity);
}

void add_stream_layers(LayerMetrics& layers, const stream::StreamStats& stats,
                       const stream::StreamConfig& config) {
  layers.set("stream.records", static_cast<double>(stats.records));
  layers.set("stream.sessions", static_cast<double>(stats.sessions));
  layers.set("stream.window_verdicts", static_cast<double>(stats.window_verdicts));
  layers.set("stream.final_verdicts", static_cast<double>(stats.final_verdicts));
  layers.set("stream.batches", static_cast<double>(stats.batches));
  layers.set("stream.queue_full_ratio", queue_full_ratio(stats, config));
}

// ---------------------------------------------------------------------------
// Workload: city — live-engine corpus synthesis, then one unpaced replay.

tracestore::SynthOptions city_options(const Options& o) {
  tracestore::SynthOptions s;
  s.seed = o.seed;
  s.cells = o.tiny ? 2 : 8;
  s.hours = 1;
  s.ues_per_cell = o.tiny ? 4 : 48;
  // The first simulated hour is the night trough of the diurnal curve: a
  // high session rate keeps enough sessions in it that the load a seed
  // draws varies little from seed to seed.
  s.sessions_per_ue_hour = 8.0;
  s.corpus.trace.version = tracestore::kFormatVersionV2;
  return s;
}

/// Forwards every callback to the wrapped sniffer, timing its busy time.
class TimedObserver final : public lte::PdcchObserver {
 public:
  explicit TimedObserver(lte::PdcchObserver& inner) : inner_(inner) {}

  // Subframes without DCIs are forwarded untimed: a perfect sniffer does
  // nothing with them, and two clock reads per empty subframe would cost
  // more than the call they measure.
  void on_subframe(const lte::PdcchSubframe& subframe) override {
    ++subframes_;
    if (subframe.dcis.empty()) {
      inner_.on_subframe(subframe);
      return;
    }
    timed([&] { inner_.on_subframe(subframe); });
  }
  void on_rach(const lte::RachPreamble& e) override { timed([&] { inner_.on_rach(e); }); }
  void on_rar(const lte::RandomAccessResponse& e) override { timed([&] { inner_.on_rar(e); }); }
  void on_rrc_request(const lte::RrcConnectionRequest& e) override {
    timed([&] { inner_.on_rrc_request(e); });
  }
  void on_rrc_setup(const lte::RrcConnectionSetup& e) override {
    timed([&] { inner_.on_rrc_setup(e); });
  }
  void on_rrc_release(const lte::RrcConnectionRelease& e) override {
    timed([&] { inner_.on_rrc_release(e); });
  }

  double busy_s() const { return std::chrono::duration<double>(busy_).count(); }
  std::size_t subframes() const { return subframes_; }

 private:
  template <typename Fn>
  void timed(Fn&& fn) {
    const auto t0 = Clock::now();
    fn();
    busy_ += Clock::now() - t0;
  }

  lte::PdcchObserver& inner_;
  Clock::duration busy_{};
  std::size_t subframes_ = 0;
};

struct CityCounters {
  tracestore::SynthSummary summary;
  double decode_s = 0.0;
  std::size_t subframes = 0, decoded = 0, missed = 0, rach = 0, paging = 0;
};

/// synth_city_day_live's steps in its order, with each sniffer behind a
/// timing observer and one span per engine advance and corpus write.
CityCounters traced_city_synth(const std::string& dir, const tracestore::SynthOptions& options,
                               Tracer& tracer) {
  apps::CityOptions city;
  city.seed = options.seed;
  city.cells = options.cells;
  city.ues_per_cell = options.ues_per_cell;
  if (options.sessions_per_ue_hour > 0.0) {
    city.activity.base_gap_ms =
        static_cast<TimeMs>(static_cast<double>(kMsPerHour) / options.sessions_per_ue_hour);
  }
  std::optional<apps::CityScenario> scenario;
  {
    Scope s(tracer, "lte.setup");
    scenario.emplace(city);
  }
  std::vector<std::unique_ptr<sniffer::Sniffer>> sniffers;
  std::vector<std::unique_ptr<TimedObserver>> observers;
  for (std::size_t cell = 0; cell < options.cells; ++cell) {
    sniffers.push_back(std::make_unique<sniffer::Sniffer>(
        sniffer::SnifferConfig{}, Rng(derive_seed({options.seed, 0x5A1FFULL, cell}))));
    observers.push_back(std::make_unique<TimedObserver>(*sniffers.back()));
    scenario->sim().add_observer(static_cast<lte::CellId>(cell), *observers.back());
  }
  CityCounters c;
  std::optional<tracestore::CorpusWriter> writer;
  {
    Scope s(tracer, "tracestore.write");
    writer.emplace(dir, options.corpus);
  }
  for (std::size_t hour = 0; hour < options.hours; ++hour) {
    {
      Scope s(tracer, "lte.run_for");
      scenario->run_for(kMsPerHour);
    }
    Scope s(tracer, "tracestore.write");
    for (std::size_t cell = 0; cell < options.cells; ++cell) {
      tracestore::TraceMeta meta;
      meta.op = static_cast<lte::Operator>(cell % 4);
      meta.app = static_cast<std::uint16_t>(cell % 64);
      meta.label = "synth-live";
      meta.day = 0;
      meta.seed = derive_seed({options.seed, cell, hour});
      meta.cell = static_cast<lte::CellId>(cell);
      meta.session_start = static_cast<TimeMs>(hour) * kMsPerHour;
      const tracestore::CorpusEntry& entry = writer->add(meta, sniffers[cell]->records());
      c.decoded += sniffers[cell]->records().size();
      sniffers[cell]->clear_records();
      ++c.summary.files;
      c.summary.records += entry.records;
      c.summary.bytes += entry.bytes;
    }
  }
  {
    Scope s(tracer, "tracestore.write");
    writer->finish();
  }
  for (std::size_t cell = 0; cell < options.cells; ++cell) {
    c.decode_s += observers[cell]->busy_s();
    c.subframes += observers[cell]->subframes();
    c.missed += sniffers[cell]->missed_count();
    c.rach += sniffers[cell]->rach_count();
    c.paging += sniffers[cell]->paging_count();
  }
  return c;
}

/// Flips one byte of the first trace file in `dir`.
void corrupt_one_trace_file(const fs::path& dir) {
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() != ".ltt") continue;
    std::fstream f(e.path(), std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(40);
    char b = 0;
    f.get(b);
    f.seekp(40);
    f.put(static_cast<char>(b ^ 0x5A));
    return;
  }
}

Outcome run_city(const Options& o, Tracer& tracer, std::vector<double>& setup_s) {
  const ThreadPlan plan;
  const tracestore::SynthOptions synth = city_options(o);
  std::unique_ptr<attacks::FingerprintPipeline> model;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = Clock::now();
    model = train_small_model(o.seed, o.tiny);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  stream::StreamConfig scfg;
  scfg.window = model->window_config();
  scfg.workers = plan.daemon_workers();

  const fs::path dir = fs::path(o.workdir) / "city";
  Outcome out;
  std::vector<double> untraced_s, lag_p50, lag_p99;
  std::vector<int> traced_runs;
  std::vector<std::map<std::string, std::uint64_t>> corpora;
  std::vector<std::uint64_t> verdict_digests;
  std::size_t records = 0;
  CityCounters counters;
  stream::StreamStats stats;
  std::vector<std::map<std::string, double>> per_run;

  const CpuTimes cpu0 = cpu_times();
  const auto wall0 = Clock::now();
  const int reps = repeat_for(o.seconds, 3, [&](int rep) {
    // The traced run alternates untraced and traced repetitions, so the
    // tracing overhead is measured under the same conditions.
    const bool traced = o.trace && rep % 2 == 1;
    tracer.set_enabled(traced);
    tracer.set_run(rep);
    fs::remove_all(dir);
    DigestSink sink;
    std::size_t files = 0;
    Clock::time_point corpus_done;
    const auto t0 = Clock::now();
    {
      Scope run(tracer, "run");
      {
        const ScopedPool engine_pool(plan.city_engine());
        if (traced) {
          counters = traced_city_synth(dir.string(), synth, tracer);
          records = counters.summary.records;
          files = counters.summary.files;
        } else {
          const tracestore::SynthSummary summary =
              attacks::synth_city_day_live(dir.string(), synth);
          records = summary.records;
          files = summary.files;
        }
      }
      corpus_done = Clock::now();
      std::optional<stream::ReplaySource> replay;
      {
        Scope s(tracer, "tracestore.open");
        replay.emplace(dir.string());
      }
      Scope s(tracer, "stream.run");
      stream::StreamDaemon daemon(*model->model(), scfg);
      const ScopedPool daemon_pool(plan.daemon_pool());
      stats = daemon.run(*replay, sink);
    }
    const double wall = seconds_between(t0, Clock::now());
    tracer.set_enabled(false);
    if (traced) {
      traced_runs.push_back(rep);
      per_run.push_back(tracer.totals(rep));
    } else {
      untraced_s.push_back(wall);
      // Op latencies: the corpus files are delivered together when the
      // manifest is written, the verdict stream when the replay ends.
      std::vector<double> ops_ms(files, 1e3 * seconds_between(t0, corpus_done));
      ops_ms.push_back(1e3 * wall);
      lag_p50.push_back(percentile(ops_ms, 50));
      lag_p99.push_back(percentile(ops_ms, 99));
    }
    if (o.corrupt && rep == 1) corrupt_one_trace_file(dir);
    corpora.push_back(directory_digests(dir));
    verdict_digests.push_back(sink.digest());
  });
  const double timed_wall = seconds_between(wall0, Clock::now());
  const CpuTimes cpu1 = cpu_times();
  fs::remove_all(dir);

  // Ops: every (cell, hour) file and the verdict stream, per repetition;
  // each must repeat the other repetitions' bytes, traced ones included.
  std::map<std::string, std::vector<std::uint64_t>> by_file;
  for (const auto& corpus : corpora) {
    for (const auto& [name, d] : corpus) by_file[name].push_back(d);
  }
  std::size_t files = 0;
  for (const auto& [name, ds] : by_file) {
    if (name.rfind("manifest", 0) == 0) continue;  // manifests are checked with their files
    ++files;
    const std::uint64_t ref = most_common(ds);
    out.attempted += corpora.size();
    out.failed += corpora.size() - ds.size();  // missing from some repetition
    for (const std::uint64_t d : ds) out.failed += d != ref;
  }
  const std::uint64_t verdict_ref = most_common(verdict_digests);
  for (const std::uint64_t d : verdict_digests) {
    ++out.attempted;
    out.failed += d != verdict_ref;
  }
  out.notes.push_back("city: " + std::to_string(records) + " records in " +
                      std::to_string(files) + " corpus files, verdict stream digest " +
                      hex64(verdict_ref) + " (" + std::to_string(stats.window_verdicts) +
                      " window + " + std::to_string(stats.final_verdicts) + " final verdicts)");

  const double run_s = median(untraced_s);
  // Lag is op latency (closed loop: a repetition starts when the previous
  // one has delivered), per repetition, median over repetitions.
  out.end_to_end = {
      {"run_s", run_s, "s"},
      {"capacity_records_per_s", static_cast<double>(records) / run_s, "records/s"},
      {"lag_p50_ms", median(lag_p50), "ms"},
      {"lag_p99_ms", median(lag_p99), "ms"},
  };
  if (o.trace) {
    LayerMetrics layers;
    add_cpu_layers(layers, cpu0, cpu1, timed_wall, reps);
    const double run_for = median_over(per_run, "lte.run_for");
    layers.set("lte.run_for_s", run_for);
    layers.set("lte.self_s", run_for - counters.decode_s);
    layers.set("lte.sim_ms_per_s",
               run_for > 0 ? static_cast<double>(synth.hours * kMsPerHour) / run_for : 0.0);
    layers.set("lte.subframes_observed", static_cast<double>(counters.subframes));
    layers.set("sniffer.decode_s", counters.decode_s);
    layers.set("sniffer.decoded", static_cast<double>(counters.decoded));
    layers.set("sniffer.missed", static_cast<double>(counters.missed));
    if (counters.decoded + counters.missed) {
      layers.set("sniffer.miss_ratio", static_cast<double>(counters.missed) /
                                           static_cast<double>(counters.decoded + counters.missed));
    }
    layers.set("sniffer.rach", static_cast<double>(counters.rach));
    layers.set("sniffer.paging", static_cast<double>(counters.paging));
    layers.set("tracestore.write_s", median_over(per_run, "tracestore.write"));
    if (counters.summary.records) {
      layers.set("tracestore.bytes_per_record", static_cast<double>(counters.summary.bytes) /
                                                    static_cast<double>(counters.summary.records));
    }
    layers.set("tracestore.open_s", median_over(per_run, "tracestore.open"));
    layers.set("stream.run_s", median_over(per_run, "stream.run"));
    add_stream_layers(layers, stats, scfg);
    add_trace_layers(layers, tracer, traced_runs, run_s);
    out.per_layer = layers.finish();
  }
  return out;
}

// ---------------------------------------------------------------------------
// Workload: monitor — open-loop paced replay of a dense lab corpus.

/// Splits a trace at idle gaps >= cutoff: the session segmentation the
/// daemon's assembler must reproduce.
std::vector<sniffer::Trace> split_sessions(const sniffer::Trace& trace, TimeMs cutoff) {
  std::vector<sniffer::Trace> out;
  for (const auto& r : trace) {
    if (out.empty() || r.time - out.back().back().time >= cutoff) out.emplace_back();
    out.back().push_back(r);
  }
  return out;
}

/// The fixed pacing speed (sim time per wall time) of the paced passes.
/// A verdict waits about one watermark interval (128 ms / speed) for its
/// batch to be released; at 20x that wait, not a host stall, sets the p99:
/// one 15 ms stall delays under 1% of a pass's verdicts. At 60x the same
/// stall moved p99 from 6 to 22 ms between runs on a shared VM.
constexpr double kMonitorSpeed = 20.0;

/// A wall-clock pacer for one pass that also records how late the
/// generator woke for each watermark.
struct Pacer {
  Clock::time_point start;
  std::vector<double> late_ms;

  Clock::time_point due(TimeMs sim) const {
    return start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double, std::milli>(
                       static_cast<double>(sim) / kMonitorSpeed));
  }
  void wait(TimeMs sim) {
    const auto target = due(sim);
    std::this_thread::sleep_until(target);
    late_ms.push_back(std::chrono::duration<double, std::milli>(Clock::now() - target).count());
  }
};

/// Checks delivered verdict streams against the monitor references.
class MonitorOracle {
 public:
  MonitorOracle(std::vector<std::string> reference,
                std::map<std::pair<std::uint32_t, std::uint32_t>, attacks::TraceVerdict> batch)
      : reference_(std::move(reference)), batch_(std::move(batch)) {}

  std::size_t size() const { return reference_.size(); }

  /// Per delivered verdict (plus one per missing one): true when its CSV
  /// bytes equal the reference stream's at the same position and, for a
  /// final verdict, it equals batch classify_trace on that session.
  std::vector<bool> check(const std::vector<stream::VerdictRecord>& verdicts,
                          const std::vector<std::string>& lines) const {
    std::vector<bool> ok(std::max(lines.size(), reference_.size()), false);
    for (std::size_t i = 0; i < lines.size() && i < reference_.size(); ++i) {
      ok[i] = lines[i] == reference_[i];
      const stream::VerdictRecord& v = verdicts[i];
      if (ok[i] && v.final_verdict) {
        const auto it = batch_.find({v.lane, v.session});
        ok[i] = it != batch_.end() && it->second.app == v.app &&
                it->second.confidence == v.confidence && it->second.window_count == v.windows;
      }
    }
    return ok;
  }

 private:
  std::vector<std::string> reference_;
  std::map<std::pair<std::uint32_t, std::uint32_t>, attacks::TraceVerdict> batch_;
};

Outcome run_monitor(const Options& o, Tracer& tracer, std::vector<double>& setup_s) {
  const ThreadPlan plan;
  attacks::PipelineConfig config;
  config.op = lte::Operator::kLab;
  config.traces_per_app = o.tiny ? 1 : 6;
  config.trace_duration = seconds(o.tiny ? 5 : 30);
  config.seed = o.seed;
  if (o.tiny) config.forest.num_trees = 10;
  const fs::path dir = fs::path(o.workdir) / "monitor";

  // Set-up: record the corpus (one victim per lane) and train on it.
  std::unique_ptr<attacks::FingerprintPipeline> pipeline;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = Clock::now();
    fs::remove_all(dir);
    attacks::record_corpus(config, dir.string());
    attacks::PipelineConfig replay = config;
    replay.replay_corpus = dir.string();
    pipeline = std::make_unique<attacks::FingerprintPipeline>(replay);
    pipeline->train(attacks::build_dataset(replay));
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  stream::StreamConfig scfg;
  scfg.window = pipeline->window_config();

  // References, outside set-up timing: the unpaced single-worker verdict
  // stream, and batch classify_trace over every session.
  std::optional<MonitorOracle> oracle;
  {
    stream::StreamConfig one = scfg;
    one.workers = 1;
    stream::ReplaySource source(dir.string());
    stream::CollectorSink sink;
    const ScopedPool daemon_pool(plan.daemon_pool());
    stream::StreamDaemon(*pipeline->model(), one).run(source, sink);
    std::vector<std::string> reference;
    for (const auto& v : sink.verdicts()) reference.push_back(stream::to_csv(v));
    std::map<std::pair<std::uint32_t, std::uint32_t>, attacks::TraceVerdict> batch;
    const tracestore::Corpus corpus = tracestore::Corpus::open(dir.string());
    for (const auto& entry : corpus.entries()) {
      const auto segments = split_sessions(corpus.load(entry), scfg.idle_cutoff);
      for (std::size_t s = 0; s < segments.size(); ++s) {
        batch[{static_cast<std::uint32_t>(entry.seq), static_cast<std::uint32_t>(s)}] =
            pipeline->classify_trace(segments[s], segments[s].front().time);
      }
    }
    oracle.emplace(std::move(reference), std::move(batch));
  }
  scfg.workers = plan.daemon_workers();

  Outcome out;
  std::vector<double> lag_p50, lag_p99, late_p50, late_p99, unpaced_s, open_s, untraced_rep_s;
  std::vector<int> traced_runs;
  stream::StreamStats unpaced_stats;
  std::size_t bad_paced = 0, bad_unpaced = 0;

  // Nothing in the timed phase but the daemon passes uses the pool.
  std::optional<ScopedPool> daemon_pool(std::in_place, plan.daemon_pool());
  const CpuTimes cpu0 = cpu_times();
  const auto wall0 = Clock::now();
  const int reps = repeat_for(o.seconds, 3, [&](int rep) {
    const bool traced = o.trace && rep % 2 == 1;
    tracer.set_enabled(traced);
    tracer.set_run(rep);
    const auto rep0 = Clock::now();
    std::optional<Scope> run(std::in_place, tracer, "run");

    // Paced pass. The sink stamps each verdict's arrival; a verdict is due
    // at start + time / speed.
    Pacer pacer;
    std::vector<stream::VerdictRecord> verdicts;
    std::vector<Clock::time_point> arrived;
    {
      std::optional<stream::ReplaySource> source;
      {
        Scope s(tracer, "tracestore.open");
        source.emplace(dir.string());
      }
      stream::StreamConfig paced = scfg;
      paced.pacer = [&pacer](TimeMs sim) { pacer.wait(sim); };
      stream::CallbackSink sink([&](const stream::VerdictRecord& v) {
        arrived.push_back(Clock::now());
        verdicts.push_back(v);
      });
      Scope s(tracer, "stream.run_paced");
      stream::StreamDaemon daemon(*pipeline->model(), paced);
      pacer.start = Clock::now();
      daemon.run(*source, sink);
    }
    std::vector<std::string> lines;
    for (const auto& v : verdicts) lines.push_back(stream::to_csv(v));
    if (o.corrupt && rep == 0 && !lines.empty()) lines[lines.size() / 2][0] ^= 0x01;
    const std::vector<bool> ok = oracle->check(verdicts, lines);
    // Lag: a failed or missing verdict counts as over any limit. A final
    // verdict flushed at end of stream arrives before its due time and
    // counts as on time.
    std::vector<double> lags;
    for (std::size_t i = 0; i < ok.size(); ++i) {
      out.attempted += 1;
      if (!ok[i]) {
        ++bad_paced;
        lags.push_back(std::numeric_limits<double>::infinity());
        continue;
      }
      lags.push_back(std::max(
          0.0, std::chrono::duration<double, std::milli>(arrived[i] - pacer.due(verdicts[i].time))
                   .count()));
    }
    lag_p50.push_back(percentile(lags, 50));
    lag_p99.push_back(percentile(lags, 99));
    late_p50.push_back(percentile(pacer.late_ms, 50));
    late_p99.push_back(percentile(pacer.late_ms, 99));

    // Unpaced pass: the ingest ceiling.
    std::optional<stream::ReplaySource> source;
    const auto o0 = Clock::now();
    {
      Scope s(tracer, "tracestore.open");
      source.emplace(dir.string());
    }
    open_s.push_back(seconds_between(o0, Clock::now()));
    stream::CollectorSink sink;
    stream::StreamDaemon daemon(*pipeline->model(), scfg);
    const auto t0 = Clock::now();
    {
      Scope s(tracer, "stream.run");
      unpaced_stats = daemon.run(*source, sink);
    }
    unpaced_s.push_back(seconds_between(t0, Clock::now()));
    std::vector<std::string> unpaced_lines;
    for (const auto& v : sink.verdicts()) unpaced_lines.push_back(stream::to_csv(v));
    for (const bool good : oracle->check(sink.verdicts(), unpaced_lines)) {
      out.attempted += 1;
      bad_unpaced += !good;
    }
    run.reset();
    tracer.set_enabled(false);
    if (traced) {
      traced_runs.push_back(rep);
    } else {
      untraced_rep_s.push_back(seconds_between(rep0, Clock::now()));
    }
  });
  const double timed_wall = seconds_between(wall0, Clock::now());
  const CpuTimes cpu1 = cpu_times();
  daemon_pool.reset();
  tracer.set_enabled(false);
  fs::remove_all(dir);
  out.failed = bad_paced + bad_unpaced;

  const double run_s = median(unpaced_s);
  char note[512];
  std::snprintf(note, sizeof note,
                "monitor: %zu verdicts per pass, %d paced passes at %.0fx and as many unpaced; "
                "bad verdicts paced=%zu unpaced=%zu; generator late p50 %.3f ms p99 %.3f ms",
                oracle->size(), reps, kMonitorSpeed, bad_paced, bad_unpaced, median(late_p50),
                median(late_p99));
  out.notes.push_back(note);
  out.end_to_end = {
      {"run_s", run_s, "s"},
      {"capacity_records_per_s", static_cast<double>(unpaced_stats.records) / run_s, "records/s"},
      {"lag_p50_ms", median(lag_p50), "ms"},
      {"lag_p99_ms", median(lag_p99), "ms"},
  };
  if (o.trace) {
    LayerMetrics layers;
    add_cpu_layers(layers, cpu0, cpu1, timed_wall, reps);
    layers.set("tracestore.open_s", median(open_s));
    layers.set("stream.run_s", run_s);
    add_stream_layers(layers, unpaced_stats, scfg);
    layers.set("stream.pacer_late_p50_ms", median(late_p50));
    layers.set("stream.pacer_late_p99_ms", median(late_p99));
    add_trace_layers(layers, tracer, traced_runs, median(untraced_rep_s));
    out.per_layer = layers.finish();
  }
  return out;
}

// ---------------------------------------------------------------------------
// Workload: contacts — targeted lookups, similarity screen and ranking.

struct ContactsPlan {
  tracestore::SynthOptions synth;
  TimeMs t0 = 0;
  TimeMs duration = 0;
  TimeMs t_w = seconds(1);
  std::size_t k = 5;

  std::size_t victims() const { return synth.cells * synth.ues_per_cell; }
};

ContactsPlan contacts_plan(const Options& o) {
  ContactsPlan c;
  c.synth.seed = o.seed;
  c.synth.cells = o.tiny ? 2 : 4;
  c.synth.hours = 21;  // midnight through the evening peak
  c.synth.ues_per_cell = o.tiny ? 4 : 32;
  // Dense enough that nearly every UE is active in the window, so each
  // target's ranking costs about the same and the tail is not one outlier.
  c.synth.sessions_per_ue_hour = 30.0;
  c.synth.corpus.trace.version = tracestore::kFormatVersionV2;
  c.t0 = 20 * kMsPerHour;
  c.duration = minutes(o.tiny ? 2 : 10);
  return c;
}

/// One victim's slice: the (cell, stable RNTI, time window) lookup.
sniffer::Trace scan_victim(const tracestore::Corpus& corpus, const ContactsPlan& c,
                           std::size_t victim, tracestore::RangeScanStats* stats) {
  const std::size_t cell = victim / c.synth.ues_per_cell;
  tracestore::RangeQuery q;
  q.t0 = c.t0;
  q.t1 = c.t0 + c.duration - 1;
  q.rnti = tracestore::synth_rnti(c.synth.seed, cell, victim % c.synth.ues_per_cell);
  q.filter.cell = static_cast<lte::CellId>(cell);
  sniffer::Trace trace;
  for (auto& loaded : corpus.range_scan(q, stats)) {
    trace.insert(trace.end(), loaded.trace.begin(), loaded.trace.end());
  }
  return trace;
}

std::vector<double> direction_series(const sniffer::Trace& trace, lte::Direction dir,
                                     const ContactsPlan& c) {
  sniffer::Trace filtered;
  for (const auto& r : trace) {
    if (r.direction == dir) filtered.push_back(r);
  }
  const auto bins = static_cast<std::size_t>(std::max<TimeMs>(1, c.duration / c.t_w));
  return sniffer::frames_per_bin(filtered, c.t0, c.t_w, bins);
}

/// Brute-force reference rankings: the full target-uplink x
/// candidate-downlink similarity matrix, every pair run in full, and its
/// top k per target (descending similarity, ties to the lower index).
std::vector<std::vector<dtw::Match>> brute_force_rankings(const tracestore::Corpus& corpus,
                                                          const ContactsPlan& c) {
  const std::size_t n = c.victims();
  std::vector<std::vector<double>> ul(n), dl(n);
  for (std::size_t v = 0; v < n; ++v) {
    const sniffer::Trace trace = scan_victim(corpus, c, v, nullptr);
    ul[v] = direction_series(trace, lte::Direction::kUplink, c);
    dl[v] = direction_series(trace, lte::Direction::kDownlink, c);
  }
  dtw::DtwOptions options;
  options.band = static_cast<int>(std::max<std::size_t>(4, ul.front().size() / 8));
  const std::vector<double> matrix = parallel_map(n * n, [&](std::size_t idx) {
    return dtw::series_similarity(ul[idx / n], dl[idx % n], options);
  });
  std::vector<std::vector<dtw::Match>> expected(n);
  for (std::size_t t = 0; t < n; ++t) {
    std::vector<std::size_t> order(n);
    for (std::size_t j = 0; j < n; ++j) order[j] = j;
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return matrix[t * n + a] > matrix[t * n + b];
    });
    for (std::size_t j = 0; j < std::min(c.k, n); ++j) {
      dtw::Match m;
      m.index = order[j];
      m.similarity = matrix[t * n + order[j]];
      expected[t].push_back(m);
    }
  }
  return expected;
}

Outcome run_contacts(const Options& o, Tracer& tracer, std::vector<double>& setup_s) {
  const ContactsPlan c = contacts_plan(o);
  const fs::path dir = fs::path(o.workdir) / "contacts";
  const std::size_t n = c.victims();
  for (int i = 0; i < 3; ++i) {
    const auto t0 = Clock::now();
    fs::remove_all(dir);
    tracestore::synth_city_day(dir.string(), c.synth);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  const auto expected = brute_force_rankings(tracestore::Corpus::open(dir.string()), c);

  Outcome out;
  std::vector<double> untraced_s, rank_p50, rank_p99;
  std::vector<int> traced_runs;
  std::vector<std::map<std::string, double>> per_run;
  tracestore::RangeScanStats scan_stats;
  dtw::SearchStats search;
  std::size_t records = 0;

  const CpuTimes cpu0 = cpu_times();
  const auto wall0 = Clock::now();
  const int reps = repeat_for(o.seconds, 3, [&](int rep) {
    const bool traced = o.trace && rep % 2 == 1;
    tracer.set_enabled(traced);
    tracer.set_run(rep);
    std::vector<attacks::CandidateRanking> rankings(n);
    std::vector<double> rep_rank_ms;
    tracestore::RangeScanStats rep_scan;
    dtw::SearchStats rep_search;
    std::size_t rep_records = 0;
    const auto t0 = Clock::now();
    {
      Scope run(tracer, "run");
      std::optional<tracestore::Corpus> corpus;
      {
        Scope s(tracer, "tracestore.open");
        corpus.emplace(tracestore::Corpus::open(dir.string()));
      }
      std::vector<sniffer::Trace> traces(n);
      for (std::size_t v = 0; v < n; ++v) {
        Scope s(tracer, "tracestore.range_scan");
        tracestore::RangeScanStats st;
        traces[v] = scan_victim(*corpus, c, v, &st);
        rep_scan.files_opened += st.files_opened;
        rep_scan.chunks_decoded += st.chunks_decoded;
        rep_scan.chunks_skipped += st.chunks_skipped;
        rep_records += traces[v].size();
      }
      {
        Scope s(tracer, "dtw.matrix");
        const auto matrix = attacks::trace_similarity_matrix(traces, c.t0, c.t_w, c.duration);
        if (matrix.size() != n * n) throw std::runtime_error("similarity matrix has wrong size");
      }
      for (std::size_t t = 0; t < n; ++t) {
        Scope s(tracer, "dtw.rank");
        const auto r0 = Clock::now();
        rankings[t] =
            attacks::rank_candidate_contacts(traces[t], traces, c.t0, c.t_w, c.duration, c.k);
        rep_rank_ms.push_back(1e3 * seconds_between(r0, Clock::now()));
        const dtw::SearchStats& st = rankings[t].stats;
        rep_search.candidates += st.candidates;
        rep_search.full_dp += st.full_dp;
        rep_search.lb_kim_pruned += st.lb_kim_pruned;
        rep_search.lb_keogh_pruned += st.lb_keogh_pruned;
        rep_search.abandoned += st.abandoned;
      }
    }
    const double wall = seconds_between(t0, Clock::now());
    tracer.set_enabled(false);
    if (traced) {
      traced_runs.push_back(rep);
      per_run.push_back(tracer.totals(rep));
    } else {
      untraced_s.push_back(wall);
      rank_p50.push_back(percentile(rep_rank_ms, 50));
      rank_p99.push_back(percentile(rep_rank_ms, 99));
    }
    scan_stats = rep_scan;
    search = rep_search;
    records = rep_records;
    if (o.corrupt && rep == 0) rankings[n / 2].matches.front().index ^= 1;
    // Each target's ranking is one op: it must equal the brute-force top k.
    for (std::size_t t = 0; t < n; ++t) {
      ++out.attempted;
      const auto& got = rankings[t].matches;
      bool ok = got.size() == expected[t].size();
      for (std::size_t j = 0; ok && j < got.size(); ++j) {
        ok = got[j].index == expected[t][j].index && got[j].similarity == expected[t][j].similarity;
      }
      out.failed += !ok;
    }
  });
  const double timed_wall = seconds_between(wall0, Clock::now());
  const CpuTimes cpu1 = cpu_times();
  fs::remove_all(dir);

  out.notes.push_back("contacts: " + std::to_string(n) + " victims, " + std::to_string(records) +
                      " records scanned, " + std::to_string(search.full_dp) + " of " +
                      std::to_string(search.candidates) + " candidates ran full DPs");
  const double run_s = median(untraced_s);
  // Lag is one ranking's latency (closed loop: each ranking is due when the
  // previous one completes), per repetition, median over repetitions.
  out.end_to_end = {
      {"run_s", run_s, "s"},
      {"capacity_records_per_s", static_cast<double>(records) / run_s, "records/s"},
      {"lag_p50_ms", median(rank_p50), "ms"},
      {"lag_p99_ms", median(rank_p99), "ms"},
  };
  if (o.trace) {
    LayerMetrics layers;
    add_cpu_layers(layers, cpu0, cpu1, timed_wall, reps);
    layers.set("tracestore.open_s", median_over(per_run, "tracestore.open"));
    layers.set("tracestore.range_scan_s", median_over(per_run, "tracestore.range_scan"));
    layers.set("tracestore.files_opened", static_cast<double>(scan_stats.files_opened));
    layers.set("tracestore.chunks_decoded", static_cast<double>(scan_stats.chunks_decoded));
    layers.set("tracestore.chunks_skipped", static_cast<double>(scan_stats.chunks_skipped));
    if (scan_stats.chunks_decoded + scan_stats.chunks_skipped) {
      layers.set("tracestore.chunk_decode_ratio",
                 static_cast<double>(scan_stats.chunks_decoded) /
                     static_cast<double>(scan_stats.chunks_decoded + scan_stats.chunks_skipped));
    }
    layers.set("dtw.matrix_s", median_over(per_run, "dtw.matrix"));
    layers.set("dtw.pairs", static_cast<double>(n * (n + 1) / 2));
    layers.set("dtw.rank_s", median_over(per_run, "dtw.rank"));
    layers.set("dtw.candidates", static_cast<double>(search.candidates));
    layers.set("dtw.full_dp", static_cast<double>(search.full_dp));
    layers.set("dtw.lb_kim_pruned", static_cast<double>(search.lb_kim_pruned));
    layers.set("dtw.lb_keogh_pruned", static_cast<double>(search.lb_keogh_pruned));
    layers.set("dtw.abandoned", static_cast<double>(search.abandoned));
    if (search.candidates) {
      layers.set("dtw.full_dp_ratio", static_cast<double>(search.full_dp) /
                                          static_cast<double>(search.candidates));
    }
    add_trace_layers(layers, tracer, traced_runs, run_s);
    out.per_layer = layers.finish();
  }
  return out;
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto origin = Clock::now();
  Options o;
  try {
    o = parse_options(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ltefp_bench: %s\n", e.what());
    return 2;
  }
  using Workload = Outcome (*)(const Options&, Tracer&, std::vector<double>&);
  const std::map<std::string, Workload> workloads = {
      {"paper", run_paper}, {"city", run_city}, {"monitor", run_monitor}, {"contacts", run_contacts}};
  const auto it = workloads.find(o.workload);
  if (it == workloads.end()) {
    std::fprintf(stderr, "ltefp_bench: unknown workload %s\n", o.workload.c_str());
    return 2;
  }

  Tracer tracer(origin);
  std::vector<double> setup_s;
  Outcome out;
  try {
    fs::create_directories(o.workdir);
    out = it->second(o, tracer, setup_s);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ltefp_bench: %s failed: %s\n", o.workload.c_str(), e.what());
    return 1;
  }
  if (!o.spans_path.empty()) tracer.write(o.spans_path);

  // Host and build fingerprint, a human summary, then the result line.
  const ThreadPlan plan;
  std::printf(
      "{\"fingerprint\": {\"workload\": \"%s\", \"seed\": %llu, \"size\": \"%s\", \"trace\": %d, "
      "\"nproc\": %u, \"cpu_model\": \"%s\", \"simd_tier\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"threads\": %d, \"daemon_workers\": %d, "
      "\"daemon_pool_threads\": %d, \"city_engine_threads\": %d}}\n",
      o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.tiny ? "tiny" : "full",
      o.trace ? 1 : 0, std::thread::hardware_concurrency(), json_escape(cpu_model()).c_str(),
      to_string(simd_tier()), json_escape(PERFBENCH_COMPILER).c_str(), PERFBENCH_BUILD_TYPE,
      plan.machine, plan.daemon_workers(), plan.daemon_pool(), plan.city_engine());
  for (const auto& note : out.notes) std::printf("# %s\n", note.c_str());
  std::printf("# error_rate %.6g (%zu failed of %zu attempted ops)\n",
              out.attempted ? static_cast<double>(out.failed) / static_cast<double>(out.attempted)
                            : 1.0,
              out.failed, out.attempted);

  std::vector<Metric> metrics;
  if (o.trace) {
    metrics = out.per_layer;
  } else {
    metrics.push_back({"setup_s", median(setup_s), "s"});
    metrics.insert(metrics.end(), out.end_to_end.begin(), out.end_to_end.end());
    metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              out.failed == 0 && out.attempted > 0 ? "true" : "false", out.attempted, out.failed);
  print_metrics(metrics);
  std::printf("}}\n");
  return 0;
}
