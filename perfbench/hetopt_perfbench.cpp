// hetopt_perfbench: the repository's end-to-end benchmark.
//
// One process runs one named workload against the public API of the hetopt
// library (modules core, parallel, automata, dna, opt, ml), checks every
// scan, measurement and winner re-score against an oracle computed in
// set-up, and prints one JSON result line as its last line of output:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs half of the time
// untraced and half with spans recorded around every call this file makes
// into the library, prints the per-layer metrics (computed from the spans
// and from counters taken at the same call sites), and writes the spans once
// at exit as a Chrome trace-event file (opens in Perfetto). The metric
// names, their units and which end-to-end metric each layer metric should
// move are listed in BENCHMARK.json and perfbench/METRICS.md.
//
//   hetopt_perfbench --workload scan_resident --seed 1 --seconds 10 --trace 0
//                    [--size full|tiny] [--oracle-skew N]
//                    [--tmp-dir DIR]
//
// The traced run writes its trace file to DIR/trace-<workload>-<seed>.json
// and prints that path as "trace_file" on the line before the result.
// --size tiny shrinks every input for the benchmark's own test.
// --oracle-skew N adds N to every oracle match count (and inflates the
// enumerated optimum of tune_predicted), so a test can prove that a wrong
// oracle is caught: the run then reports failures and exits 1.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "automata/engine_kind.hpp"
#include "automata/match_engine.hpp"
#include "automata/scanner.hpp"
#include "automata/simd/simd_kernels.hpp"
#include "core/evaluator.hpp"
#include "core/executor.hpp"
#include "core/methods.hpp"
#include "core/predictor.hpp"
#include "core/real_workload.hpp"
#include "core/training.hpp"
#include "core/tuning_session.hpp"
#include "core/workload.hpp"
#include "dna/catalog.hpp"
#include "dna/generator.hpp"
#include "dna/paged_genome.hpp"
#include "opt/config_space.hpp"
#include "opt/strategy.hpp"
#include "parallel/schedule.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/machine.hpp"
#include "util/cli.hpp"
#include "util/cpu_features.hpp"
#include "util/rng.hpp"

namespace {

using namespace hetopt;
using Clock = std::chrono::steady_clock;

const Clock::time_point g_process_start = Clock::now();

constexpr double kMiB = 1024.0 * 1024.0;

[[nodiscard]] double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

[[nodiscard]] double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest percentile with at least ten samples beyond it (0 with fewer
/// than eleven samples).
[[nodiscard]] double round_tail(std::vector<double> v) {
  if (v.size() < 11) return 0.0;
  std::sort(v.begin(), v.end());
  return v[v.size() - 11];
}

[[nodiscard]] double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

/// Worker threads available to this process (what `nproc` prints).
[[nodiscard]] unsigned nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

// --- Options -----------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::int64_t oracle_skew = 0;
  std::string tmp_dir = ".";
};

// --- Tracing -----------------------------------------------------------------

/// One span: a call this file made into a library layer. Layers are named by
/// the prefix before the first '.' ("core.measure" belongs to core);
/// "bench.round" is the root of every timed round and belongs to no layer.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  int round = -1;  // -1: set-up or the traced-only layer probes
};

/// Spans stay in memory and are written once at exit. Single-threaded: every
/// span is opened on the benchmark's own thread. Disabled, open() records
/// nothing and reads no clock.
class Tracer {
 public:
  void enable(bool on) noexcept { on_ = on; }
  [[nodiscard]] bool on() const noexcept { return on_; }
  void set_round(int round) noexcept { round_ = round; }

  int open(std::string name) {
    if (!on_) return -1;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(Span{std::move(name), now_ns(), 0, stack_.empty() ? -1 : stack_.back(),
                          round_});
    stack_.push_back(id);
    return id;
  }
  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    stack_.pop_back();
  }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  [[nodiscard]] static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - g_process_start)
        .count();
  }

  bool on_ = false;
  int round_ = -1;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class Scope {
 public:
  Scope(Tracer& tracer, std::string name) : tracer_(tracer), id_(tracer.open(std::move(name))) {}
  ~Scope() { tracer_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

[[nodiscard]] double span_seconds(const Span& s) {
  return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
}

// --- Run state -----------------------------------------------------------------

/// Everything a run accumulates: the operation ledger behind `attempted` /
/// `failed`, the spans, and per-layer samples (recorded only while tracing).
struct Run {
  Options opt;
  unsigned threads = 1;
  Tracer tracer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::vector<double>> samples;

  /// One checked operation; `ok` false counts it failed. `what` builds the
  /// failure message and is called only on failure, so a passing check
  /// costs the timed rounds nothing.
  template <typename What>
  void check(bool ok, const What& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failed <= 5) std::cerr << "perfbench: FAILED " << what() << "\n";
  }
  void sample(const std::string& name, double value) {
    if (tracer.on()) samples[name].push_back(value);
  }
};

[[nodiscard]] const std::vector<std::string>& default_motifs() {
  static const std::vector<std::string> motifs = core::RealWorkloadOptions{}.motifs;
  return motifs;
}

[[nodiscard]] std::string engine_name(automata::EngineKind kind) {
  return std::string(automata::to_string(kind));
}

// --- Workloads -------------------------------------------------------------------

class Bench {
 public:
  virtual ~Bench() = default;
  /// One timed round.
  virtual void round(Run& run) = 0;
  /// Traced-only probes run after the rounds (kernel ceilings, fleet and
  /// pool replays); their spans carry round -1.
  virtual void layer_probes(Run& run) = 0;
  /// Set-up inputs for the provenance line.
  virtual void provenance(std::ostream& os) const = 0;
  /// True when a round is a tuning round (its median is tune_s).
  [[nodiscard]] virtual bool tuning() const noexcept { return false; }
  /// Corpus MiB one round scans on the fleet workloads (0 elsewhere).
  [[nodiscard]] virtual double scanned_mib_per_round() const noexcept { return 0.0; }
};

/// Times a bare ThreadPool of each size start-up and join.
void probe_pools(Run& run, const std::vector<std::size_t>& sizes) {
  for (const std::size_t size : sizes) {
    for (int rep = 0; rep < 16; ++rep) {
      std::unique_ptr<parallel::ThreadPool> pool;
      {
        Scope s(run.tracer, "parallel.pool_spawn");
        pool = std::make_unique<parallel::ThreadPool>(size);
      }
      Scope s(run.tracer, "parallel.pool_join");
      pool.reset();
    }
  }
}

/// Single-thread MatchEngine::count over `text`: the per-core ceiling.
void probe_kernel(Run& run, const automata::MatchEngine& engine, std::string_view text,
                  std::uint64_t oracle) {
  const std::string name = engine_name(engine.kind());
  for (int rep = 0; rep < 3; ++rep) {
    const auto start = Clock::now();
    std::uint64_t matches = 0;
    {
      Scope s(run.tracer, "automata.kernel." + name);
      matches = engine.count(text);
    }
    const double secs = seconds_since(start);
    run.check(matches == oracle, [&] {
      return "kernel " + name + " count " + std::to_string(matches) + " != oracle " +
             std::to_string(oracle);
    });
    run.sample("automata.kernel_mb_s." + name, static_cast<double>(text.size()) / kMiB / secs);
  }
}

/// The fleet workloads: the paper's host + 1 device pair, nproc/2 threads
/// each, deliberately skewed 75/25, scanning one corpus with {compiled-dfa,
/// bitap-simd} x {static, adaptive} per round — from memory (scan_resident)
/// or streamed from a raw file through a PagedGenome (scan_paged).
class ScanBench final : public Bench {
 public:
  static constexpr std::array<automata::EngineKind, 2> kEngines{
      automata::EngineKind::kCompiledDfa, automata::EngineKind::kBitapSimd};
  static constexpr std::array<parallel::SchedulePolicy, 2> kSchedules{
      parallel::SchedulePolicy::kStatic, parallel::SchedulePolicy::kAdaptive};
  static inline const std::vector<double> kShares{75.0, 25.0};

  ScanBench(Run& run, bool paged, int instance) : run_(run), paged_(paged) {
    // 64 MiB is RealWorkloadOptions::max_physical_bytes, the corpus clamp.
    const std::size_t bytes =
        run.opt.tiny ? std::size_t{1} << 20 : core::RealWorkloadOptions{}.max_physical_bytes;
    const dna::GenomeCatalog catalog;
    {
      // The default motifs occur tens of thousands of times in 64 MiB of
      // Markov sequence; nothing needs planting.
      Scope s(run.tracer, "dna.generate");
      corpus_ = dna::GenomeGenerator(catalog.get("human").markov).generate(bytes, run.opt.seed);
    }
    const std::string_view sample = std::string_view(corpus_).substr(0, 1u << 20);
    for (std::size_t i = 0; i < kEngines.size(); ++i) {
      Scope s(run.tracer, "automata.engine_build." + engine_name(kEngines[i]));
      engines_[i] = automata::lower(kEngines[i], default_motifs(), sample);
    }
    {
      Scope s(run.tracer, "automata.naive_oracle");
      const automata::DenseDfa& dfa = *engines_[0]->dfa();
      oracle_ = automata::scan_count_naive(dfa, corpus_, dfa.start()).match_count +
                static_cast<std::uint64_t>(run.opt.oracle_skew);
    }
    pool_threads_ = std::max<std::size_t>(1, run.threads / 2);
    for (std::size_t i = 0; i < kEngines.size(); ++i) {
      Scope s(run.tracer, "core.fleet_build");
      std::vector<core::PoolSpec> specs(2);
      for (std::size_t p = 0; p < specs.size(); ++p) {
        specs[p].threads = pool_threads_;
        specs[p].share_percent = kShares[p];
      }
      fleets_[i] = std::make_unique<core::HeterogeneousExecutor>(*engines_[i], std::move(specs));
    }
    if (paged_) {
      path_ = run.opt.tmp_dir + "/perfbench-" + std::to_string(::getpid()) + "-" +
              std::to_string(instance) + ".raw";
      {
        Scope s(run.tracer, "dna.fixture_write");
        std::ofstream out(path_, std::ios::binary | std::ios::trunc);
        out.write(corpus_.data(), static_cast<std::streamsize>(corpus_.size()));
        out.close();
        if (!out) throw std::runtime_error("perfbench: cannot write " + path_);
      }
      dna::PagedGenomeOptions gopts;
      // About 1/8 of the corpus resident, and at least two pages per fleet
      // worker: the budget must cover one pin per worker, and the rest feeds
      // the prefetch rings. The page count grows with the fleet (32 pages per
      // pool thread) so that 1/8 of the pages always covers that minimum.
      gopts.page_bytes = std::max<std::size_t>(4096, bytes / (32 * pool_threads_));
      const std::size_t pages = (bytes + gopts.page_bytes - 1) / gopts.page_bytes;
      gopts.resident_pages = std::max<std::size_t>(pages / 8, 4 * pool_threads_);
      genome_ = std::make_unique<dna::PagedGenome>(
          std::make_unique<dna::FilePageSource>(path_), gopts);
    }
  }

  ~ScanBench() override {
    for (auto& fleet : fleets_) {
      Scope s(run_.tracer, "core.fleet_teardown");
      fleet.reset();
    }
    genome_.reset();
    if (!path_.empty()) std::remove(path_.c_str());
  }

  [[nodiscard]] double scanned_mib_per_round() const noexcept override {
    return static_cast<double>(kEngines.size() * kSchedules.size() * corpus_.size()) / kMiB;
  }

  void round(Run& run) override {
    for (std::size_t e = 0; e < kEngines.size(); ++e) {
      for (const parallel::SchedulePolicy schedule : kSchedules) {
        scan(run, e, schedule);
      }
    }
  }

  void layer_probes(Run& run) override {
    for (const auto& engine : engines_) probe_kernel(run, *engine, corpus_, oracle_);
    probe_pools(run, {pool_threads_});
    // Computed, not measured: every chunk re-reads (synchronization bound -
    // 1) lead bytes. One chunk per worker per segment in memory, one per
    // worker per page on the paged path.
    const double chunks = paged_ ? static_cast<double>(genome_->page_count() * pool_threads_)
                                 : static_cast<double>(2 * pool_threads_);
    for (const auto& engine : engines_) {
      run.sample("automata.warmup_bytes_frac",
                 chunks * static_cast<double>(engine->synchronization_bound() - 1) /
                     static_cast<double>(corpus_.size()));
    }
  }

  void provenance(std::ostream& os) const override {
    os << "\"corpus_bytes\": " << corpus_.size()
       << ", \"corpus_source\": \"GenomeGenerator(human Markov params, workload seed)\""
       << ", \"fleet_threads\": [" << pool_threads_ << ", " << pool_threads_ << "]"
       << ", \"shares_percent\": [75, 25]";
    if (paged_) {
      os << ", \"page_bytes\": " << genome_->options().page_bytes
         << ", \"resident_pages\": " << genome_->options().resident_pages
         << ", \"page_count\": " << genome_->page_count()
         << ", \"prefetch_depth\": " << core::PagedFleetOptions{}.prefetch_depth;
    }
  }

 private:
  void scan(Run& run, std::size_t e, parallel::SchedulePolicy schedule) {
    const std::string tag =
        engine_name(kEngines[e]) + "." + std::string(parallel::to_string(schedule));
    const dna::CacheStats before = paged_ ? genome_->stats() : dna::CacheStats{};
    core::ExecutionReport report;
    const auto start = Clock::now();
    try {
      Scope s(run.tracer, "core.run_fleet");
      if (paged_) {
        core::PagedFleetOptions po;
        po.schedule = schedule;
        report = fleets_[e]->run_fleet_paged(*genome_, kShares, po);
      } else {
        report = fleets_[e]->run_fleet(corpus_, kShares, schedule);
      }
    } catch (const std::exception& ex) {
      run.check(false, [&] { return "scan " + tag + " threw: " + ex.what(); });
      return;
    }
    const double wall = seconds_since(start);
    run.check(report.total_matches() == oracle_, [&] {
      return "scan " + tag + " matches " + std::to_string(report.total_matches()) +
             " != oracle " + std::to_string(oracle_);
    });
    if (!run.tracer.on()) return;

    double slowest = 0.0;
    double busy = 0.0;
    for (const core::PoolReport& pool : report.pools) {
      slowest = std::max(slowest, pool.seconds);
      busy += pool.seconds;
    }
    const double pools = static_cast<double>(report.pools.size());
    run.sample("core.dispatch_overhead_s", wall - slowest);
    run.sample("core.imbalance." + tag, report.imbalance);
    run.sample("core.pool_idle_frac." + tag,
               report.total_seconds > 0.0 ? 1.0 - busy / (pools * report.total_seconds) : 0.0);
    run.sample("core.steals." + tag,
               static_cast<double>(report.host_steals + report.device_steals));
    run.sample("core.realized_host_pct." + tag, report.realized_host_percent);
    run.sample("run_mb_s." + tag, static_cast<double>(corpus_.size()) / kMiB / wall);
    if (paged_) {
      const dna::CacheStats after = genome_->stats();
      const auto delta = [](std::uint64_t a, std::uint64_t b) {
        return static_cast<double>(a - b);
      };
      const double hits = delta(after.hits, before.hits);
      const double stalls = delta(after.cold_stalls, before.cold_stalls);
      const double load_s = after.load_seconds - before.load_seconds;
      const double stall_s = after.cold_stall_seconds - before.cold_stall_seconds;
      run.sample("dna.page_loads", delta(after.loads, before.loads));
      run.sample("dna.hit_ratio", hits + stalls > 0.0 ? hits / (hits + stalls) : 0.0);
      run.sample("dna.evictions", delta(after.evictions, before.evictions));
      run.sample("dna.backpressure_waits",
                 delta(after.backpressure_waits, before.backpressure_waits));
      run.sample("dna.load_s", load_s);
      run.sample("dna.cold_stall_s", stall_s);
      run.sample("dna.cold_stalls", stalls);
      if (load_s > 0.0) run.sample("dna.overlap_eff", 1.0 - stall_s / load_s);
      run.sample("dna.read_amplification", delta(after.bytes_read, before.bytes_read) /
                                               static_cast<double>(corpus_.size()));
    }
  }

  Run& run_;
  bool paged_;
  std::string corpus_;
  std::uint64_t oracle_ = 0;
  std::size_t pool_threads_ = 1;
  std::array<std::unique_ptr<const automata::MatchEngine>, kEngines.size()> engines_;
  std::array<std::unique_ptr<core::HeterogeneousExecutor>, kEngines.size()> fleets_;
  std::string path_;
  std::unique_ptr<dna::PagedGenome> genome_;
};

/// RealWorkloadEvaluator behind a span per measurement, with every
/// measurement's match count checked against the naive-scan oracle.
class CheckedRealEvaluator final : public core::Evaluator {
 public:
  CheckedRealEvaluator(const core::RealWorkloadEvaluator& inner, Run& run, std::uint64_t oracle)
      : inner_(inner), run_(run), oracle_(oracle) {}

  [[nodiscard]] std::string_view name() const noexcept override { return "real-workload"; }
  /// The §IV-C re-score of a session's winner: one more real run.
  [[nodiscard]] double score(const opt::SystemConfig& config,
                             const core::Workload& workload) const override {
    return measure(config, workload, true);
  }
  /// Candidates measured during the traced rounds (the fleet replay input).
  [[nodiscard]] const std::vector<opt::SystemConfig>& candidates() const noexcept {
    return candidates_;
  }

 protected:
  [[nodiscard]] double value(const opt::SystemConfig& config,
                             const core::Workload& workload) const override {
    return measure(config, workload, false);
  }
  [[nodiscard]] bool concurrent() const noexcept override { return false; }

 private:
  double measure(const opt::SystemConfig& config, const core::Workload& workload,
                 bool winner) const {
    core::RealMeasurement m;
    try {
      Scope s(run_.tracer, winner ? "core.rescore" : "core.measure");
      m = inner_.measure(config, workload);
    } catch (const std::exception& ex) {
      run_.check(false,
                 [&] { return "measure " + opt::to_string(config) + " threw: " + ex.what(); });
      return std::numeric_limits<double>::infinity();
    }
    // A measurement that threw and then succeeded on a retry still fails.
    run_.check(m.valid && m.matches == oracle_ && m.measure_failures == 0, [&] {
      return std::string(winner ? "winner re-scan " : "measurement ") + opt::to_string(config) +
             (m.valid ? "" : " invalid") + " matches " + std::to_string(m.matches) +
             " (oracle " + std::to_string(oracle_) + "), " +
             std::to_string(m.measure_failures) + " failed attempts";
    });
    run_.sample("core.measure_failures", static_cast<double>(m.measure_failures));
    run_.sample("core.invalid_measurements", m.valid ? 0.0 : 1.0);
    if (winner) {
      run_.sample("opt.winner_mb_s", m.throughput_mb_s);
    } else if (run_.tracer.on()) {
      candidates_.push_back(config);
    }
    return m.valid ? m.seconds : std::numeric_limits<double>::infinity();
  }

  const core::RealWorkloadEvaluator& inner_;
  Run& run_;
  std::uint64_t oracle_;
  mutable std::vector<opt::SystemConfig> candidates_;
};

/// The paper's tuner on live code: one EM session then one SAM session over
/// the real thread/affinity/fraction axes (host and device threads each at
/// most nproc/2) times every engine the default motif set supports. No input
/// depends on the workload seed: the corpus comes from the catalog's
/// name-derived seed and the SAM seed is fixed.
class TuneMeasuredBench final : public Bench {
 public:
  explicit TuneMeasuredBench(Run& run)
      : workload_("human", catalog_.get("human").size_mb) {
    if (run.opt.tiny) options_.bytes_per_logical_mb = 16.0;  // the 64 KiB clamp
    evaluator_ = std::make_unique<core::RealWorkloadEvaluator>(catalog_, options_);
    {
      Scope s(run.tracer, "core.real_workload");
      rw_ = &evaluator_->real(workload_);
    }
    oracle_ = rw_->sequential_matches() + static_cast<std::uint64_t>(run.opt.oracle_skew);
    checked_ = std::make_shared<CheckedRealEvaluator>(*evaluator_, run, oracle_);

    const opt::ConfigSpace real = opt::ConfigSpace::real(run.threads);
    const int cap = std::max(1, static_cast<int>(run.threads) / 2);
    const auto cut = [cap](const std::vector<int>& axis) {
      std::vector<int> out;
      for (const int t : axis) {
        if (t <= cap) out.push_back(t);
      }
      return out;
    };
    space_ = std::make_unique<opt::ConfigSpace>(
        cut(real.host_threads()), real.host_affinities(), cut(real.device_threads()),
        real.device_affinities(), real.fractions(), rw_->engines());
    sa_iterations_ = std::max<std::size_t>(2, space_->size() / 20);
  }

  [[nodiscard]] bool tuning() const noexcept override { return true; }

  void round(Run& run) override {
    std::size_t evaluations = 0;
    for (const bool annealing : {false, true}) {
      Scope s(run.tracer, "opt.session");
      core::TuningSession session(*space_);
      if (annealing) {
        session
            .with_strategy(std::make_shared<opt::AnnealingSearch>(
                core::sa_params_for_iterations(sa_iterations_, kSamSeed)))
            .with_budget(sa_iterations_ + 1)
            .with_seed(kSamSeed);
      } else {
        session.with_strategy(std::make_shared<opt::ExhaustiveSearch>())
            .with_budget(space_->size());
      }
      session.with_evaluator(checked_);
      try {
        evaluations += session.run(workload_).evaluations;
      } catch (const std::exception& ex) {
        run.check(false, [&] { return std::string("tuning session threw: ") + ex.what(); });
      }
    }
    run.sample("opt.evaluations", static_cast<double>(evaluations));
  }

  void layer_probes(Run& run) override {
    // What RealWorkload's constructor does, split into its layers.
    const std::size_t bytes = rw_->physical_bytes();
    std::string corpus;
    {
      Scope s(run.tracer, "dna.generate");
      corpus = catalog_.materialize("human", bytes).view();
    }
    const std::string_view sample = rw_->text().substr(0, std::min<std::size_t>(bytes, 1u << 20));
    for (const automata::EngineKind kind : rw_->engines()) {
      Scope s(run.tracer, "automata.engine_build." + engine_name(kind));
      const auto engine = automata::lower(kind, options_.motifs, sample);
    }
    for (const automata::EngineKind kind : rw_->engines()) {
      probe_kernel(run, rw_->engine(kind), rw_->text(), oracle_);
    }

    // Replay a sample of the traced rounds' candidates with the fleet
    // construction, run and teardown timed apart (measure() does all three
    // inside one call). Pinning matches RealWorkloadOptions::pin_threads.
    const std::vector<opt::SystemConfig>& candidates = checked_->candidates();
    const std::size_t step = std::max<std::size_t>(1, candidates.size() / 96);
    std::vector<std::size_t> sizes;
    for (std::size_t i = 0; i < candidates.size(); i += step) {
      const opt::SystemConfig& c = candidates[i];
      std::vector<core::PoolSpec> specs(2);
      specs[0].threads = static_cast<std::size_t>(c.host_threads);
      specs[0].share_percent = c.host_percent;
      specs[0].chunks = specs[0].threads * options_.chunks_per_thread;
      specs[0].host_affinity = c.host_affinity;
      specs[1].threads = static_cast<std::size_t>(c.device_threads);
      specs[1].share_percent = 100.0 - c.host_percent;
      specs[1].chunks = specs[1].threads * options_.chunks_per_thread;
      specs[1].device_affinity = c.device_affinity;
      sizes.push_back(specs[0].threads);
      sizes.push_back(specs[1].threads);
      std::unique_ptr<core::HeterogeneousExecutor> fleet;
      {
        Scope s(run.tracer, "core.fleet_build");
        fleet = std::make_unique<core::HeterogeneousExecutor>(rw_->engine(c.engine),
                                                              std::move(specs));
      }
      core::ExecutionReport report;
      const auto start = Clock::now();
      try {
        Scope s(run.tracer, "core.run_fleet");
        report = fleet->run_fleet(rw_->text(), c.schedule);
      } catch (const std::exception& ex) {
        run.check(false, [&] {
          return "replayed fleet " + opt::to_string(c) + " threw: " + ex.what();
        });
        continue;
      }
      const double wall = seconds_since(start);
      run.check(report.total_matches() == oracle_, [&] {
        return "replayed fleet " + opt::to_string(c) + " matches " +
               std::to_string(report.total_matches()) + " != oracle " + std::to_string(oracle_);
      });
      double slowest = 0.0;
      for (const core::PoolReport& pool : report.pools) slowest = std::max(slowest, pool.seconds);
      run.sample("core.dispatch_overhead_s", wall - slowest);
      Scope s(run.tracer, "core.fleet_teardown");
      fleet.reset();
    }
    std::sort(sizes.begin(), sizes.end());
    sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
    probe_pools(run, sizes);
  }

  void provenance(std::ostream& os) const override {
    os << "\"corpus_bytes\": " << rw_->physical_bytes()
       << ", \"corpus_source\": \"GenomeCatalog::materialize(human), catalog name-derived seed\""
       << ", \"space_size\": " << space_->size() << ", \"sam_iterations\": " << sa_iterations_;
    const auto list = [&os](const char* key, const auto& values, auto&& item) {
      os << ", \"" << key << "\": [";
      for (std::size_t i = 0; i < values.size(); ++i) os << (i ? ", " : "") << item(values[i]);
      os << "]";
    };
    const auto same = [](int t) { return t; };
    list("host_threads_axis", space_->host_threads(), same);
    list("device_threads_axis", space_->device_threads(), same);
    list("engines", space_->engines(),
         [](automata::EngineKind e) { return '"' + engine_name(e) + '"'; });
  }

 private:
  const dna::GenomeCatalog catalog_;
  const core::Workload workload_;
  core::RealWorkloadOptions options_;
  std::unique_ptr<core::RealWorkloadEvaluator> evaluator_;
  const core::RealWorkload* rw_ = nullptr;
  std::uint64_t oracle_ = 0;
  std::shared_ptr<CheckedRealEvaluator> checked_;
  std::unique_ptr<opt::ConfigSpace> space_;
  std::size_t sa_iterations_ = 2;
  // Fixed, so every workload seed measures the same candidates: a seeded
  // SAM path through slow corners of the space would move tune_s by itself.
  static constexpr std::uint64_t kSamSeed = 0x7475;
};

/// PerformancePredictor behind a span per prediction; winners are re-scored
/// by simulated measurement and checked against the enumerated optimum (no
/// configuration can measure faster than the exhaustive minimum).
class CheckedPredictionEvaluator final : public core::Evaluator {
 public:
  CheckedPredictionEvaluator(const core::PerformancePredictor& predictor,
                             const core::MeasurementEvaluator& measurement, Run& run,
                             double optimum)
      : predictor_(predictor), measurement_(measurement), run_(run), optimum_(optimum) {}

  [[nodiscard]] std::string_view name() const noexcept override { return "prediction"; }
  [[nodiscard]] double score(const opt::SystemConfig& config,
                             const core::Workload& workload) const override {
    double seconds = 0.0;
    try {
      Scope s(run_.tracer, "core.rescore");
      seconds = measurement_.score(config, workload);
    } catch (const std::exception& ex) {
      run_.check(false, [&] { return std::string("re-score threw: ") + ex.what(); });
      return std::numeric_limits<double>::infinity();
    }
    run_.check(std::isfinite(seconds) && seconds >= optimum_ * (1.0 - 1e-12), [&] {
      return "winner " + opt::to_string(config) + " measures " + std::to_string(seconds) +
             " s, below the enumerated optimum " + std::to_string(optimum_) + " s";
    });
    return seconds;
  }

  /// Record every candidate (in evaluation order) while set.
  void record(std::vector<opt::SystemConfig>* out) noexcept { record_ = out; }

 protected:
  [[nodiscard]] double value(const opt::SystemConfig& config,
                             const core::Workload& workload) const override {
    double seconds = 0.0;
    try {
      Scope s(run_.tracer, "ml.predict");
      seconds = predictor_.predict_combined(config, workload.size_mb);
    } catch (const std::exception& ex) {
      run_.check(false, [&] { return std::string("prediction threw: ") + ex.what(); });
      return std::numeric_limits<double>::infinity();
    }
    run_.check(std::isfinite(seconds) && seconds >= 0.0, [&] {
      return "prediction " + opt::to_string(config) + " = " + std::to_string(seconds);
    });
    if (record_ != nullptr) record_->push_back(config);
    return seconds;
  }
  [[nodiscard]] bool concurrent() const noexcept override { return false; }

 private:
  const core::PerformancePredictor& predictor_;
  const core::MeasurementEvaluator& measurement_;
  Run& run_;
  double optimum_;
  std::vector<opt::SystemConfig>* record_ = nullptr;
};

/// The ML tuner on the paper space: one EML and one SAML session on the
/// simulated Emil machine, with the predictor trained in set-up on the
/// paper's 7200-experiment sweep.
class TunePredictedBench final : public Bench {
 public:
  explicit TunePredictedBench(Run& run)
      : machine_(sim::emil_machine()),
        measurement_(machine_),
        workload_("human", catalog_.get("human").size_mb),
        space_(run.opt.tiny ? opt::ConfigSpace::tiny() : opt::ConfigSpace::paper()),
        sa_iterations_(run.opt.tiny ? 40 : 1000),
        sa_seed_(util::Xoshiro256(run.opt.seed ^ 0x73616d6cULL)()) {
    core::TrainingData data;
    {
      Scope s(run.tracer, "core.training_sweep");
      data = core::generate_training_data(machine_, catalog_,
                                          run.opt.tiny ? core::TrainingSweepOptions::tiny()
                                                       : core::TrainingSweepOptions::paper());
    }
    {
      Scope s(run.tracer, "ml.fit");
      predictor_.train(data.host, data.device);
    }
    {
      Scope s(run.tracer, "core.enumerated_optimum");
      optimum_ = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < space_.size(); ++i) {
        optimum_ = std::min(optimum_, measurement_.score(space_.at(i), workload_));
      }
      if (run.opt.oracle_skew != 0) optimum_ *= 2.0;
    }
    // Prediction error on a held-out sample drawn from the workload seed.
    util::Xoshiro256 rng(run.opt.seed);
    double error = 0.0;
    constexpr int kHeldOut = 512;
    for (int i = 0; i < kHeldOut; ++i) {
      const opt::SystemConfig c = space_.random(rng);
      const double measured = measurement_.score(c, workload_);
      error += std::abs(predictor_.predict_combined(c, workload_.size_mb) - measured) / measured;
    }
    mape_pct_ = 100.0 * error / kHeldOut;
    checked_ = std::make_shared<CheckedPredictionEvaluator>(predictor_, measurement_, run,
                                                           optimum_);
  }

  [[nodiscard]] bool tuning() const noexcept override { return true; }

  void round(Run& run) override {
    std::size_t evaluations = 0;
    std::vector<opt::SystemConfig> saml_candidates;
    for (const bool annealing : {false, true}) {
      Scope s(run.tracer, "opt.session");
      core::TuningSession session(space_);
      if (annealing) {
        session
            .with_strategy(std::make_shared<opt::AnnealingSearch>(
                core::sa_params_for_iterations(sa_iterations_, sa_seed_)))
            .with_budget(sa_iterations_ + 1)
            .with_seed(sa_seed_);
        if (run.tracer.on()) checked_->record(&saml_candidates);
      } else {
        session.with_strategy(std::make_shared<opt::ExhaustiveSearch>())
            .with_budget(space_.size())
            .with_seed(run.opt.seed);
      }
      session.with_evaluator(checked_);
      try {
        const core::SessionReport report = session.run(workload_);
        evaluations += report.evaluations;
        // Same seed, same inputs: the winners must repeat exactly.
        opt::SystemConfig& first = annealing ? first_saml_ : first_eml_;
        if (rounds_ == 0) first = report.config;
        run.check(report.config == first, [&] {
          return "winner " + opt::to_string(report.config) + " differs from the first round's " +
                 opt::to_string(first);
        });
        if (annealing) {
          run.sample("winner_gap_pct",
                     100.0 * (report.measured_time - optimum_) / optimum_);
        }
      } catch (const std::exception& ex) {
        run.check(false, [&] { return std::string("tuning session threw: ") + ex.what(); });
      }
      checked_->record(nullptr);
    }
    ++rounds_;
    run.sample("opt.evaluations", static_cast<double>(evaluations));
    if (!saml_candidates.empty()) {
      // One past the budget when no candidate gets within 5%.
      double first_within = static_cast<double>(saml_candidates.size() + 1);
      for (std::size_t i = 0; i < saml_candidates.size(); ++i) {
        if (measurement_.score(saml_candidates[i], workload_) <= 1.05 * optimum_) {
          first_within = static_cast<double>(i + 1);
          break;
        }
      }
      run.sample("opt.evals_to_5pct", first_within);
    }
  }

  void layer_probes(Run& run) override { run.sample("ml.mape_pct", mape_pct_); }

  void provenance(std::ostream& os) const override {
    os << "\"corpus_bytes\": 0, \"corpus_source\": \"none (simulated Emil machine, human "
          "genome, logical "
       << workload_.size_mb << " MB)\", \"space_size\": " << space_.size()
       << ", \"saml_iterations\": " << sa_iterations_ << ", \"enumerated_optimum_s\": "
       << std::setprecision(17) << optimum_;
  }

 private:
  const dna::GenomeCatalog catalog_;
  const sim::Machine machine_;
  const core::MeasurementEvaluator measurement_;
  const core::Workload workload_;
  const opt::ConfigSpace space_;
  const std::size_t sa_iterations_;
  const std::uint64_t sa_seed_;
  core::PerformancePredictor predictor_;
  double optimum_ = 0.0;
  double mape_pct_ = 0.0;
  std::shared_ptr<CheckedPredictionEvaluator> checked_;
  std::size_t rounds_ = 0;
  opt::SystemConfig first_eml_;
  opt::SystemConfig first_saml_;
};

[[nodiscard]] std::unique_ptr<Bench> make_bench(Run& run, int instance) {
  const std::string& w = run.opt.workload;
  if (w == "tune_measured") return std::make_unique<TuneMeasuredBench>(run);
  if (w == "scan_resident") return std::make_unique<ScanBench>(run, false, instance);
  if (w == "scan_paged") return std::make_unique<ScanBench>(run, true, instance);
  if (w == "tune_predicted") return std::make_unique<TunePredictedBench>(run);
  return nullptr;
}

// --- Metrics -------------------------------------------------------------------

struct MetricDef {
  std::string name;
  std::string unit;
};

[[nodiscard]] std::vector<MetricDef> end_to_end_metrics() {
  return {{"setup_s", "s"}, {"round_s", "s"}, {"peak_rss_mb", "MiB"}};
}

[[nodiscard]] std::vector<MetricDef> per_layer_metrics() {
  std::vector<MetricDef> m = {
      // Workload-specific end-to-end figures, from the traced run's untraced
      // half; BENCHMARK.json's end_to_end list holds only metrics that every
      // workload has.
      {"tune_s", "s"},
      {"scan_mb_s", "MiB/s"},
      {"scan_round_tail_s", "s"},
      {"winner_gap_pct", "%"},
      {"fail_frac", "frac"},
      {"core.measure_s", "s"},
      {"core.measure_count", "count"},
      {"core.fleet_build_s", "s"},
      {"core.fleet_teardown_s", "s"},
      {"core.run_fleet_s", "s"},
      {"core.dispatch_overhead_s", "s"},
  };
  for (const std::string kind : {"imbalance", "pool_idle_frac", "steals", "realized_host_pct"}) {
    const std::string unit = kind == "steals" ? "count" : kind == "realized_host_pct" ? "%"
                                                                                       : "frac";
    for (const automata::EngineKind e : ScanBench::kEngines) {
      for (const parallel::SchedulePolicy s : ScanBench::kSchedules) {
        m.push_back({"core." + kind + "." + engine_name(e) + "." +
                         std::string(parallel::to_string(s)),
                     unit});
      }
    }
  }
  m.push_back({"core.measure_failures", "count"});
  m.push_back({"core.invalid_measurements", "count"});
  m.push_back({"core.training_sweep_s", "s"});
  m.push_back({"parallel.pool_spawn_s", "s"});
  m.push_back({"parallel.pool_join_s", "s"});
  for (const automata::EngineKind e : automata::kAllEngineKinds) {
    m.push_back({"automata.kernel_mb_s." + engine_name(e), "MiB/s"});
  }
  for (const automata::EngineKind e : ScanBench::kEngines) {
    for (const parallel::SchedulePolicy s : ScanBench::kSchedules) {
      m.push_back({"automata.parallel_eff." + engine_name(e) + "." +
                       std::string(parallel::to_string(s)),
                   "frac"});
    }
  }
  for (const automata::EngineKind e : automata::kAllEngineKinds) {
    m.push_back({"automata.engine_build_s." + engine_name(e), "s"});
  }
  m.push_back({"automata.warmup_bytes_frac", "frac_computed"});
  for (const MetricDef& d : std::vector<MetricDef>{
           {"dna.generate_s", "s"},
           {"dna.fixture_write_s", "s"},
           {"dna.page_loads", "count"},
           {"dna.hit_ratio", "frac"},
           {"dna.evictions", "count"},
           {"dna.backpressure_waits", "count"},
           {"dna.load_s", "s"},
           {"dna.cold_stall_s", "s"},
           {"dna.cold_stalls", "count"},
           {"dna.overlap_eff", "frac"},
           {"dna.read_amplification", "ratio"},
           {"opt.evaluations", "count"},
           {"opt.search_overhead_s", "s"},
           {"opt.winner_mb_s", "MiB/s"},
           {"opt.evals_to_5pct", "count"},
           {"ml.fit_s", "s"},
           {"ml.predict_us", "us"},
           {"ml.predictions", "count"},
           {"ml.mape_pct", "%"},
           {"trace.unaccounted_frac", "frac"},
           {"trace.overhead_pct", "%"},
       }) {
    m.push_back(d);
  }
  for (const char* layer : {"core", "parallel", "automata", "dna", "opt", "ml"}) {
    m.push_back({std::string("trace.self_s.") + layer, "s"});
  }
  return m;
}

[[nodiscard]] std::string layer_of(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

/// Per-layer values from the spans and samples of the traced phase. Metrics
/// a workload does not exercise stay 0.
[[nodiscard]] std::map<std::string, double> layer_values(const Run& run,
                                                         const std::vector<double>& untraced,
                                                         const std::vector<double>& traced) {
  std::map<std::string, double> v;
  for (const auto& [name, samples] : run.samples) v[name] = median(samples);
  for (const char* name : {"core.measure_failures", "core.invalid_measurements"}) {
    const auto it = run.samples.find(name);
    v[name] = it == run.samples.end() ? 0.0 : sum(it->second);
  }

  const std::vector<Span>& spans = run.tracer.spans();
  std::map<std::string, std::vector<double>> durations;
  for (const Span& s : spans) durations[s.name].push_back(span_seconds(s));
  const auto span_median = [&](const std::string& name) {
    const auto it = durations.find(name);
    return it == durations.end() ? 0.0 : median(it->second);
  };
  for (const char* name : {"core.measure", "core.fleet_build", "core.fleet_teardown",
                           "core.run_fleet", "core.training_sweep", "parallel.pool_spawn",
                           "parallel.pool_join", "dna.generate", "dna.fixture_write",
                           "ml.fit"}) {
    v[std::string(name) + "_s"] = span_median(name);
  }
  v["ml.predict_us"] = span_median("ml.predict") * 1e6;
  for (const automata::EngineKind e : automata::kAllEngineKinds) {
    v["automata.engine_build_s." + engine_name(e)] =
        span_median("automata.engine_build." + engine_name(e));
  }
  const double fleet_threads = static_cast<double>(2 * std::max(1u, run.threads / 2));
  for (const automata::EngineKind e : ScanBench::kEngines) {
    const double kernel = v["automata.kernel_mb_s." + engine_name(e)];
    for (const parallel::SchedulePolicy s : ScanBench::kSchedules) {
      const std::string tag = engine_name(e) + "." + std::string(parallel::to_string(s));
      const double mb_s = v["run_mb_s." + tag];
      v["automata.parallel_eff." + tag] = kernel > 0.0 ? mb_s / (fleet_threads * kernel) : 0.0;
    }
  }

  // Per traced round: counts, self time per layer, the evaluation spans and
  // what no layer span covers.
  std::map<int, double> round_wall;
  std::map<int, double> covered;  // direct children of the round span
  std::map<int, double> evaluating;
  std::map<int, std::map<std::string, double>> counts;
  std::map<int, std::map<std::string, double>> self;
  std::vector<double> child_time(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_time[static_cast<std::size_t>(s.parent)] += span_seconds(s);
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.round < 0) continue;
    const double d = span_seconds(s);
    if (s.name == "bench.round") {
      round_wall[s.round] += d;
      covered[s.round] += child_time[i];
      continue;
    }
    counts[s.round][s.name] += 1.0;
    self[s.round][layer_of(s.name)] += d - child_time[i];
    if (s.name == "core.measure" || s.name == "core.rescore" || s.name == "ml.predict") {
      evaluating[s.round] += d;
    }
  }
  std::vector<double> measure_counts;
  std::vector<double> predictions;
  std::vector<double> overhead;
  std::map<std::string, std::vector<double>> self_by_layer;
  double wall_total = 0.0;
  double uncovered = 0.0;
  for (const auto& [round, wall] : round_wall) {
    measure_counts.push_back(counts[round]["core.measure"]);
    predictions.push_back(counts[round]["ml.predict"]);
    if (evaluating[round] > 0.0) overhead.push_back(wall - evaluating[round]);
    for (const char* layer : {"core", "parallel", "automata", "dna", "opt", "ml"}) {
      self_by_layer[layer].push_back(self[round][layer]);
    }
    wall_total += wall;
    uncovered += wall - covered[round];
  }
  v["core.measure_count"] = median(measure_counts);
  v["ml.predictions"] = median(predictions);
  v["opt.search_overhead_s"] = median(overhead);
  for (const auto& [layer, values] : self_by_layer) v["trace.self_s." + layer] = median(values);
  v["trace.unaccounted_frac"] = wall_total > 0.0 ? uncovered / wall_total : 0.0;
  const double base = median(untraced);
  v["trace.overhead_pct"] = base > 0.0 ? 100.0 * (median(traced) - base) / base : 0.0;
  return v;
}

[[nodiscard]] std::string number(double x) {
  if (!std::isfinite(x)) x = 0.0;
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << x;
  return os.str();
}

void write_trace(const Run& run, const std::string& path, const std::string& provenance) {
  // Capped so a long traced run of tune_predicted (tens of thousands of
  // prediction spans per round) keeps the file loadable.
  constexpr std::size_t kMaxEvents = 100000;
  std::ofstream out(path, std::ios::trunc);
  out << "{\"otherData\": " << provenance << ", \"traceEvents\": [";
  const std::vector<Span>& spans = run.tracer.spans();
  const std::size_t n = std::min(spans.size(), kMaxEvents);
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    out << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name << "\", \"cat\": \""
        << layer_of(s.name) << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
        << number(static_cast<double>(s.start_ns) * 1e-3)
        << ", \"dur\": " << number(static_cast<double>(s.end_ns - s.start_ns) * 1e-3)
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
        << ", \"round\": " << s.round << "}}";
  }
  out << "\n], \"droppedEvents\": " << (spans.size() - n) << "}\n";
  if (!out) std::cerr << "perfbench: cannot write trace file " << path << "\n";
}

[[nodiscard]] double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

[[nodiscard]] std::string provenance_json(const Run& run, const Bench& bench) {
  const char* forced = std::getenv("HETOPT_FORCE_ISA");
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  std::ostringstream os;
  os << "{\"workload\": \"" << run.opt.workload << "\", \"seed\": " << run.opt.seed
     << ", \"seconds\": " << number(run.opt.seconds) << ", \"size\": \""
     << (run.opt.tiny ? "tiny" : "full") << "\", \"nproc\": " << run.threads
     << ", \"cpu_model\": \"" << util::cpu_features().model_name << "\", \"isa_active\": \""
     << util::to_string(automata::simd::resolve_isa(std::nullopt))
     << "\", \"hetopt_force_isa\": \"" << (forced != nullptr ? forced : "") << "\""
     << ", \"llc_bytes\": " << (llc > 0 ? llc : 0) << ", ";
  bench.provenance(os);
  os << ", \"note\": \"the scan kernels run well under 1.5 GB/s per core, so scans are "
        "compute-bound; MiB/s figures are bytes scanned over measured time, and warm-up "
        "bytes are computed, not measured\"}";
  return os.str();
}

[[nodiscard]] bool parse(int argc, char** argv, Options& opt) {
  const util::CliArgs args(argc, argv);
  opt.workload = args.get("workload", std::string());
  const std::int64_t seed = args.get("seed", std::int64_t{1});
  opt.seconds = args.get("seconds", 10.0);
  opt.trace = args.get("trace", std::int64_t{0}) != 0;
  const std::string size = args.get("size", std::string("full"));
  opt.tiny = size == "tiny";
  opt.oracle_skew = args.get("oracle-skew", std::int64_t{0});
  opt.tmp_dir = args.get("tmp-dir", std::string("."));
  opt.seed = static_cast<std::uint64_t>(seed);
  if (opt.workload.empty() || seed < 0 || !(opt.seconds > 0.0) ||
      (size != "full" && size != "tiny") || opt.oracle_skew < 0) {
    std::cerr << "usage: hetopt_perfbench --workload "
                 "tune_measured|scan_resident|scan_paged|tune_predicted --seed N --seconds S "
                 "--trace 0|1 [--size full|tiny] [--oracle-skew N] [--tmp-dir DIR]\n";
    return false;
  }
  return true;
}

int run_main(int argc, char** argv) {
  Run run;
  if (!parse(argc, argv, run.opt)) return 2;
  run.threads = nproc();

  // Set-up, several times: setup_s is the median. The first set-up is timed
  // from process start. The counts keep a run's set-up time near 10 s:
  // tune_measured sets up in ~0.15 s, the scans in ~2 s, and tune_predicted
  // trains the predictor in every set-up (~12 s), so it sets up twice.
  const int setups = run.opt.tiny                           ? 1
                     : run.opt.workload == "tune_measured"  ? 9
                     : run.opt.workload == "tune_predicted" ? 2
                                                            : 5;
  std::vector<double> setup_s;
  std::unique_ptr<Bench> bench;
  run.tracer.enable(run.opt.trace);
  for (int i = 0; i < setups; ++i) {
    bench.reset();
    const Clock::time_point start = i == 0 ? g_process_start : Clock::now();
    bench = make_bench(run, i);
    if (bench == nullptr) {
      std::cerr << "perfbench: unknown workload '" << run.opt.workload << "'\n";
      return 2;
    }
    setup_s.push_back(seconds_since(start));
  }
  const std::string provenance = provenance_json(run, *bench);
  std::cout << "{\"provenance\": " << provenance << "}" << std::endl;

  // One untimed warm-up round, then rounds until the time is spent. A traced
  // run spends the first half untraced (the overhead baseline).
  run.tracer.enable(false);
  bench->round(run);
  int round_id = 0;
  const auto timed_rounds = [&](double budget, bool traced) {
    run.tracer.enable(traced);
    std::vector<double> rounds;
    const auto start = Clock::now();
    do {
      run.tracer.set_round(round_id++);
      const auto t = Clock::now();
      {
        Scope s(run.tracer, "bench.round");
        bench->round(run);
      }
      rounds.push_back(seconds_since(t));
    } while (seconds_since(start) < budget);
    run.tracer.set_round(-1);
    return rounds;
  };

  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  if (!run.opt.trace) {
    const std::vector<double> rounds = timed_rounds(run.opt.seconds, false);
    std::map<std::string, double> values = {{"setup_s", median(setup_s)},
                                            {"round_s", median(rounds)},
                                            {"peak_rss_mb", peak_rss_mib()}};
    for (const MetricDef& d : end_to_end_metrics()) {
      metrics.push_back({d.name, {values[d.name], d.unit}});
    }
    std::cout << "{\"samples\": {\"setup_s\": " << setup_s.size()
              << ", \"round_s\": " << rounds.size() << ", \"round_min_s\": "
              << number(*std::min_element(rounds.begin(), rounds.end()))
              << ", \"round_max_s\": " << number(*std::max_element(rounds.begin(), rounds.end()))
              << "}}\n";
  } else {
    const std::vector<double> untraced = timed_rounds(run.opt.seconds / 2.0, false);
    const std::vector<double> traced = timed_rounds(run.opt.seconds / 2.0, true);
    bench->layer_probes(run);
    const bool tuning = bench->tuning();
    const double scanned_mib = bench->scanned_mib_per_round();
    bench.reset();  // traced: the scan fleets' teardown
    run.tracer.enable(false);
    std::map<std::string, double> values = layer_values(run, untraced, traced);
    if (tuning) values["tune_s"] = median(untraced);
    if (scanned_mib > 0.0) {
      std::vector<double> rates;
      for (const double secs : untraced) rates.push_back(scanned_mib / secs);
      values["scan_mb_s"] = median(rates);
      values["scan_round_tail_s"] = round_tail(untraced);
    }
    values["fail_frac"] = static_cast<double>(run.failed) /
                          static_cast<double>(std::max<std::uint64_t>(1, run.attempted));
    for (const MetricDef& d : per_layer_metrics()) {
      metrics.push_back({d.name, {values[d.name], d.unit}});
    }
    const std::string path = run.opt.tmp_dir + "/trace-" + run.opt.workload + "-" +
                             std::to_string(run.opt.seed) + ".json";
    write_trace(run, path, provenance);
    std::cout << "{\"samples\": {\"untraced_rounds\": " << untraced.size()
              << ", \"traced_rounds\": " << traced.size()
              << ", \"spans\": " << run.tracer.spans().size() << ", \"trace_file\": \"" << path
              << "\"}}\n";
  }
  bench.reset();

  std::cout << "{\"correct\": " << (run.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << run.attempted << ", \"failed\": " << run.failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, value] = metrics[i];
    std::cout << (i ? ", " : "") << "\"" << name << "\": {\"value\": " << number(value.first)
              << ", \"unit\": \"" << value.second << "\"}";
  }
  std::cout << "}}" << std::endl;
  return run.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_main(argc, argv);
  } catch (const std::exception& ex) {
    std::cerr << "perfbench: " << ex.what() << "\n";
    return 3;
  }
}
