// Benchmark driver: runs one workload for a fixed wall-clock budget, checks
// every simulated result, and prints one JSON line with the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--spans FILE] [--expect PART=HEX ...]
//             [--force-mismatch] [--print-inputs]
//
// Every simulation run and every store pass is one attempted operation; a
// throw or a failed check counts it as failed and the run carries on.
// --expect gives the recorded digest of a part (arena, wormhole, design)
// for this seed; --force-mismatch perturbs the kSharded result so the
// tests can see the engine check fire.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/observer.hpp"
#include "store/result_store.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using ipg::sim::Engine;
using ipg::sim::SimResult;

/// Domains of the timed kSharded run (sharded_s): one, so it times the
/// engine's window, barrier and replay machinery without depending on how
/// the host schedules parallel threads. On the shared 4-vCPU host the
/// benchmark was tuned on, barrier-synchronised domains made sharded_s
/// spread up to 63% between runs at K = 4 and 51% at K = 2 (q9_exchange),
/// while the single-threaded stages spread under 10%.
constexpr std::uint32_t kShards = 1;
/// Domains of the traced run's parallel kSharded run (sim.sharded_k2_s).
constexpr std::uint32_t kParallelShards = 2;
constexpr std::size_t kMinIterations = 3;  // timed iterations, at least

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  fs::path work_dir = ".bench_build/perfbench/work";
  std::string spans_path;
  std::map<std::string, std::string> expect;
  bool force_mismatch = false;
  bool print_inputs = false;
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value());
    } else if (arg == "--trace") {
      o.trace = std::stoi(value()) != 0;
    } else if (arg == "--work-dir") {
      o.work_dir = value();
    } else if (arg == "--spans") {
      o.spans_path = value();
    } else if (arg == "--expect") {
      const std::string kv = value();
      const auto eq = kv.find('=');
      if (eq == std::string::npos) throw std::invalid_argument("--expect PART=HEX");
      o.expect[kv.substr(0, eq)] = kv.substr(eq + 1);
    } else if (arg == "--force-mismatch") {
      o.force_mismatch = true;
    } else if (arg == "--print-inputs") {
      o.print_inputs = true;
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(o.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Counts attempted and failed operations; a failure never aborts the run.
class Gate {
 public:
  /// Runs @p op, which returns an empty string on success or the reason.
  void op(const std::string& what, const std::function<std::string()>& fn) {
    ++attempted_;
    std::string err;
    try {
      err = fn();
    } catch (const std::exception& e) {
      err = std::string("threw: ") + e.what();
    }
    if (!err.empty()) {
      ++failed_;
      std::cerr << "perfbench: FAILED " << what << ": " << err << "\n";
    }
  }
  std::size_t attempted() const noexcept { return attempted_; }
  std::size_t failed() const noexcept { return failed_; }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// Pins a digest: the first value seen, and the recorded one if given.
class DigestCheck {
 public:
  DigestCheck(std::string part, std::optional<std::string> expected)
      : part_(std::move(part)), expected_(std::move(expected)) {}

  std::string check(std::uint64_t d) {
    if (!first_) first_ = d;
    if (d != *first_) return part_ + " digest changed between repetitions";
    if (expected_ && hex(d) != *expected_) {
      return part_ + " digest " + hex(d) + " != recorded " + *expected_;
    }
    return {};
  }
  std::optional<std::uint64_t> first() const { return first_; }
  const std::string& part() const noexcept { return part_; }

 private:
  std::string part_;
  std::optional<std::string> expected_;
  std::optional<std::uint64_t> first_;
};

std::string conservation(const std::vector<SimResult>& results) {
  for (const SimResult& r : results) {
    if (r.packets_injected !=
        r.packets_delivered + r.packets_dropped + r.packets_in_flight) {
      return "conservation: injected != delivered + dropped + in flight";
    }
  }
  return {};
}

std::uint64_t results_digest(const std::vector<SimResult>& results) {
  Digest d;
  for (const SimResult& r : results) add_result(d, r);
  return d.value();
}

/// Job counts heard through the sweep's progress hook.
class CountingProgress final : public ipg::sim::SweepProgress {
 public:
  void on_job_done(const ipg::sim::SweepOutcome& o, std::size_t,
                   std::size_t) override {
    jobs.fetch_add(1);
    if (o.from_cache) from_cache.fetch_add(1);
  }
  std::atomic<std::size_t> jobs{0};
  std::atomic<std::size_t> from_cache{0};
};

/// Removes the run's work directory on every exit path.
class WorkDir {
 public:
  explicit WorkDir(fs::path path) : path_(std::move(path)) {
    if (fs::exists(path_)) {
      throw std::runtime_error("work directory " + path_.string() +
                               " already exists");
    }
    fs::create_directories(path_);
  }
  ~WorkDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;
  const fs::path& path() const noexcept { return path_; }

 private:
  fs::path path_;
};

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

class Bench {
 public:
  Bench(const Options& opt, Workload& w, Tracer* tracer)
      : opt_(opt), w_(w), tracer_(tracer),
        arena_digest_("arena", expected("arena")),
        wormhole_digest_("wormhole", expected("wormhole")),
        design_digest_("design", expected("design")) {}

  /// One setup_s sample: builds_per_sample() rebuilds of every input. One
  /// sample per iteration spreads the samples over the whole run.
  void setup_sample() {
    const std::size_t builds = w_.builds_per_sample();
    const std::size_t first_span = tracer_ != nullptr ? tracer_->size() : 0;
    const auto t0 = Clock::now();
    for (std::size_t b = 0; b < builds; ++b) w_.build(tracer_);
    add("setup_s", seconds_since(t0) / static_cast<double>(builds));
    if (tracer_ != nullptr) {
      const auto per_build = [&](const char* span) {
        return tracer_->total_since(first_span, span) /
               static_cast<double>(builds);
      };
      add("topology.make_s", per_build("topology.make"));
      add("topology.to_graph_s", per_build("topology.to_graph"));
      add("mcmp.network_s", per_build("mcmp.network"));
      add("resilience.sample_s", per_build("resilience.sample"));
    }
  }

  void measure(const fs::path& work) {
    ipg::store::ResultStore store(work / "store");
    const auto start = Clock::now();
    // Iteration 0 warms up (first-touch page faults, cold caches): its
    // operations are checked and counted, its samples dropped.
    for (std::uint32_t it = 0;; ++it) {
      if (tracer_ != nullptr) tracer_->set_run(it);
      setup_sample();
      iteration(store);
      if (it == 0) {
        samples_.clear();
        continue;
      }
      if (it >= kMinIterations && seconds_since(start) >= opt_.seconds) {
        iterations_ = it;
        break;
      }
    }
  }

  std::vector<Metric> end_to_end() const {
    return {{"arena_s", "s", med("arena_s")},
            {"sharded_s", "s", med("sharded_s")},
            {"wormhole_s", "s", med("wormhole_s")},
            {"setup_s", "s", med("setup_s")},
            {"cold_s", "s", med("cold_s")},
            {"warm_s", "s", med("warm_s")},
            {"peak_rss_mb", "MB", peak_rss_mb()}};
  }

  std::vector<Metric> per_layer() const {
    const double route_s = med("topology.route_s");
    const double arena_self = med("sim.arena_self_s");
    const double hops = count("sim.hops");
    const double wh_hops = count("wormhole.hops");
    const double route_hops = count("topology.route_hops");
    const double warm_lookups = count("store.warm_lookups");
    return {
        {"topology.make_s", "s", med("topology.make_s")},
        {"topology.to_graph_s", "s", med("topology.to_graph_s")},
        {"mcmp.network_s", "s", med("mcmp.network_s")},
        {"resilience.sample_s", "s", med("resilience.sample_s")},
        {"topology.route_calls", "count", count("topology.route_calls")},
        {"topology.route_s", "s", route_s},
        {"topology.ns_per_route_hop", "ns",
         route_hops > 0 ? route_s * 1e9 / route_hops : 0},
        {"topology.route_wall_sharded_s", "s", med("topology.route_wall_sharded_s")},
        {"sim.arena_self_s", "s", arena_self},
        {"sim.hops", "count", hops},
        {"sim.ns_per_hop", "ns", hops > 0 ? arena_self * 1e9 / hops : 0},
        {"sim.sharded_self_s", "s", med("sim.sharded_self_s")},
        {"sim.sharded_k2_s", "s", med("sim.sharded_k2_s")},
        {"sim.sharded_speedup", "ratio",
         med("sharded_s") / med("sim.sharded_k2_s")},
        {"sim.healthy_arena_s", "s", med("sim.healthy_arena_s")},
        {"sim.degraded_overhead", "ratio",
         med("arena_s") / med("sim.healthy_arena_s")},
        {"sim.detours", "count", count("sim.detours")},
        {"sim.retries", "count", count("sim.retries")},
        {"sim.drops", "count", count("sim.drops")},
        {"sim.faults_applied", "count", count("sim.faults_applied")},
        {"sim.reroute_hops", "count", count("sim.reroute_hops")},
        {"sim.delivered_fraction", "ratio", count("sim.delivered_fraction")},
        {"wormhole.hops", "count", wh_hops},
        {"wormhole.ns_per_hop", "ns",
         wh_hops > 0 ? med("wormhole_s") * 1e9 / wh_hops : 0},
        {"sweep.jobs", "count", count("sweep.jobs")},
        {"sweep.jobs_from_cache", "count", count("sweep.jobs_from_cache")},
        {"store.hits", "count", count("store.hits")},
        {"store.cold_hits", "count", count("store.cold_hits")},
        {"store.misses", "count", count("store.misses")},
        {"store.corrupt", "count", count("store.corrupt")},
        {"store.writes", "count", count("store.writes")},
        {"store.bytes_written", "B", count("store.bytes_written")},
        {"store.bytes_read", "B", count("store.bytes_read")},
        {"store.warm_hit_ratio", "ratio",
         warm_lookups > 0 ? count("store.hits") / warm_lookups : 0},
        {"explore.uncached_s", "s", med("explore.uncached_s")},
        {"store.write_overhead_s", "s",
         w_.cold_pass_simulates() ? med("cold_s") - med("explore.uncached_s")
                                  : med("cold_s")},
        {"trace.overhead_s", "s", med("sim.traced_arena_s") - med("arena_s")},
    };
  }

  /// One line per timed metric with every sample, for reading noise.
  void print_samples(std::ostream& os) const {
    for (const auto& [name, v] : samples_) {
      if (name.size() < 2 || name.substr(name.size() - 2) != "_s") continue;
      os << "perfbench: samples " << name << ":";
      for (const double x : v) os << " " << x;
      os << "\n";
    }
  }

  std::size_t iterations() const noexcept { return iterations_; }
  const Gate& gate() const noexcept { return gate_; }
  std::string digests() const {
    std::string s;
    for (const auto* d : {&arena_digest_, &wormhole_digest_, &design_digest_}) {
      if (d->first()) s += " " + d->part() + "=" + hex(*d->first());
    }
    return s;
  }

 private:
  std::optional<std::string> expected(const std::string& part) const {
    const auto it = opt_.expect.find(part);
    if (it == opt_.expect.end()) return std::nullopt;
    return it->second;
  }

  void add(const std::string& name, double v) { samples_[name].push_back(v); }
  double med(const std::string& name) const {
    const auto it = samples_.find(name);
    return it == samples_.end() ? 0 : median(it->second);
  }
  /// Counts repeat exactly across iterations; report the last one.
  double count(const std::string& name) const {
    const auto it = samples_.find(name);
    return it == samples_.end() || it->second.empty() ? 0 : it->second.back();
  }

  static double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  }

  /// Runs every task on @p engine; @p meter / @p obs may be null.
  std::vector<SimResult> simulate(Engine engine, std::uint32_t domains,
                                  RouteMeter* meter,
                                  ipg::sim::SimObserver* obs,
                                  bool healthy = false) const {
    std::vector<SimResult> out;
    out.reserve(w_.tasks().size());
    for (const SimTask& t : w_.tasks()) {
      ipg::sim::SimConfig c = t.cfg;
      c.engine = engine;
      c.shard_domains = domains;
      c.observer = obs;
      if (healthy) {
        c.fault_plan.reset();
        c.node_buffer_packets = 0;
        c.max_retries = 0;
      }
      out.push_back(meter != nullptr ? t.run(meter->wrap(t.fabric->router), c)
                                     : t.run(t.fabric->router, c));
    }
    return out;
  }

  std::string same_as_arena(const std::vector<SimResult>& got,
                            const char* what) const {
    if (got.size() != arena_.size()) return std::string(what) + ": result count";
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (!identical(got[i], arena_[i])) {
        return std::string(what) + " differs from kArena on task " +
               std::to_string(i);
      }
    }
    return {};
  }

  /// Runs @p fn as one operation and records its time under @p metric.
  template <class F>
  void timed_op(const std::string& metric, F&& fn) {
    gate_.op(metric, [&] {
      const auto t0 = Clock::now();
      std::string err = fn();
      add(metric, seconds_since(t0));
      return err;
    });
  }

  void iteration(ipg::store::ResultStore& store) {
    arena_.clear();
    gate_.op("arena_s", [&] {
      const auto t0 = Clock::now();
      arena_ = simulate(Engine::kArena, 0, nullptr, nullptr);
      add("arena_s", seconds_since(t0));
      std::string err = conservation(arena_);
      return err.empty() ? arena_digest_.check(results_digest(arena_)) : err;
    });
    if (tracer_ != nullptr) traced_arena();

    gate_.op("sharded_s", [&] {
      const auto t0 = Clock::now();
      auto sharded = simulate(Engine::kSharded, kShards, nullptr, nullptr);
      add("sharded_s", seconds_since(t0));
      if (opt_.force_mismatch && !sharded.empty()) {
        sharded.front().makespan_cycles =
            std::nextafter(sharded.front().makespan_cycles, 1e300);
      }
      return same_as_arena(sharded, "kSharded");
    });
    if (tracer_ != nullptr) traced_sharded();

    gate_.op("wormhole_s", [&] {
      std::optional<SpanScope> span;
      if (tracer_ != nullptr) span.emplace(tracer_, "sim.wormhole");
      const auto t0 = Clock::now();
      const auto results = w_.wormhole();
      add("wormhole_s", seconds_since(t0));
      Digest d;
      double hops = 0;
      for (const auto& r : results) {
        add_result(d, r);
        if (r.packets_delivered == 0) return std::string("wormhole delivered nothing");
        hops += std::round(r.avg_hops * static_cast<double>(r.packets_delivered));
      }
      add("wormhole.hops", hops);
      return wormhole_digest_.check(d.value());
    });

    if (tracer_ != nullptr) {
      timed_op("explore.uncached_s", [&] {
        SpanScope span(tracer_, "explore.uncached");
        const StorePass pass = w_.store_pass(nullptr, nullptr);
        return pass.sim_digest == w_.sim_digest_of(arena_)
                   ? std::string()
                   : std::string("uncached pass differs from kArena");
      });
    }
    store_passes(store);
  }

  void traced_arena() {
    RouteMeter meter(tracer_->origin());
    ipg::sim::MetricsObserver obs;
    gate_.op("sim.traced_arena_s", [&] {
      const std::size_t id = tracer_->open("sim.arena");
      const auto results = simulate(Engine::kArena, 0, &meter, &obs);
      const RouteTotals routes = meter.take();
      tracer_->attach_routes(id, routes);
      add("sim.traced_arena_s", tracer_->close(id));
      add("topology.route_s", routes.busy_s);
      add("sim.arena_self_s", tracer_->self_seconds(id));
      add("topology.route_calls", static_cast<double>(routes.calls));
      add("topology.route_hops", static_cast<double>(routes.hops));
      const auto& c = obs.counters();
      add("sim.hops", static_cast<double>(c.hops));
      add("sim.detours", static_cast<double>(c.detours));
      add("sim.retries", static_cast<double>(c.retries));
      add("sim.drops", static_cast<double>(c.dropped));
      add("sim.faults_applied", static_cast<double>(c.faults_applied));
      double reroute = 0, delivered = 0, injected = 0;
      for (const SimResult& r : results) {
        reroute += static_cast<double>(r.reroute_hops);
        delivered += static_cast<double>(r.packets_delivered);
        injected += static_cast<double>(r.packets_injected);
      }
      add("sim.reroute_hops", reroute);
      add("sim.delivered_fraction", injected > 0 ? delivered / injected : 1);
      return same_as_arena(results, "traced kArena");
    });
  }

  void traced_sharded() {
    RouteMeter meter(tracer_->origin());
    gate_.op("sim.sharded_self_s", [&] {
      const std::size_t id = tracer_->open("sim.sharded");
      const auto results = simulate(Engine::kSharded, kShards, &meter, nullptr);
      const RouteTotals routes = meter.take();
      tracer_->attach_routes(id, routes);
      tracer_->close(id);
      add("topology.route_wall_sharded_s", routes.covered_s);
      add("sim.sharded_self_s", tracer_->self_seconds(id));
      return same_as_arena(results, "traced kSharded");
    });
    timed_op("sim.sharded_k2_s", [&] {
      SpanScope span(tracer_, "sim.sharded_k2");
      return same_as_arena(
          simulate(Engine::kSharded, kParallelShards, nullptr, nullptr),
          "kSharded K=2");
    });
    timed_op("sim.healthy_arena_s", [&] {
      SpanScope span(tracer_, "sim.healthy_arena");
      return conservation(simulate(Engine::kArena, 0, nullptr, nullptr, true));
    });
  }

  /// One cold_s sample, then one warm_s sample. Each cold pass starts from
  /// an emptied store (the emptying is not timed). The store's shard
  /// directories persist across passes: creating and deleting a whole store
  /// per pass added filesystem churn that made the stages around it slower
  /// and noisier.
  void store_passes(ipg::store::ResultStore& store) {
    CountingProgress progress;
    CountingProgress* prog = tracer_ != nullptr ? &progress : nullptr;
    const std::vector<SimResult>* known =
        w_.cold_pass_simulates() ? nullptr : &arena_;
    const std::size_t colds = w_.cold_passes_per_sample();
    std::optional<StorePass> cold;
    double cold_s = 0;
    for (std::size_t i = 0; i < colds; ++i) {
      store.invalidate();
      cold.reset();
      gate_.op("cold_s", [&] {
        SpanScope span(tracer_, "store.cold");
        const auto s0 = store.stats();
        const auto t0 = Clock::now();
        const StorePass pass = w_.store_pass(&store, prog, known);
        cold_s += seconds_since(t0);
        const auto s1 = store.stats();
        if (i + 1 == colds) {
          add("store.cold_hits", static_cast<double>(s1.hits - s0.hits));
          add("store.misses", static_cast<double>(s1.misses - s0.misses));
          add("store.writes", static_cast<double>(s1.writes - s0.writes));
          add("store.bytes_written",
              static_cast<double>(s1.bytes_written - s0.bytes_written));
        }
        if (pass.jobs_from_cache != 0) return std::string("cold pass served a job from the store");
        if (s1.hits - s0.hits != w_.expected_cold_hits() ||
            pass.statics_from_cache != w_.expected_cold_hits()) {
          return "cold pass hits " + std::to_string(s1.hits - s0.hits) +
                 ", expected " + std::to_string(w_.expected_cold_hits());
        }
        if (pass.sim_digest != w_.sim_digest_of(arena_)) {
          return std::string("cold pass results differ from kArena");
        }
        cold = pass;
        return design_digest_.check(pass.full_digest);
      });
      if (!cold) return;
    }
    add("cold_s", cold_s / static_cast<double>(colds));
    if (prog != nullptr) {
      add("sweep.jobs", static_cast<double>(progress.jobs.exchange(0)) /
                            static_cast<double>(colds));
      progress.from_cache = 0;
    }

    const std::size_t passes = w_.warm_passes_per_sample();
    const auto s0 = store.stats();
    std::optional<SpanScope> span;
    if (tracer_ != nullptr) span.emplace(tracer_, "store.warm");
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < passes; ++i) {
      gate_.op("warm_s", [&] {
        const auto before = store.stats();
        const StorePass pass = w_.store_pass(&store, prog);
        const auto after = store.stats();
        if (after.hits - before.hits != after.lookups() - before.lookups()) {
          return std::string("warm pass missed the store");
        }
        if (pass.jobs_from_cache != pass.jobs ||
            pass.statics_from_cache != pass.statics) {
          return std::string("warm pass recomputed a job");
        }
        return pass.full_digest == cold->full_digest
                   ? std::string()
                   : std::string("warm pass differs from the cold pass");
      });
    }
    add("warm_s", seconds_since(t0) / static_cast<double>(passes));
    span.reset();
    const auto s1 = store.stats();
    const auto per_pass = [passes](std::uint64_t v) {
      return static_cast<double>(v) / static_cast<double>(passes);
    };
    add("store.hits", per_pass(s1.hits - s0.hits));
    add("store.warm_lookups", per_pass(s1.lookups() - s0.lookups()));
    add("store.bytes_read", per_pass(s1.bytes_read - s0.bytes_read));
    add("store.corrupt", static_cast<double>(s1.corrupt));
    if (prog != nullptr) {
      add("sweep.jobs_from_cache", per_pass(progress.from_cache.load()));
    }
  }

  const Options& opt_;
  Workload& w_;
  Tracer* tracer_;
  Gate gate_;
  DigestCheck arena_digest_;
  DigestCheck wormhole_digest_;
  DigestCheck design_digest_;
  std::vector<SimResult> arena_;  ///< this iteration's kArena results
  std::map<std::string, std::vector<double>> samples_;
  std::size_t iterations_ = 0;
};

void print_json(const Gate& gate, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              gate.failed() == 0 ? "true" : "false", gate.attempted(),
              gate.failed());
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int run(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  auto workload = make_workload(opt.workload, opt.seed);
  if (opt.print_inputs) {
    workload->build(nullptr);
    std::printf("%s\n", hex(workload->inputs_digest()).c_str());
    return 0;
  }
  const auto stamp = std::chrono::system_clock::now().time_since_epoch().count();
  const WorkDir work(opt.work_dir / (opt.workload + "-" + std::to_string(getpid()) +
                                     "-" + std::to_string(stamp)));
  std::cerr << "perfbench: work directory " << work.path().string() << "\n";

  std::optional<Tracer> tracer;
  if (opt.trace) tracer.emplace();
  Bench bench(opt, *workload, tracer ? &*tracer : nullptr);
  bench.measure(work.path());

  std::cerr << "perfbench: " << opt.workload << " seed " << opt.seed << ": "
            << bench.iterations() << " timed iterations, "
            << bench.gate().attempted() << " operations, "
            << bench.gate().failed() << " failed; digests:" << bench.digests()
            << "\n";
  bench.print_samples(std::cerr);
  if (tracer && !opt.spans_path.empty()) {
    std::ofstream os(opt.spans_path);
    tracer->write_json(os);
  }
  print_json(bench.gate(), opt.trace ? bench.per_layer() : bench.end_to_end());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Fixed allocator thresholds, so freed memory is reused instead of being
  // returned to the kernel and faulted back in. glibc's default threshold
  // moves with the sizes freed so far, and the benchmark caught it
  // switching mid-run: a kSharded pass over design_sweep's 162 small
  // networks then took about 119,000 page faults instead of 485, and
  // sharded_s doubled (0.16-0.28 s against 0.36-0.51 s).
  if (mallopt(M_MMAP_THRESHOLD, 32 << 20) != 1 ||
      mallopt(M_TRIM_THRESHOLD, 512 << 20) != 1) {
    std::cerr << "perfbench: mallopt failed\n";
    return 2;
  }
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
