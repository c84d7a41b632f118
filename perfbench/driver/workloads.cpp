#include "workloads.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <set>
#include <stdexcept>
#include <utility>

#include "explore/design_space.hpp"
#include "mcmp/capacity.hpp"
#include "resilience/percolation.hpp"
#include "sim/routers.hpp"
#include "sim/traffic.hpp"
#include "store/fingerprint.hpp"
#include "topology/named.hpp"
#include "topology/nucleus.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

using namespace ipg;
using sim::Injection;
using sim::NodeId;
using sim::SimConfig;
using sim::SimResult;

constexpr double kPacketFlits = 16;

// Salts that split --seed into independent input streams.
constexpr std::uint64_t kSaltMasks = 1;
constexpr std::uint64_t kSaltLinkFaults = 2;
constexpr std::uint64_t kSaltNodeFaults = 3;
constexpr std::uint64_t kSaltDesign = 4;

/// Traffic stream of every wormhole run. Not drawn from --seed: a wormhole
/// run's cost follows the makespan of its last worm, which moved by a
/// quarter between seeds on HSN(4,Q4), so a fixed stream keeps wormhole_s
/// comparable across the benchmark's seeds.
constexpr std::uint64_t kWormholeSeed = 1;

sim::WormholeConfig wormhole_config() {
  sim::WormholeConfig w;
  w.packet_length_flits = static_cast<std::size_t>(kPacketFlits);
  return w;
}

/// A super-IPG over a Q_ndim nucleus, one chip per nucleus copy, under the
/// unit chip capacity model.
Fabric super_fabric(topology::SuperIpg (*make)(std::size_t,
                                               std::shared_ptr<const topology::Nucleus>),
                    std::size_t levels, unsigned ndim, std::string tag,
                    Tracer* tracer) {
  Fabric f;
  {
    SpanScope span(tracer, "topology.make");
    f.ipg = std::make_shared<const topology::SuperIpg>(
        make(levels, std::make_shared<topology::HypercubeNucleus>(ndim)));
  }
  topology::Graph g;
  topology::Clustering chips;
  {
    SpanScope span(tracer, "topology.to_graph");
    g = f.ipg->to_graph();
    chips = f.ipg->nucleus_clustering();
  }
  {
    SpanScope span(tracer, "mcmp.network");
    f.net = std::make_unique<sim::SimNetwork>(
        mcmp::make_unit_chip_network(std::move(g), std::move(chips), 1.0));
  }
  f.router = sim::super_ipg_router(*f.ipg);
  f.router_tag = std::move(tag);
  f.vc_classes = sim::super_ipg_vc_classes(ndim);
  return f;
}

Fabric hypercube_fabric(unsigned n, std::size_t chip_size, Tracer* tracer) {
  Fabric f;
  topology::Graph g;
  topology::Clustering chips;
  {
    SpanScope span(tracer, "topology.to_graph");
    g = topology::hypercube_graph(n);
    chips = topology::hypercube_subcube_clustering(n, chip_size);
  }
  {
    SpanScope span(tracer, "mcmp.network");
    f.net = std::make_unique<sim::SimNetwork>(
        mcmp::make_unit_chip_network(std::move(g), std::move(chips), 1.0));
  }
  f.router = sim::hypercube_router(n);
  f.router_tag = "ecube";
  f.vc_classes = sim::single_vc_class();
  return f;
}

Fabric kary2_fabric(std::size_t k, std::size_t chip_size, Tracer* tracer) {
  Fabric f;
  const auto side = static_cast<std::size_t>(
      std::llround(std::sqrt(static_cast<double>(chip_size))));
  topology::Graph g;
  topology::Clustering chips;
  {
    SpanScope span(tracer, "topology.to_graph");
    g = topology::kary_ncube_graph(k, 2);
    chips = topology::kary2_block_clustering(k, side);
  }
  {
    SpanScope span(tracer, "mcmp.network");
    f.net = std::make_unique<sim::SimNetwork>(
        mcmp::make_unit_chip_network(std::move(g), std::move(chips), 1.0));
  }
  f.router = sim::kary_router(k, 2);
  f.router_tag = "kary-ecube";
  f.vc_classes = sim::torus_dateline_vc_classes(k, 2);
  return f;
}

SimConfig base_config(std::uint64_t seed) {
  SimConfig c;
  c.packet_length_flits = kPacketFlits;
  c.seed = seed;
  return c;
}

/// One keyed sweep job per task; with @p known, job i returns known[i].
std::vector<sim::SweepJob> keyed_jobs(const std::vector<SimTask>& tasks,
                                      const std::vector<SimResult>* known) {
  std::vector<sim::SweepJob> jobs;
  jobs.reserve(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const SimTask& t = tasks[i];
    SimConfig c = t.cfg;
    c.engine = sim::Engine::kArena;
    std::function<SimResult()> run = [&t, c] { return t.run(t.fabric->router, c); };
    if (known != nullptr) run = [known, i] { return known->at(i); };
    jobs.push_back({t.workload_key, std::move(run),
                    store::sim_cache_key(*t.fabric->net, t.fabric->router_tag,
                                         t.workload_key, c)});
  }
  return jobs;
}

// --- q9_exchange -------------------------------------------------------------

/// Q9 (512 nodes, 32 chips of 16), e-cube routes, run_total_exchange. No
/// input depends on the seed except SimConfig::seed, which total exchange
/// does not read.
class Q9Exchange final : public Workload {
 public:
  explicit Q9Exchange(std::uint64_t seed) : seed_(seed) {}

  void build(Tracer* tracer) override {
    fabric_ = hypercube_fabric(9, 16, tracer);
    tasks_.clear();
    tasks_.push_back({&fabric_, base_config(seed_),
                      store::workload_total_exchange(),
                      [this](const sim::Router& r, const SimConfig& c) {
                        return sim::run_total_exchange(*fabric_.net, r, c);
                      }});
  }
  std::size_t builds_per_sample() const override { return 1000; }
  std::size_t cold_passes_per_sample() const override { return 1000; }
  std::size_t warm_passes_per_sample() const override { return 2000; }

  std::vector<sim::WormholeResult> wormhole() const override {
    return {sim::run_wormhole_open(
        *fabric_.net, fabric_.router, sim::uniform_traffic(512), 0.02, 300,
        wormhole_config(), fabric_.vc_classes, kWormholeSeed)};
  }

  std::uint64_t inputs_digest() const override {
    Digest d;
    d.add(tasks_.front().cfg.seed);
    return d.value();
  }

 private:
  std::uint64_t seed_;
  Fabric fabric_;
};

// --- hsn_exchange ------------------------------------------------------------

/// HSN(4,Q4): 65,536 nodes in 4,096 chips, SuperIpg::route, a 4-round
/// exchange of 262,144 packets. Round r pairs every node v with v XOR m_r;
/// the masks come from the seed with exactly one bit set in every 4-bit
/// digit, so every seed gives routes of the same length (the same work)
/// and only the contention pattern moves with the seed.
class HsnExchange final : public Workload {
 public:
  explicit HsnExchange(std::uint64_t seed) : seed_(seed) {}

  void build(Tracer* tracer) override {
    fabric_ = super_fabric(topology::make_hsn, 4, 4, "super-hsn", tracer);
    const std::size_t n = fabric_.net->num_nodes();
    masks_.clear();
    util::Xoshiro256 rng(util::derive_seed(seed_, kSaltMasks));
    while (masks_.size() < kRounds) {
      std::size_t m = 0;
      for (int digit = 0; digit < 4; ++digit) {
        m |= std::size_t{1} << (4 * digit + rng.below(4));
      }
      if (std::find(masks_.begin(), masks_.end(), m) == masks_.end()) {
        masks_.push_back(m);
      }
    }
    injections_.clear();
    injections_.reserve(n * kRounds);
    for (std::size_t r = 0; r < kRounds; ++r) {
      for (std::size_t v = 0; v < n; ++v) {
        injections_.push_back({static_cast<NodeId>(v),
                               static_cast<NodeId>(v ^ masks_[r]),
                               static_cast<double>(r)});
      }
    }
    tasks_.clear();
    tasks_.push_back({&fabric_, base_config(seed_),
                      store::workload_trace(injections_),
                      [this](const sim::Router& r, const SimConfig& c) {
                        return sim::run_trace(*fabric_.net, r, injections_, c);
                      }});
  }
  std::size_t builds_per_sample() const override { return 6; }
  std::size_t cold_passes_per_sample() const override { return 24; }
  std::size_t warm_passes_per_sample() const override { return 24; }

  std::vector<sim::WormholeResult> wormhole() const override {
    return {sim::run_wormhole_open(
        *fabric_.net, fabric_.router,
        sim::uniform_traffic(fabric_.net->num_nodes()), 0.002, 10,
        wormhole_config(), fabric_.vc_classes, kWormholeSeed)};
  }

  std::uint64_t inputs_digest() const override {
    Digest d;
    for (const Injection& i : injections_) {
      d.add(std::uint64_t{i.src});
      d.add(std::uint64_t{i.dst});
      d.add(i.time);
    }
    d.add(tasks_.front().cfg.seed);
    return d.value();
  }

 private:
  static constexpr std::size_t kRounds = 4;
  std::uint64_t seed_;
  Fabric fabric_;
  std::vector<std::size_t> masks_;
  std::vector<Injection> injections_;
};

// --- hsn_degraded ------------------------------------------------------------

/// HSN(3,Q4) (4,096 nodes) open-loop uniform traffic at rate 0.02 for 400
/// cycles with bounded buffers (8 packets), 4 retries, a seeded 2% of
/// off-chip links down at t = 50 and 8 seeded nodes down over [100, 250).
class HsnDegraded final : public Workload {
 public:
  explicit HsnDegraded(std::uint64_t seed) : seed_(seed) {}

  void build(Tracer* tracer) override {
    fabric_ = super_fabric(topology::make_hsn, 3, 4, "super-hsn", tracer);
    const auto& g = fabric_.net->graph();
    const auto& chips = fabric_.net->chips();
    sim::FaultPlan plan;
    {
      SpanScope span(tracer, "resilience.sample");
      plan = resilience::to_fault_plan(
          resilience::sample_bernoulli_failures(
              g, &chips, true, resilience::FailureMode::kLinks, 0.02,
              util::derive_seed(seed_, kSaltLinkFaults)),
          50.0);
    }
    util::Xoshiro256 rng(util::derive_seed(seed_, kSaltNodeFaults));
    std::set<NodeId> nodes;
    while (nodes.size() < 8) {
      nodes.insert(static_cast<NodeId>(rng.below(g.num_nodes())));
    }
    for (const NodeId v : nodes) {
      plan.fail_node(100.0, v);
      plan.repair_node(250.0, v);
    }
    SimConfig c = base_config(seed_);
    c.node_buffer_packets = 8;
    c.max_retries = 4;
    c.fault_plan = std::make_shared<const sim::FaultPlan>(std::move(plan));
    tasks_.clear();
    tasks_.push_back({&fabric_, c,
                      store::workload_open(kRate, kCycles, "uniform"),
                      [this](const sim::Router& r, const SimConfig& cfg) {
                        return sim::run_open(
                            *fabric_.net, r,
                            sim::uniform_traffic(fabric_.net->num_nodes()),
                            kRate, kCycles, cfg);
                      }});
  }
  std::size_t builds_per_sample() const override { return 200; }
  std::size_t cold_passes_per_sample() const override { return 200; }
  std::size_t warm_passes_per_sample() const override { return 400; }

  /// The same fabric and pattern, healthy: the wormhole engine takes no
  /// fault plan.
  std::vector<sim::WormholeResult> wormhole() const override {
    return {sim::run_wormhole_open(
        *fabric_.net, fabric_.router,
        sim::uniform_traffic(fabric_.net->num_nodes()), kRate, 40,
        wormhole_config(), fabric_.vc_classes, kWormholeSeed)};
  }

  std::uint64_t inputs_digest() const override {
    Digest d;
    for (const sim::FaultEvent& e : tasks_.front().cfg.fault_plan->events()) {
      d.add(e.time);
      d.add(std::uint64_t{static_cast<std::uint8_t>(e.kind)});
      d.add(std::uint64_t{e.a});
      d.add(std::uint64_t{e.b});
    }
    d.add(tasks_.front().cfg.seed);
    return d.value();
  }

 private:
  static constexpr double kRate = 0.02;
  static constexpr std::size_t kCycles = 400;
  std::uint64_t seed_;
  Fabric fabric_;
};

// --- design_sweep -------------------------------------------------------------

/// explore::evaluate_grid(default_grid(false)): 18 design points, 8 batch
/// replicates plus one open-loop point each, replicate seeds from --seed.
/// tasks() mirrors the grid's simulation jobs so the engines can be timed
/// on them directly.
class DesignSweep final : public Workload {
 public:
  explicit DesignSweep(std::uint64_t seed)
      : base_seed_(util::derive_seed(seed, kSaltDesign) >> 16) {}

  void build(Tracer* tracer) override {
    grid_ = explore::default_grid(false);
    fabrics_.clear();
    fabrics_.reserve(grid_.size());
    for (const explore::DesignPoint& p : grid_) {
      fabrics_.push_back(build_point(p, tracer));
    }
    tasks_.clear();
    for (const Fabric& f : fabrics_) {
      const std::size_t n = f.net->num_nodes();
      for (std::size_t i = 0; i < kReplicates; ++i) {
        const std::uint64_t seed = base_seed_ + i;
        tasks_.push_back({&f, base_config(seed), store::workload_batch_perm(seed),
                          [&f, seed, n](const sim::Router& r, const SimConfig& c) {
                            util::Xoshiro256 rng(seed);
                            return sim::run_batch(*f.net, r,
                                                  sim::random_permutation(n, rng), c);
                          }});
      }
      tasks_.push_back({&f, base_config(base_seed_),
                        store::workload_open(kOpenRate, kOpenCycles, "uniform"),
                        [&f, n](const sim::Router& r, const SimConfig& c) {
                          return sim::run_open(*f.net, r, sim::uniform_traffic(n),
                                               kOpenRate, kOpenCycles, c);
                        }});
    }
    std::set<std::string> seen;
    shared_statics_ = 0;
    for (const Fabric& f : fabrics_) {
      if (!seen.insert(store::fingerprint_network(*f.net).hex()).second) {
        ++shared_statics_;
      }
    }
  }
  std::size_t builds_per_sample() const override { return 60; }
  std::size_t warm_passes_per_sample() const override { return 24; }

  /// The grid's open-loop point (uniform traffic) at flit level.
  std::vector<sim::WormholeResult> wormhole() const override {
    std::vector<sim::WormholeResult> out;
    for (const Fabric& f : fabrics_) {
      out.push_back(sim::run_wormhole_open(
          *f.net, f.router, sim::uniform_traffic(f.net->num_nodes()),
          kOpenRate, kWormholeCycles, wormhole_config(), f.vc_classes,
          kWormholeSeed));
    }
    return out;
  }

  std::size_t cold_passes_per_sample() const override { return 1; }
  bool cold_pass_simulates() const override { return true; }

  /// Always computes what the store misses: evaluate_grid takes no results.
  StorePass store_pass(sim::ResultCache* cache, sim::SweepProgress* progress,
                       const std::vector<SimResult>*) const override {
    explore::ExploreConfig cfg;
    cfg.cache = cache;
    cfg.seed_replicates = kReplicates;
    cfg.base_seed = base_seed_;
    cfg.open_rate = kOpenRate;
    cfg.open_inject_cycles = kOpenCycles;
    cfg.progress = progress;
    cfg.pool = &pool_;
    std::vector<explore::DesignMetrics> metrics;
    pool_.submit([&] { metrics = explore::evaluate_grid(grid_, cfg); });
    pool_.wait();  // rethrows what the pass threw
    StorePass pass;
    Digest sim_d, full_d;
    for (const explore::DesignMetrics& m : metrics) {
      for (const double v : {m.batch_throughput, m.batch_avg_latency,
                             m.open_avg_latency, m.open_p99_latency}) {
        sim_d.add(v);
        full_d.add(v);
      }
      for (const double v : {m.offchip_links_per_node, m.offchip_link_bandwidth,
                             m.avg_ic_distance, m.bisection_measured,
                             m.bisection_closed_form}) {
        full_d.add(v);
      }
      full_d.add(std::uint64_t{m.nodes});
      full_d.add(std::uint64_t{m.num_chips});
      full_d.add(std::uint64_t{m.ic_diameter});
      pass.jobs += m.sim_jobs;
      pass.jobs_from_cache += m.sim_cache_hits;
      pass.statics_from_cache += m.static_from_cache ? 1 : 0;
    }
    pass.statics = metrics.size();
    pass.sim_digest = sim_d.value();
    pass.full_digest = full_d.value();
    return pass;
  }

  /// Aggregates the replicates exactly as explore::evaluate does.
  std::uint64_t sim_digest_of(const std::vector<SimResult>& results) const override {
    Digest d;
    const std::size_t per_point = kReplicates + 1;
    for (std::size_t p = 0; p < fabrics_.size(); ++p) {
      double tp = 0, lat = 0;
      for (std::size_t i = 0; i < kReplicates; ++i) {
        tp += results[p * per_point + i].throughput_flits_per_node_cycle;
        lat += results[p * per_point + i].avg_latency_cycles;
      }
      const auto reps = static_cast<double>(kReplicates);
      const SimResult& open = results[p * per_point + kReplicates];
      for (const double v : {tp / reps, lat / reps, open.avg_latency_cycles,
                             open.p99_latency_cycles}) {
        d.add(v);
      }
    }
    return d.value();
  }

  std::size_t expected_cold_hits() const override { return shared_statics_; }

  std::uint64_t inputs_digest() const override {
    Digest d;
    d.add(base_seed_);
    return d.value();
  }

 private:
  static constexpr std::size_t kReplicates = 8;
  static constexpr double kOpenRate = 0.08;
  static constexpr std::size_t kOpenCycles = 300;
  static constexpr std::size_t kWormholeCycles = 80;

  /// The same fabric explore::evaluate builds for @p p.
  static Fabric build_point(const explore::DesignPoint& p, Tracer* tracer) {
    if (p.family == "hypercube") {
      return hypercube_fabric(static_cast<unsigned>(p.levels), p.chip_size, tracer);
    }
    if (p.family == "kary2") return kary2_fabric(p.levels, p.chip_size, tracer);
    const auto make = p.family == "hsn"       ? topology::make_hsn
                      : p.family == "sfn"     ? topology::make_sfn
                      : p.family == "ring-cn" ? topology::make_ring_cn
                                              : topology::make_complete_cn;
    return super_fabric(make, p.levels, p.nucleus_dim, "super-" + p.family, tracer);
  }

  std::uint64_t base_seed_;
  /// Every pass runs as one task on this one-worker pool, so run_sweep runs
  /// each point's jobs inline on the worker (util::parallel_for does inside
  /// a pool task) and a pass costs one thread hand-off, not one per job
  /// chunk. The grid's jobs are too small for more workers to pay (an
  /// uncached pass took 0.20 s on the global pool's four, the same
  /// simulations one after another 0.19 s), and the hand-offs' cost moved
  /// with the host's load: warm_s spread 27% between runs, against 2–4%
  /// for the other workloads' single-job passes, which already run inline.
  mutable util::ThreadPool pool_{1};
  std::vector<explore::DesignPoint> grid_;
  std::vector<Fabric> fabrics_;
  std::size_t shared_statics_ = 0;
};

}  // namespace

StorePass Workload::store_pass(sim::ResultCache* cache,
                               sim::SweepProgress* progress,
                               const std::vector<SimResult>* known) const {
  const auto outcomes = sim::run_sweep(keyed_jobs(tasks_, known),
                                       util::ThreadPool::global(), progress, cache);
  std::vector<SimResult> results;
  StorePass pass;
  for (const sim::SweepOutcome& o : outcomes) {
    results.push_back(o.result);
    pass.jobs_from_cache += o.from_cache ? 1 : 0;
  }
  pass.jobs = outcomes.size();
  pass.sim_digest = sim_digest_of(results);
  pass.full_digest = pass.sim_digest;
  return pass;
}

std::uint64_t Workload::sim_digest_of(const std::vector<SimResult>& results) const {
  Digest d;
  for (const SimResult& r : results) add_result(d, r);
  return d.value();
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "q9_exchange") return std::make_unique<Q9Exchange>(seed);
  if (name == "hsn_exchange") return std::make_unique<HsnExchange>(seed);
  if (name == "hsn_degraded") return std::make_unique<HsnDegraded>(seed);
  if (name == "design_sweep") return std::make_unique<DesignSweep>(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

void Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffu;
    h_ *= 0x100000001b3ull;
  }
}

void Digest::add(double v) { add(std::bit_cast<std::uint64_t>(v)); }

namespace {

/// Every SimResult field, in declaration order.
template <class F>
void for_each_field(const SimResult& r, F&& f) {
  f(r.packets_delivered);
  f(r.makespan_cycles);
  f(r.avg_latency_cycles);
  f(r.p50_latency_cycles);
  f(r.p99_latency_cycles);
  f(r.max_latency_cycles);
  f(r.avg_hops);
  f(r.avg_offchip_hops);
  f(r.throughput_flits_per_node_cycle);
  f(r.max_offchip_utilization);
  f(r.avg_offchip_utilization);
  f(r.packets_injected);
  f(r.packets_dropped);
  f(r.packets_retransmitted);
  f(r.packets_in_flight);
  f(r.reroute_hops);
  f(r.delivered_fraction);
}

std::uint64_t bits(std::size_t v) { return v; }
std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

}  // namespace

void add_result(Digest& d, const SimResult& r) {
  for_each_field(r, [&d](auto v) { d.add(bits(v)); });
}

void add_result(Digest& d, const sim::WormholeResult& r) {
  d.add(std::uint64_t{r.packets_delivered});
  d.add(r.makespan_cycles);
  d.add(r.avg_latency_cycles);
  d.add(r.avg_hops);
  d.add(r.throughput_flits_per_node_cycle);
}

bool identical(const SimResult& a, const SimResult& b) {
  std::vector<std::uint64_t> fa, fb;
  for_each_field(a, [&fa](auto v) { fa.push_back(bits(v)); });
  for_each_field(b, [&fb](auto v) { fb.push_back(bits(v)); });
  return fa == fb;
}

}  // namespace perfbench
