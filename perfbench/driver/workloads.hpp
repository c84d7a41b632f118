#pragma once
// The benchmark's four workloads. Each generates its inputs from the seed
// and exposes the same stages, so every end-to-end metric is defined on
// every workload (NOTES.md says what each stage means per workload):
//   build()        set-up: fabric, chip network, injection inputs;
//   tasks()        the simulations run on kArena / kSharded;
//   wormhole()     flit-level open-loop runs on the same fabric(s);
//   store_pass()   the simulations served through a ResultStore.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "sim/wormhole.hpp"
#include "topology/super_ipg.hpp"

namespace perfbench {

class Tracer;

/// One built network with its canonical router.
struct Fabric {
  std::shared_ptr<const ipg::topology::SuperIpg> ipg;  ///< null for baselines
  std::unique_ptr<ipg::sim::SimNetwork> net;
  ipg::sim::Router router;
  std::string router_tag;  ///< names the router in store keys
  ipg::sim::VcClassifier vc_classes;
};

/// One simulation of a workload. run() takes the router and config so the
/// driver can swap in the engine, an observer, or a timed router.
struct SimTask {
  const Fabric* fabric = nullptr;
  ipg::sim::SimConfig cfg;
  std::string workload_key;  ///< store/fingerprint.hpp workload descriptor
  std::function<ipg::sim::SimResult(const ipg::sim::Router&,
                                    const ipg::sim::SimConfig&)>
      run;
};

/// What one pass through the store produced.
struct StorePass {
  std::uint64_t sim_digest = 0;   ///< simulated statistics the pass served
  std::uint64_t full_digest = 0;  ///< everything it reports (design metrics)
  std::size_t jobs = 0;
  std::size_t jobs_from_cache = 0;
  std::size_t statics = 0;        ///< design_sweep static bundles
  std::size_t statics_from_cache = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// (Re)builds every input from the seed. @p tracer (may be null) gets a
  /// span per layer call.
  virtual void build(Tracer* tracer) = 0;
  /// Builds per setup_s sample, so one sample lasts well over 100 ms.
  virtual std::size_t builds_per_sample() const = 0;
  /// Warm store passes per warm_s sample, for the same reason.
  virtual std::size_t warm_passes_per_sample() const = 0;
  /// Cold store passes per cold_s sample. Where the cold pass only
  /// persists known results (cold_pass_simulates() false) one pass is short,
  /// so a sample times a batch of them.
  virtual std::size_t cold_passes_per_sample() const = 0;
  /// True when a cold pass computes its results (design_sweep: the grid);
  /// false when it persists the iteration's kArena results, which arena_s
  /// already times.
  virtual bool cold_pass_simulates() const { return false; }

  const std::vector<SimTask>& tasks() const noexcept { return tasks_; }

  virtual std::vector<ipg::sim::WormholeResult> wormhole() const = 0;

  /// Serves tasks() through @p cache (null = compute only). When @p known
  /// holds the results of tasks(), a job that misses the cache returns its
  /// known result instead of simulating again.
  virtual StorePass store_pass(
      ipg::sim::ResultCache* cache, ipg::sim::SweepProgress* progress,
      const std::vector<ipg::sim::SimResult>* known = nullptr) const;

  /// The digest store_pass().sim_digest must equal, given the kArena
  /// results of tasks().
  virtual std::uint64_t sim_digest_of(
      const std::vector<ipg::sim::SimResult>& results) const;

  /// Store hits a cold pass makes legitimately: static bundles of networks
  /// that an earlier grid point of the same pass already stored.
  virtual std::size_t expected_cold_hits() const { return 0; }

  /// Digest of the generated inputs (equal seeds give equal inputs).
  virtual std::uint64_t inputs_digest() const = 0;

 protected:
  std::vector<SimTask> tasks_;
};

/// q9_exchange, hsn_exchange, hsn_degraded or design_sweep; throws
/// std::invalid_argument for any other name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

// --- digests (FNV-1a over exact bit patterns) -------------------------------

class Digest {
 public:
  void add(std::uint64_t v);
  void add(double v);
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

void add_result(Digest& d, const ipg::sim::SimResult& r);
void add_result(Digest& d, const ipg::sim::WormholeResult& r);

/// True when every SimResult field matches bit for bit.
bool identical(const ipg::sim::SimResult& a, const ipg::sim::SimResult& b);

}  // namespace perfbench
