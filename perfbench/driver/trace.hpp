#pragma once
// Tracing for the benchmark's traced run (--trace 1), recorded entirely
// from the benchmark's own code around calls into the repo's public
// functions; nothing inside the program is instrumented.
//
// Tracer keeps spans (name, start, end, parent, run id, thread) in memory
// and writes them out once at exit. RouteMeter wraps a sim::Router so every
// route call is timed and counted; it is thread-safe because sharded
// degraded runs route from pool worker threads.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "sim/routers.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t ns_since(Clock::time_point origin, Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
      .count();
}

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// What the route calls made during one traced call add up to.
struct RouteTotals {
  std::uint64_t calls = 0;
  std::uint64_t hops = 0;      ///< dimension-word entries returned
  double busy_s = 0;           ///< summed per-call time, over all threads
  double covered_s = 0;        ///< wall time covered by >= 1 call (union)
  std::int64_t first_ns = -1;  ///< earliest call start (Tracer clock)
  std::int64_t last_ns = -1;   ///< latest call end
};

/// Times every call of the Routers it wraps. The meter must outlive the
/// wrapped routers' use.
class RouteMeter {
 public:
  explicit RouteMeter(Clock::time_point origin) : origin_(origin) {}
  RouteMeter(const RouteMeter&) = delete;
  RouteMeter& operator=(const RouteMeter&) = delete;

  ipg::sim::Router wrap(ipg::sim::Router inner);

  /// Totals since the last take(); resets the meter.
  RouteTotals take();

 private:
  struct Interval {
    std::int64_t start;
    std::int64_t end;
  };

  Clock::time_point origin_;
  std::atomic<std::uint64_t> calls_{0};
  std::atomic<std::uint64_t> hops_{0};
  std::atomic<std::int64_t> busy_ns_{0};
  std::mutex mu_;
  std::vector<Interval> intervals_;  ///< guarded by mu_
};

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index into the span list, -1 for a root
  std::uint32_t run = 0;     ///< iteration of the measurement loop
  std::uint32_t thread = 0;  ///< 0 = main thread, 1 = route calls (any)
  std::int64_t child_ns = 0; ///< part of [start, end) covered by children
  std::uint64_t calls = 0;   ///< route summaries only
};

/// Span recorder. Spans are opened and closed on the main thread; route
/// calls made on any thread are folded in as one summary child span per
/// parent (attach_routes).
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  Clock::time_point origin() const noexcept { return origin_; }
  void set_run(std::uint32_t run) noexcept { run_ = run; }

  /// Opens a span as a child of the innermost open span; returns its id.
  std::size_t open(std::string name);
  /// Closes span @p id; returns its duration in seconds.
  double close(std::size_t id);
  /// Records @p routes as a "topology.route" child of open span @p id.
  void attach_routes(std::size_t id, const RouteTotals& routes);

  /// Self time of a closed span: duration minus child coverage.
  double self_seconds(std::size_t id) const;

  /// Number of spans recorded so far (a span id watermark).
  std::size_t size() const noexcept { return spans_.size(); }
  /// Summed duration of the spans named @p name with id >= @p first.
  double total_since(std::size_t first, const std::string& name) const;

  /// Writes every span as one JSON document.
  void write_json(std::ostream& os) const;

 private:
  Clock::time_point origin_;
  std::uint32_t run_ = 0;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  ///< stack of open span ids
};

/// Opens a span for the enclosing scope; a no-op when @p tracer is null.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, std::string name) : tracer_(tracer) {
    if (tracer_ != nullptr) id_ = tracer_->open(std::move(name));
  }
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  std::size_t id_ = 0;
};

}  // namespace perfbench
