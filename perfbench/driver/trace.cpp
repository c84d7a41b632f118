#include "trace.hpp"

#include <algorithm>
#include <ostream>
#include <utility>

namespace perfbench {

ipg::sim::Router RouteMeter::wrap(ipg::sim::Router inner) {
  return [this, inner = std::move(inner)](ipg::topology::NodeId s,
                                          ipg::topology::NodeId d) {
    const auto t0 = Clock::now();
    auto word = inner(s, d);
    const auto t1 = Clock::now();
    const Interval iv{ns_since(origin_, t0), ns_since(origin_, t1)};
    calls_.fetch_add(1, std::memory_order_relaxed);
    hops_.fetch_add(word.size(), std::memory_order_relaxed);
    busy_ns_.fetch_add(iv.end - iv.start, std::memory_order_relaxed);
    {
      const std::lock_guard<std::mutex> lock(mu_);
      intervals_.push_back(iv);
    }
    return word;
  };
}

RouteTotals RouteMeter::take() {
  std::vector<Interval> ivs;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ivs.swap(intervals_);
  }
  RouteTotals t;
  t.calls = calls_.exchange(0);
  t.hops = hops_.exchange(0);
  t.busy_s = static_cast<double>(busy_ns_.exchange(0)) * 1e-9;
  if (ivs.empty()) return t;
  std::sort(ivs.begin(), ivs.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  std::int64_t covered = 0;
  std::int64_t run_start = ivs.front().start;
  std::int64_t run_end = ivs.front().end;
  for (const Interval& iv : ivs) {
    if (iv.start > run_end) {
      covered += run_end - run_start;
      run_start = iv.start;
    }
    run_end = std::max(run_end, iv.end);
  }
  covered += run_end - run_start;
  t.covered_s = static_cast<double>(covered) * 1e-9;
  t.first_ns = ivs.front().start;
  t.last_ns = run_end;
  return t;
}

std::size_t Tracer::open(std::string name) {
  Span s;
  s.name = std::move(name);
  s.start_ns = ns_since(origin_, Clock::now());
  s.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  s.run = run_;
  spans_.push_back(std::move(s));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

double Tracer::close(std::size_t id) {
  Span& s = spans_[id];
  s.end_ns = ns_since(origin_, Clock::now());
  if (!open_.empty() && open_.back() == id) open_.pop_back();
  const std::int64_t dur = s.end_ns - s.start_ns;
  if (s.parent >= 0) spans_[static_cast<std::size_t>(s.parent)].child_ns += dur;
  return static_cast<double>(dur) * 1e-9;
}

void Tracer::attach_routes(std::size_t id, const RouteTotals& routes) {
  if (routes.calls == 0) return;
  Span s;
  s.name = "topology.route";
  s.start_ns = routes.first_ns;
  s.end_ns = routes.last_ns;
  s.parent = static_cast<std::int64_t>(id);
  s.run = run_;
  s.thread = 1;
  s.calls = routes.calls;
  // Gaps between calls count as the summary span's "children", so its self
  // time is the wall time the calls cover.
  s.child_ns = (s.end_ns - s.start_ns) -
               static_cast<std::int64_t>(routes.covered_s * 1e9);
  spans_[id].child_ns += static_cast<std::int64_t>(routes.covered_s * 1e9);
  spans_.push_back(std::move(s));
}

double Tracer::self_seconds(std::size_t id) const {
  const Span& s = spans_[id];
  return static_cast<double>(s.end_ns - s.start_ns - s.child_ns) * 1e-9;
}

double Tracer::total_since(std::size_t first, const std::string& name) const {
  std::int64_t ns = 0;
  for (std::size_t i = first; i < spans_.size(); ++i) {
    if (spans_[i].name == name) ns += spans_[i].end_ns - spans_[i].start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

void Tracer::write_json(std::ostream& os) const {
  os << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "  {\"id\": " << i << ", \"name\": \"" << s.name
       << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
       << ", \"parent\": " << s.parent << ", \"run\": " << s.run
       << ", \"thread\": " << s.thread
       << ", \"self_ns\": " << (s.end_ns - s.start_ns - s.child_ns);
    if (s.calls > 0) os << ", \"calls\": " << s.calls;
    os << (i + 1 < spans_.size() ? "},\n" : "}\n");
  }
  os << "]}\n";
}

}  // namespace perfbench
