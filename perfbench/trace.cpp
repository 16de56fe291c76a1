#include "trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

void Tracer::open_root(std::string name, std::uint64_t unit) {
  if (!enabled_) return;
  unit_ = unit;
  const double t = now();
  spans_.push_back(Span{std::move(name), spans_.size() + 1, 0, unit, t, t});
  root_ = spans_.size();
}

void Tracer::close_root() {
  if (!enabled_ || root_ == 0) return;
  spans_[root_ - 1].end = now();
  root_ = 0;
}

std::size_t Tracer::begin(const char* name) {
  const std::uint64_t parent = root_ == 0 ? 0 : spans_[root_ - 1].id;
  const double t = now();
  spans_.push_back(Span{name, spans_.size() + 1, parent, unit_, t, t});
  return spans_.size() - 1;
}

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index_of;
  for (std::size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;

  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    const auto it = index_of.find(s.parent);
    if (s.parent == 0 || it == index_of.end()) continue;
    const Span& p = spans[it->second];
    const double lo = std::max(s.start, p.start);
    const double hi = std::min(s.end, p.end);
    if (hi > lo) children[it->second].emplace_back(lo, hi);
  }

  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double reach = -INFINITY;
    for (const auto& [lo, hi] : iv) {
      const double from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    out[i] = (spans[i].end - spans[i].start) - covered;
  }
  return out;
}

double unattributed_share(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  double uncovered = 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != "unit") continue;
    uncovered += self[i];
    total += spans[i].end - spans[i].start;
  }
  return total > 0.0 ? uncovered / total : 0.0;
}

namespace {

/// 1-based nearest-rank position of percentile `pct` among n values.
std::size_t nearest_rank(std::size_t n, double pct) {
  const double exact = pct / 100.0 * static_cast<double>(n);
  // The epsilon keeps e.g. 90% of 100 at rank 90 despite rounding.
  const auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double tail_percentile(std::size_t samples) {
  constexpr double kLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0};
  for (const double pct : kLadder) {
    if (samples > 0 && samples - nearest_rank(samples, pct) >= 10) return pct;
  }
  return 50.0;
}

double percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  const std::size_t rank = nearest_rank(values.size(), pct);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

std::string chrome_trace_json(const std::vector<Span>& spans) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[512];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                  "\"args\":{\"id\":%llu,\"parent\":%llu,\"unit\":%llu}}",
                  i == 0 ? "" : ",", s.name.c_str(),
                  layer_of(s.name).c_str(), s.start * 1e6,
                  (s.end - s.start) * 1e6,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.unit));
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

}  // namespace perfbench
