// Span recording and the statistics rules of the perfbench benchmark.
//
// Spans are recorded by the benchmark around its own calls into the
// library's public functions (never inside the library), kept in
// memory, and written out once at the end as Chrome trace-event JSON.
// Every span carries the id of the span that caused it (0 = none) and
// the unit it belongs to (0 = set-up), so a unit's layer calls share
// one unit id and hang off the unit's own span.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;         ///< "<layer>.<call>", or "unit" / "setup"
  std::uint64_t id = 0;     ///< 1-based, unique within a run
  std::uint64_t parent = 0; ///< id of the enclosing span, 0 for a root
  std::uint64_t unit = 0;   ///< 1-based unit index, 0 for set-up
  double start = 0.0;       ///< seconds since the recorder was created
  double end = 0.0;
};

/// Layer of a span: the name up to the first '.', or the whole name.
[[nodiscard]] std::string layer_of(const std::string& name);

/// Records spans when enabled; when disabled every call is a plain
/// invocation with no clock reads, so untraced runs pay nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Open a root span ("unit" or "setup"); layer calls made until
  /// close_root() become its children.
  void open_root(std::string name, std::uint64_t unit);
  void close_root();

  /// Run `fn` inside a span named `name` under the open root.
  template <class Fn>
  decltype(auto) call(const char* name, Fn&& fn) {
    if (!enabled_) return std::forward<Fn>(fn)();
    const std::size_t index = begin(name);
    struct Closer {
      Tracer* self;
      std::size_t index;
      ~Closer() { self->spans_[index].end = self->now(); }
    } closer{this, index};
    return std::forward<Fn>(fn)();
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

 private:
  std::size_t begin(const char* name);
  [[nodiscard]] double now() const;

  bool enabled_;
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::size_t root_ = 0;  ///< index + 1 of the open root span, 0 = none
  std::uint64_t unit_ = 0;
};

/// Self time of every span (same order as `spans`): its duration minus
/// the part of its interval covered by its children.  Overlapping
/// children are counted once.
[[nodiscard]] std::vector<double> self_times(const std::vector<Span>& spans);

/// Share of the "unit" spans' total duration that no child span
/// covers; 0 when there are no unit spans.
[[nodiscard]] double unattributed_share(const std::vector<Span>& spans);

/// The percentile rule: the highest of 50, 75, 90, 95, 99 and 99.9
/// that leaves at least ten of `samples` values beyond its
/// nearest-rank position; 50 when even the median leaves fewer.
[[nodiscard]] double tail_percentile(std::size_t samples);

/// Nearest-rank percentile (0 < pct <= 100) of unsorted `values`;
/// 0 for an empty set.
[[nodiscard]] double percentile(std::vector<double> values, double pct);

/// Chrome trace-event JSON ("X" complete events, microseconds), one
/// event per span with its id, parent and unit in `args`.
[[nodiscard]] std::string chrome_trace_json(const std::vector<Span>& spans);

}  // namespace perfbench
