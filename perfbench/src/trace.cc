#include "perfbench/src/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench {
namespace {

thread_local std::int64_t g_current_span = kNoParent;

}  // namespace

std::string LayerOf(const char* name) {
  const std::string s(name);
  const std::size_t dot = s.find('.');
  return dot == std::string::npos ? s : s.substr(0, dot);
}

std::uint64_t CoveredNs(
    std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals,
    std::uint64_t lo, std::uint64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  std::uint64_t covered = 0;
  std::uint64_t reach = lo;  // everything below `reach` is accounted for
  for (const auto& [start, end] : intervals) {
    const std::uint64_t a = std::max(start, reach);
    const std::uint64_t b = std::min(end, hi);
    if (b > a) {
      covered += b - a;
      reach = b;
    }
  }
  return covered;
}

std::vector<std::uint64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent != kNoParent) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                 s.end_ns);
    }
  }
  std::vector<std::uint64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::uint64_t dur = spans[i].end_ns - spans[i].start_ns;
    self[i] = dur - CoveredNs(std::move(children[i]), spans[i].start_ns,
                              spans[i].end_ns);
  }
  return self;
}

std::int64_t Tracer::RawNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t Tracer::NowNs() const {
  return static_cast<std::uint64_t>(RawNowNs() - origin_ns_);
}

std::int64_t Tracer::Begin(const char* name, std::uint64_t request) {
  Span span;
  span.name = name;
  span.parent = g_current_span;
  span.request = request;
  span.start_ns = NowNs();
  std::int64_t index;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    index = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(span);
  }
  g_current_span = index;
  return index;
}

void Tracer::End(std::int64_t index) {
  const std::uint64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end_ns = now;
  g_current_span = span.parent;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::map<std::string, double> Tracer::LayerSelfSeconds() const {
  const std::vector<Span> all = spans();
  const std::vector<std::uint64_t> self = SelfTimesNs(all);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < all.size(); ++i) {
    out[LayerOf(all[i].name)] += static_cast<double>(self[i]) * 1e-9;
  }
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %llu, "
                 "\"end_ns\": %llu, \"parent\": %lld, \"request\": %llu}\n",
                 i, s.name, static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
