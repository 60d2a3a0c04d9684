#include "spans.h"

#include "bench.h"

namespace perfbench {

int SpanRecorder::Open(const std::string& name, const std::string& layer) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.layer = layer;
  span.parent = open_.empty() ? -1 : open_.back();
  const int id = static_cast<int>(spans_.size());
  span.start = Now();
  spans_.push_back(std::move(span));
  open_.push_back(id);
  return id;
}

void SpanRecorder::Close(int id) {
  if (id < 0) return;
  spans_[id].end = Now();
  // Spans close innermost first; a span closed out of order also closes
  // everything opened inside it.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == id) break;
  }
}

void SpanRecorder::Carve(int id, const std::string& layer, double seconds) {
  if (id < 0) return;
  spans_[id].carved.emplace_back(layer, seconds);
}

double SpanRecorder::Duration(int id) const {
  if (id < 0) return 0.0;
  return spans_[id].end - spans_[id].start;
}

std::map<std::string, double> SpanRecorder::SelfSeconds(int root) const {
  std::map<std::string, double> self;
  if (root < 0) return self;
  // Spans are recorded in open order, so every descendant of `root` comes
  // after it and a parent always precedes its children.
  std::vector<bool> inside(spans_.size(), false);
  std::vector<double> child_time(spans_.size(), 0.0);
  inside[root] = true;
  for (size_t i = root + 1; i < spans_.size(); ++i) {
    const int parent = spans_[i].parent;
    if (parent >= 0 && inside[parent]) {
      inside[i] = true;
      child_time[parent] += Duration(static_cast<int>(i));
    }
  }
  for (size_t i = root; i < spans_.size(); ++i) {
    if (!inside[i]) continue;
    const Span& s = spans_[i];
    double own = Duration(static_cast<int>(i)) - child_time[i];
    for (const auto& [layer, seconds] : s.carved) {
      self[layer] += seconds;
      own -= seconds;
    }
    self[s.layer] += own;
  }
  return self;
}

}  // namespace perfbench
