#ifndef BATI_PERFBENCH_SPANS_H_
#define BATI_PERFBENCH_SPANS_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// In-memory spans recorded by the benchmark around its calls into each
/// layer's public functions. Single-threaded: every span opens and closes
/// on the benchmark's own thread, so children nest strictly inside their
/// parent and a span's self time is its duration minus its children's.
/// A disabled recorder records nothing and costs one branch per call.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    std::string layer;
    int parent = -1;
    double start = 0.0;
    double end = 0.0;
    /// Parts of this span's self time that counters read at its boundary
    /// attribute to another layer (e.g. the executor's wall seconds inside
    /// a Tune() span).
    std::vector<std::pair<std::string, double>> carved;
  };

  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open span; -1 when disabled.
  int Open(const std::string& name, const std::string& layer);
  void Close(int id);

  /// Moves `seconds` of span `id`'s self time to `layer`.
  void Carve(int id, const std::string& layer, double seconds);

  /// Self seconds per layer over every span that descends from `root`
  /// (the root's own self time counts as the root's layer).
  std::map<std::string, double> SelfSeconds(int root) const;

 private:
  /// Duration of a closed span (0 for -1).
  double Duration(int id) const;

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Opens a span for the lifetime of the scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const std::string& name,
             const std::string& layer)
      : rec_(rec), id_(rec->Open(name, layer)) {}
  ~ScopedSpan() { rec_->Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  SpanRecorder* rec_;
  int id_;
};

}  // namespace perfbench

#endif  // BATI_PERFBENCH_SPANS_H_
