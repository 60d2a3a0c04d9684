// bati_serve: the long-running tuning daemon.
//
//   bati_serve --state serve.ckpt < events.jsonl
//   bati_serve --state serve.ckpt --resume < events.jsonl
//
// Reads a JSONL event stream (see docs/SERVE.md for the schema: query,
// register, tune, deploy, advance, drain) from stdin or --input, answers
// each event with one JSONL line on stdout (flushed per line), observes
// every tenant's live query mix through a sliding-window sketch, re-tunes
// on workload drift, and runs each recommended configuration through the
// safety-guarded index lifecycle before it ships.
//
// SIGTERM/SIGINT shut down gracefully: in-flight tuning runs finish, the
// daemon checkpoints to --state, and the process exits 0. Restarting with
// --resume on the same stream skips the already-processed prefix and
// converges to the byte-identical state of an uninterrupted run.

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <string>

#include "common/flags.h"
#include "common/record_file.h"
#include "serve/daemon.h"

namespace {

std::atomic<bool> g_stop{false};

void HandleStopSignal(int) { g_stop.store(true); }

/// Line-at-a-time reader over a raw fd. Uses read(2) directly (not
/// iostreams) so a SIGTERM arriving while blocked on input surfaces as
/// EINTR and the stop flag is honored immediately instead of after the
/// next line.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  enum class Result { kLine, kEof, kStop };

  Result Next(std::string* line) {
    for (;;) {
      if (g_stop.load()) return Result::kStop;
      const size_t newline = buffer_.find('\n', pos_);
      if (newline != std::string::npos) {
        line->assign(buffer_, pos_, newline - pos_);
        pos_ = newline + 1;
        return Result::kLine;
      }
      if (pos_ > 0) {
        buffer_.erase(0, pos_);
        pos_ = 0;
      }
      if (eof_) {
        if (buffer_.empty()) return Result::kEof;
        line->assign(buffer_);
        buffer_.clear();
        return Result::kLine;
      }
      char chunk[4096];
      const ssize_t n = read(fd_, chunk, sizeof(chunk));
      if (n > 0) {
        buffer_.append(chunk, static_cast<size_t>(n));
      } else if (n == 0) {
        eof_ = true;
      } else if (errno == EINTR) {
        continue;  // the loop head re-checks g_stop
      } else {
        eof_ = true;  // unreadable input ends the stream
      }
    }
  }

 private:
  int fd_;
  std::string buffer_;
  size_t pos_ = 0;
  bool eof_ = false;
};

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options] < events.jsonl\n"
      "  --input FILE          read events from FILE ('-' = stdin)\n"
      "  --state FILE          checkpoint file (enables graceful\n"
      "                        shutdown/recovery)\n"
      "  --resume              restore from --state and skip the\n"
      "                        already-processed input prefix\n"
      "  --parallelism N       tuning-session workers (default 2)\n"
      "  --tick SECONDS        simulated seconds per query event\n"
      "                        (default 1)\n"
      "  --window N            observer sliding window (default 256)\n"
      "  --stride N            drift check every N observations\n"
      "                        (default 32)\n"
      "  --min-events N        no drift verdict before N observations\n"
      "                        (default 64)\n"
      "  --drift-threshold X   total-variation distance that triggers a\n"
      "                        re-tune (default 0.25)\n"
      "  --safety-bound X      max tolerated relative regression before\n"
      "                        rollback (default 0.02)\n"
      "  --checkpoint-every N  also checkpoint every N events (default:\n"
      "                        only at shutdown)\n"
      "  --signal KIND         deployment signal judging ship/rollback:\n"
      "                        whatif (default) | exec-deterministic |\n"
      "                        measured (see docs/SERVE.md)\n"
      "  --signal-reps N       measured-signal repetitions per side\n"
      "                        (default 3)\n"
      "  --signal-max-rows N   exec-signal store cap in catalog rows;\n"
      "                        larger tenants fall back to calibrated\n"
      "                        what-if (default 2000000)\n"
      "  --metrics FILE        write the metrics snapshot JSON at exit\n"
      "  --trace FILE          write the Chrome trace JSON at exit\n"
      "one stdout JSONL line answers each input event; tune results are\n"
      "appended when their simulated completion time passes. SIGTERM\n"
      "drains, checkpoints, and exits 0.\n",
      argv0);
}

/// True while stdout still accepts our answer lines. A consumer closing
/// the pipe flips this (SIGPIPE is ignored, so fwrite fails with EPIPE
/// instead of killing the daemon mid-checkpoint).
bool EmitChunk(const std::string& chunk) {
  if (chunk.empty()) return true;
  if (std::fwrite(chunk.data(), 1, chunk.size(), stdout) != chunk.size()) {
    return false;
  }
  return std::fflush(stdout) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bati;
  std::string input_path = "-";
  std::string metrics_path;
  std::string trace_path;
  bool resume = false;
  int64_t parallelism = 2;
  int64_t window = 256;
  int64_t stride = 32;
  int64_t min_events = 64;
  int64_t checkpoint_every = 0;
  double tick = 1.0;
  double drift_threshold = 0.25;
  double safety_bound = 0.02;
  std::string signal_name = "whatif";
  int64_t signal_reps = 3;
  int64_t signal_max_rows = 2 * 1000 * 1000;
  ServeOptions options;

  FlagParser parser;
  parser.AddString("input", &input_path);
  parser.AddString("state", &options.state_path);
  parser.AddBool("resume", &resume);
  parser.AddInt64("parallelism", &parallelism, /*min=*/1);
  parser.AddDouble("tick", &tick, /*min=*/0.0);
  parser.AddInt64("window", &window, /*min=*/1);
  parser.AddInt64("stride", &stride, /*min=*/1);
  parser.AddInt64("min-events", &min_events, /*min=*/0);
  parser.AddRate("drift-threshold", &drift_threshold);
  parser.AddDouble("safety-bound", &safety_bound, /*min=*/0.0);
  parser.AddInt64("checkpoint-every", &checkpoint_every, /*min=*/0);
  parser.AddString("signal", &signal_name);
  parser.AddInt64("signal-reps", &signal_reps, /*min=*/1);
  parser.AddInt64("signal-max-rows", &signal_max_rows, /*min=*/1);
  parser.AddString("metrics", &metrics_path);
  parser.AddString("trace", &trace_path);
  if (!parser.Parse(argc, argv)) {
    Usage(argv[0]);
    return 2;
  }
  options.parallelism = static_cast<int>(parallelism);
  options.tick_seconds = tick;
  options.observer.window = static_cast<size_t>(window);
  options.observer.stride = static_cast<size_t>(stride);
  options.observer.min_events = static_cast<size_t>(min_events);
  options.observer.drift_threshold = drift_threshold;
  options.safety_bound = safety_bound;
  options.checkpoint_every = checkpoint_every;
  if (!ParseSignalKind(signal_name, &options.signal)) {
    std::fprintf(stderr, "unknown --signal \"%s\"\n", signal_name.c_str());
    Usage(argv[0]);
    return 2;
  }
  options.signal_options.measured_repetitions =
      static_cast<int>(signal_reps);
  options.signal_options.max_store_rows = signal_max_rows;
  if (resume && options.state_path.empty()) {
    std::fprintf(stderr, "--resume requires --state\n");
    Usage(argv[0]);
    return 2;
  }

  int fd = STDIN_FILENO;
  if (input_path != "-") {
    fd = open(input_path.c_str(), O_RDONLY);
    if (fd < 0) {
      std::fprintf(stderr, "cannot read %s\n", input_path.c_str());
      return 2;
    }
  }

  // A consumer closing stdout must become a write error we can turn into
  // a clean drain + non-zero exit, not a SIGPIPE kill.
  std::signal(SIGPIPE, SIG_IGN);

  // Graceful shutdown: no SA_RESTART, so a blocked read returns EINTR and
  // the loop sees the stop flag right away.
  struct sigaction action = {};
  action.sa_handler = HandleStopSignal;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);

  ServeDaemon daemon(options);
  if (resume) {
    const Status st = daemon.Resume();
    if (!st.ok()) {
      std::fprintf(stderr, "resume failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "resumed from %s\n", options.state_path.c_str());
  }

  LineReader reader(fd);
  std::string line;
  std::string out;
  bool stopped = false;
  bool write_failed = false;
  for (;;) {
    const LineReader::Result result = reader.Next(&line);
    if (result == LineReader::Result::kStop) {
      stopped = true;
      break;
    }
    if (result == LineReader::Result::kEof) break;
    out.clear();
    daemon.ProcessLine(line, &out);
    if (!EmitChunk(out)) {
      // Output is gone; drain through the checkpoint path so no accepted
      // work is lost, then report the failure.
      write_failed = true;
      stopped = true;
      break;
    }
  }

  int exit_code = 0;
  if (stopped) {
    const Status st = daemon.Shutdown();
    if (!st.ok()) {
      std::fprintf(stderr, "checkpoint failed: %s\n",
                   st.ToString().c_str());
      exit_code = 1;
    }
  } else {
    out.clear();
    daemon.Finish(&out);
    if (!EmitChunk(out)) write_failed = true;
  }
  if (write_failed) {
    std::fprintf(stderr, "output write failed (consumer gone?)\n");
    exit_code = 1;
  }

  if (!metrics_path.empty()) {
    const Status st =
        AtomicWriteFile(metrics_path, daemon.metrics().Snapshot().ToJson());
    if (!st.ok()) {
      std::fprintf(stderr, "metrics write failed: %s\n",
                   st.ToString().c_str());
    }
  }
  if (!trace_path.empty()) {
    const Status st = daemon.tracer().WriteChromeJson(trace_path);
    if (!st.ok()) {
      std::fprintf(stderr, "trace write failed: %s\n",
                   st.ToString().c_str());
    }
  }
  std::fprintf(stderr, "%s%s\n", daemon.SummaryLine().c_str(),
               stopped ? " (SIGTERM checkpoint)" : "");
  if (fd != STDIN_FILENO) close(fd);
  return exit_code;
}
