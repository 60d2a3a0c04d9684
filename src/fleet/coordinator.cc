#include "fleet/coordinator.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <ctime>
#include <deque>

#include "common/json.h"
#include "common/macros.h"
#include "common/record_file.h"
#include "fleet/wire.h"
#include "fleet/worker.h"
#include "session/spec_json.h"

namespace bati {

namespace {

int64_t NowMs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000 + ts.tv_nsec / 1000000;
}

/// Everything the coordinator knows about one submitted spec.
struct TaskState {
  std::string workload;
  std::string spec_json;  // canonical wire form
  int attempts = 0;       // dispatches started (including speculation)
  int in_flight = 0;      // live copies right now (0, 1, or 2)
  int speculative_attempt = 0;  // attempt number of the speculative copy
  bool done = false;
  bool ok = false;
  std::string output;  // the task's output line (valid once done)
};

/// One forked worker process and the coordinator's end of its pipes.
struct WorkerSlot {
  pid_t pid = -1;
  int task_fd = -1;    // coordinator writes TASK frames here
  int result_fd = -1;  // coordinator reads HB/RESULT frames here
  std::string rbuf;    // partial-line buffer for result_fd
  uint64_t task = 0;   // ticket being run; 0 = idle
  int attempt = 0;
  int64_t lease_deadline = 0;  // valid while task != 0
  int64_t dispatch_ms = 0;     // when the current task was dispatched
};

class Coordinator {
 public:
  Coordinator(const FleetOptions& options,
              const std::vector<RunSpec>& specs,
              const std::function<bool(const std::string&)>& emit,
              const std::atomic<bool>* stop, FleetStats* stats)
      : options_(options), emit_(emit), stop_(stop), stats_(stats) {
    if (options_.window <= 0) options_.window = 4 * options_.workers;
    tasks_.resize(specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
      tasks_[i].workload = specs[i].workload;
      tasks_[i].spec_json = RunSpecToJson(specs[i]);
    }
  }

  Status Run() {
    if (options_.workers < 1) {
      return Status::InvalidArgument("fleet needs at least one worker");
    }
    if (options_.lease_timeout_ms < 4 * options_.heartbeat_ms) {
      return Status::InvalidArgument(
          "lease_timeout_ms must be at least 4x heartbeat_ms");
    }
    stats_->tasks = tasks_.size();
    if (options_.resume && !options_.state_path.empty()) {
      // LoadState applies all of the file or none of it.
      const Status st = LoadState();
      if (!st.ok()) {
        std::fprintf(stderr,
                     "bati_fleet: state %s rejected, starting fresh: %s\n",
                     options_.state_path.c_str(), st.ToString().c_str());
      }
    }

    workers_.resize(static_cast<size_t>(options_.workers));
    for (WorkerSlot& w : workers_) ForkWorker(&w);

    Status status = Status::Ok();
    for (;;) {
      if (stop_ != nullptr && stop_->load()) {
        stats_->interrupted = true;
        break;
      }
      Admit();
      Dispatch();
      if (!EmitReady()) {
        status = Status::Internal("output write failed");
        break;
      }
      if (next_emit_ > tasks_.size()) break;  // everything emitted
      PollWorkers();
    }

    if (stats_->interrupted) SaveState();
    for (WorkerSlot& w : workers_) {
      // Detach the slot from its task first: an interrupted in-flight
      // attempt must not be charged as a failure (a resumed coordinator
      // re-runs it), and a live worker must be killed before waitpid.
      w.task = 0;
      if (w.pid > 0) kill(w.pid, SIGKILL);
      ReapWorker(&w, /*replace=*/false);
    }
    return status;
  }

 private:
  TaskState& Task(uint64_t ticket) { return tasks_[ticket - 1]; }

  /// Admits tickets into the ready queue while they fit the in-flight
  /// window (measured from the lowest unemitted ticket).
  void Admit() {
    while (next_admit_ <= tasks_.size() &&
           next_admit_ < next_emit_ + static_cast<uint64_t>(options_.window)) {
      if (!Task(next_admit_).done) ready_.push_back(next_admit_);
      ++next_admit_;
    }
  }

  /// Hands queued tasks to idle workers; with an empty queue, considers
  /// speculative re-dispatch of the oldest straggler.
  void Dispatch() {
    for (WorkerSlot& w : workers_) {
      if (w.task != 0) continue;
      if (!ready_.empty()) {
        const uint64_t ticket = ready_.front();
        ready_.pop_front();
        DispatchTo(&w, ticket, /*speculative=*/false);
      } else if (options_.straggler_ms > 0) {
        const uint64_t straggler = PickStraggler();
        if (straggler != 0) DispatchTo(&w, straggler, /*speculative=*/true);
      }
    }
  }

  /// The lowest-ticket task that has exactly one copy in flight for longer
  /// than the straggler threshold and attempt budget to spare; 0 if none.
  uint64_t PickStraggler() {
    const int64_t now = NowMs();
    for (const WorkerSlot& w : workers_) {
      if (w.task == 0) continue;
      TaskState& t = Task(w.task);
      if (t.in_flight == 1 && t.speculative_attempt == 0 &&
          t.attempts < options_.max_attempts &&
          now - w.dispatch_ms >= options_.straggler_ms) {
        return w.task;
      }
    }
    return 0;
  }

  void DispatchTo(WorkerSlot* w, uint64_t ticket, bool speculative) {
    TaskState& t = Task(ticket);
    ++t.attempts;
    ++t.in_flight;
    ++stats_->dispatches;
    if (speculative) {
      t.speculative_attempt = t.attempts;
      ++stats_->speculative_dispatches;
    }
    TaskFrame frame;
    frame.task_id = ticket;
    frame.attempt = t.attempts;
    // Resume is worthwhile whenever an earlier attempt may have left a
    // round-boundary checkpoint; the worker validates the file (falling
    // back to a fresh start on any mismatch), so an optimistic flag costs
    // at most a stderr line.
    frame.resume = !options_.state_dir.empty() && t.attempts > 1 &&
                   access(TaskCheckpointPath(options_.state_dir, ticket)
                              .c_str(),
                          R_OK) == 0;
    frame.spec_json = t.spec_json;
    w->task = ticket;
    w->attempt = t.attempts;
    w->dispatch_ms = NowMs();
    w->lease_deadline = w->dispatch_ms + options_.lease_timeout_ms;
    if (options_.verbose) {
      std::fprintf(stderr,
                   "bati_fleet: task %llu attempt %d -> pid %d%s%s\n",
                   static_cast<unsigned long long>(ticket), t.attempts,
                   static_cast<int>(w->pid), frame.resume ? " (resume)" : "",
                   speculative ? " (speculative)" : "");
    }
    if (!WriteAll(w->task_fd, EncodeTaskLine(frame))) {
      // The worker died before we could feed it; reap, requeue, refork.
      ++stats_->worker_deaths;
      ReapWorker(w, /*replace=*/true);
    }
  }

  static bool WriteAll(int fd, const std::string& data) {
    size_t off = 0;
    while (off < data.size()) {
      const ssize_t n = write(fd, data.data() + off, data.size() - off);
      if (n > 0) {
        off += static_cast<size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        return false;
      }
    }
    return true;
  }

  /// Emits the contiguous done prefix in ticket order. False once the
  /// output sink broke.
  bool EmitReady() {
    while (next_emit_ <= tasks_.size() && Task(next_emit_).done) {
      if (!emit_(Task(next_emit_).output)) return false;
      ++next_emit_;
    }
    return true;
  }

  void PollWorkers() {
    const int64_t now = NowMs();
    // Expire leases first: a stalled worker sends no heartbeats, so its
    // deadline simply arrives.
    for (WorkerSlot& w : workers_) {
      if (w.task != 0 && w.lease_deadline <= now) {
        ++stats_->leases_expired;
        if (options_.verbose) {
          std::fprintf(stderr, "bati_fleet: lease expired on pid %d (task "
                       "%llu), killing\n", static_cast<int>(w.pid),
                       static_cast<unsigned long long>(w.task));
        }
        kill(w.pid, SIGKILL);
        ReapWorker(&w, /*replace=*/true);
      }
    }

    std::vector<pollfd> fds(workers_.size());
    for (size_t i = 0; i < workers_.size(); ++i) {
      fds[i] = {workers_[i].result_fd, POLLIN, 0};
    }
    int64_t next_deadline = now + 100;
    for (const WorkerSlot& w : workers_) {
      if (w.task != 0 && w.lease_deadline < next_deadline) {
        next_deadline = w.lease_deadline;
      }
    }
    const int timeout =
        static_cast<int>(std::max<int64_t>(10, next_deadline - now));
    const int n = poll(fds.data(), fds.size(), timeout);
    if (n <= 0) return;  // timeout or EINTR: the loop re-evaluates
    for (size_t i = 0; i < workers_.size(); ++i) {
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        DrainWorker(&workers_[i]);
      }
    }
  }

  /// Reads everything currently available from one worker and handles it
  /// line by line. EOF means the process died.
  void DrainWorker(WorkerSlot* w) {
    bool dead = false;
    char chunk[4096];
    for (;;) {
      const ssize_t n = read(w->result_fd, chunk, sizeof(chunk));
      if (n > 0) {
        w->rbuf.append(chunk, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      dead = true;  // EOF or a hard error
      break;
    }
    size_t start = 0;
    for (;;) {
      const size_t newline = w->rbuf.find('\n', start);
      if (newline == std::string::npos) break;
      const std::string line = w->rbuf.substr(start, newline - start);
      start = newline + 1;
      if (!HandleLine(w, line)) {
        // The worker is babbling (garbled or protocol-violating frame):
        // nothing further from it can be trusted.
        ++stats_->garbled_frames;
        kill(w->pid, SIGKILL);
        ReapWorker(w, /*replace=*/true);
        return;
      }
    }
    w->rbuf.erase(0, start);
    if (dead) {
      ++stats_->worker_deaths;
      if (options_.verbose) {
        std::fprintf(stderr, "bati_fleet: pid %d died (task %llu)\n",
                     static_cast<int>(w->pid),
                     static_cast<unsigned long long>(w->task));
      }
      ReapWorker(w, /*replace=*/true);
    }
  }

  /// Processes one worker line. False when the worker must be killed.
  bool HandleLine(WorkerSlot* w, const std::string& line) {
    switch (ClassifyLine(line)) {
      case WireKind::kHeartbeat: {
        uint64_t ticket = 0;
        if (!ParseHeartbeatLine(line, &ticket)) return false;
        if (ticket == w->task) {
          w->lease_deadline = NowMs() + options_.lease_timeout_ms;
        }
        return true;
      }
      case WireKind::kResult: {
        ResultFrame frame;
        if (!ParseResultLine(line, &frame).ok()) return false;
        if (frame.task_id != w->task || frame.attempt != w->attempt) {
          return false;  // answering a task it was not asked to run
        }
        HandleResult(w, frame);
        return true;
      }
      case WireKind::kMalformed:
        return false;
    }
    return false;
  }

  void HandleResult(WorkerSlot* w, const ResultFrame& frame) {
    TaskState& t = Task(frame.task_id);
    w->task = 0;
    --t.in_flight;
    if (t.done) return;  // late duplicate from a speculative twin
    t.done = true;
    t.ok = frame.ok;
    t.output = frame.payload;
    frame.ok ? ++stats_->ok : ++stats_->failed;
    if (frame.recovered_calls > 0) {
      ++stats_->resumed_tasks;
      stats_->recovered_calls += frame.recovered_calls;
    }
    if (t.speculative_attempt != 0 &&
        frame.attempt == t.speculative_attempt) {
      ++stats_->speculative_wins;
    }
    // The losing twin's result would be byte-identical; free its slot now
    // instead of waiting for it.
    if (t.in_flight > 0) {
      for (WorkerSlot& other : workers_) {
        if (&other != w && other.task == frame.task_id) {
          kill(other.pid, SIGKILL);
          ReapWorker(&other, /*replace=*/true);
        }
      }
    }
    if (!options_.state_dir.empty()) {
      const std::string ckpt =
          TaskCheckpointPath(options_.state_dir, frame.task_id);
      unlink(ckpt.c_str());
      unlink((ckpt + ".tmp").c_str());
    }
    SaveState();
  }

  /// Collects a dead worker: reaps the process, requeues its task (or
  /// fails it once the attempt budget is spent), and optionally forks a
  /// replacement into the same slot.
  void ReapWorker(WorkerSlot* w, bool replace) {
    if (w->pid > 0) {
      int wstatus = 0;
      while (waitpid(w->pid, &wstatus, 0) < 0 && errno == EINTR) {
      }
    }
    if (w->task_fd >= 0) close(w->task_fd);
    if (w->result_fd >= 0) close(w->result_fd);
    const uint64_t ticket = w->task;
    *w = WorkerSlot{};
    if (ticket != 0) {
      TaskState& t = Task(ticket);
      --t.in_flight;
      if (!t.done && t.in_flight == 0) {
        if (t.attempts >= options_.max_attempts) {
          t.done = true;
          t.ok = false;
          t.output = JsonWriter()
                         .String("workload", t.workload)
                         .String("error", "task failed after " +
                                              std::to_string(t.attempts) +
                                              " attempts")
                         .Finish();
          ++stats_->failed;
          SaveState();
        } else {
          // Requeue at the front: recovering the oldest work first keeps
          // the emit prefix moving.
          ready_.push_front(ticket);
        }
      }
    }
    if (replace) ForkWorker(w);
  }

  void ForkWorker(WorkerSlot* w) {
    int task_pipe[2], result_pipe[2];
    BATI_CHECK(pipe(task_pipe) == 0 && pipe(result_pipe) == 0);
    const pid_t pid = fork();
    BATI_CHECK(pid >= 0);
    if (pid == 0) {
      // Child. Close every coordinator-side fd — most importantly the
      // other workers' pipe ends, which would otherwise keep a sibling's
      // pipes open after it dies and mask its EOF from the coordinator.
      close(task_pipe[1]);
      close(result_pipe[0]);
      for (const WorkerSlot& other : workers_) {
        if (other.task_fd >= 0) close(other.task_fd);
        if (other.result_fd >= 0) close(other.result_fd);
      }
      // Undo the tool's stop-flag handlers: a group-wide SIGTERM should
      // kill workers outright, not set a flag nobody reads.
      std::signal(SIGTERM, SIG_DFL);
      std::signal(SIGINT, SIG_DFL);
      FleetWorkerConfig config;
      config.state_dir = options_.state_dir;
      config.heartbeat_ms = options_.heartbeat_ms;
      config.canonical_output = options_.canonical;
      config.chaos = options_.chaos;
      // _exit (not exit): a forked copy of the coordinator must not run
      // parent-state destructors or atexit hooks.
      _exit(FleetWorkerMain(task_pipe[0], result_pipe[1], config));
    }
    close(task_pipe[0]);
    close(result_pipe[1]);
    // Nonblocking reads let DrainWorker empty the pipe without guessing
    // how much is buffered.
    const int fl = fcntl(result_pipe[0], F_GETFL);
    BATI_CHECK(fl >= 0 &&
               fcntl(result_pipe[0], F_SETFL, fl | O_NONBLOCK) == 0);
    w->pid = pid;
    w->task_fd = task_pipe[1];
    w->result_fd = result_pipe[0];
    ++stats_->worker_forks;
  }

  /// Persists every completed task's output line, crash-consistently.
  void SaveState() {
    if (options_.state_path.empty()) return;
    std::vector<ResultFrame> done;
    for (size_t i = 0; i < tasks_.size(); ++i) {
      const TaskState& t = tasks_[i];
      if (!t.done) continue;
      ResultFrame frame;
      frame.task_id = i + 1;
      frame.attempt = std::max(1, t.attempts);
      frame.ok = t.ok;
      frame.payload = t.output;
      done.push_back(std::move(frame));
    }
    const Status st =
        AtomicWriteFile(options_.state_path, EncodeFleetState(done));
    if (!st.ok()) {
      std::fprintf(stderr, "bati_fleet: state write failed: %s\n",
                   st.ToString().c_str());
    }
  }

  Status LoadState() {
    const StatusOr<std::string> text = ReadWholeFile(options_.state_path);
    if (!text.ok()) return text.status();
    std::vector<ResultFrame> done;
    const Status st = ParseFleetState(*text, tasks_.size(), &done);
    if (!st.ok()) return st;
    for (const ResultFrame& frame : done) {
      TaskState& t = Task(frame.task_id);
      t.done = true;
      t.ok = frame.ok;
      t.output = frame.payload;
      frame.ok ? ++stats_->ok : ++stats_->failed;
    }
    return Status::Ok();
  }

  FleetOptions options_;
  const std::function<bool(const std::string&)>& emit_;
  const std::atomic<bool>* stop_;
  FleetStats* stats_;
  std::vector<TaskState> tasks_;
  std::vector<WorkerSlot> workers_;
  std::deque<uint64_t> ready_;
  uint64_t next_admit_ = 1;  // next ticket to consider for the window
  uint64_t next_emit_ = 1;   // next ticket to print
};

}  // namespace

std::string FleetStats::ToString() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "tasks: %zu (%zu ok, %zu failed), dispatches: %zu, forks: %zu, "
      "deaths: %zu, leases expired: %zu, garbled frames: %zu, "
      "speculative: %zu (%zu wins), resumed: %zu "
      "(%lld what-if calls recovered)%s",
      tasks, ok, failed, dispatches, worker_forks, worker_deaths,
      leases_expired, garbled_frames, speculative_dispatches,
      speculative_wins, resumed_tasks,
      static_cast<long long>(recovered_calls),
      interrupted ? ", interrupted" : "");
  return buf;
}

Status RunFleet(const FleetOptions& options,
                const std::vector<RunSpec>& specs,
                const std::function<bool(const std::string&)>& emit,
                const std::atomic<bool>* stop, FleetStats* stats) {
  FleetStats local;
  if (stats == nullptr) stats = &local;
  *stats = FleetStats{};
  if (specs.empty()) return Status::InvalidArgument("no specs");
  Coordinator coordinator(options, specs, emit, stop, stats);
  return coordinator.Run();
}

}  // namespace bati
