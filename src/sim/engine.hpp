#pragma once
// The discrete-event engine: virtual clocks, event queues, and all rank
// fibers. There is one engine path, keyed by cluster:
//
//   * Key shards are *logical* shard ids — one per cluster — stamped into
//     every event's (time, shard, seq) ordering key. They are a property of
//     the workload (the cluster map), never of the execution configuration.
//     A one-cluster run is simply the degenerate plan with one key shard.
//   * Exec shards are the physical event queues (each with its own virtual
//     clock and fiber-stack pool). Key shard k executes on queue
//     k % exec_shards. Because ordering keys never mention exec shards,
//     any exec width — and any worker-thread count — yields the same global
//     event order, so fixed-seed results are bit-identical by construction.
//
// Single-threaded runs pop the globally smallest key across all queues: a
// tournament tree over the exec-shard heads names the smallest one, and only
// the shards an event touched are re-sifted before the next pop (one queue is
// the trivial tree). The optional threaded executor runs windows of
// conservative PDES: the coordinator reads global_min from the same tree,
// picks W = min(global_min.t + lookahead, next_serial.t) and workers execute
// their own shards' events with t < W in parallel. The lookahead invariant — an
// event executing in a shard may only schedule onto *another* key shard, or
// into the serial queue, at t >= now + lookahead — is asserted in every plan,
// so cheap single-threaded runs validate what threaded runs rely on.
//
// "Serial" events execute alone at a global barrier with every shard clock
// advanced to their time: failure injection and recovery orchestration touch
// many shards at once and run there. at_serial() always schedules one, and so
// does at() from outside a shard event (serial context or a stopped world).
//
// Ranks are spawned as fibers pinned to their shard; blocking operations park
// the calling fiber and register a wake condition. Finished fibers release
// their stacks back to the shard's pool immediately.

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/fiber.hpp"
#include "sim/time.hpp"
#include "util/assert.hpp"

namespace spbc::sim {

class Engine {
 public:
  using TaskId = int;
  static constexpr TaskId kInvalidTask = -1;

  explicit Engine(size_t default_stack_size = 256 * 1024);
  ~Engine();

  // ---- shard plan ---------------------------------------------------------
  /// Installs the shard layout. Must be called before any task is spawned or
  /// event scheduled. key_shards is the number of logical shards (clusters);
  /// exec_shards the number of physical queues (<= key_shards; 0 = one per
  /// key shard). A fresh engine has one of each.
  void set_shard_plan(int key_shards, int exec_shards = 0);
  int key_shards() const { return static_cast<int>(key_seq_.size()); }
  int exec_shards() const { return static_cast<int>(shards_.size()); }

  /// Worker threads for run(); <= 1 (or a single exec shard) keeps the
  /// single-threaded merge loop. run_until() is always single-threaded.
  void set_threads(int n) { threads_ = n; }
  int threads() const { return threads_; }

  /// Minimum virtual-time distance of any cross-key-shard schedule made from
  /// shard-event context (= the minimum cross-cluster network latency).
  void set_lookahead(Time la) { lookahead_ = la; }
  Time lookahead() const { return lookahead_; }

  /// Virtual time of the calling context: the owning shard's clock inside a
  /// shard event or fiber, the global clock otherwise.
  Time now() const;

  /// Schedules a bare callback (network delivery, protocol timers, ...) on
  /// the calling shard event's own key shard; from serial context or
  /// outside a run it schedules a serial event.
  EventQueue::EventId at(Time t, std::function<void()> fn);
  EventQueue::EventId after(Time dt, std::function<void()> fn) {
    return at(now() + dt, std::move(fn));
  }
  /// Schedules onto an explicit key shard (cross-shard sends). From shard
  /// context, t must respect the lookahead when key_shard differs.
  EventQueue::EventId at_on(int key_shard, Time t, std::function<void()> fn);
  EventQueue::EventId after_on(int key_shard, Time dt,
                               std::function<void()> fn) {
    return at_on(key_shard, now() + dt, std::move(fn));
  }
  /// Schedules a serial event: executes alone at a global barrier, with all
  /// shard clocks advanced to t. For failure injection / recovery
  /// orchestration that touches many shards. From a shard event, t must
  /// respect the lookahead.
  EventQueue::EventId at_serial(Time t, std::function<void()> fn);
  EventQueue::EventId after_serial(Time dt, std::function<void()> fn) {
    return at_serial(now() + dt, std::move(fn));
  }
  /// Runs `fn` in serial context: immediately when already serial (or
  /// outside a run), else as a serial event one lookahead from now — the
  /// earliest instant a shard event may legally reach the global barrier.
  /// The deferral is applied in every plan (threaded or not, one shard or
  /// many) so trajectories stay independent of the execution configuration.
  void run_serial(std::function<void()> fn);
  void cancel(EventQueue::EventId id);

  /// Spawns a fiber that starts running at the current time on the calling
  /// context's shard (spawn) or an explicit key shard (spawn_on). Returns a
  /// task id; ids are never reused within one Engine. Not callable from
  /// threaded windows.
  TaskId spawn(std::function<void()> body);
  TaskId spawn_on(int key_shard, std::function<void()> body);

  /// Fiber-side: sleep for dt of virtual time.
  void wait(Time dt);

  /// Fiber-side: park until some other party calls unpark(). The caller must
  /// have arranged for the wake-up; parking with no possible waker deadlocks
  /// the simulation (detected: run() aborts with a diagnostic).
  void park();

  /// Scheduler/event-side: make a parked task runnable at the current time.
  /// Unparking a running or ready task is a no-op (the wake was already in
  /// flight); unparking a finished/killed task is ignored. From shard-event
  /// context the task must live on the calling context's key shard.
  void unpark(TaskId id);

  /// Kills a task: the fiber unwinds with FiberKilled at its next wake.
  /// Parked tasks are woken immediately so the unwind happens now. Same
  /// shard rule as unpark (failure injection runs in serial events).
  void kill(TaskId id);

  bool task_finished(TaskId id) const;

  /// The task id of the fiber currently executing (fiber-side only).
  TaskId current_task() const;

  /// Key shard the task was spawned on.
  int task_shard(TaskId id) const;

  /// Runs until the event queues are empty and all fibers are finished, or
  /// until stop() is called. Returns final virtual time.
  Time run();

  /// Runs until virtual time reaches `deadline` (events at exactly the
  /// deadline are executed). Always single-threaded.
  Time run_until(Time deadline);

  /// Stops the run loop (threaded: after the current window).
  void stop() { stop_requested_.store(true, std::memory_order_relaxed); }

  /// When false, a deadlock (parked fibers, empty event queue) ends run()
  /// with deadlocked()==true instead of aborting. Tests for the paper's
  /// Figure 2 mismatch scenario rely on this.
  void set_abort_on_deadlock(bool v) { abort_on_deadlock_ = v; }
  bool deadlocked() const { return deadlocked_; }

  /// True when no fiber is runnable and no event is pending: if unfinished
  /// fibers remain parked at that point, the simulation deadlocked.
  size_t live_task_count() const;

  /// Diagnostic label for deadlock reports.
  void set_task_label(TaskId id, std::string label);

  /// True while executing a threaded parallel window on this engine.
  bool in_parallel_context() const;
  /// True while executing a serial (global-barrier) event.
  bool in_serial_context() const;

  struct Stats {
    uint64_t events = 0;         // shard events executed
    uint64_t serial_events = 0;  // global-barrier events executed
    uint64_t windows = 0;        // parallel windows run (threaded only)
    uint64_t seq_steps = 0;      // threaded-mode sequential fallback steps
    size_t live_stacks = 0;      // fiber stacks currently in use
    size_t peak_live_stacks = 0;
    size_t stacks_allocated = 0;  // distinct stacks ever allocated
    uint64_t fiber_resumes = 0;   // switches from the engine into a fiber
    // Exec-shard head changes (pops, direct or mailed inserts, cancels). Each
    // one costs the merge a leaf refresh; counted per operation, so the
    // figure is the same for every exec-shard and thread layout.
    uint64_t head_refreshes = 0;
  };
  Stats stats() const;

 private:
  struct Mail {
    bool cancel = false;
    EventQueue::EventId local_id = 0;  // reserved (insert) or target (cancel)
    EventKey key;
    uint32_t owner = 0;
    EventQueue::EventFn fn;
  };
  struct ExecShard {
    EventQueue queue;
    Time now = kTimeZero;
    std::unique_ptr<StackPool> pool;
    uint64_t events = 0;
    uint64_t fiber_resumes = 0;
    uint64_t head_refreshes = 0;
    // Cross-shard inserts/cancels from threaded windows; drained by the
    // coordinator between windows.
    std::mutex mbox_mu;
    std::vector<Mail> mbox;
  };
  struct Task {
    std::unique_ptr<Fiber> fiber;
    std::string label;
    bool scheduled = false;  // a resume event is pending
    int key_shard = 0;
  };

  int exec_of(int key_shard) const {
    return key_shard % static_cast<int>(shards_.size());
  }
  bool in_shard_event() const;  // shard-event/fiber context on this engine

  // ---- tournament tree over exec-shard heads -------------------------------
  // Leaf s caches the key of shard s's earliest live event; every internal
  // node holds whichever of its two children's shards has the smaller key, so
  // the root names the globally smallest head. Outside parallel windows every
  // pop, insert and cancel marks its shard dirty, and select_head() re-sifts
  // only the dirty leaves, O(log S) each. Parallel windows mark nothing: the
  // coordinator rebuilds the whole tree after each window, and run_merge
  // rebuilds it on entry.
  struct Head {
    EventKey key;
    bool live = false;   // the shard has a live event
    bool dirty = false;  // listed in dirty_heads_
  };
  void touch_head(size_t s, bool parallel);
  void load_head(size_t s);
  int head_winner(int a, int b) const {
    const Head& x = heads_[static_cast<size_t>(a)];
    const Head& y = heads_[static_cast<size_t>(b)];
    return y.live && (!x.live || y.key < x.key) ? b : a;
  }
  void rebuild_heads();
  int select_head();  // exec shard with the smallest head, -1 when all empty

  void schedule_resume(TaskId id);
  void resume_task(TaskId id);
  void exec_shard_one(int s, bool parallel);
  void exec_serial_one();
  Time run_merge(Time deadline, bool bounded);
  Time run_threaded();
  void drain_mailboxes();
  void deadlock_check();

  // Engine-wide event ids encode (queue index + 1, local id); queue index
  // shards_.size() is the serial queue.
  static constexpr int kLocalIdBits = 44;
  EventQueue::EventId make_gid(size_t qidx, EventQueue::EventId local) const {
    SPBC_ASSERT(local < (1ull << kLocalIdBits));
    return ((static_cast<uint64_t>(qidx) + 1) << kLocalIdBits) | local;
  }

  std::vector<std::unique_ptr<ExecShard>> shards_;
  std::vector<Head> heads_;  // per exec shard, plus a never-live sentinel
  std::vector<int> tree_;    // [1, P): internal nodes; [P, 2P): leaves
  size_t tree_leaves_ = 1;   // P: exec shards rounded up to a power of two
  std::vector<int> dirty_heads_;
  EventQueue serial_q_;
  std::mutex serial_mbox_mu_;
  std::vector<Mail> serial_mbox_;
  std::vector<uint64_t> key_seq_;  // per key shard: next ordering seq
  Time global_now_ = kTimeZero;
  Time window_end_ = kTimeZero;  // published W for the current window
  std::deque<Task> tasks_;
  size_t default_stack_size_;
  int threads_ = 1;
  Time lookahead_ = 0.0;
  std::atomic<bool> stop_requested_{false};
  bool workers_exit_ = false;
  bool abort_on_deadlock_ = true;
  bool deadlocked_ = false;
  uint64_t serial_events_ = 0;
  uint64_t windows_ = 0;
  uint64_t seq_steps_ = 0;
};

}  // namespace spbc::sim
