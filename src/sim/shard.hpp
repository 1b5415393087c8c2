#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

/// \file shard.hpp
/// Conservative-lookahead parallel discrete-event engine: N Simulator
/// partitions, each with its own event queue and local clock, advanced
/// in lock-step time windows.
///
/// The protocol is classic conservative PDES. Let L (the LOOKAHEAD) be
/// the minimum propagation delay of any link that crosses a partition
/// boundary. Each round, every shard publishes its earliest pending
/// event time; the barrier reduction takes the global minimum T and
/// opens the window [T, min(T + L, horizon + 1)). Events inside the
/// window are causally safe to run in parallel: any cross-shard
/// influence produced at time t >= T arrives at t + prop >= T + L,
/// i.e. at or beyond the window end. Cross-shard deliveries are
/// buffered by the shards' ingest hooks (net::ShardRouter) and drained
/// at the next barrier, before the next minimum is taken — so a
/// delivery always lands in a shard's queue before the window that
/// could execute it opens.
///
/// Determinism: within a shard, events run in the engine's usual
/// (time, sched, seq) order; the barrier makes every cross-shard message
/// visible at a deterministic protocol point regardless of thread
/// interleaving, and the ingest hooks schedule them in a stable
/// deterministic order (see shard_link.hpp). The result is a pure
/// function of the inputs and the shard count — reruns at the same
/// shard count are byte-identical.
///
/// A ShardedSimulator with ONE shard never spawns threads, never opens
/// windows, and drives its single Simulator with the exact same calls
/// a standalone engine would see — byte-identical to the sequential
/// engine by construction. See docs/performance.md ("Parallel DES").

namespace powertcp::sim {

class ShardedSimulator {
 public:
  explicit ShardedSimulator(int shards = 1,
                            QueueKind queue_kind = QueueKind::kBinaryHeap);
  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  int shard_count() const { return static_cast<int>(shards_.size()); }
  Simulator& shard(int i) { return *shards_.at(static_cast<std::size_t>(i)); }
  const Simulator& shard(int i) const {
    return *shards_.at(static_cast<std::size_t>(i));
  }

  /// The conservative lookahead L: the minimum propagation delay of any
  /// cross-shard link. Must be >= 1 ps before a multi-shard run_until();
  /// irrelevant (and unchecked) with one shard. When cut edges are
  /// registered (add_cut_edge) the engine instead derives PER-PAIR
  /// bounds from the cut graph and this scalar only remains the
  /// plan-sanity floor.
  void set_lookahead(TimePs lookahead) { lookahead_ = lookahead; }
  TimePs lookahead() const { return lookahead_; }

  /// Registers a directed cross-shard influence edge src -> dst with
  /// minimum latency `weight` (>= 1 ps): no event executing on shard
  /// `src` at time t can cause an event on shard `dst` before t +
  /// weight. The Network registers one edge per cut-link direction with
  /// weight = propagation + tx_time(minimum wire size) — sound because
  /// ports PUBLISH cross-shard packets at serialization start (early
  /// publication, see EgressPort::start_tx). Multiple registrations of
  /// a pair keep the minimum.
  ///
  /// With at least one edge registered, the barrier reduction replaces
  /// the uniform window [T, T + L) with per-shard ends derived from
  /// all-pairs shortest paths D over the cut graph:
  ///
  ///   end_j = min_i ( next_i + D*[i][j] ),   clamped to horizon + 1
  ///
  /// where D*[i][j] = D[i][j] for i != j and D*[j][j] = C_j, the
  /// minimum cycle through j (an event in j can only re-influence j by
  /// leaving and coming back). Idle shards (next = infinity) impose no
  /// constraint, and multi-hop pairs constrain each other only at their
  /// path distance — which is how a relay-partitioned topology opens
  /// windows several times wider than its shortest cut link (fewer
  /// barrier reductions; the `windows` bench metric). Byte-identity is
  /// untouched: window size affects only scheduling batching, never
  /// event order.
  void add_cut_edge(int src, int dst, TimePs weight);

  /// The engine's conservative influence bound src -> dst through the
  /// registered cut graph: shortest path for src != dst, minimum cycle
  /// C_src for src == dst; kTimeInfinity when unconstrained (no path,
  /// or no cut graph registered). Introspection for tests and plans.
  TimePs influence_bound(int src, int dst);

  /// True once add_cut_edge has been called.
  bool has_cut_graph() const { return have_cut_edges_; }

  /// Installs shard `i`'s ingest hook. It runs on shard i's worker
  /// thread at every window barrier, while ALL shards are quiescent,
  /// and must move any buffered cross-shard deliveries into shard(i)
  /// via schedule_at. The barrier orders every producer's sends of the
  /// previous window before the hook (and the hook before the next
  /// window), so the hook itself needs no synchronization.
  void set_ingest_hook(int i, std::function<void()> hook);

  /// Runs every shard up to `horizon` (inclusive), in parallel when
  /// shard_count() > 1: worker threads are spawned per call, the caller
  /// drives shard 0, and all clocks read `horizon` afterwards. The
  /// first exception thrown by any shard's events aborts the run at the
  /// next barrier and is rethrown here. A multi-shard run that ends
  /// with boundary_ambiguities() > 0 cannot prove itself identical to
  /// the sequential engine and throws std::logic_error naming the shard
  /// count and the first ambiguous (time, sched, tie) key.
  void run_until(TimePs horizon);

  /// Sum of logical events executed across all shards.
  std::uint64_t events_executed() const;

  /// Sum of boundary ambiguities detected across all shards (see
  /// Simulator::boundary_ambiguities()). Zero certifies the sharded
  /// run byte-identical to the sequential engine; run_until throws
  /// when a multi-shard run leaves it nonzero.
  std::uint64_t boundary_ambiguities() const {
    std::uint64_t total = 0;
    for (const auto& s : shards_) total += s->boundary_ambiguities();
    return total;
  }

  /// Lookahead windows synchronized so far (0 for single-shard runs) —
  /// introspection for tests and the shard bench.
  std::uint64_t windows() const { return windows_; }

 private:
  /// Reusable mutex/condvar cyclic barrier; the last arriver runs the
  /// round's reduction before releasing the others.
  class Barrier {
   public:
    explicit Barrier(int parties) : parties_(parties) {}
    template <typename Fn>
    void arrive_and_wait(Fn&& reduction) {
      std::unique_lock<std::mutex> lock(mu_);
      const std::uint64_t gen = generation_;
      if (++arrived_ == parties_) {
        reduction();
        arrived_ = 0;
        ++generation_;
        lock.unlock();
        cv_.notify_all();
        return;
      }
      cv_.wait(lock, [&] { return generation_ != gen; });
    }
    void arrive_and_wait() {
      arrive_and_wait([] {});
    }

   private:
    std::mutex mu_;
    std::condition_variable cv_;
    const int parties_;
    int arrived_ = 0;
    std::uint64_t generation_ = 0;
  };

  void worker(int idx, TimePs horizon);
  void record_error();
  /// Folds the registered cut edges into `bound_` (all-pairs shortest
  /// paths plus per-shard minimum cycles). Idempotent; called before
  /// threads spawn.
  void finalize_bounds();

  std::vector<std::unique_ptr<Simulator>> shards_;
  std::vector<std::function<void()>> ingest_;
  TimePs lookahead_ = 0;
  std::uint64_t windows_ = 0;

  // Cut graph (add_cut_edge): row-major shard-pair matrices. `cut_w_`
  // holds registered edge minima, `bound_` the finalized D* bounds.
  bool have_cut_edges_ = false;
  bool bounds_dirty_ = false;
  std::vector<TimePs> cut_w_;
  std::vector<TimePs> bound_;

  // Per-run_until state, touched by the workers under the barrier
  // protocol (next_times_[i] only by worker i outside the reduction).
  std::unique_ptr<Barrier> barrier_;
  std::vector<TimePs> next_times_;
  std::vector<TimePs> ends_;
  bool done_ = false;
  bool abort_ = false;
  std::mutex error_mu_;
  std::exception_ptr error_;
};

}  // namespace powertcp::sim
