// openSAGE -- the emulated multicomputer.
//
// Machine::run hands each emulated node a NodeContext (rank, fabric
// handle, virtual clock, CPU scale factor) and executes the node program
// on one host thread per node. The worker threads are spawned once (on
// start() or the first run) and then *parked* between runs instead of
// being joined and re-spawned, so repeated runs -- the warm
// runtime::Session path -- pay only a condition-variable handshake per
// run. Exceptions thrown on node threads are captured and rethrown on
// the caller after all nodes stop. The per-node final virtual times are
// collected so harnesses can report modeled makespans.
//
// run() may be called from one host thread at a time; the fabric and the
// dispatch state are shared across all nodes of one machine.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "net/fabric.hpp"
#include "support/clock.hpp"

namespace sage::net {

/// Everything a node program needs: identity, its clock, and the wires.
class NodeContext {
 public:
  NodeContext(int rank, int size, Fabric& fabric, double cpu_scale)
      : rank_(rank), size_(size), fabric_(fabric), cpu_scale_(cpu_scale) {}

  int rank() const { return rank_; }
  int size() const { return size_; }
  Fabric& fabric() { return fabric_; }
  const FabricModel& fabric_model() const { return fabric_.model(); }

  support::VirtualClock& clock() { return clock_; }
  support::VirtualSeconds now() const { return clock_.now(); }

  /// Ratio modeled-CPU-time : host-CPU-time for compute segments. A value
  /// of 4.0 models a CPU four times slower than the host core.
  double cpu_scale() const { return cpu_scale_; }

  /// Measures a compute segment and advances the virtual clock.
  template <typename Fn>
  auto compute(Fn&& fn) -> decltype(fn()) {
    support::ComputeScope scope(clock_, cpu_scale_);
    return fn();
  }

 private:
  int rank_;
  int size_;
  Fabric& fabric_;
  double cpu_scale_;
  support::VirtualClock clock_;
};

/// Per-node results of a Machine::run.
struct NodeReport {
  int rank = 0;
  support::VirtualSeconds final_vt = 0.0;
};

struct MachineReport {
  std::vector<NodeReport> nodes;

  /// Modeled makespan: the latest node finish time.
  support::VirtualSeconds makespan() const;
};

/// The emulated platform: node count + fabric + CPU speed model.
class Machine {
 public:
  Machine(int node_count, FabricModel fabric_model, double cpu_scale = 1.0,
          TransportOptions transport = {});
  /// Heterogeneous machine: one CPU scale per node.
  Machine(FabricModel fabric_model, std::vector<double> per_node_scales,
          TransportOptions transport = {});

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  /// Signals shutdown and joins the parked worker threads.
  ~Machine();

  int node_count() const { return node_count_; }
  Fabric& fabric() { return *fabric_; }
  double cpu_scale(int rank = 0) const {
    return scales_[static_cast<std::size_t>(rank)];
  }

  using NodeProgram = std::function<void(NodeContext&)>;

  /// Spawns the per-node worker threads (parked until a run). Idempotent;
  /// run() calls it lazily. Sessions call it eagerly so the thread-spawn
  /// cost lands in construction, not the first measured run.
  void start();
  bool started() const { return !workers_.empty(); }

  /// Number of completed run() calls (diagnostics: warm-reuse counters).
  std::uint64_t runs_completed() const { return generation_; }

  /// Runs `program` on every node concurrently on the parked worker
  /// threads; rethrows the first node exception (by rank) after all
  /// nodes finish. Each run gets fresh NodeContexts (virtual clocks
  /// restart at zero); fabric state persists across runs -- call
  /// fabric().reset() for a cold-equivalent run. Equivalent to
  /// dispatch() immediately followed by join_run().
  MachineReport run(const NodeProgram& program);

  /// Non-blocking half of run(): publishes `program` to the parked
  /// workers and returns while the nodes execute. `program` must stay
  /// alive until the matching join_run(). The streaming Session uses
  /// this split to keep submitting work from the host thread while an
  /// epoch is in flight on the node threads.
  void dispatch(const NodeProgram& program);

  /// Blocking half: waits for every node of the dispatched program to
  /// finish, rethrows the first node exception (by rank), and returns
  /// the per-node final virtual times. Must pair with a dispatch().
  MachineReport join_run();

 private:
  void worker_loop_(int rank);

  int node_count_;
  std::vector<double> scales_;  // one per node
  std::unique_ptr<Fabric> fabric_;

  // Dispatch handshake: run() publishes contexts_/program_ under mu_ and
  // bumps generation_; workers execute and decrement pending_; the last
  // worker wakes the caller.
  mutable std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::uint64_t generation_ = 0;
  int pending_ = 0;
  bool dispatched_ = false;
  bool shutdown_ = false;
  const NodeProgram* program_ = nullptr;
  std::vector<std::unique_ptr<NodeContext>> contexts_;
  std::vector<std::exception_ptr> errors_;
  std::vector<std::thread> workers_;
};

}  // namespace sage::net
