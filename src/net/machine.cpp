#include "net/machine.hpp"

#include <algorithm>
#include <exception>

#include "support/error.hpp"

namespace sage::net {

support::VirtualSeconds MachineReport::makespan() const {
  support::VirtualSeconds worst = 0.0;
  for (const NodeReport& n : nodes) {
    if (n.final_vt > worst) worst = n.final_vt;
  }
  return worst;
}

Machine::Machine(int node_count, FabricModel fabric_model, double cpu_scale,
                 TransportOptions transport)
    : node_count_(node_count),
      scales_(static_cast<std::size_t>(std::max(node_count, 0)), cpu_scale),
      fabric_(std::make_unique<Fabric>(node_count, std::move(fabric_model),
                                       transport)) {
  SAGE_CHECK_AS(CommError, node_count > 0, "machine needs at least one node");
  SAGE_CHECK_AS(CommError, cpu_scale > 0, "cpu_scale must be positive");
}

Machine::Machine(FabricModel fabric_model, std::vector<double> per_node_scales,
                 TransportOptions transport)
    : node_count_(static_cast<int>(per_node_scales.size())),
      scales_(std::move(per_node_scales)),
      fabric_(std::make_unique<Fabric>(node_count_, std::move(fabric_model),
                                       transport)) {
  SAGE_CHECK_AS(CommError, node_count_ > 0, "machine needs at least one node");
  for (double s : scales_) {
    SAGE_CHECK_AS(CommError, s > 0, "cpu_scale must be positive");
  }
}

Machine::~Machine() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_start_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void Machine::start() {
  if (started()) return;
  workers_.reserve(static_cast<std::size_t>(node_count_));
  errors_.resize(static_cast<std::size_t>(node_count_));
  for (int r = 0; r < node_count_; ++r) {
    workers_.emplace_back([this, r] { worker_loop_(r); });
  }
}

void Machine::worker_loop_(int rank) {
  std::uint64_t seen = 0;
  for (;;) {
    const NodeProgram* program = nullptr;
    NodeContext* context = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_start_.wait(lock,
                     [&] { return shutdown_ || generation_ != seen; });
      if (shutdown_) return;
      seen = generation_;
      program = program_;
      context = contexts_[static_cast<std::size_t>(rank)].get();
    }

    std::exception_ptr error;
    try {
      (*program)(*context);
    } catch (...) {
      error = std::current_exception();
    }

    {
      std::lock_guard<std::mutex> lock(mu_);
      errors_[static_cast<std::size_t>(rank)] = error;
      if (--pending_ == 0) cv_done_.notify_all();
    }
  }
}

void Machine::dispatch(const NodeProgram& program) {
  start();

  // Fresh contexts per run: virtual clocks restart at zero, exactly as
  // if the machine had been rebuilt.
  std::vector<std::unique_ptr<NodeContext>> contexts;
  contexts.reserve(static_cast<std::size_t>(node_count_));
  for (int r = 0; r < node_count_; ++r) {
    contexts.push_back(std::make_unique<NodeContext>(
        r, node_count_, *fabric_, scales_[static_cast<std::size_t>(r)]));
  }

  std::lock_guard<std::mutex> lock(mu_);
  SAGE_CHECK_AS(CommError, !dispatched_,
                "Machine::dispatch while a dispatch is already in flight");
  contexts_ = std::move(contexts);
  std::fill(errors_.begin(), errors_.end(), nullptr);
  program_ = &program;
  pending_ = node_count_;
  dispatched_ = true;
  ++generation_;
  cv_start_.notify_all();
}

MachineReport Machine::join_run() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    SAGE_CHECK_AS(CommError, dispatched_,
                  "Machine::join_run without a matching dispatch");
    cv_done_.wait(lock, [&] { return pending_ == 0; });
    program_ = nullptr;
    dispatched_ = false;
  }

  for (const auto& err : errors_) {
    if (err) std::rethrow_exception(err);
  }

  MachineReport report;
  report.nodes.reserve(static_cast<std::size_t>(node_count_));
  for (int r = 0; r < node_count_; ++r) {
    report.nodes.push_back(
        {r, contexts_[static_cast<std::size_t>(r)]->now()});
  }
  return report;
}

MachineReport Machine::run(const NodeProgram& program) {
  dispatch(program);
  return join_run();
}

}  // namespace sage::net
