#include "runtime/compiler.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "support/clock.hpp"
#include "support/error.hpp"

namespace sage::runtime {

namespace {

constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

std::uint64_t fnv1a_accum(std::uint64_t h, std::string_view bytes) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

/// Message tag for one (buffer, src thread, dst thread) channel. The
/// validated limits (64 buffers, 8 threads) keep this below the user-tag
/// ceiling of 4096.
int transfer_tag(int buffer_id, int src_thread, int dst_thread) {
  return buffer_id * 64 + src_thread * 8 + dst_thread;
}

int port_index(const FunctionConfig& fn, const std::string& name) {
  for (std::size_t i = 0; i < fn.ports.size(); ++i) {
    if (fn.ports[i].name == name) return static_cast<int>(i);
  }
  return -1;  // unreachable: config.validate() checked the port exists
}

/// Lowers the validated config into `program` (everything except
/// provenance): planned buffers, adjacency, interned slot ids, the flat
/// transfer program, and the kernel port bindings. Field-for-field the
/// plan the Session used to build privately -- op order, share-group
/// chaining, and slot numbering are part of the determinism contract.
void lower_into(CompiledProgram& program) {
  const GlueConfig& config = program.config;

  program.buffers.clear();
  program.in_of_fn.assign(config.functions.size(), {});
  program.out_of_fn.assign(config.functions.size(), {});
  for (const BufferConfig& buf : config.buffers) {
    const FunctionConfig& src_fn = config.function(buf.src_function);
    const FunctionConfig& dst_fn = config.function(buf.dst_function);
    const PortConfig& src_port = src_fn.port(buf.src_port);

    PlannedBuffer planned;
    planned.id = buf.id;
    planned.src_function = buf.src_function;
    planned.dst_function = buf.dst_function;
    planned.src_port = buf.src_port;
    planned.dst_port = buf.dst_port;
    planned.elem_bytes = src_port.elem_bytes;
    planned.src_spec = config.stripe_spec(src_fn, src_port);
    planned.dst_spec = config.stripe_spec(dst_fn, dst_fn.port(buf.dst_port));
    planned.plan = build_transfer_plan(planned.src_spec, planned.dst_spec);
    planned.label = src_fn.name + "." + buf.src_port + "->" + dst_fn.name +
                    "." + buf.dst_port;
    program.buffers.push_back(std::move(planned));

    program.in_of_fn[static_cast<std::size_t>(buf.dst_function)].push_back(
        buf.id);
    program.out_of_fn[static_cast<std::size_t>(buf.src_function)].push_back(
        buf.id);
  }

  const auto nfn = config.functions.size();
  program.slot_base.assign(nfn, 0);
  program.fn_thread_base.assign(nfn, 0);
  int slots = 0;
  int ftis = 0;
  for (const FunctionConfig& fn : config.functions) {
    program.slot_base[static_cast<std::size_t>(fn.id)] = slots;
    slots += fn.threads * static_cast<int>(fn.ports.size());
    program.fn_thread_base[static_cast<std::size_t>(fn.id)] = ftis;
    ftis += fn.threads;
  }
  program.total_staging_slots = slots;

  program.bindings_of.assign(static_cast<std::size_t>(ftis), {});
  for (const FunctionConfig& fn : config.functions) {
    for (int t = 0; t < fn.threads; ++t) {
      std::vector<PortBinding>& binds =
          program.bindings_of[static_cast<std::size_t>(
              program.fn_thread_base[static_cast<std::size_t>(fn.id)] + t)];
      binds.clear();
      binds.reserve(fn.ports.size());
      for (std::size_t p = 0; p < fn.ports.size(); ++p) {
        const PortConfig& port = fn.ports[p];
        const StripeSpec spec = config.stripe_spec(fn, port);
        PortBinding b;
        b.name = port.name;
        b.slot = program.slot_base[static_cast<std::size_t>(fn.id)] +
                 t * static_cast<int>(fn.ports.size()) + static_cast<int>(p);
        b.elem_bytes = port.elem_bytes;
        b.local_dims = spec.local_dims();
        b.global_dims = port.dims;
        b.runs = slice_runs(spec, t);
        b.is_input = port.direction == model::PortDirection::kIn;
        binds.push_back(std::move(b));
      }
    }
  }

  program.ops.clear();
  program.recv_ops_of.assign(static_cast<std::size_t>(ftis), {});
  program.send_ops_of.assign(static_cast<std::size_t>(ftis), {});
  int next_group = 0;
  for (const PlannedBuffer& buf : program.buffers) {
    const FunctionConfig& src_fn = config.function(buf.src_function);
    const FunctionConfig& dst_fn = config.function(buf.dst_function);
    const int src_port_idx = port_index(src_fn, buf.src_port);
    const int dst_port_idx = port_index(dst_fn, buf.dst_port);
    // Previous remote op of the current producer thread (fan-out-share
    // chaining; plan order keeps one producer's pairs adjacent).
    int chain = -1;
    int chain_thread = -1;
    for (const ThreadPairTransfer& pair : buf.plan) {
      TransferOp op;
      op.buf = buf.id;
      op.tag = transfer_tag(buf.id, pair.src_thread, pair.dst_thread);
      op.src_function = buf.src_function;
      op.dst_function = buf.dst_function;
      op.src_thread = pair.src_thread;
      op.dst_thread = pair.dst_thread;
      op.src_node =
          src_fn.thread_nodes[static_cast<std::size_t>(pair.src_thread)];
      op.dst_node =
          dst_fn.thread_nodes[static_cast<std::size_t>(pair.dst_thread)];
      op.bytes = pair.total_elems() * buf.elem_bytes;
      op.contiguous = pair.segments.size() == 1;
      op.segs.reserve(pair.segments.size());
      std::size_t cursor = 0;
      for (const Segment& seg : pair.segments) {
        ByteSeg bs;
        bs.src_off = seg.src_offset * buf.elem_bytes;
        bs.dst_off = seg.dst_offset * buf.elem_bytes;
        bs.packed_off = cursor;
        bs.len = seg.length * buf.elem_bytes;
        cursor += bs.len;
        op.segs.push_back(bs);
      }
      op.src_slot = program.slot_base[static_cast<std::size_t>(src_fn.id)] +
                    pair.src_thread * static_cast<int>(src_fn.ports.size()) +
                    src_port_idx;
      op.dst_slot = program.slot_base[static_cast<std::size_t>(dst_fn.id)] +
                    pair.dst_thread * static_cast<int>(dst_fn.ports.size()) +
                    dst_port_idx;

      if (pair.src_thread != chain_thread) {
        chain = -1;
        chain_thread = pair.src_thread;
      }
      if (op.src_node != op.dst_node) {
        if (chain >= 0) {
          TransferOp& prev = program.ops[static_cast<std::size_t>(chain)];
          const bool same_gather =
              prev.segs.size() == op.segs.size() &&
              std::equal(prev.segs.begin(), prev.segs.end(), op.segs.begin(),
                         [](const ByteSeg& a, const ByteSeg& b) {
                           return a.src_off == b.src_off && a.len == b.len;
                         });
          if (same_gather) {
            if (prev.share_group < 0) prev.share_group = next_group++;
            op.share_group = prev.share_group;
          }
        }
        chain = static_cast<int>(program.ops.size());
      }

      const int src_fti =
          program.fn_thread_base[static_cast<std::size_t>(src_fn.id)] +
          pair.src_thread;
      const int dst_fti =
          program.fn_thread_base[static_cast<std::size_t>(dst_fn.id)] +
          pair.dst_thread;
      program.send_ops_of[static_cast<std::size_t>(src_fti)].push_back(
          static_cast<int>(program.ops.size()));
      if (op.src_node != op.dst_node) {
        program.recv_ops_of[static_cast<std::size_t>(dst_fti)].push_back(
            static_cast<int>(program.ops.size()));
      }
      program.ops.push_back(std::move(op));
    }
  }

  // Static streaming buffer bound per channel (cf. the SDF-AP buffer
  // sizing results): a producer k topological levels upstream of its
  // consumer can usefully run k iterations ahead before the data would
  // just queue, so the ring depth is 1 + the level distance, clamped to
  // [2, 4] -- at least double-buffered so overlap is possible at all,
  // and bounded so staging memory stays proportional to the graph
  // depth, not the stream length.
  std::vector<int> level(nfn, 0);
  std::vector<int> indeg(nfn, 0);
  for (const PlannedBuffer& buf : program.buffers) {
    ++indeg[static_cast<std::size_t>(buf.dst_function)];
  }
  std::vector<int> ready;
  for (std::size_t f = 0; f < nfn; ++f) {
    if (indeg[f] == 0) ready.push_back(static_cast<int>(f));
  }
  // Kahn order over function ids; on a cyclic config (rejected upstream
  // by validate(), but be safe) unprocessed nodes keep level 0 and every
  // op falls back to the minimum double-buffered depth.
  for (std::size_t head = 0; head < ready.size(); ++head) {
    const int fn = ready[head];
    for (const int buf_id : program.out_of_fn[static_cast<std::size_t>(fn)]) {
      const int dst = program.buffers[static_cast<std::size_t>(buf_id)]
                          .dst_function;
      level[static_cast<std::size_t>(dst)] =
          std::max(level[static_cast<std::size_t>(dst)],
                   level[static_cast<std::size_t>(fn)] + 1);
      if (--indeg[static_cast<std::size_t>(dst)] == 0) ready.push_back(dst);
    }
  }
  for (TransferOp& op : program.ops) {
    const int distance = level[static_cast<std::size_t>(op.dst_function)] -
                         level[static_cast<std::size_t>(op.src_function)];
    op.ring_depth = std::clamp(1 + distance, 2, 4);
  }
}

}  // namespace

std::uint64_t registry_fingerprint(const FunctionRegistry& registry) {
  std::uint64_t h = kFnvOffsetBasis;
  for (const std::string& name : registry.names()) {
    h = fnv1a_accum(h, name);
    h = fnv1a_accum(h, "\n");
  }
  return h;
}

std::uint64_t Compiler::fingerprint(const GlueConfig& config,
                                    const FunctionRegistry& registry) {
  std::uint64_t h = kFnvOffsetBasis;
  h = fnv1a_accum(h, "sage-plan-format ");
  h ^= kPlanFormatVersion;
  h *= kFnvPrime;
  h = fnv1a_accum(h, runtime::serialize(config));
  h ^= registry_fingerprint(registry);
  h *= kFnvPrime;
  return h;
}

std::shared_ptr<const CompiledProgram> Compiler::lower(GlueConfig config) {
  const double start = support::wall_seconds();
  config.validate();
  auto program = std::make_shared<CompiledProgram>();
  program->config = std::move(config);
  lower_into(*program);
  program->compile_seconds = support::wall_seconds() - start;
  return program;
}

std::shared_ptr<const CompiledProgram> Compiler::compile(
    GlueConfig config, const FunctionRegistry& registry) {
  const double start = support::wall_seconds();
  config.validate();
  for (const FunctionConfig& fn : config.functions) {
    registry.lookup(fn.kernel);  // throws when missing
  }
  const std::uint64_t key = fingerprint(config, registry);
  auto program = std::make_shared<CompiledProgram>();
  program->config = std::move(config);
  lower_into(*program);
  program->fingerprint = key;
  program->compile_seconds = support::wall_seconds() - start;
  return program;
}

PlanCache::PlanCache(std::string dir) : dir_(std::move(dir)) {
  SAGE_CHECK_AS(RuntimeError, !dir_.empty(), "PlanCache needs a directory");
}

std::string PlanCache::path_of(std::uint64_t key) const {
  std::ostringstream os;
  os << dir_ << "/" << std::hex << std::setfill('0') << std::setw(16) << key
     << ".plan";
  return os.str();
}

std::shared_ptr<const CompiledProgram> PlanCache::load(
    std::uint64_t key) const {
  std::ifstream in(path_of(key), std::ios::binary);
  if (!in) return nullptr;
  std::ostringstream os;
  os << in.rdbuf();
  const std::string blob = os.str();
  try {
    std::shared_ptr<const CompiledProgram> program =
        CompiledProgram::deserialize(blob);
    // Content addressing: the stored fingerprint must match the file's
    // key, or the entry answers a different question than it was asked.
    if (program->fingerprint != key) return nullptr;
    return program;
  } catch (const std::exception&) {
    return nullptr;  // corrupt/stale entries are misses, not failures
  }
}

bool PlanCache::store(std::uint64_t key, const CompiledProgram& program) const {
  // Content addressing makes stores idempotent: if a valid entry for
  // this key already exists (another thread or process won the race),
  // there is nothing to write -- and skipping keeps "exactly one store"
  // observable under concurrent compile_or_load of the same key.
  if (load(key) != nullptr) return true;
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) return false;
  const std::string path = path_of(key);
  // The temp name must be writer-unique: a fixed suffix would let two
  // concurrent stores interleave writes into one temp file and rename a
  // corrupted blob into place.
  static std::atomic<std::uint64_t> counter{0};
  std::ostringstream tmp_os;
  tmp_os << path << ".tmp." << ::getpid() << "."
         << counter.fetch_add(1, std::memory_order_relaxed);
  const std::string tmp = tmp_os.str();
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    const std::string blob = program.serialize();
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    if (!out) return false;
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return false;
  }
  return true;
}

std::shared_ptr<const CompiledProgram> compile_or_load(
    GlueConfig config, const FunctionRegistry& registry,
    const std::string& plan_cache_dir) {
  if (plan_cache_dir.empty()) {
    return Compiler::compile(std::move(config), registry);
  }
  const double start = support::wall_seconds();
  config.validate();
  const std::uint64_t key = Compiler::fingerprint(config, registry);
  const PlanCache cache(plan_cache_dir);
  if (std::shared_ptr<const CompiledProgram> cached = cache.load(key)) {
    // shared_ptr<const T> aliases are handed out to executors, so the
    // provenance stamp must happen before anyone else sees the object.
    auto hit = std::const_pointer_cast<CompiledProgram>(cached);
    hit->cache_outcome = PlanCacheOutcome::kHit;
    hit->compile_seconds = support::wall_seconds() - start;
    return hit;
  }
  std::shared_ptr<const CompiledProgram> compiled =
      Compiler::compile(std::move(config), registry);
  cache.store(key, *compiled);
  auto miss = std::const_pointer_cast<CompiledProgram>(compiled);
  miss->cache_outcome = PlanCacheOutcome::kMiss;
  miss->compile_seconds = support::wall_seconds() - start;
  return miss;
}

}  // namespace sage::runtime
