// Binary serialization of CompiledProgram (the plan-cache blob format),
// and the lowering of one node's share of a program to its step list.
//
// Layout: 8-byte magic, u32 format version, u64 fingerprint, the
// canonical glue text, the lowered arrays, and a trailing FNV-1a
// checksum over every preceding byte. Scalar fields are written
// little-endian at fixed width; the bulky arrays (segments, runs, dims)
// are trivially-copyable structs written with one memcpy per vector,
// which is what makes a cache hit cheaper than re-running the planner.
// The format is host-specific (size_t width, endianness) -- the plan
// cache is a local artifact, not an interchange format -- but it is
// deterministic: equal programs produce equal bytes.
#include "runtime/program.hpp"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "support/error.hpp"

namespace sage::runtime {

namespace {

constexpr char kMagic[8] = {'S', 'A', 'G', 'E', 'P', 'L', 'A', 'N'};

constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = kFnvOffsetBasis;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

class Writer {
 public:
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void i32(std::int64_t v) { u32(static_cast<std::uint32_t>(v)); }
  void sz(std::size_t v) { u64(static_cast<std::uint64_t>(v)); }
  void b8(bool v) { const std::uint8_t b = v ? 1 : 0; raw(&b, 1); }

  void str(const std::string& s) {
    sz(s.size());
    raw(s.data(), s.size());
  }

  void ints(const std::vector<int>& v) {
    sz(v.size());
    for (const int x : v) i32(x);
  }

  void int_lists(const std::vector<std::vector<int>>& v) {
    sz(v.size());
    for (const auto& inner : v) ints(inner);
  }

  /// One-memcpy write of a trivially-copyable, padding-free element
  /// vector (Segment, ByteSeg, Run, std::size_t).
  template <typename T>
  void pods(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    sz(v.size());
    raw(v.data(), v.size() * sizeof(T));
  }

  const std::string& bytes() const { return out_; }

 private:
  void raw(const void* data, std::size_t len) {
    out_.append(static_cast<const char*>(data), len);
  }

  std::string out_;
};

class Reader {
 public:
  explicit Reader(std::string_view blob) : blob_(blob) {}

  std::uint32_t u32() { std::uint32_t v; raw(&v, sizeof v); return v; }
  std::uint64_t u64() { std::uint64_t v; raw(&v, sizeof v); return v; }
  int i32() { return static_cast<std::int32_t>(u32()); }
  std::size_t sz() { return static_cast<std::size_t>(u64()); }
  bool b8() { std::uint8_t b; raw(&b, 1); return b != 0; }

  std::string str() {
    const std::size_t len = count(1);
    std::string s(blob_.substr(pos_, len));
    pos_ += len;
    return s;
  }

  std::vector<int> ints() {
    const std::size_t n = count(4);
    std::vector<int> v;
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i) v.push_back(i32());
    return v;
  }

  std::vector<std::vector<int>> int_lists() {
    const std::size_t n = count(8);
    std::vector<std::vector<int>> v;
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i) v.push_back(ints());
    return v;
  }

  template <typename T>
  std::vector<T> pods() {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t n = count(sizeof(T));
    std::vector<T> v(n);
    raw(v.data(), n * sizeof(T));
    return v;
  }

  std::size_t pos() const { return pos_; }

 private:
  /// Element count whose payload must still fit in the blob -- rejects
  /// corrupt lengths before any allocation is attempted.
  std::size_t count(std::size_t elem_size) {
    const std::size_t n = sz();
    SAGE_CHECK_AS(RuntimeError,
                  elem_size == 0 || n <= (blob_.size() - pos_) / elem_size,
                  "compiled-program blob truncated (length field ", n,
                  " overruns ", blob_.size() - pos_, " remaining bytes)");
    return n;
  }

  void raw(void* data, std::size_t len) {
    SAGE_CHECK_AS(RuntimeError, len <= blob_.size() - pos_,
                  "compiled-program blob truncated (need ", len,
                  " bytes at offset ", pos_, ", have ", blob_.size() - pos_,
                  ")");
    std::memcpy(data, blob_.data() + pos_, len);
    pos_ += len;
  }

  std::string_view blob_;
  std::size_t pos_ = 0;
};

static_assert(sizeof(Segment) == 3 * sizeof(std::size_t),
              "Segment must stay padding-free for the bulk blob path");
static_assert(sizeof(ByteSeg) == 4 * sizeof(std::size_t),
              "ByteSeg must stay padding-free for the bulk blob path");
static_assert(sizeof(Run) == 2 * sizeof(std::size_t),
              "Run must stay padding-free for the bulk blob path");

void write_spec(Writer& w, const StripeSpec& spec) {
  w.pods(spec.dims);
  w.u32(static_cast<std::uint32_t>(spec.striping));
  w.i32(spec.stripe_dim);
  w.i32(spec.threads);
}

StripeSpec read_spec(Reader& r) {
  StripeSpec spec;
  spec.dims = r.pods<std::size_t>();
  spec.striping = static_cast<model::Striping>(r.u32());
  spec.stripe_dim = r.i32();
  spec.threads = r.i32();
  return spec;
}

}  // namespace

const char* to_string(PlanCacheOutcome outcome) {
  switch (outcome) {
    case PlanCacheOutcome::kNotConsulted: return "off";
    case PlanCacheOutcome::kHit: return "hit";
    case PlanCacheOutcome::kMiss: return "miss";
  }
  return "?";
}

std::string CompiledProgram::serialize() const {
  std::string out(kMagic, sizeof kMagic);

  Writer body;
  body.u32(kPlanFormatVersion);
  body.u64(fingerprint);
  // The config travels as its canonical glue text: the parser is the
  // inverse of the serializer (pinned by glue_config_test), and the
  // text is tiny next to the lowered arrays.
  body.str(runtime::serialize(config));

  body.sz(buffers.size());
  for (const PlannedBuffer& buf : buffers) {
    body.i32(buf.id);
    body.i32(buf.src_function);
    body.i32(buf.dst_function);
    body.str(buf.src_port);
    body.str(buf.dst_port);
    body.sz(buf.elem_bytes);
    write_spec(body, buf.src_spec);
    write_spec(body, buf.dst_spec);
    body.sz(buf.plan.size());
    for (const ThreadPairTransfer& pair : buf.plan) {
      body.i32(pair.src_thread);
      body.i32(pair.dst_thread);
      body.pods(pair.segments);
    }
    body.str(buf.label);
  }
  body.int_lists(in_of_fn);
  body.int_lists(out_of_fn);

  body.sz(ops.size());
  for (const TransferOp& op : ops) {
    body.i32(op.buf);
    body.i32(op.tag);
    body.i32(op.src_function);
    body.i32(op.dst_function);
    body.i32(op.src_thread);
    body.i32(op.dst_thread);
    body.i32(op.src_node);
    body.i32(op.dst_node);
    body.sz(op.bytes);
    body.b8(op.contiguous);
    body.pods(op.segs);
    body.i32(op.src_slot);
    body.i32(op.dst_slot);
    body.i32(op.share_group);
    body.i32(op.ring_depth);
  }

  body.ints(slot_base);
  body.i32(total_staging_slots);
  body.ints(fn_thread_base);
  body.int_lists(recv_ops_of);
  body.int_lists(send_ops_of);

  body.sz(bindings_of.size());
  for (const std::vector<PortBinding>& binds : bindings_of) {
    body.sz(binds.size());
    for (const PortBinding& b : binds) {
      body.str(b.name);
      body.i32(b.slot);
      body.sz(b.elem_bytes);
      body.pods(b.local_dims);
      body.pods(b.global_dims);
      body.pods(b.runs);
      body.b8(b.is_input);
    }
  }

  out += body.bytes();
  Writer tail;
  tail.u64(fnv1a(out));
  out += tail.bytes();
  return out;
}

std::shared_ptr<const CompiledProgram> CompiledProgram::deserialize(
    std::string_view blob) {
  SAGE_CHECK_AS(RuntimeError,
                blob.size() >= sizeof kMagic + sizeof(std::uint64_t),
                "compiled-program blob truncated (", blob.size(), " bytes)");
  SAGE_CHECK_AS(RuntimeError,
                std::memcmp(blob.data(), kMagic, sizeof kMagic) == 0,
                "not a compiled-program blob (bad magic)");
  // Whole-blob checksum first: a flipped byte anywhere -- header,
  // lengths, array payloads -- is rejected before any field is trusted.
  const std::string_view body = blob.substr(0, blob.size() - 8);
  std::uint64_t stored = 0;
  std::memcpy(&stored, blob.data() + body.size(), sizeof stored);
  SAGE_CHECK_AS(RuntimeError, fnv1a(body) == stored,
                "compiled-program blob corrupt (checksum mismatch)");

  Reader r(body.substr(sizeof kMagic));
  const std::uint32_t version = r.u32();
  SAGE_CHECK_AS(RuntimeError, version == kPlanFormatVersion,
                "compiled-program blob has format version ", version,
                "; this build reads version ", kPlanFormatVersion);

  auto program = std::make_shared<CompiledProgram>();
  program->fingerprint = r.u64();
  program->config = parse_glue_config(r.str());

  const std::size_t nbuf = r.sz();
  program->buffers.reserve(nbuf);
  for (std::size_t i = 0; i < nbuf; ++i) {
    PlannedBuffer buf;
    buf.id = r.i32();
    buf.src_function = r.i32();
    buf.dst_function = r.i32();
    buf.src_port = r.str();
    buf.dst_port = r.str();
    buf.elem_bytes = r.sz();
    buf.src_spec = read_spec(r);
    buf.dst_spec = read_spec(r);
    const std::size_t npair = r.sz();
    buf.plan.reserve(npair);
    for (std::size_t p = 0; p < npair; ++p) {
      ThreadPairTransfer pair;
      pair.src_thread = r.i32();
      pair.dst_thread = r.i32();
      pair.segments = r.pods<Segment>();
      buf.plan.push_back(std::move(pair));
    }
    buf.label = r.str();
    program->buffers.push_back(std::move(buf));
  }
  program->in_of_fn = r.int_lists();
  program->out_of_fn = r.int_lists();

  const std::size_t nops = r.sz();
  program->ops.reserve(nops);
  for (std::size_t i = 0; i < nops; ++i) {
    TransferOp op;
    op.buf = r.i32();
    op.tag = r.i32();
    op.src_function = r.i32();
    op.dst_function = r.i32();
    op.src_thread = r.i32();
    op.dst_thread = r.i32();
    op.src_node = r.i32();
    op.dst_node = r.i32();
    op.bytes = r.sz();
    op.contiguous = r.b8();
    op.segs = r.pods<ByteSeg>();
    op.src_slot = r.i32();
    op.dst_slot = r.i32();
    op.share_group = r.i32();
    op.ring_depth = r.i32();
    program->ops.push_back(std::move(op));
  }

  program->slot_base = r.ints();
  program->total_staging_slots = r.i32();
  program->fn_thread_base = r.ints();
  program->recv_ops_of = r.int_lists();
  program->send_ops_of = r.int_lists();

  const std::size_t nfti = r.sz();
  program->bindings_of.reserve(nfti);
  for (std::size_t i = 0; i < nfti; ++i) {
    const std::size_t nbind = r.sz();
    std::vector<PortBinding> binds;
    binds.reserve(nbind);
    for (std::size_t b = 0; b < nbind; ++b) {
      PortBinding bind;
      bind.name = r.str();
      bind.slot = r.i32();
      bind.elem_bytes = r.sz();
      bind.local_dims = r.pods<std::size_t>();
      bind.global_dims = r.pods<std::size_t>();
      bind.runs = r.pods<Run>();
      bind.is_input = r.b8();
      binds.push_back(std::move(bind));
    }
    program->bindings_of.push_back(std::move(binds));
  }

  SAGE_CHECK_AS(RuntimeError, r.pos() == body.size() - sizeof kMagic,
                "compiled-program blob has ",
                body.size() - sizeof kMagic - r.pos(), " trailing bytes");
  return program;
}

NodeProgram lower_node(const CompiledProgram& program, int node) {
  NodeProgram share;
  const GlueConfig& config = program.config;
  const auto order = config.schedule.find(node);
  if (order == config.schedule.end()) return share;
  for (const int fn_id : order->second) {
    const FunctionConfig& fn = config.function(fn_id);
    for (int t = 0; t < fn.threads; ++t) {
      if (fn.thread_nodes[static_cast<std::size_t>(t)] != node) continue;
      const int firing = static_cast<int>(share.firings.size());
      const auto fti = static_cast<std::size_t>(
          program.fn_thread_base[static_cast<std::size_t>(fn_id)] + t);
      share.firings.push_back({fn_id, t, fti});
      for (const int op : program.recv_ops_of[fti]) {
        share.steps.push_back({StepKind::kReceive, firing, op});
      }
      share.steps.push_back({StepKind::kFire, firing, -1});
      for (const int op : program.send_ops_of[fti]) {
        const bool local =
            program.ops[static_cast<std::size_t>(op)].dst_node == node;
        share.steps.push_back(
            {local ? StepKind::kDeliver : StepKind::kSend, firing, op});
      }
    }
  }
  share.head = static_cast<std::size_t>(
      std::find_if(share.steps.begin(), share.steps.end(),
                   [](const Step& s) { return s.kind == StepKind::kReceive; }) -
      share.steps.begin());
  return share;
}

}  // namespace sage::runtime
