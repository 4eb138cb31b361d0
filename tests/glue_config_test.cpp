// Glue-configuration format tests: serialize/parse round trips, parser
// error reporting, the validation rules the runtime relies on, and the
// generator's schedule rule.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "runtime/glue_config.hpp"
#include "runtime/program.hpp"
#include "support/error.hpp"

#ifndef SAGE_GOLDEN_DIR
#error "SAGE_GOLDEN_DIR must be defined by the build"
#endif

namespace sage::runtime {
namespace {

GlueConfig sample_config() {
  GlueConfig config;
  config.application = "app";
  config.hardware = "hw";
  config.nodes = 2;
  config.iterations_default = 3;

  FunctionConfig src;
  src.id = 0;
  src.name = "src";
  src.kernel = "matrix_source";
  src.role = "source";
  src.threads = 2;
  src.thread_nodes = {0, 1};
  src.params["gain"] = 2.5;
  PortConfig out;
  out.name = "out";
  out.direction = model::PortDirection::kOut;
  out.striping = model::Striping::kStriped;
  out.stripe_dim = 0;
  out.elem_bytes = 8;
  out.dims = {8, 4};
  src.ports.push_back(out);
  config.functions.push_back(src);

  FunctionConfig sink;
  sink.id = 1;
  sink.name = "sink";
  sink.kernel = "matrix_sink";
  sink.role = "sink";
  sink.threads = 2;
  sink.thread_nodes = {0, 1};
  PortConfig in;
  in.name = "in";
  in.direction = model::PortDirection::kIn;
  in.striping = model::Striping::kReplicated;
  in.stripe_dim = 0;
  in.elem_bytes = 8;
  in.dims = {4, 8};
  sink.ports.push_back(in);
  config.functions.push_back(sink);

  BufferConfig buf;
  buf.id = 0;
  buf.src_function = 0;
  buf.src_port = "out";
  buf.dst_function = 1;
  buf.dst_port = "in";
  config.buffers.push_back(buf);

  config.schedule[0] = {0, 1};
  config.schedule[1] = {0, 1};
  return config;
}

std::string read_golden(const std::string& name) {
  std::ifstream in(std::string(SAGE_GOLDEN_DIR) + "/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read golden " << name;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(GlueConfigTest, ScheduleByIdReproducesTheGeneratedSchedules) {
  // The Alter generator numbers functions in topological order and
  // emits each node's schedule in id order, so the one C++ copy of the
  // rule must give back the schedule lines it parsed.
  for (const char* glue : {"quickstart_glue.cfg", "radar_glue.cfg"}) {
    SCOPED_TRACE(glue);
    const GlueConfig config = parse_glue_config(read_golden(glue));
    ASSERT_FALSE(config.schedule.empty());
    EXPECT_EQ(schedule_by_id(config), config.schedule);
  }
  const auto program =
      CompiledProgram::deserialize(read_golden("cornerturn_64x2.plan"));
  const GlueConfig& cornerturn = program->config;
  ASSERT_FALSE(cornerturn.schedule.empty());
  EXPECT_EQ(schedule_by_id(cornerturn), cornerturn.schedule);
}

TEST(GlueConfigTest, SampleValidates) {
  EXPECT_NO_THROW(sample_config().validate());
}

TEST(GlueConfigTest, SerializeParseRoundTrip) {
  const GlueConfig original = sample_config();
  const std::string text = serialize(original);
  const GlueConfig parsed = parse_glue_config(text);
  parsed.validate();

  EXPECT_EQ(parsed.application, "app");
  EXPECT_EQ(parsed.hardware, "hw");
  EXPECT_EQ(parsed.nodes, 2);
  EXPECT_EQ(parsed.iterations_default, 3);
  ASSERT_EQ(parsed.functions.size(), 2u);
  EXPECT_EQ(parsed.functions[0].kernel, "matrix_source");
  EXPECT_EQ(parsed.functions[0].thread_nodes, (std::vector<int>{0, 1}));
  EXPECT_DOUBLE_EQ(parsed.functions[0].params.at("gain"), 2.5);
  EXPECT_EQ(parsed.functions[1].ports[0].striping,
            model::Striping::kReplicated);
  EXPECT_EQ(parsed.functions[1].ports[0].dims, (std::vector<std::size_t>{4, 8}));
  ASSERT_EQ(parsed.buffers.size(), 1u);
  EXPECT_EQ(parsed.buffers[0].src_port, "out");
  EXPECT_EQ(parsed.schedule.at(1), (std::vector<int>{0, 1}));

  // Second round trip is byte-identical (canonical form).
  EXPECT_EQ(serialize(parsed), text);
}

TEST(GlueConfigTest, CommentsAndBlankLinesIgnored) {
  const std::string text =
      "# hello\n\nsage-glue 1\napplication a\nhardware h\nnodes 1\n"
      "iterations-default 1\n"
      "function 0 name=f kernel=k threads=1 role=compute\n"
      "thread 0 0 node=0\n"
      "schedule 0 0\n";
  const GlueConfig config = parse_glue_config(text);
  EXPECT_EQ(config.functions.size(), 1u);
  EXPECT_NO_THROW(config.validate());
}

TEST(GlueConfigTest, MissingHeaderRejected) {
  EXPECT_THROW(parse_glue_config("application a\n"), ConfigError);
}

TEST(GlueConfigTest, MalformedLinesReportLineNumbers) {
  const std::string text = "sage-glue 1\nnodes abc\n";
  try {
    parse_glue_config(text);
    FAIL();
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(GlueConfigTest, UnknownDirectiveRejected) {
  EXPECT_THROW(parse_glue_config("sage-glue 1\nwarp 9\n"), ConfigError);
}

TEST(GlueConfigTest, OutOfOrderIdsRejected) {
  const std::string text =
      "sage-glue 1\nfunction 1 name=f kernel=k threads=1 role=compute\n";
  EXPECT_THROW(parse_glue_config(text), ConfigError);
}

TEST(GlueConfigTest, ThreadBeforeFunctionRejected) {
  EXPECT_THROW(parse_glue_config("sage-glue 1\nthread 0 0 node=0\n"),
               ConfigError);
}

TEST(GlueConfigTest, MissingFieldRejected) {
  EXPECT_THROW(
      parse_glue_config("sage-glue 1\nfunction 0 name=f threads=1 role=c\n"),
      ConfigError);
}

// --- validation rules -----------------------------------------------------------

TEST(GlueValidationTest, ThreadCountLimits) {
  GlueConfig config = sample_config();
  config.functions[0].threads = kMaxFunctionThreads + 1;
  config.functions[0].thread_nodes.assign(kMaxFunctionThreads + 1, 0);
  EXPECT_THROW(config.validate(), ConfigError);
}

TEST(GlueValidationTest, BufferLimit) {
  GlueConfig config = sample_config();
  for (int i = 1; i <= kMaxLogicalBuffers; ++i) {
    BufferConfig buf = config.buffers[0];
    buf.id = i;
    config.buffers.push_back(buf);
  }
  EXPECT_THROW(config.validate(), ConfigError);
}

TEST(GlueValidationTest, ThreadNodeOutOfRange) {
  GlueConfig config = sample_config();
  config.functions[0].thread_nodes[1] = 7;
  EXPECT_THROW(config.validate(), ConfigError);
}

TEST(GlueValidationTest, BufferDirectionChecked) {
  GlueConfig config = sample_config();
  config.buffers[0].src_port = "out";
  config.buffers[0].src_function = 1;  // sink's port "in" is an in-port
  config.buffers[0].dst_function = 0;
  config.buffers[0].dst_port = "out";
  EXPECT_THROW(config.validate(), ConfigError);
}

TEST(GlueValidationTest, ElementSizeMismatch) {
  GlueConfig config = sample_config();
  config.functions[1].ports[0].elem_bytes = 4;
  EXPECT_THROW(config.validate(), ConfigError);
}

TEST(GlueValidationTest, DuplicateScheduleEntry) {
  GlueConfig config = sample_config();
  config.schedule[0] = {0, 0, 1};
  EXPECT_THROW(config.validate(), ConfigError);
}

TEST(GlueValidationTest, UnevenStripingRejected) {
  GlueConfig config = sample_config();
  config.functions[0].ports[0].dims = {7, 4};  // 7 rows over 2 threads
  config.functions[1].ports[0].dims = {7, 4};
  EXPECT_THROW(config.validate(), Error);
}

TEST(GlueValidationTest, AccessorsRangeChecked) {
  const GlueConfig config = sample_config();
  EXPECT_THROW(config.function(5), ConfigError);
  EXPECT_THROW(config.buffer(-1), ConfigError);
  EXPECT_THROW(config.functions[0].port("nope"), ConfigError);
  EXPECT_TRUE(config.functions[0].has_port("out"));
  EXPECT_FALSE(config.functions[0].has_port("in"));
}

}  // namespace
}  // namespace sage::runtime
