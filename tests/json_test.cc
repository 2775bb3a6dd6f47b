// The shared JSON layer (support/json.h) and the documents built on it.
//
// Golden documents: the plan and trace writers must keep producing exactly
// the bytes committed under tests/golden/. Each test regenerates one
// document from library code and compares it byte for byte; on a mismatch
// the regenerated text is written to <name>.actual in the working directory
// so the difference can be inspected with diff.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "core/decode_schedule.h"
#include "core/execution_plan.h"
#include "core/model_spec.h"
#include "core/partition.h"
#include "core/plan_json.h"
#include "core/schedule.h"
#include "core/sync_placement.h"
#include "obs/trace_json.h"
#include "support/check.h"
#include "support/json.h"

namespace chimera {
namespace {

/// tests/golden/, located from this source file's own path.
std::string golden_path(const std::string& name) {
  std::string dir = __FILE__;
  dir.erase(dir.find_last_of('/') + 1);
  return dir + "golden/" + name;
}

void expect_golden(const std::string& name, const std::string& actual) {
  std::ifstream in(golden_path(name), std::ios::binary);
  std::ostringstream expected;
  if (in) expected << in.rdbuf();
  if (!in || expected.str() != actual) {
    std::ofstream(name + ".actual", std::ios::binary) << actual;
    ADD_FAILURE() << golden_path(name) << " is missing or differs; the "
                  << "regenerated text is in " << name << ".actual";
  }
}

TEST(GoldenJson, ChimeraEagerOptPlanWithPartition) {
  ScheduleConfig cfg;
  cfg.depth = 4;
  cfg.num_micro = 4;
  const PipelineSchedule s = with_gradient_sync(
      build_schedule(Scheme::kChimera, cfg), SyncPolicy::kEagerOpt);
  const ExecutionPlan plan(s);
  const Partition part =
      plan_partition(ModelSpec::bert48(), cfg.depth, PartitionPolicy::kEven, &s);
  expect_golden("plan_chimera_d4_n4_eager_opt.json", plan_to_json(plan, &part));
}

TEST(GoldenJson, PagedDecodePlan) {
  ScheduleConfig cfg;
  cfg.depth = 4;
  cfg.num_micro = 8;
  cfg.pipes_f = 2;
  const PipelineSchedule s = build_decode_schedule(Scheme::kChimera, cfg);
  const ExecutionPlan plan(s);
  KvPageGeometry g;
  g.page_size = 4;
  g.max_seq = 16;
  g.max_batch = 2;
  expect_golden("plan_decode_paged.json", plan_to_json(plan, nullptr, &g));
}

TEST(GoldenJson, SyntheticTrace) {
  // The document of ObsJson.SyntheticRoundTripAndStrictParser: its two
  // timestamps are not exactly representable, so they pin the number writer.
  obs::TraceDoc doc;
  doc.meta.workload = "training";
  doc.meta.scheme = "Chimera";
  doc.meta.depth = 4;
  doc.meta.num_micro = 4;
  doc.meta.sync = "at-end";
  doc.meta.hidden = 32;
  doc.meta.heads = 4;
  doc.meta.layers = 4;
  doc.meta.seq = 8;
  doc.meta.vocab = 211;
  obs::TraceEvent span;
  span.kind = obs::EventKind::kForward;
  span.worker = 2;
  span.micro = 1;
  span.stage = 3;
  span.pipe = 0;
  span.op_index = 5;
  span.t0_us = 0.1 + 0.2;
  span.t1_us = 1e9 + 1.0 / 3.0;
  span.seq = 7;
  obs::TraceEvent inst;
  inst.kind = obs::EventKind::kCowSplit;
  inst.worker = -1;
  inst.lane = 2;
  inst.tag = -3;
  inst.t0_us = inst.t1_us = 5.25;
  inst.seq = 9;
  doc.events = {span, inst};
  std::sort(doc.events.begin(), doc.events.end(), obs::trace_event_before);
  expect_golden("trace_synthetic.json", obs::trace_doc_to_json(doc));
}

// ---- the parser, the reader and the writer --------------------------------

std::string parse_error(const std::string& text) {
  try {
    json::parse(text);
  } catch (const CheckError& e) {
    return e.what();
  }
  return "";
}

TEST(Json, NumbersKeepExactIntegersAndRoundTripDoubles) {
  const json::Value big = json::parse("[9223372036854775807,"
                                      "-9223372036854775808,-0,1.5e3]");
  EXPECT_EQ(big.array[0].integer, std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(big.array[1].integer, std::numeric_limits<std::int64_t>::min());
  EXPECT_TRUE(big.array[2].is_integer);
  EXPECT_TRUE(std::signbit(big.array[2].number));
  EXPECT_FALSE(big.array[3].is_integer);
  EXPECT_EQ(big.array[3].number, 1500.0);
  for (const double v : {0.1 + 0.2, 1e9 + 1.0 / 3.0, -1e-300, 5e-324,
                         std::numeric_limits<double>::max()}) {
    const double back = json::parse(json::number(v)).number;
    EXPECT_EQ(std::memcmp(&back, &v, sizeof v), 0) << json::number(v);
  }
  // RFC 8259: no '+', no leading zeros, digits on both sides of '.', an
  // exponent with digits; values that fit neither int64 nor double fail.
  for (const char* bad : {"+1", "01", "-01", "1.", ".5", "1e", "1e+", "-",
                          "0x10", "9223372036854775808", "1e999"})
    EXPECT_NE(parse_error(bad), "") << bad;
}

TEST(Json, StringsDecodeEveryEscapeAndRejectTheRest) {
  EXPECT_EQ(json::parse(R"("a\"\\\/\b\f\n\r\t\u0041\u001f")").string,
            "a\"\\/\b\f\n\r\tA\x1f");
  // \u takes four hex digits and, as nothing writes more, only ASCII.
  for (const char* bad : {R"("\uzzzz")", R"("\u12")", R"("\u00e9")",
                          R"("\x")", "\"tab\there\"", R"("open)"})
    EXPECT_NE(parse_error(bad), "") << bad;
  // Every byte the writer escapes comes back unchanged.
  std::string all;
  for (int c = 1; c < 128; ++c) all += static_cast<char>(c);
  EXPECT_EQ(json::parse("\"" + json::escape(all) + "\"").string, all);
}

TEST(Json, StructureIsStrictAndErrorsNameTheirPosition) {
  for (const char* bad : {"", "{", "[1,]", "{\"a\":1,}", "{\"a\":1,\"a\":2}",
                          "[1] x", "null", "tru", "{a:1}", "[1 2]"})
    EXPECT_NE(parse_error(bad), "") << bad;
  EXPECT_NE(parse_error(std::string(300, '[') + std::string(300, ']')), "");
  EXPECT_NE(parse_error("{\n  \"depth\": +4}").find("line 2, column 12"),
            std::string::npos)
      << parse_error("{\n  \"depth\": +4}");
}

TEST(Json, ObjectReaderConsumesEveryKeyAndRangeChecksInts) {
  const json::Value v = json::parse(
      R"({"i":7,"big":4294967300,"d":0.5,"s":"x","b":true,"a":[1]})");
  json::ObjectReader r(v, "doc");
  EXPECT_EQ(r.get_int("i"), 7);
  EXPECT_EQ(r.get_int64("big"), 4294967300);
  EXPECT_EQ(r.get_double("d"), 0.5);
  EXPECT_EQ(r.get_string("s"), "x");
  EXPECT_TRUE(r.get_bool("b"));
  EXPECT_EQ(r.get_optional("missing"), nullptr);
  EXPECT_THROW(r.finish(), CheckError);  // "a" was never consumed
  EXPECT_EQ(r.get_array("a").size(), 1u);
  EXPECT_NO_THROW(r.finish());

  json::ObjectReader strict(v, "doc");
  EXPECT_THROW(strict.get_int("big"), CheckError);   // outside int
  EXPECT_THROW(strict.get_int("d"), CheckError);     // not an integer
  EXPECT_THROW(strict.get_string("i"), CheckError);  // wrong type
  EXPECT_THROW(strict.get_bool("none"), CheckError); // missing
  EXPECT_THROW(json::ObjectReader(v.object[5].second, "a"), CheckError);
}

}  // namespace
}  // namespace chimera
