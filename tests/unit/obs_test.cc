// Tests of the observability layer (src/obs): JSON model round-trips,
// stall-attribution invariants on real profiled runs, Chrome trace-event
// output validity, and the dba.bench.v1 schema validator.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/processor.h"
#include "core/workload.h"
#include "obs/bench_compare.h"
#include "obs/bench_json.h"
#include "obs/json.h"
#include "obs/metrics/metrics.h"
#include "obs/metrics_json.h"
#include "obs/serialize.h"
#include "obs/stall_report.h"
#include "obs/trace_writer.h"
#include "sim/stats.h"

namespace dba::obs {
namespace {

// --- JSON document model ---

TEST(JsonTest, DumpParseRoundTrip) {
  JsonValue root = JsonValue::Object();
  root.Set("string", "hello \"quoted\" \\ <\n\t>")
      .Set("int", uint64_t{9007199254740992ull - 1})  // 2^53 - 1
      .Set("negative", -42)
      .Set("fraction", 0.25)
      .Set("flag", true)
      .Set("empty_array", JsonValue::Array())
      .Set("nested",
           JsonValue::Object().Set(
               "list", JsonValue::Array().Push(1).Push("two").Push(false)));

  for (int indent : {0, 2}) {
    auto parsed = JsonValue::Parse(root.Dump(indent));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->Dump(), root.Dump());
    EXPECT_EQ(parsed->at("string").as_string(), "hello \"quoted\" \\ <\n\t>");
    EXPECT_EQ(parsed->at("int").as_u64(), 9007199254740991ull);
    EXPECT_EQ(parsed->at("negative").as_double(), -42.0);
    EXPECT_EQ(parsed->at("nested").at("list").size(), 3u);
    EXPECT_EQ(parsed->at("nested").at("list").at(1).as_string(), "two");
  }
}

TEST(JsonTest, IntegralNumbersPrintWithoutFraction) {
  JsonValue root = JsonValue::Object();
  root.Set("cycles", uint64_t{123456789});
  EXPECT_NE(root.Dump().find("123456789"), std::string::npos);
  EXPECT_EQ(root.Dump().find("123456789.0"), std::string::npos);
}

TEST(JsonTest, ParseRejectsMalformedDocuments) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "{\"a\" 1}", "tru", "\"unterminated",
        "{\"a\":1} trailing", "[1, 2", "nul"}) {
    EXPECT_FALSE(JsonValue::Parse(bad).ok()) << "accepted: " << bad;
  }
}

TEST(JsonTest, ParseHandlesUnicodeEscapes) {
  auto parsed = JsonValue::Parse("{\"s\": \"a\\u0041\\u00e9\"}");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->at("s").as_string(), "aA\xc3\xa9");
}

// --- ExecStats::Accumulate (per-pc merge fix) ---

TEST(ExecStatsTest, AccumulateMergesPerPcVectorsElementWise) {
  sim::ExecStats a;
  a.cycles = 10;
  a.pc_counts = {1, 2};
  a.pc_cycles.resize(2);
  a.pc_cycles[0].issue_cycles = 1;
  a.trace = {"0 0000: nop"};

  sim::ExecStats b;
  b.cycles = 20;
  b.pc_counts = {10, 20, 30};
  b.pc_cycles.resize(3);
  b.pc_cycles[0].issue_cycles = 5;
  b.pc_cycles[2].load_stall_cycles = 7;
  b.trace = {"0 0000: other"};

  a.Accumulate(b);
  EXPECT_EQ(a.cycles, 30u);
  ASSERT_EQ(a.pc_counts.size(), 3u);
  EXPECT_EQ(a.pc_counts[0], 11u);
  EXPECT_EQ(a.pc_counts[1], 22u);
  EXPECT_EQ(a.pc_counts[2], 30u);
  ASSERT_EQ(a.pc_cycles.size(), 3u);
  EXPECT_EQ(a.pc_cycles[0].issue_cycles, 6u);
  EXPECT_EQ(a.pc_cycles[2].load_stall_cycles, 7u);
  // The rendered trace of one specific run is intentionally not merged.
  ASSERT_EQ(a.trace.size(), 1u);
  EXPECT_EQ(a.trace[0], "0 0000: nop");

  // Accumulating the smaller stats into the larger must not shrink.
  sim::ExecStats c;
  c.pc_counts = {100};
  b.Accumulate(c);
  ASSERT_EQ(b.pc_counts.size(), 3u);
  EXPECT_EQ(b.pc_counts[0], 110u);
}

// --- Stall attribution on a real profiled run ---

struct ProfiledRun {
  std::unique_ptr<Processor> processor;
  SetOpRun run;
  const isa::Program* program = nullptr;
};

ProfiledRun RunProfiledIntersect() {
  ProfiledRun out;
  auto processor = Processor::Create(ProcessorKind::kDba2LsuEis, {});
  EXPECT_TRUE(processor.ok());
  out.processor = *std::move(processor);
  auto pair = GenerateSetPair(512, 512, 0.5, 7);
  EXPECT_TRUE(pair.ok());
  RunSettings settings;
  settings.profile = true;
  auto run = out.processor->RunSetOperation(SetOp::kIntersect, pair->a,
                                            pair->b, settings);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  out.run = *std::move(run);
  auto program = out.processor->setop_program(SetOp::kIntersect, false);
  EXPECT_TRUE(program.ok());
  out.program = *program;
  return out;
}

TEST(StallReportTest, ComponentsSumToTotalCycles) {
  ProfiledRun profiled = RunProfiledIntersect();
  const StallReport report =
      BuildStallReport(*profiled.program, profiled.run.metrics.stats,
                       "DBA_2LSU_EIS", 2);
  EXPECT_GT(report.cycles, 0u);
  EXPECT_EQ(report.totals.total_cycles(), report.cycles);
  EXPECT_GT(report.totals.issue_cycles, 0u);
  // The EIS kernel moves data, so the beat counters must be live.
  EXPECT_GT(report.lsu_beats[0], 0u);
  EXPECT_GT(report.lsu_utilization[0], 0.0);
  EXPECT_LE(report.lsu_utilization[0], 1.0);
}

TEST(StallReportTest, LabelRowsSumToTotals) {
  ProfiledRun profiled = RunProfiledIntersect();
  const StallReport report =
      BuildStallReport(*profiled.program, profiled.run.metrics.stats,
                       "DBA_2LSU_EIS", 2);
  ASSERT_FALSE(report.labels.empty());
  StallComponents sum;
  uint64_t beats[2] = {0, 0};
  for (const LabelStallRow& row : report.labels) {
    EXPECT_FALSE(row.label.empty());
    sum.issue_cycles += row.components.issue_cycles;
    sum.branch_penalty_cycles += row.components.branch_penalty_cycles;
    sum.load_stall_cycles += row.components.load_stall_cycles;
    sum.store_stall_cycles += row.components.store_stall_cycles;
    sum.port_stall_cycles += row.components.port_stall_cycles;
    sum.ext_extra_cycles += row.components.ext_extra_cycles;
    beats[0] += row.lsu_beats[0];
    beats[1] += row.lsu_beats[1];
  }
  EXPECT_EQ(sum.total_cycles(), report.totals.total_cycles());
  EXPECT_EQ(sum.issue_cycles, report.totals.issue_cycles);
  EXPECT_EQ(beats[0], report.lsu_beats[0]);
  EXPECT_EQ(beats[1], report.lsu_beats[1]);
  // Rows are ordered most-expensive first.
  for (size_t i = 1; i < report.labels.size(); ++i) {
    EXPECT_GE(report.labels[i - 1].components.total_cycles(),
              report.labels[i].components.total_cycles());
  }
}

TEST(StallReportTest, JsonExportKeepsTheCycleInvariant) {
  ProfiledRun profiled = RunProfiledIntersect();
  const StallReport report =
      BuildStallReport(*profiled.program, profiled.run.metrics.stats,
                       "DBA_2LSU_EIS", 2);
  auto parsed = JsonValue::Parse(StallReportToJson(report).Dump(2));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->at("schema").as_string(), kStallsSchema);
  const JsonValue& components = parsed->at("components");
  const uint64_t summed = components.at("issue_cycles").as_u64() +
                          components.at("branch_penalty_cycles").as_u64() +
                          components.at("load_stall_cycles").as_u64() +
                          components.at("store_stall_cycles").as_u64() +
                          components.at("port_stall_cycles").as_u64() +
                          components.at("ext_extra_cycles").as_u64();
  EXPECT_EQ(summed, parsed->at("cycles").as_u64());
  EXPECT_EQ(components.at("total_cycles").as_u64(),
            parsed->at("cycles").as_u64());
  EXPECT_GT(parsed->at("labels").size(), 0u);
}

TEST(SerializeTest, ExecStatsRoundTripThroughParser) {
  ProfiledRun profiled = RunProfiledIntersect();
  const sim::ExecStats& stats = profiled.run.metrics.stats;
  auto parsed = JsonValue::Parse(ExecStatsToJson(stats).Dump());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->at("schema").as_string(), kExecStatsSchema);
  EXPECT_EQ(parsed->at("cycles").as_u64(), stats.cycles);
  EXPECT_EQ(parsed->at("bundles").as_u64(), stats.bundles);
  EXPECT_EQ(parsed->at("instructions").as_u64(), stats.instructions);
  EXPECT_EQ(parsed->at("lsu_beats").at(0).as_u64(), stats.lsu_beats[0]);
  EXPECT_EQ(parsed->at("lsu_beats").at(1).as_u64(), stats.lsu_beats[1]);
  EXPECT_EQ(parsed->at("pc_counts").size(), stats.pc_counts.size());
  EXPECT_EQ(parsed->at("mnemonic_counts").members().size(),
            stats.mnemonic_counts.size());
  // The debug trace is not part of the stable schema.
  EXPECT_TRUE(parsed->at("trace").is_null());
}

TEST(SerializeTest, ProfileReportSerializes) {
  ProfiledRun profiled = RunProfiledIntersect();
  const toolchain::ProfileReport report = toolchain::BuildProfile(
      *profiled.program, profiled.run.metrics.stats,
      profiled.processor->cpu().MakeExtNameResolver());
  auto parsed = JsonValue::Parse(ProfileReportToJson(report).Dump(2));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->at("schema").as_string(), kProfileSchema);
  EXPECT_EQ(parsed->at("cycles").as_u64(),
            profiled.run.metrics.stats.cycles);
  EXPECT_GT(parsed->at("hotspots").size(), 0u);
  EXPECT_GT(parsed->at("instruction_mix").size(), 0u);
}

// --- Chrome trace-event output ---

// Checks structural validity of a Chrome trace-event document: a
// traceEvents array whose entries carry valid phases, non-decreasing
// timestamps, and balanced B/E pairs.
void ExpectValidChromeTrace(const JsonValue& root, size_t* num_slices) {
  ASSERT_TRUE(root.is_object());
  const JsonValue& events = root.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  ASSERT_GT(events.size(), 0u);
  uint64_t last_ts = 0;
  int depth = 0;
  size_t slices = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    const JsonValue& event = events.at(i);
    ASSERT_TRUE(event.is_object());
    const std::string& phase = event.at("ph").as_string();
    ASSERT_TRUE(phase == "B" || phase == "E" || phase == "C" ||
                phase == "M")
        << "unexpected phase " << phase;
    EXPECT_TRUE(event.at("name").is_string());
    EXPECT_TRUE(event.at("pid").is_number());
    if (phase == "M") continue;
    ASSERT_TRUE(event.at("ts").is_number());
    const uint64_t ts = event.at("ts").as_u64();
    EXPECT_GE(ts, last_ts) << "timestamps must not go backwards";
    last_ts = ts;
    if (phase == "B") {
      ++depth;
      ++slices;
    } else if (phase == "E") {
      ASSERT_GT(depth, 0) << "E without matching B";
      --depth;
    } else {
      ASSERT_TRUE(event.at("args").at("value").is_number());
    }
  }
  EXPECT_EQ(depth, 0) << "every B needs its E";
  *num_slices = slices;
}

TEST(TraceTest, ProfiledRunEmitsValidChromeTrace) {
  auto processor = Processor::Create(ProcessorKind::kDba2LsuEis, {});
  ASSERT_TRUE(processor.ok());
  auto pair = GenerateSetPair(256, 256, 0.5, 11);
  ASSERT_TRUE(pair.ok());
  ChromeTraceWriter writer("DBA_2LSU_EIS");
  RunSettings settings;
  settings.trace_sink = &writer;
  auto run = (*processor)->RunSetOperation(SetOp::kIntersect, pair->a,
                                           pair->b, settings);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_GT(writer.event_count(), 0u);

  // The document must survive its own serialization.
  auto parsed = JsonValue::Parse(writer.ToJson().Dump(2));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  size_t slices = 0;
  ExpectValidChromeTrace(*parsed, &slices);
  // At least the kernel-phase slice plus one label region.
  EXPECT_GE(slices, 2u);

  // Counter tracks for the stall categories and LSU beats are present.
  bool saw_beat_counter = false;
  bool saw_stall_counter = false;
  const JsonValue& events = parsed->at("traceEvents");
  for (size_t i = 0; i < events.size(); ++i) {
    const std::string& name = events.at(i).at("name").as_string();
    if (events.at(i).at("ph").as_string() != "C") continue;
    if (name.find("beats") != std::string::npos) saw_beat_counter = true;
    if (name.find("stall/") != std::string::npos) saw_stall_counter = true;
  }
  EXPECT_TRUE(saw_beat_counter);
  EXPECT_TRUE(saw_stall_counter);
}

TEST(TraceTest, DanglingRegionsAreClosedAtLastTimestamp) {
  ChromeTraceWriter writer;
  writer.BeginRegion(0, "outer");
  writer.BeginRegion(5, "inner");
  writer.Counter(7, "stall/load", 3);
  // No EndRegion calls: an aborted run leaves both regions open.
  auto parsed = JsonValue::Parse(writer.ToJson().Dump());
  ASSERT_TRUE(parsed.ok());
  size_t slices = 0;
  ExpectValidChromeTrace(*parsed, &slices);
  EXPECT_EQ(slices, 2u);
}

TEST(TraceTest, UnbalancedEndIsDropped) {
  ChromeTraceWriter writer;
  writer.EndRegion(3);  // no open region; must not corrupt the stream
  writer.BeginRegion(4, "r");
  writer.EndRegion(9);
  auto parsed = JsonValue::Parse(writer.ToJson().Dump());
  ASSERT_TRUE(parsed.ok());
  size_t slices = 0;
  ExpectValidChromeTrace(*parsed, &slices);
  EXPECT_EQ(slices, 1u);
}

TEST(TraceTest, WriteToProducesReadableFile) {
  const std::string path = testing::TempDir() + "/obs_test.trace.json";
  auto processor = Processor::Create(ProcessorKind::kDba1LsuEis, {});
  ASSERT_TRUE(processor.ok());
  auto pair = GenerateSetPair(64, 64, 0.5, 3);
  ASSERT_TRUE(pair.ok());
  ChromeTraceWriter writer("DBA_1LSU_EIS");
  RunSettings settings;
  settings.trace_sink = &writer;
  auto run = (*processor)->RunSetOperation(SetOp::kUnion, pair->a, pair->b,
                                           settings);
  ASSERT_TRUE(run.ok());
  ASSERT_TRUE(writer.WriteTo(path).ok());
  auto readback = ReadJsonFile(path);
  ASSERT_TRUE(readback.ok()) << readback.status().ToString();
  size_t slices = 0;
  ExpectValidChromeTrace(*readback, &slices);
}

// --- dba.bench.v1 ---

TEST(BenchJsonTest, WriterProducesValidDocument) {
  auto processor = Processor::Create(ProcessorKind::kDba2LsuEis, {});
  ASSERT_TRUE(processor.ok());
  auto pair = GenerateSetPair(128, 128, 0.5, 5);
  ASSERT_TRUE(pair.ok());
  auto run = (*processor)->RunSetOperation(SetOp::kIntersect, pair->a,
                                           pair->b);
  ASSERT_TRUE(run.ok());

  BenchJsonWriter writer("unit_test_bench");
  JsonValue& row = writer.AddRow("DBA_2LSU_EIS");
  row.Set("op", "intersect");
  MergeRunMetrics(row, run->metrics);
  ASSERT_EQ(writer.row_count(), 1u);

  const JsonValue document = writer.ToJson();
  ASSERT_TRUE(ValidateBenchJson(document).ok());
  const JsonValue& out = document.at("results").at(0);
  EXPECT_EQ(out.at("config").as_string(), "DBA_2LSU_EIS");
  EXPECT_EQ(out.at("cycles").as_u64(), run->metrics.cycles);
  // The embedded cycle breakdown keeps the CPI invariant.
  EXPECT_EQ(out.at("cycle_breakdown").at("total_cycles").as_u64(),
            run->metrics.cycles);
}

TEST(BenchJsonTest, FileRoundTripValidates) {
  const std::string path = testing::TempDir() + "/BENCH_obs_test.json";
  BenchJsonWriter writer("obs_test");
  writer.AddRow("108Mini").Set("op", "sort").Set("throughput_meps", 1.7);
  ASSERT_TRUE(writer.WriteTo(path).ok());
  auto readback = ReadJsonFile(path);
  ASSERT_TRUE(readback.ok()) << readback.status().ToString();
  EXPECT_TRUE(ValidateBenchJson(*readback).ok());
  EXPECT_EQ(readback->at("bench").as_string(), "obs_test");
}

TEST(BenchJsonTest, ValidatorRejectsBadDocuments) {
  // Wrong schema tag.
  auto bad = JsonValue::Parse(
      "{\"schema\":\"dba.bench.v0\",\"bench\":\"x\",\"results\":[]}");
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(ValidateBenchJson(*bad).ok());

  // Missing bench name.
  bad = JsonValue::Parse("{\"schema\":\"dba.bench.v1\",\"results\":[]}");
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(ValidateBenchJson(*bad).ok());

  // Row without a config.
  bad = JsonValue::Parse(
      "{\"schema\":\"dba.bench.v1\",\"bench\":\"x\","
      "\"results\":[{\"op\":\"intersect\"}]}");
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(ValidateBenchJson(*bad).ok());

  // Null value inside a row.
  bad = JsonValue::Parse(
      "{\"schema\":\"dba.bench.v1\",\"bench\":\"x\","
      "\"results\":[{\"config\":\"c\",\"value\":null}]}");
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(ValidateBenchJson(*bad).ok());

  // Results must be an array.
  bad = JsonValue::Parse(
      "{\"schema\":\"dba.bench.v1\",\"bench\":\"x\",\"results\":{}}");
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(ValidateBenchJson(*bad).ok());

  // A well-formed document passes.
  auto good = JsonValue::Parse(
      "{\"schema\":\"dba.bench.v1\",\"bench\":\"x\","
      "\"results\":[{\"config\":\"c\",\"cycles\":12}]}");
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(ValidateBenchJson(*good).ok());
}

TEST(BenchJsonTest, AttachedMetricsSnapshotValidates) {
  BenchJsonWriter writer("metrics_embed");
  writer.AddRow("DBA_2LSU_EIS").Set("op", "intersect").Set("cycles", 10);
  MetricsRegistry registry;
  registry.GetCounter("embed_total")->Increment(4);
  registry.GetHistogram("embed_cycles")->Observe(123);
  writer.AttachMetrics(MetricsSnapshotToJson(registry.Snapshot()));
  const JsonValue document = writer.ToJson();
  ASSERT_TRUE(ValidateBenchJson(document).ok());
  EXPECT_EQ(document.at("metrics").at("schema").as_string(),
            "dba.metrics.v1");
  EXPECT_EQ(document.at("metrics").at("counters").at("embed_total").as_u64(),
            4u);
}

TEST(BenchJsonTest, InvalidAttachedMetricsAreRejected) {
  BenchJsonWriter writer("metrics_embed");
  writer.AddRow("DBA_2LSU_EIS").Set("cycles", 10);
  auto bogus = JsonValue::Parse("{\"schema\":\"dba.metrics.v0\"}");
  ASSERT_TRUE(bogus.ok());
  writer.AttachMetrics(*bogus);
  EXPECT_FALSE(ValidateBenchJson(writer.ToJson()).ok());
}

// --- compare-bench: absent-vs-zero semantics ---

namespace {

Result<JsonValue> CompareDoc(const char* results) {
  return JsonValue::Parse(
      std::string("{\"schema\":\"dba.bench.v1\",\"bench\":\"b\","
                  "\"results\":[") +
      results + "]}");
}

}  // namespace

TEST(BenchCompareTest, MissingMetricIsToleratedByDefault) {
  auto baseline = CompareDoc(
      "{\"config\":\"c\",\"cores\":1,\"throughput_meps\":100.0,"
      "\"sim_speedup\":2.0}");
  // The run predates the sim_speedup column: absent, not zero.
  auto run = CompareDoc("{\"config\":\"c\",\"cores\":1,"
                        "\"throughput_meps\":100.0}");
  ASSERT_TRUE(baseline.ok() && run.ok());
  auto comparison = CompareBenchDocuments(*run, *baseline, {});
  ASSERT_TRUE(comparison.ok()) << comparison.status().ToString();
  EXPECT_TRUE(comparison->passed());
  EXPECT_EQ(comparison->regressions, 0);
  ASSERT_EQ(comparison->tolerated.size(), 1u);
  EXPECT_NE(comparison->tolerated[0].find("sim_speedup"), std::string::npos);
  // The present metric was still compared.
  ASSERT_EQ(comparison->deltas.size(), 1u);
  EXPECT_EQ(comparison->deltas[0].metric, "throughput_meps");
}

TEST(BenchCompareTest, StrictModeFailsMissingMetrics) {
  auto baseline = CompareDoc(
      "{\"config\":\"c\",\"cores\":1,\"throughput_meps\":100.0,"
      "\"sim_speedup\":2.0}");
  auto run = CompareDoc("{\"config\":\"c\",\"cores\":1,"
                        "\"throughput_meps\":100.0}");
  ASSERT_TRUE(baseline.ok() && run.ok());
  BenchCompareOptions options;
  options.strict = true;
  auto comparison = CompareBenchDocuments(*run, *baseline, options);
  ASSERT_TRUE(comparison.ok());
  EXPECT_FALSE(comparison->passed());
  EXPECT_EQ(comparison->regressions, 1);
  EXPECT_TRUE(comparison->tolerated.empty());
}

TEST(BenchCompareTest, RealRegressionsStillFailInTolerantMode) {
  auto baseline = CompareDoc(
      "{\"config\":\"c\",\"cores\":1,\"throughput_meps\":100.0}");
  auto run = CompareDoc(
      "{\"config\":\"c\",\"cores\":1,\"throughput_meps\":50.0}");
  ASSERT_TRUE(baseline.ok() && run.ok());
  auto comparison = CompareBenchDocuments(*run, *baseline, {});
  ASSERT_TRUE(comparison.ok());
  EXPECT_FALSE(comparison->passed());
  EXPECT_EQ(comparison->regressions, 1);
}

TEST(BenchCompareTest, MeasuredRouteNamesAreNotRowIdentity) {
  // intersect_adaptive's planner rows name the calibrated `chosen` and
  // host-measured `best_measured` routes; a flip between runs is the
  // same row, still compared, never a missing one.
  auto baseline = CompareDoc(
      "{\"config\":\"PLANNER\",\"route\":\"planner\",\"skew\":\"1:4\","
      "\"chosen\":\"simd_merge\",\"best_measured\":\"simd_merge\","
      "\"speedup_vs_eis\":2.0}");
  auto run = CompareDoc(
      "{\"config\":\"PLANNER\",\"route\":\"planner\",\"skew\":\"1:4\","
      "\"chosen\":\"eis_merge\",\"best_measured\":\"simd_merge\","
      "\"speedup_vs_eis\":0.5}");
  ASSERT_TRUE(baseline.ok() && run.ok());
  BenchCompareOptions options;
  options.metrics = {"speedup_vs_eis"};
  auto comparison = CompareBenchDocuments(*run, *baseline, options);
  ASSERT_TRUE(comparison.ok());
  EXPECT_TRUE(comparison->missing_rows.empty());
  ASSERT_EQ(comparison->deltas.size(), 1u);
  EXPECT_EQ(comparison->regressions, 1);
}

TEST(BenchCompareTest, UnknownRunOnlyMetricsAreIgnored) {
  // Extra columns in the run that the baseline does not track are fine.
  auto baseline = CompareDoc(
      "{\"config\":\"c\",\"cores\":1,\"throughput_meps\":100.0}");
  auto run = CompareDoc(
      "{\"config\":\"c\",\"cores\":1,\"throughput_meps\":101.0,"
      "\"brand_new_metric\":7.0}");
  ASSERT_TRUE(baseline.ok() && run.ok());
  auto comparison = CompareBenchDocuments(*run, *baseline, {});
  ASSERT_TRUE(comparison.ok());
  EXPECT_TRUE(comparison->passed());
  EXPECT_TRUE(comparison->tolerated.empty());
}

}  // namespace
}  // namespace dba::obs
