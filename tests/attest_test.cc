// Tests for the attestation plane: the JSON reader, interpolated
// quantiles, log-log fitting, claim gating, the baseline guard, and the
// round-trip contract between this library's JSON emitters and its own
// reader (everything the emitters write must parse back).

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "obs/attest.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/quantile.h"

namespace nwd {
namespace obs {
namespace {

// ---------------------------------------------------------------------------
// JSON reader.

TEST(JsonTest, ParsesScalars) {
  EXPECT_TRUE(json::Parse("null").value.IsNull());
  EXPECT_TRUE(json::Parse("true").value.bool_value);
  EXPECT_FALSE(json::Parse("false").value.bool_value);
  EXPECT_DOUBLE_EQ(json::Parse("-12.5e2").value.number, -1250.0);
  EXPECT_EQ(json::Parse("\"hi\"").value.string, "hi");
}

TEST(JsonTest, ParsesNestedDocument) {
  const auto result =
      json::Parse(R"({"a":[1,2,{"b":null}],"c":{"d":true},"e":""})");
  ASSERT_TRUE(result.ok) << result.error;
  const json::Value& doc = result.value;
  ASSERT_TRUE(doc.IsObject());
  const json::Value* a = doc.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array.size(), 3u);
  EXPECT_DOUBLE_EQ(a->array[1].number, 2.0);
  EXPECT_TRUE(a->array[2].Find("b")->IsNull());
  EXPECT_TRUE(doc.Find("c")->Find("d")->bool_value);
  EXPECT_EQ(doc.Find("e")->string, "");
  EXPECT_EQ(doc.Find("missing"), nullptr);
}

TEST(JsonTest, PreservesObjectInsertionOrder) {
  const auto result = json::Parse(R"({"z":1,"a":2,"m":3})");
  ASSERT_TRUE(result.ok);
  ASSERT_EQ(result.value.object.size(), 3u);
  EXPECT_EQ(result.value.object[0].first, "z");
  EXPECT_EQ(result.value.object[1].first, "a");
  EXPECT_EQ(result.value.object[2].first, "m");
}

TEST(JsonTest, DecodesEscapesAndUnicode) {
  const auto result = json::Parse(R"("a\"b\\c\n\t\u0041\u00e9\ud83d\ude00")");
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.value.string,
            "a\"b\\c\n\tA\xC3\xA9\xF0\x9F\x98\x80");  // é and 😀 as UTF-8
}

TEST(JsonTest, RejectsMalformedDocuments) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "{\"a\" 1}", "01", "1.", "1e",
        "+1", "nan", "infinity", "\"unterminated", "\"bad\\q\"",
        "\"\\ud800\"", "\"\\udc00x\"", "{\"a\":1} trailing", "[1 2]",
        "\x01"}) {
    const auto result = json::Parse(bad);
    EXPECT_FALSE(result.ok) << "accepted: " << bad;
    EXPECT_FALSE(result.error.empty());
  }
}

TEST(JsonTest, RejectsDepthBomb) {
  const std::string bomb(200, '[');
  const auto result = json::Parse(bomb);
  ASSERT_FALSE(result.ok);
  EXPECT_NE(result.error.find("nesting"), std::string::npos);
}

TEST(JsonTest, ReportsErrorOffset) {
  const auto result = json::Parse("{\"a\": bad}");
  ASSERT_FALSE(result.ok);
  EXPECT_EQ(result.error_offset, 6u);
  EXPECT_NE(result.error.find("at byte 6"), std::string::npos);
}

TEST(JsonTest, ParseFileMissingPathFailsCleanly) {
  const auto result = json::ParseFile("/nonexistent/nwd/file.json");
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("cannot read"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Interpolated quantiles.

TEST(QuantileTest, EmptySnapshotIsZero) {
  Histogram h;
  EXPECT_DOUBLE_EQ(SnapshotQuantile(h.Read(), 0.5), 0.0);
}

TEST(QuantileTest, SingleSampleEveryQuantile) {
  Histogram h;
  h.Record(100);
  const auto s = h.Read();
  EXPECT_DOUBLE_EQ(SnapshotQuantile(s, 0.0), 100.0);
  EXPECT_DOUBLE_EQ(SnapshotQuantile(s, 0.5), 100.0);
  EXPECT_DOUBLE_EQ(SnapshotQuantile(s, 1.0), 100.0);
}

TEST(QuantileTest, ClampedToExactMinMax) {
  Histogram h;
  // Both land in bucket 7 ([64, 128)); interpolation alone would spread
  // across the bucket, but the exact moments clamp the estimate.
  h.Record(100);
  h.Record(101);
  const auto s = h.Read();
  for (double q : {0.01, 0.5, 0.99}) {
    const double est = SnapshotQuantile(s, q);
    EXPECT_GE(est, 100.0) << q;
    EXPECT_LE(est, 101.0) << q;
  }
}

TEST(QuantileTest, SeparatesWellSpreadDistribution) {
  Histogram h;
  // 99 small samples and one huge one: p50 must stay small, p999 large.
  for (int i = 0; i < 99; ++i) h.Record(300);
  h.Record(1 << 20);
  const auto s = h.Read();
  EXPECT_LT(SnapshotQuantile(s, 0.50), 520.0);   // inside bucket 9
  EXPECT_GT(SnapshotQuantile(s, 0.999), 1e5);
  EXPECT_DOUBLE_EQ(SnapshotQuantile(s, 1.0), static_cast<double>(1 << 20));
}

TEST(QuantileTest, MonotoneInQ) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Record(i);
  const auto s = h.Read();
  double prev = -1.0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const double est = SnapshotQuantile(s, q);
    EXPECT_GE(est, prev) << "q=" << q;
    prev = est;
  }
}

TEST(QuantileTest, ZeroBucketHandled) {
  Histogram h;
  for (int i = 0; i < 10; ++i) h.Record(0);
  h.Record(50);
  const auto s = h.Read();
  EXPECT_DOUBLE_EQ(SnapshotQuantile(s, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(SnapshotQuantile(s, 1.0), 50.0);
}

// ---------------------------------------------------------------------------
// Histogram negative-sample policy.

TEST(HistogramTest, NegativeSamplesDroppedAndCounted) {
  Histogram h;
  h.Record(-5);
  h.Record(-1);
  auto s = h.Read();
  EXPECT_EQ(s.count, 0);
  EXPECT_EQ(s.sum, 0);
  EXPECT_EQ(s.negative_samples, 2);
  for (int64_t b : s.buckets) EXPECT_EQ(b, 0);

  h.Record(10);
  s = h.Read();
  EXPECT_EQ(s.count, 1);
  EXPECT_EQ(s.min, 10);  // not dragged to 0 by the clamped negatives
  EXPECT_EQ(s.max, 10);
  EXPECT_EQ(s.negative_samples, 2);
}

TEST(HistogramTest, NegativeSamplesSurfaceInRegistryJson) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("t.hist");
  h->Record(-3);
  h->Record(7);
  std::ostringstream out;
  registry.WriteJson(out);
  EXPECT_NE(out.str().find("\"negative_samples\":1"), std::string::npos)
      << out.str();
  const auto parsed = json::Parse(out.str());
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_DOUBLE_EQ(parsed.value.Find("histograms")
                       ->Find("t.hist")
                       ->Find("negative_samples")
                       ->number,
                   1.0);
}

// ---------------------------------------------------------------------------
// Log-log fitting.

TEST(FitTest, RecoversExactPowerLaw) {
  // y = 3 * x^2
  const LogLogFit fit = FitLogLog({{10, 300}, {20, 1200}, {40, 4800}});
  EXPECT_EQ(fit.points, 3);
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
  EXPECT_NEAR(fit.intercept, std::log(3.0), 1e-9);
  EXPECT_NEAR(fit.r2, 1.0, 1e-9);
}

TEST(FitTest, FlatDataHasZeroSlopePerfectFit) {
  const LogLogFit fit = FitLogLog({{100, 7}, {200, 7}, {400, 7}});
  EXPECT_NEAR(fit.slope, 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(fit.r2, 1.0);
}

TEST(FitTest, SkipsNonPositivePoints) {
  const LogLogFit fit = FitLogLog({{-1, 5}, {0, 5}, {10, 0}, {10, 100},
                                   {100, 1000}});
  EXPECT_EQ(fit.points, 2);
  EXPECT_NEAR(fit.slope, 1.0, 1e-9);
}

TEST(FitTest, TooFewPointsYieldsNoFit) {
  const LogLogFit fit = FitLogLog({{10, 100}});
  EXPECT_EQ(fit.points, 1);
  EXPECT_DOUBLE_EQ(fit.slope, 0.0);
  EXPECT_DOUBLE_EQ(fit.r2, 0.0);
}

TEST(FitTest, IdenticalXIsDegenerate) {
  const LogLogFit fit = FitLogLog({{10, 100}, {10, 200}});
  EXPECT_EQ(fit.points, 0);
}

// ---------------------------------------------------------------------------
// Attestation.

BenchRun SweepRun(const std::string& graph_class, int64_t n, double prep_ms,
                  double p50, double p99, double space) {
  BenchRun run;
  run.name = "BM_Synthetic/" + graph_class + "/" + std::to_string(n);
  run.graph_class = graph_class;
  run.n = n;
  run.iterations = 1;
  run.real_ms = prep_ms * 3;
  run.cpu_ms = prep_ms * 3;
  run.counters = {{"n", static_cast<double>(n)},
                  {"solutions", static_cast<double>(n) * 10},
                  {"prep_ms", prep_ms},
                  {"delay_p50_ns", p50},
                  {"delay_p99_ns", p99},
                  {"space_entries", space},
                  {"max_delay_ns", p99 * 50}};
  return run;
}

BenchArtifact FlatArtifact() {
  BenchArtifact artifact;
  artifact.benchmark = "synthetic";
  artifact.runs = {SweepRun("tree", 1024, 10.0, 300, 800, 15000),
                   SweepRun("tree", 2048, 20.5, 305, 790, 29000),
                   SweepRun("tree", 4096, 43.0, 298, 820, 62000)};
  return artifact;
}

BenchArtifact SuperlinearArtifact() {
  BenchArtifact artifact;
  artifact.benchmark = "synthetic";
  artifact.runs = {SweepRun("tree", 1024, 10.0, 300, 800, 15000),
                   SweepRun("tree", 2048, 40.0, 600, 1600, 60000),
                   SweepRun("tree", 4096, 160.0, 1200, 3200, 240000)};
  return artifact;
}

TEST(AttestTest, FlatSweepPassesAllGatedClaims) {
  const AttestReport report =
      Attest({FlatArtifact()}, {"synthetic"}, AttestConfig{});
  EXPECT_TRUE(report.pass);
  int gated_pass = 0;
  for (const ClaimResult& claim : report.claims) {
    EXPECT_NE(claim.status, ClaimResult::Status::kFail) << claim.claim;
    if (claim.status == ClaimResult::Status::kPass) ++gated_pass;
    if (claim.claim == "cor2.5.max_delay") {
      EXPECT_EQ(claim.status, ClaimResult::Status::kInfo);
      EXPECT_FALSE(claim.gated);
    }
  }
  EXPECT_EQ(gated_pass, 4);  // prep, p50, p99, space
}

TEST(AttestTest, SuperlinearSweepFails) {
  const AttestReport report =
      Attest({SuperlinearArtifact()}, {"synthetic"}, AttestConfig{});
  EXPECT_FALSE(report.pass);
  int failed = 0;
  for (const ClaimResult& claim : report.claims) {
    if (claim.status == ClaimResult::Status::kFail) ++failed;
  }
  EXPECT_EQ(failed, 4);  // delay slope 1 and prep/space slope 2 all exceed
}

TEST(AttestTest, BoundsComeFromConfig) {
  AttestConfig loose;
  loose.flat_slope = 1.2;
  loose.epsilon = 1.5;
  EXPECT_TRUE(Attest({SuperlinearArtifact()}, {"s"}, loose).pass);

  AttestConfig tight;
  tight.flat_slope = 0.01;  // even the flat sweep's noise exceeds this
  EXPECT_FALSE(Attest({FlatArtifact()}, {"s"}, tight).pass);
}

TEST(AttestTest, FallsBackToMeanDelayForOldArtifacts) {
  BenchArtifact artifact = FlatArtifact();
  for (BenchRun& run : artifact.runs) {
    std::vector<std::pair<std::string, double>> kept;
    for (auto& [name, value] : run.counters) {
      if (name == "delay_p50_ns") {
        kept.emplace_back("mean_delay_ns", value);
      } else if (name != "delay_p99_ns") {
        kept.emplace_back(name, value);
      }
    }
    run.counters = std::move(kept);
  }
  const AttestReport report = Attest({artifact}, {"s"}, AttestConfig{});
  EXPECT_TRUE(report.pass);
  bool found_fallback = false;
  bool p99_skipped = false;
  for (const ClaimResult& claim : report.claims) {
    if (claim.claim == "cor2.5.delay_p50") {
      EXPECT_EQ(claim.metric, "mean_delay_ns");
      EXPECT_EQ(claim.status, ClaimResult::Status::kPass);
      found_fallback = true;
    }
    if (claim.claim == "cor2.5.delay_p99") {
      EXPECT_EQ(claim.status, ClaimResult::Status::kSkipped);
      p99_skipped = true;
    }
  }
  EXPECT_TRUE(found_fallback);
  EXPECT_TRUE(p99_skipped);
}

TEST(AttestTest, ShortSweepSkipsAndStrictFails) {
  BenchArtifact artifact = FlatArtifact();
  artifact.runs.resize(2);
  AttestConfig config;
  const AttestReport report = Attest({artifact}, {"s"}, config);
  EXPECT_TRUE(report.pass);
  for (const ClaimResult& claim : report.claims) {
    EXPECT_EQ(claim.status, ClaimResult::Status::kSkipped) << claim.claim;
  }
  AttestConfig strict = config;
  strict.strict = true;
  EXPECT_FALSE(Attest({artifact}, {"s"}, strict).pass);
}

TEST(AttestTest, NoSweepDataPassesTrivially) {
  BenchArtifact artifact;
  artifact.benchmark = "throughput";
  BenchRun run;
  run.name = "BM_Throughput/8";
  run.graph_class = "tree";
  run.n = -1;  // not an n-sweep
  artifact.runs.push_back(run);
  const AttestReport report = Attest({artifact}, {"t"}, AttestConfig{});
  EXPECT_TRUE(report.pass);
  EXPECT_TRUE(report.claims.empty());
}

TEST(AttestTest, GateMaxTurnsMaxDelayIntoGatedClaim) {
  // The flat artifact's max_delay (p99 * 50) is still flat: passes.
  AttestConfig config;
  config.gate_max = true;
  const AttestReport flat = Attest({FlatArtifact()}, {"s"}, config);
  for (const ClaimResult& claim : flat.claims) {
    if (claim.claim == "cor2.5.max_delay") {
      EXPECT_TRUE(claim.gated);
      EXPECT_EQ(claim.status, ClaimResult::Status::kPass);
    }
  }
  // The superlinear one grows with n: now it fails too.
  const AttestReport super = Attest({SuperlinearArtifact()}, {"s"}, config);
  for (const ClaimResult& claim : super.claims) {
    if (claim.claim == "cor2.5.max_delay") {
      EXPECT_EQ(claim.status, ClaimResult::Status::kFail);
    }
  }
}

TEST(AttestTest, DuplicateSweepPointsAreAveraged) {
  BenchArtifact artifact = FlatArtifact();
  // A second 1024 run with double the prep time: the fit should see the
  // mean, not two conflicting points.
  artifact.runs.push_back(SweepRun("tree", 1024, 30.0, 300, 800, 15000));
  const AttestReport report = Attest({artifact}, {"s"}, AttestConfig{});
  for (const ClaimResult& claim : report.claims) {
    if (claim.claim == "thm2.3.preprocessing") {
      ASSERT_EQ(claim.points.size(), 3u);
      EXPECT_DOUBLE_EQ(claim.points[0].second, 20.0);  // mean(10, 30)
    }
  }
}

TEST(AttestTest, ReportJsonParsesBackAndCarriesVerdict) {
  const AttestReport report =
      Attest({SuperlinearArtifact()}, {"synthetic"}, AttestConfig{});
  std::ostringstream out;
  WriteAttestJson(out, report);
  const auto parsed = json::Parse(out.str());
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.value.Find("schema")->string, "nwd-attest-json/1");
  EXPECT_EQ(parsed.value.Find("mode")->string, "attest");
  EXPECT_FALSE(parsed.value.Find("pass")->bool_value);
  const json::Value* claims = parsed.value.Find("claims");
  ASSERT_NE(claims, nullptr);
  EXPECT_EQ(claims->array.size(), report.claims.size());
  const json::Value& first = claims->array[0];
  EXPECT_EQ(first.Find("claim")->string, "thm2.3.preprocessing");
  EXPECT_NEAR(first.Find("slope")->number, 2.0, 0.01);
  EXPECT_EQ(first.Find("points")->array.size(), 3u);
}

// ---------------------------------------------------------------------------
// Baseline guard.

TEST(BaselineTest, IdenticalArtifactsPass) {
  const BenchArtifact artifact = FlatArtifact();
  const BaselineReport report =
      CompareBaseline(artifact, artifact, BaselineConfig{});
  EXPECT_TRUE(report.pass);
  EXPECT_EQ(report.regressions, 0);
  EXPECT_EQ(report.divergences, 0);
  EXPECT_TRUE(report.only_in_baseline.empty());
  EXPECT_TRUE(report.only_in_current.empty());
}

TEST(BaselineTest, SlowdownBeyondToleranceRegresses) {
  BenchArtifact current = FlatArtifact();
  for (BenchRun& run : current.runs) {
    run.cpu_ms *= 2.0;  // past the default 1.5x gate
  }
  const BaselineReport report =
      CompareBaseline(FlatArtifact(), current, BaselineConfig{});
  EXPECT_FALSE(report.pass);
  EXPECT_EQ(report.regressions, 3);

  BaselineConfig loose;
  loose.rel_tol = 2.0;
  EXPECT_TRUE(CompareBaseline(FlatArtifact(), current, loose).pass);
}

TEST(BaselineTest, SpeedupIsImprovementNotFailure) {
  BenchArtifact current = FlatArtifact();
  for (BenchRun& run : current.runs) run.cpu_ms *= 0.3;
  const BaselineReport report =
      CompareBaseline(FlatArtifact(), current, BaselineConfig{});
  EXPECT_TRUE(report.pass);
  EXPECT_EQ(report.improvements, 3);
}

TEST(BaselineTest, SolutionCountMismatchDivergesEvenWithLooseTolerance) {
  BenchArtifact current = FlatArtifact();
  for (auto& [name, value] : current.runs[1].counters) {
    if (name == "solutions") value += 1;
  }
  BaselineConfig loose;
  loose.rel_tol = 1000.0;
  const BaselineReport report =
      CompareBaseline(FlatArtifact(), current, loose);
  EXPECT_FALSE(report.pass);
  EXPECT_EQ(report.divergences, 1);
}

TEST(BaselineTest, MaxDelayIsReportOnlyUnlessGated) {
  BenchArtifact current = FlatArtifact();
  for (auto& [name, value] : current.runs[0].counters) {
    if (name == "max_delay_ns") value *= 100;  // one big outlier
  }
  EXPECT_TRUE(
      CompareBaseline(FlatArtifact(), current, BaselineConfig{}).pass);
  BaselineConfig gated;
  gated.gate_max = true;
  const BaselineReport report =
      CompareBaseline(FlatArtifact(), current, gated);
  EXPECT_FALSE(report.pass);
  EXPECT_EQ(report.regressions, 1);
}

TEST(BaselineTest, UnmatchedRunsListedAndGatedByRequireAll) {
  BenchArtifact current = FlatArtifact();
  current.runs[2].name = "BM_Renamed/4096";
  const BaselineReport report =
      CompareBaseline(FlatArtifact(), current, BaselineConfig{});
  EXPECT_TRUE(report.pass);  // intersection compared, remainder listed
  ASSERT_EQ(report.only_in_baseline.size(), 1u);
  ASSERT_EQ(report.only_in_current.size(), 1u);
  EXPECT_EQ(report.only_in_current[0], "BM_Renamed/4096");

  BaselineConfig strict;
  strict.require_all = true;
  EXPECT_FALSE(CompareBaseline(FlatArtifact(), current, strict).pass);
}

TEST(BaselineTest, ReportJsonParsesBack) {
  BenchArtifact current = FlatArtifact();
  for (BenchRun& run : current.runs) run.cpu_ms *= 3.0;
  const BaselineReport report =
      CompareBaseline(FlatArtifact(), current, BaselineConfig{});
  std::ostringstream out;
  WriteBaselineJson(out, report);
  const auto parsed = json::Parse(out.str());
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.value.Find("mode")->string, "baseline");
  EXPECT_FALSE(parsed.value.Find("pass")->bool_value);
  EXPECT_DOUBLE_EQ(parsed.value.Find("regressions")->number, 3.0);
  const json::Value* comparisons = parsed.value.Find("comparisons");
  ASSERT_NE(comparisons, nullptr);
  EXPECT_FALSE(comparisons->array.empty());
}

// ---------------------------------------------------------------------------
// Artifact parsing and emitter round-trips.

TEST(ArtifactTest, ParsesBenchArtifact) {
  const char* doc = R"({"schema":"nwd-bench-json/1","benchmark":"b",
    "runs":[{"name":"BM_X/1024","graph_class":"tree","n":1024,
             "iterations":2,"real_ms":1.5,"cpu_ms":1.25,
             "counters":{"solutions":42,"prep_ms":0.5}}]})";
  const BenchParseResult result = ParseBenchArtifact(doc);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.artifact.benchmark, "b");
  ASSERT_EQ(result.artifact.runs.size(), 1u);
  const BenchRun& run = result.artifact.runs[0];
  EXPECT_EQ(run.name, "BM_X/1024");
  EXPECT_EQ(run.n, 1024);
  EXPECT_EQ(run.iterations, 2);
  EXPECT_DOUBLE_EQ(run.cpu_ms, 1.25);
  ASSERT_NE(run.FindCounter("solutions"), nullptr);
  EXPECT_DOUBLE_EQ(*run.FindCounter("solutions"), 42.0);
  EXPECT_EQ(run.FindCounter("nope"), nullptr);
}

TEST(ArtifactTest, RejectsBadArtifacts) {
  EXPECT_FALSE(ParseBenchArtifact("[]").ok);
  EXPECT_FALSE(ParseBenchArtifact(R"({"schema":"wrong/1","runs":[]})").ok);
  EXPECT_FALSE(
      ParseBenchArtifact(R"({"schema":"nwd-bench-json/1","benchmark":"b"})")
          .ok);
  // A run missing required numeric keys.
  EXPECT_FALSE(ParseBenchArtifact(
                   R"({"schema":"nwd-bench-json/1","benchmark":"b",
                       "runs":[{"name":"x","graph_class":"t"}]})")
                   .ok);
  // Non-numeric counter value.
  EXPECT_FALSE(ParseBenchArtifact(
                   R"({"schema":"nwd-bench-json/1","benchmark":"b",
                       "runs":[{"name":"x","graph_class":"t","n":1,
                                "iterations":1,"real_ms":1,"cpu_ms":1,
                                "counters":{"k":"v"}}]})")
                   .ok);
}

TEST(ArtifactTest, WriteParseRoundTrip) {
  BenchArtifact artifact = FlatArtifact();
  artifact.runs[0].name = "weird \"name\"\twith\nescapes";
  std::ostringstream out;
  WriteBenchArtifactJson(out, artifact);
  const BenchParseResult result = ParseBenchArtifact(out.str());
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.artifact.runs.size(), artifact.runs.size());
  EXPECT_EQ(result.artifact.runs[0].name, artifact.runs[0].name);
  for (size_t i = 0; i < artifact.runs.size(); ++i) {
    EXPECT_EQ(result.artifact.runs[i].counters, artifact.runs[i].counters);
    EXPECT_DOUBLE_EQ(result.artifact.runs[i].cpu_ms, artifact.runs[i].cpu_ms);
  }
}

TEST(RoundTripTest, EmptyMetricsRegistryJsonParses) {
  MetricsRegistry registry;
  std::ostringstream out;
  registry.WriteJson(out);
  const auto parsed = json::Parse(out.str());
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.value.Find("schema")->string, "nwd-metrics/1");
  EXPECT_TRUE(parsed.value.Find("counters")->object.empty());
  EXPECT_TRUE(parsed.value.Find("histograms")->object.empty());
}

TEST(RoundTripTest, PopulatedMetricsRegistryJsonParses) {
  MetricsRegistry registry;
  registry.GetCounter("c.events")->Add(17);
  registry.GetGauge("g.depth")->Set(-4);  // negative gauges are legal
  Histogram* h = registry.GetHistogram("h.delay");
  for (int i = 0; i < 100; ++i) h->Record(i * 37);
  std::ostringstream out;
  registry.WriteJson(out);
  const auto parsed = json::Parse(out.str());
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_DOUBLE_EQ(
      parsed.value.Find("counters")->Find("c.events")->number, 17.0);
  EXPECT_DOUBLE_EQ(parsed.value.Find("gauges")->Find("g.depth")->number, -4.0);
  const json::Value* hist = parsed.value.Find("histograms")->Find("h.delay");
  ASSERT_NE(hist, nullptr);
  EXPECT_DOUBLE_EQ(hist->Find("count")->number, 100.0);
  // Elided trailing zero buckets must still sum to the count.
  double bucket_sum = 0;
  for (const json::Value& b : hist->Find("buckets")->array) {
    bucket_sum += b.number;
  }
  EXPECT_DOUBLE_EQ(bucket_sum, 100.0);
}

}  // namespace
}  // namespace obs
}  // namespace nwd
