#include "obs/attest.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "obs/json.h"

namespace nwd {
namespace obs {
namespace {

void WriteDouble(std::ostream& out, double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  out << buf;
}

bool FiniteNumber(const json::Value* v) {
  return v != nullptr && v->IsNumber() && std::isfinite(v->number);
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

}  // namespace

// ---------------------------------------------------------------------------
// Artifact parsing / writing.

const double* BenchRun::FindCounter(std::string_view counter_name) const {
  for (const auto& [name, value] : counters) {
    if (name == counter_name) return &value;
  }
  return nullptr;
}

BenchParseResult ParseBenchArtifact(std::string_view json_text) {
  BenchParseResult result;
  const json::ParseResult parsed = json::Parse(json_text);
  if (!parsed.ok) {
    result.error = parsed.error;
    return result;
  }
  const json::Value& doc = parsed.value;
  if (!doc.IsObject()) {
    result.error = "artifact is not a JSON object";
    return result;
  }
  const json::Value* schema = doc.Find("schema");
  if (schema == nullptr || !schema->IsString() ||
      schema->string != "nwd-bench-json/1") {
    result.error = "missing or wrong schema (want \"nwd-bench-json/1\")";
    return result;
  }
  const json::Value* benchmark = doc.Find("benchmark");
  if (benchmark == nullptr || !benchmark->IsString()) {
    result.error = "missing \"benchmark\" string";
    return result;
  }
  result.artifact.benchmark = benchmark->string;
  const json::Value* runs = doc.Find("runs");
  if (runs == nullptr || !runs->IsArray()) {
    result.error = "missing \"runs\" array";
    return result;
  }
  for (size_t i = 0; i < runs->array.size(); ++i) {
    const json::Value& run = runs->array[i];
    const std::string where = "run " + std::to_string(i);
    if (!run.IsObject()) {
      result.error = where + " is not an object";
      return result;
    }
    BenchRun out;
    const json::Value* name = run.Find("name");
    if (name == nullptr || !name->IsString() || name->string.empty()) {
      result.error = where + " has no name";
      return result;
    }
    out.name = name->string;
    const json::Value* graph_class = run.Find("graph_class");
    if (graph_class == nullptr || !graph_class->IsString()) {
      result.error = where + " has no graph_class";
      return result;
    }
    out.graph_class = graph_class->string;
    for (const char* key : {"n", "iterations", "real_ms", "cpu_ms"}) {
      if (!FiniteNumber(run.Find(key))) {
        result.error = where + " key '" + key + "' missing or not finite";
        return result;
      }
    }
    out.n = run.Find("n")->Int64Or(-1);
    out.iterations = run.Find("iterations")->Int64Or(0);
    out.real_ms = run.Find("real_ms")->number;
    out.cpu_ms = run.Find("cpu_ms")->number;
    const json::Value* counters = run.Find("counters");
    if (counters == nullptr || !counters->IsObject()) {
      result.error = where + " has no counters object";
      return result;
    }
    for (const auto& [counter_name, value] : counters->object) {
      if (!value.IsNumber() || !std::isfinite(value.number)) {
        result.error =
            where + " counter '" + counter_name + "' is not a finite number";
        return result;
      }
      out.counters.emplace_back(counter_name, value.number);
    }
    result.artifact.runs.push_back(std::move(out));
  }
  result.ok = true;
  return result;
}

BenchParseResult ParseBenchArtifactFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    BenchParseResult result;
    result.error = "cannot read '" + path + "'";
    return result;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  BenchParseResult result = ParseBenchArtifact(buffer.str());
  if (!result.ok) result.error = path + ": " + result.error;
  return result;
}

void WriteBenchArtifactJson(std::ostream& out, const BenchArtifact& artifact) {
  out << "{\"schema\":\"nwd-bench-json/1\",\"benchmark\":";
  json::WriteString(out, artifact.benchmark);
  out << ",\"runs\":[";
  bool first_run = true;
  for (const BenchRun& run : artifact.runs) {
    if (!first_run) out << ',';
    first_run = false;
    out << "{\"name\":";
    json::WriteString(out, run.name);
    out << ",\"graph_class\":";
    json::WriteString(out, run.graph_class);
    out << ",\"n\":" << run.n;
    out << ",\"iterations\":" << run.iterations;
    out << ",\"real_ms\":";
    WriteDouble(out, run.real_ms);
    out << ",\"cpu_ms\":";
    WriteDouble(out, run.cpu_ms);
    out << ",\"counters\":{";
    bool first_counter = true;
    for (const auto& [name, value] : run.counters) {
      if (!first_counter) out << ',';
      first_counter = false;
      json::WriteString(out, name);
      out << ':';
      WriteDouble(out, value);
    }
    out << "}}";
  }
  out << "]}\n";
}

// ---------------------------------------------------------------------------
// Fitting.

LogLogFit FitLogLog(const std::vector<std::pair<double, double>>& points) {
  LogLogFit fit;
  std::vector<std::pair<double, double>> logs;
  for (const auto& [x, y] : points) {
    if (x > 0.0 && y > 0.0) logs.emplace_back(std::log(x), std::log(y));
  }
  fit.points = static_cast<int>(logs.size());
  if (logs.size() < 2) return fit;
  double mean_x = 0.0;
  double mean_y = 0.0;
  for (const auto& [x, y] : logs) {
    mean_x += x;
    mean_y += y;
  }
  mean_x /= static_cast<double>(logs.size());
  mean_y /= static_cast<double>(logs.size());
  double sxx = 0.0;
  double sxy = 0.0;
  double syy = 0.0;
  for (const auto& [x, y] : logs) {
    sxx += (x - mean_x) * (x - mean_x);
    sxy += (x - mean_x) * (y - mean_y);
    syy += (y - mean_y) * (y - mean_y);
  }
  if (sxx <= 0.0) {
    // All sweep sizes identical: no exponent to fit.
    fit.points = 0;
    return fit;
  }
  fit.slope = sxy / sxx;
  fit.intercept = mean_y - fit.slope * mean_x;
  if (syy <= 0.0) {
    fit.r2 = 1.0;  // all values identical: a flat line fits exactly
  } else {
    double ss_res = 0.0;
    for (const auto& [x, y] : logs) {
      const double predicted = fit.intercept + fit.slope * x;
      ss_res += (y - predicted) * (y - predicted);
    }
    fit.r2 = std::max(0.0, 1.0 - ss_res / syy);
  }
  return fit;
}

// ---------------------------------------------------------------------------
// Attestation.

namespace {

struct ClaimSpec {
  const char* claim;
  const char* metric;
  const char* fallback_metric;  // accepted when `metric` is absent
  bool pseudo_linear;           // bound = 1 + eps + band; else flat_slope
  bool always_gated;            // false: gated only under gate_max
};

constexpr ClaimSpec kClaimSpecs[] = {
    {"thm2.3.preprocessing", "prep_ms", nullptr, true, true},
    {"cor2.5.delay_p50", "delay_p50_ns", "mean_delay_ns", false, true},
    {"cor2.5.delay_p99", "delay_p99_ns", nullptr, false, true},
    {"thm3.1.space", "space_entries", nullptr, true, true},
    {"cor2.5.max_delay", "max_delay_ns", nullptr, false, false},
};

const char* StatusName(ClaimResult::Status status) {
  switch (status) {
    case ClaimResult::Status::kPass: return "pass";
    case ClaimResult::Status::kFail: return "fail";
    case ClaimResult::Status::kSkipped: return "skipped";
    case ClaimResult::Status::kInfo: return "info";
  }
  return "?";
}

}  // namespace

AttestReport Attest(const std::vector<BenchArtifact>& artifacts,
                    const std::vector<std::string>& sources,
                    const AttestConfig& config) {
  AttestReport report;
  report.config = config;
  report.sources = sources;

  // class -> n -> metric -> (sum, count): mean across duplicate runs.
  std::map<std::string, std::map<int64_t,
                                 std::map<std::string, std::pair<double, int>>>>
      sweeps;
  std::vector<std::string> class_order;
  for (const BenchArtifact& artifact : artifacts) {
    for (const BenchRun& run : artifact.runs) {
      if (run.n <= 0) continue;  // not part of an n-sweep
      if (sweeps.find(run.graph_class) == sweeps.end()) {
        class_order.push_back(run.graph_class);
      }
      auto& by_metric = sweeps[run.graph_class][run.n];
      for (const auto& [name, value] : run.counters) {
        auto& [sum, count] = by_metric[name];
        sum += value;
        ++count;
      }
    }
  }

  for (const std::string& graph_class : class_order) {
    const auto& by_n = sweeps[graph_class];
    for (const ClaimSpec& spec : kClaimSpecs) {
      ClaimResult claim;
      claim.claim = spec.claim;
      claim.graph_class = graph_class;
      claim.metric = spec.metric;
      claim.gated = spec.always_gated || config.gate_max;
      claim.bound = spec.pseudo_linear
                        ? 1.0 + config.epsilon + config.noise_band
                        : config.flat_slope;

      // Primary metric if any sweep point carries it, else the fallback.
      bool primary_present = false;
      bool fallback_present = false;
      for (const auto& [n, metrics] : by_n) {
        if (metrics.count(spec.metric) > 0) primary_present = true;
        if (spec.fallback_metric != nullptr &&
            metrics.count(spec.fallback_metric) > 0) {
          fallback_present = true;
        }
      }
      if (!primary_present && fallback_present) {
        claim.metric = spec.fallback_metric;
        claim.note = std::string("fell back to ") + spec.fallback_metric +
                     " (no " + spec.metric + " in artifact)";
      } else if (!primary_present) {
        claim.status = ClaimResult::Status::kSkipped;
        claim.note = std::string("metric ") + spec.metric + " not present";
        report.claims.push_back(std::move(claim));
        continue;
      }

      for (const auto& [n, metrics] : by_n) {
        const auto it = metrics.find(claim.metric);
        if (it == metrics.end() || it->second.second == 0) continue;
        const double mean = it->second.first / it->second.second;
        if (mean > 0.0) {
          claim.points.emplace_back(static_cast<double>(n), mean);
        }
      }
      if (static_cast<int>(claim.points.size()) < config.min_points) {
        claim.status = ClaimResult::Status::kSkipped;
        claim.note += (claim.note.empty() ? "" : "; ");
        claim.note += "only " + std::to_string(claim.points.size()) + " of " +
                      std::to_string(config.min_points) +
                      " required sweep sizes";
        report.claims.push_back(std::move(claim));
        continue;
      }
      claim.fit = FitLogLog(claim.points);
      if (claim.fit.points < 2) {
        claim.status = ClaimResult::Status::kSkipped;
        claim.note += (claim.note.empty() ? "" : "; ");
        claim.note += "degenerate sweep (identical sizes)";
        report.claims.push_back(std::move(claim));
        continue;
      }
      if (!claim.gated) {
        claim.status = ClaimResult::Status::kInfo;
      } else if (claim.fit.slope <= claim.bound) {
        claim.status = ClaimResult::Status::kPass;
      } else {
        claim.status = ClaimResult::Status::kFail;
      }
      report.claims.push_back(std::move(claim));
    }
  }

  report.pass = true;
  for (const ClaimResult& claim : report.claims) {
    if (claim.status == ClaimResult::Status::kFail) report.pass = false;
    if (config.strict && claim.gated &&
        claim.status == ClaimResult::Status::kSkipped) {
      report.pass = false;
    }
  }
  return report;
}

void WriteAttestJson(std::ostream& out, const AttestReport& report) {
  out << "{\"schema\":\"nwd-attest-json/1\",\"mode\":\"attest\"";
  out << ",\"config\":{\"epsilon\":";
  WriteDouble(out, report.config.epsilon);
  out << ",\"noise_band\":";
  WriteDouble(out, report.config.noise_band);
  out << ",\"flat_slope\":";
  WriteDouble(out, report.config.flat_slope);
  out << ",\"min_points\":" << report.config.min_points;
  out << ",\"gate_max\":" << (report.config.gate_max ? "true" : "false");
  out << ",\"strict\":" << (report.config.strict ? "true" : "false") << '}';
  out << ",\"sources\":[";
  for (size_t i = 0; i < report.sources.size(); ++i) {
    if (i > 0) out << ',';
    json::WriteString(out, report.sources[i]);
  }
  out << "],\"claims\":[";
  bool first = true;
  for (const ClaimResult& claim : report.claims) {
    if (!first) out << ',';
    first = false;
    out << "{\"claim\":";
    json::WriteString(out, claim.claim);
    out << ",\"graph_class\":";
    json::WriteString(out, claim.graph_class);
    out << ",\"metric\":";
    json::WriteString(out, claim.metric);
    out << ",\"status\":";
    json::WriteString(out, StatusName(claim.status));
    out << ",\"gated\":" << (claim.gated ? "true" : "false");
    out << ",\"bound\":";
    WriteDouble(out, claim.bound);
    out << ",\"fit_points\":" << claim.fit.points;
    out << ",\"slope\":";
    WriteDouble(out, claim.fit.slope);
    out << ",\"intercept\":";
    WriteDouble(out, claim.fit.intercept);
    out << ",\"r2\":";
    WriteDouble(out, claim.fit.r2);
    out << ",\"points\":[";
    for (size_t i = 0; i < claim.points.size(); ++i) {
      if (i > 0) out << ',';
      out << '[';
      WriteDouble(out, claim.points[i].first);
      out << ',';
      WriteDouble(out, claim.points[i].second);
      out << ']';
    }
    out << "],\"note\":";
    json::WriteString(out, claim.note);
    out << '}';
  }
  out << "],\"pass\":" << (report.pass ? "true" : "false") << "}\n";
}

void WriteAttestSummary(std::ostream& out, const AttestReport& report) {
  int gated = 0;
  int failed = 0;
  int skipped = 0;
  int info = 0;
  for (const ClaimResult& claim : report.claims) {
    char line[256];
    switch (claim.status) {
      case ClaimResult::Status::kPass:
      case ClaimResult::Status::kFail:
        std::snprintf(line, sizeof(line),
                      "%-22s %-12s %-14s slope %+.3f (bound %.2f, r2 %.3f, "
                      "%d pts)  %s",
                      claim.claim.c_str(), claim.graph_class.c_str(),
                      claim.metric.c_str(), claim.fit.slope, claim.bound,
                      claim.fit.r2, claim.fit.points,
                      claim.status == ClaimResult::Status::kPass ? "PASS"
                                                                 : "FAIL");
        break;
      case ClaimResult::Status::kInfo:
        std::snprintf(line, sizeof(line),
                      "%-22s %-12s %-14s slope %+.3f (report only, %d pts)",
                      claim.claim.c_str(), claim.graph_class.c_str(),
                      claim.metric.c_str(), claim.fit.slope, claim.fit.points);
        break;
      case ClaimResult::Status::kSkipped:
        std::snprintf(line, sizeof(line), "%-22s %-12s %-14s skipped: %s",
                      claim.claim.c_str(), claim.graph_class.c_str(),
                      claim.metric.c_str(), claim.note.c_str());
        break;
    }
    out << line;
    if (!claim.note.empty() && claim.status != ClaimResult::Status::kSkipped) {
      out << "  [" << claim.note << ']';
    }
    out << '\n';
    if (claim.gated) ++gated;
    if (claim.status == ClaimResult::Status::kFail) ++failed;
    if (claim.status == ClaimResult::Status::kSkipped) ++skipped;
    if (claim.status == ClaimResult::Status::kInfo) ++info;
  }
  out << "attestation: " << (report.pass ? "PASS" : "FAIL") << " — " << gated
      << " gated, " << failed << " failed, " << skipped << " skipped, " << info
      << " report-only\n";
}

// ---------------------------------------------------------------------------
// Baseline comparison.

namespace {

enum class MetricKind { kExact, kGatedTime, kInfoOnly };

MetricKind ClassifyMetric(std::string_view name, bool gate_max) {
  if (name == "n" || name == "solutions" || name == "threads") {
    return MetricKind::kExact;
  }
  if (name == "real_ms" || name == "iterations") return MetricKind::kInfoOnly;
  const bool time_like = name == "cpu_ms" || EndsWith(name, "_ms") ||
                         EndsWith(name, "_us") || EndsWith(name, "_ns");
  if (!time_like) return MetricKind::kInfoOnly;
  if ((StartsWith(name, "max_") || StartsWith(name, "first_")) && !gate_max) {
    return MetricKind::kInfoOnly;
  }
  return MetricKind::kGatedTime;
}

double SafeRatio(double baseline, double current) {
  if (baseline == 0.0) return current == 0.0 ? 1.0 : 1e9;
  const double ratio = current / baseline;
  return std::clamp(ratio, 0.0, 1e9);
}

const char* DiffStatusName(MetricDiff::Status status) {
  switch (status) {
    case MetricDiff::Status::kOk: return "ok";
    case MetricDiff::Status::kRegressed: return "regressed";
    case MetricDiff::Status::kImproved: return "improved";
    case MetricDiff::Status::kDiverged: return "diverged";
    case MetricDiff::Status::kInfo: return "info";
  }
  return "?";
}

}  // namespace

BaselineReport CompareBaseline(const BenchArtifact& baseline,
                               const BenchArtifact& current,
                               const BaselineConfig& config) {
  BaselineReport report;
  report.config = config;
  std::map<std::string, const BenchRun*> baseline_by_name;
  for (const BenchRun& run : baseline.runs) {
    baseline_by_name.emplace(run.name, &run);
  }
  std::set<std::string> matched;

  for (const BenchRun& run : current.runs) {
    const auto it = baseline_by_name.find(run.name);
    if (it == baseline_by_name.end()) {
      report.only_in_current.push_back(run.name);
      continue;
    }
    matched.insert(run.name);
    const BenchRun& base = *it->second;

    // (metric, baseline value, current value) for everything comparable.
    std::vector<std::pair<std::string, std::pair<double, double>>> pairs;
    pairs.emplace_back("real_ms", std::make_pair(base.real_ms, run.real_ms));
    pairs.emplace_back("cpu_ms", std::make_pair(base.cpu_ms, run.cpu_ms));
    pairs.emplace_back("iterations",
                       std::make_pair(static_cast<double>(base.iterations),
                                      static_cast<double>(run.iterations)));
    for (const auto& [name, value] : run.counters) {
      const double* base_value = base.FindCounter(name);
      if (base_value != nullptr) {
        pairs.emplace_back(name, std::make_pair(*base_value, value));
      }
    }

    for (const auto& [metric, values] : pairs) {
      const auto [base_value, cur_value] = values;
      MetricDiff diff;
      diff.run = run.name;
      diff.metric = metric;
      diff.baseline = base_value;
      diff.current = cur_value;
      diff.ratio = SafeRatio(base_value, cur_value);
      switch (ClassifyMetric(metric, config.gate_max)) {
        case MetricKind::kExact: {
          const double scale = std::max(std::abs(base_value), 1.0);
          if (std::abs(base_value - cur_value) > 1e-9 * scale) {
            diff.status = MetricDiff::Status::kDiverged;
            ++report.divergences;
          } else {
            diff.status = MetricDiff::Status::kOk;
          }
          break;
        }
        case MetricKind::kGatedTime:
          if (base_value <= 0.0 || cur_value <= 0.0) {
            // No meaningful ratio (empty histogram, zero-length phase).
            diff.status = MetricDiff::Status::kInfo;
          } else if (cur_value > base_value * (1.0 + config.rel_tol)) {
            diff.status = MetricDiff::Status::kRegressed;
            ++report.regressions;
          } else if (cur_value * (1.0 + config.rel_tol) < base_value) {
            diff.status = MetricDiff::Status::kImproved;
            ++report.improvements;
          } else {
            diff.status = MetricDiff::Status::kOk;
          }
          break;
        case MetricKind::kInfoOnly:
          diff.status = MetricDiff::Status::kInfo;
          break;
      }
      report.diffs.push_back(std::move(diff));
    }
  }
  for (const BenchRun& run : baseline.runs) {
    if (matched.count(run.name) == 0) {
      report.only_in_baseline.push_back(run.name);
    }
  }

  report.pass = report.regressions == 0 && report.divergences == 0;
  if (config.require_all &&
      (!report.only_in_baseline.empty() || !report.only_in_current.empty())) {
    report.pass = false;
  }
  return report;
}

void WriteBaselineJson(std::ostream& out, const BaselineReport& report) {
  out << "{\"schema\":\"nwd-attest-json/1\",\"mode\":\"baseline\"";
  out << ",\"config\":{\"rel_tol\":";
  WriteDouble(out, report.config.rel_tol);
  out << ",\"gate_max\":" << (report.config.gate_max ? "true" : "false");
  out << ",\"require_all\":" << (report.config.require_all ? "true" : "false")
      << '}';
  out << ",\"comparisons\":[";
  bool first = true;
  for (const MetricDiff& diff : report.diffs) {
    if (!first) out << ',';
    first = false;
    out << "{\"run\":";
    json::WriteString(out, diff.run);
    out << ",\"metric\":";
    json::WriteString(out, diff.metric);
    out << ",\"baseline\":";
    WriteDouble(out, diff.baseline);
    out << ",\"current\":";
    WriteDouble(out, diff.current);
    out << ",\"ratio\":";
    WriteDouble(out, diff.ratio);
    out << ",\"status\":";
    json::WriteString(out, DiffStatusName(diff.status));
    out << '}';
  }
  out << "],\"only_in_baseline\":[";
  for (size_t i = 0; i < report.only_in_baseline.size(); ++i) {
    if (i > 0) out << ',';
    json::WriteString(out, report.only_in_baseline[i]);
  }
  out << "],\"only_in_current\":[";
  for (size_t i = 0; i < report.only_in_current.size(); ++i) {
    if (i > 0) out << ',';
    json::WriteString(out, report.only_in_current[i]);
  }
  out << "],\"regressions\":" << report.regressions;
  out << ",\"improvements\":" << report.improvements;
  out << ",\"divergences\":" << report.divergences;
  out << ",\"pass\":" << (report.pass ? "true" : "false") << "}\n";
}

void WriteBaselineSummary(std::ostream& out, const BaselineReport& report) {
  int compared = 0;
  for (const MetricDiff& diff : report.diffs) {
    if (diff.status != MetricDiff::Status::kInfo) ++compared;
    if (diff.status == MetricDiff::Status::kOk ||
        diff.status == MetricDiff::Status::kInfo) {
      continue;
    }
    char line[256];
    std::snprintf(line, sizeof(line), "%-10s %s/%s: %.6g -> %.6g (x%.3g)",
                  DiffStatusName(diff.status), diff.run.c_str(),
                  diff.metric.c_str(), diff.baseline, diff.current,
                  diff.ratio);
    out << line << '\n';
  }
  if (!report.only_in_baseline.empty()) {
    out << "only in baseline: " << report.only_in_baseline.size()
        << " run(s)\n";
  }
  if (!report.only_in_current.empty()) {
    out << "only in current: " << report.only_in_current.size() << " run(s)\n";
  }
  out << "baseline: " << (report.pass ? "PASS" : "FAIL") << " — " << compared
      << " gated metrics, " << report.regressions << " regressed, "
      << report.divergences << " diverged, " << report.improvements
      << " improved (rel_tol " << report.config.rel_tol << ")\n";
}

}  // namespace obs
}  // namespace nwd
