#include "telemetry/bench_report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/file_io.h"
#include "telemetry/telemetry.h"

namespace hdov::telemetry {

TimingStats TimingStats::From(std::vector<double> samples) {
  TimingStats stats;
  if (samples.empty()) {
    return stats;
  }
  std::sort(samples.begin(), samples.end());
  stats.count = samples.size();
  stats.min = samples.front();
  double sum = 0.0;
  for (double s : samples) {
    sum += s;
  }
  stats.mean = sum / static_cast<double>(samples.size());
  if (samples.size() < 2) {
    // One repeat: every order statistic IS the sample; the interpolation
    // below would degenerate (pos = 0 for all q) but make that explicit
    // rather than incidental.
    stats.median = samples.front();
    stats.p95 = samples.front();
    return stats;
  }
  const auto percentile = [&samples](double q) {
    const double pos = q * static_cast<double>(samples.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, samples.size() - 1);
    const double fraction = pos - static_cast<double>(lo);
    return samples[lo] + fraction * (samples[hi] - samples[lo]);
  };
  stats.median = percentile(0.5);
  stats.p95 = percentile(0.95);
  return stats;
}

ReportSeries* BenchReport::AddSeries(const std::string& name,
                                     std::vector<SeriesColumn> columns) {
  for (const auto& s : series_) {
    if (s->name == name) {
      return s.get();
    }
  }
  series_.push_back(std::make_unique<ReportSeries>(
      ReportSeries{name, std::move(columns), {}}));
  return series_.back().get();
}

void BenchReport::RecordTiming(const std::string& name, double ms) {
  for (Timing& t : timings_) {
    if (t.name == name) {
      t.samples.push_back(ms);
      return;
    }
  }
  timings_.push_back(Timing{name, {ms}});
}

void BenchReport::CaptureFrom(const Telemetry& t) {
  metrics_ = t.metrics().Snapshot();
  frame_totals_.clear();
  for (const FrameRecord& f : t.frames()) {
    FrameTotals* totals = nullptr;
    for (FrameTotals& existing : frame_totals_) {
      if (existing.system == f.system && existing.kind == f.kind) {
        totals = &existing;
        break;
      }
    }
    if (totals == nullptr) {
      frame_totals_.push_back(FrameTotals{});
      totals = &frame_totals_.back();
      totals->system = f.system;
      totals->kind = f.kind;
    }
    ++totals->frames;
    totals->frame_time_ms += f.frame_time_ms;
    totals->query_time_ms += f.query_time_ms;
    totals->io_pages += f.io_pages;
    totals->light_io_pages += f.light_io_pages;
    totals->index_bytes_read += f.index_bytes_read;
    totals->store_bytes_read += f.store_bytes_read;
    totals->model_bytes_read += f.model_bytes_read;
    totals->nodes_visited += f.nodes_visited;
    totals->vpages_fetched += f.vpages_fetched;
    totals->hidden_pruned += f.hidden_pruned;
    totals->internal_terminations += f.internal_terminations;
    totals->rendered_triangles += f.rendered_triangles;
    totals->models_fetched += f.models_fetched;
  }
}

std::string BenchReport::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("version").Number(uint64_t{1});
  w.Key("binary").String(binary_);
  w.Key("title").String(title_);
  w.Key("scale").String(scale_);
  w.Key("environment").BeginObject();
  w.Key("git_revision").String(env_.git_revision);
  w.Key("cpu_count").Number(static_cast<uint64_t>(env_.cpu_count));
  w.Key("threads").Number(static_cast<uint64_t>(env_.threads));
  w.EndObject();

  w.Key("series").BeginArray();
  for (const auto& series_ptr : series_) {
    const ReportSeries& s = *series_ptr;
    w.BeginObject();
    w.Key("name").String(s.name);
    w.Key("columns").BeginArray();
    for (const SeriesColumn& c : s.columns) {
      w.BeginObject();
      w.Key("name").String(c.name);
      w.Key("wall").Bool(c.wall);
      w.EndObject();
    }
    w.EndArray();
    w.Key("rows").BeginArray();
    for (const SeriesRow& row : s.rows) {
      w.BeginObject();
      w.Key("label").String(row.label);
      w.Key("values").BeginArray();
      for (double v : row.values) {
        w.Number(v);
      }
      w.EndArray();
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();

  w.Key("timings").BeginArray();
  for (const Timing& t : timings_) {
    const TimingStats stats = TimingStats::From(t.samples);
    w.BeginObject();
    w.Key("name").String(t.name);
    w.Key("count").Number(static_cast<uint64_t>(stats.count));
    w.Key("min_ms").Number(stats.min);
    w.Key("mean_ms").Number(stats.mean);
    w.Key("median_ms").Number(stats.median);
    w.Key("p95_ms").Number(stats.p95);
    w.EndObject();
  }
  w.EndArray();

  w.Key("metrics").Raw(metrics_.ToJson());

  w.Key("frame_totals").BeginArray();
  for (const FrameTotals& t : frame_totals_) {
    w.BeginObject();
    w.Key("system").String(t.system);
    w.Key("kind").String(t.kind);
    w.Key("frames").Number(t.frames);
    w.Key("frame_time_ms").Number(t.frame_time_ms);
    w.Key("query_time_ms").Number(t.query_time_ms);
    w.Key("io_pages").Number(t.io_pages);
    w.Key("light_io_pages").Number(t.light_io_pages);
    w.Key("index_bytes_read").Number(t.index_bytes_read);
    w.Key("store_bytes_read").Number(t.store_bytes_read);
    w.Key("model_bytes_read").Number(t.model_bytes_read);
    w.Key("nodes_visited").Number(t.nodes_visited);
    w.Key("vpages_fetched").Number(t.vpages_fetched);
    w.Key("hidden_pruned").Number(t.hidden_pruned);
    w.Key("internal_terminations").Number(t.internal_terminations);
    w.Key("rendered_triangles").Number(t.rendered_triangles);
    w.Key("models_fetched").Number(t.models_fetched);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.TakeString();
}

Status BenchReport::WriteFile(const std::string& path) const {
  return WriteStringToFile(path, ToJson() + '\n');
}

// ---------------------------------------------------------------------
// CompareReports.

namespace {

using Severity = CompareFinding::Severity;

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

const std::string* FindString(const JsonValue& doc, std::string_view key) {
  const JsonValue* v = doc.Find(key);
  return v != nullptr && v->is_string() ? &v->string : nullptr;
}

// Exact structural equality: numbers bit-compare after the shared %.12g
// round-trip, strings/bools literal, arrays elementwise.
bool ExactlyEqual(const JsonValue& a, const JsonValue& b) {
  if (a.type != b.type) {
    return false;
  }
  switch (a.type) {
    case JsonValue::Type::kNull:
      return true;
    case JsonValue::Type::kBool:
      return a.boolean == b.boolean;
    case JsonValue::Type::kNumber:
      return a.number == b.number;
    case JsonValue::Type::kString:
      return a.string == b.string;
    case JsonValue::Type::kArray:
      if (a.items.size() != b.items.size()) {
        return false;
      }
      for (size_t i = 0; i < a.items.size(); ++i) {
        if (!ExactlyEqual(a.items[i], b.items[i])) {
          return false;
        }
      }
      return true;
    case JsonValue::Type::kObject:
      if (a.members.size() != b.members.size()) {
        return false;
      }
      for (size_t i = 0; i < a.members.size(); ++i) {
        if (a.members[i].first != b.members[i].first ||
            !ExactlyEqual(a.members[i].second, b.members[i].second)) {
          return false;
        }
      }
      return true;
  }
  return false;
}

std::string DescribeValue(const JsonValue& v) {
  switch (v.type) {
    case JsonValue::Type::kNumber:
      return Num(v.number);
    case JsonValue::Type::kString:
      return v.string;
    default:
      return "<structure>";
  }
}

class Comparator {
 public:
  Comparator(const JsonValue& old_doc, const JsonValue& new_doc,
             const CompareOptions& options)
      : old_(old_doc), new_(new_doc), options_(options) {}

  CompareResult Run() {
    if (!CheckIdentity()) {
      return std::move(result_);
    }
    CompareEnvironment();
    CompareMetrics();
    CompareFrameTotals();
    CompareSeries();
    CompareTimings();
    return std::move(result_);
  }

 private:
  bool Skipped(const std::string& name) const {
    for (const std::string& s : options_.skip_substrings) {
      if (name.find(s) != std::string::npos) {
        return true;
      }
    }
    return false;
  }

  // Wall-clock check: regressions beyond tolerance fail, improvements
  // beyond tolerance are surfaced as info, tiny absolute values ignored.
  void CheckWall(const std::string& where, const std::string& what,
                 double old_value, double new_value) {
    if (options_.ignore_wall) {
      return;
    }
    ++result_.values_compared;
    if (new_value > old_value * (1.0 + options_.wall_tolerance) &&
        new_value - old_value > options_.wall_floor_ms) {
      result_.Add(Severity::kFail, where,
                  what + ": wall-clock regression " + Num(old_value) +
                      " -> " + Num(new_value) + " ms (tolerance " +
                      Num(options_.wall_tolerance * 100.0) + "%)");
    } else if (old_value > new_value * (1.0 + options_.wall_tolerance) &&
               old_value - new_value > options_.wall_floor_ms) {
      result_.Add(Severity::kInfo, where,
                  what + ": wall-clock improved " + Num(old_value) + " -> " +
                      Num(new_value) + " ms");
    }
  }

  void CheckExact(const std::string& where, const std::string& what,
                  const JsonValue& old_value, const JsonValue& new_value) {
    ++result_.values_compared;
    if (!ExactlyEqual(old_value, new_value)) {
      result_.Add(Severity::kFail, where,
                  what + ": " + DescribeValue(old_value) + " -> " +
                      DescribeValue(new_value));
    }
  }

  bool CheckIdentity() {
    const std::string* old_binary = FindString(old_, "binary");
    const std::string* new_binary = FindString(new_, "binary");
    if (old_binary == nullptr || new_binary == nullptr) {
      result_.Add(Severity::kFail, "document",
                  "not a bench report (missing \"binary\")");
      return false;
    }
    if (*old_binary != *new_binary) {
      result_.Add(Severity::kFail, "document",
                  "different benches: " + *old_binary + " vs " + *new_binary);
      return false;
    }
    const std::string* old_scale = FindString(old_, "scale");
    const std::string* new_scale = FindString(new_, "scale");
    if (old_scale == nullptr || new_scale == nullptr ||
        *old_scale != *new_scale) {
      result_.Add(Severity::kFail, "document",
                  "scale mismatch: " +
                      (old_scale != nullptr ? *old_scale : "<none>") +
                      " vs " + (new_scale != nullptr ? *new_scale : "<none>"));
      return false;
    }
    return true;
  }

  void CompareEnvironment() {
    const JsonValue* old_env = old_.Find("environment");
    const JsonValue* new_env = new_.Find("environment");
    if (old_env == nullptr || new_env == nullptr ||
        !old_env->is_object() || !new_env->is_object()) {
      return;
    }
    for (const auto& [key, old_value] : old_env->members) {
      const JsonValue* new_value = new_env->Find(key);
      if (new_value == nullptr || !ExactlyEqual(old_value, *new_value)) {
        result_.Add(Severity::kInfo, "environment",
                    key + ": " + DescribeValue(old_value) + " -> " +
                        (new_value != nullptr ? DescribeValue(*new_value)
                                              : "<absent>"));
      }
    }
  }

  // Metric samples ({name, kind, value | histogram payload}) matched by
  // name; every non-name member must match exactly.
  void CompareMetrics() {
    const JsonValue* old_metrics = old_.Find("metrics");
    const JsonValue* new_metrics = new_.Find("metrics");
    if (old_metrics == nullptr || new_metrics == nullptr ||
        !old_metrics->is_array() || !new_metrics->is_array()) {
      return;
    }
    for (const JsonValue& old_m : old_metrics->items) {
      const std::string* name = FindString(old_m, "name");
      if (name == nullptr || Skipped(*name)) {
        continue;
      }
      const JsonValue* new_m = nullptr;
      for (const JsonValue& candidate : new_metrics->items) {
        const std::string* candidate_name = FindString(candidate, "name");
        if (candidate_name != nullptr && *candidate_name == *name) {
          new_m = &candidate;
          break;
        }
      }
      if (new_m == nullptr) {
        result_.Add(Severity::kFail, "metrics",
                    *name + ": present in baseline, missing in new run");
        continue;
      }
      // Metrics whose name carries the ".wall." marker hold wall-clock
      // values (e.g. the server's queue/service latency gauges): numeric
      // members get the tolerance check, everything else stays exact.
      const bool is_wall = name->find(".wall.") != std::string::npos;
      for (const auto& [key, old_value] : old_m.members) {
        if (key == "name") {
          continue;
        }
        const JsonValue* new_value = new_m->Find(key);
        if (new_value == nullptr) {
          result_.Add(Severity::kFail, "metrics",
                      *name + "." + key + ": field missing in new run");
          continue;
        }
        if (is_wall && old_value.is_number() && new_value->is_number()) {
          CheckWall("metrics", *name + "." + key, old_value.number,
                    new_value->number);
        } else {
          CheckExact("metrics", *name + "." + key, old_value, *new_value);
        }
      }
    }
    for (const JsonValue& new_m : new_metrics->items) {
      const std::string* name = FindString(new_m, "name");
      if (name == nullptr || Skipped(*name)) {
        continue;
      }
      bool in_old = false;
      for (const JsonValue& candidate : old_metrics->items) {
        const std::string* candidate_name = FindString(candidate, "name");
        if (candidate_name != nullptr && *candidate_name == *name) {
          in_old = true;
          break;
        }
      }
      if (!in_old) {
        result_.Add(Severity::kWarn, "metrics",
                    *name + ": new metric, absent from baseline");
      }
    }
  }

  void CompareFrameTotals() {
    const JsonValue* old_totals = old_.Find("frame_totals");
    const JsonValue* new_totals = new_.Find("frame_totals");
    if (old_totals == nullptr || new_totals == nullptr ||
        !old_totals->is_array() || !new_totals->is_array()) {
      return;
    }
    const auto key_of = [](const JsonValue& t) {
      const std::string* system = FindString(t, "system");
      const std::string* kind = FindString(t, "kind");
      return (system != nullptr ? *system : "?") + "/" +
             (kind != nullptr ? *kind : "?");
    };
    for (const JsonValue& old_t : old_totals->items) {
      const std::string key = key_of(old_t);
      const JsonValue* new_t = nullptr;
      for (const JsonValue& candidate : new_totals->items) {
        if (key_of(candidate) == key) {
          new_t = &candidate;
          break;
        }
      }
      if (new_t == nullptr) {
        result_.Add(Severity::kFail, "frame_totals",
                    key + ": present in baseline, missing in new run");
        continue;
      }
      for (const auto& [field, old_value] : old_t.members) {
        if (field == "system" || field == "kind") {
          continue;
        }
        const JsonValue* new_value = new_t->Find(field);
        if (new_value == nullptr) {
          result_.Add(Severity::kFail, "frame_totals",
                      key + "." + field + ": field missing in new run");
          continue;
        }
        CheckExact("frame_totals", key + "." + field, old_value, *new_value);
      }
    }
    if (new_totals->items.size() > old_totals->items.size()) {
      result_.Add(Severity::kWarn, "frame_totals",
                  "new run emits frame records for more systems than the"
                  " baseline");
    }
  }

  void CompareSeries() {
    const JsonValue* old_series = old_.Find("series");
    const JsonValue* new_series = new_.Find("series");
    if (old_series == nullptr || new_series == nullptr ||
        !old_series->is_array() || !new_series->is_array()) {
      return;
    }
    for (const JsonValue& old_s : old_series->items) {
      const std::string* name = FindString(old_s, "name");
      if (name == nullptr) {
        continue;
      }
      const JsonValue* new_s = nullptr;
      for (const JsonValue& candidate : new_series->items) {
        const std::string* candidate_name = FindString(candidate, "name");
        if (candidate_name != nullptr && *candidate_name == *name) {
          new_s = &candidate;
          break;
        }
      }
      if (new_s == nullptr) {
        result_.Add(Severity::kFail, *name, "series missing in new run");
        continue;
      }
      CompareOneSeries(*name, old_s, *new_s);
    }
    for (const JsonValue& new_s : new_series->items) {
      const std::string* name = FindString(new_s, "name");
      if (name != nullptr && old_series->items.end() ==
          std::find_if(old_series->items.begin(), old_series->items.end(),
                       [&](const JsonValue& s) {
                         const std::string* n = FindString(s, "name");
                         return n != nullptr && *n == *name;
                       })) {
        result_.Add(Severity::kWarn, *name,
                    "new series, absent from baseline");
      }
    }
  }

  void CompareOneSeries(const std::string& name, const JsonValue& old_s,
                        const JsonValue& new_s) {
    const JsonValue* old_columns = old_s.Find("columns");
    const JsonValue* new_columns = new_s.Find("columns");
    if (old_columns == nullptr || new_columns == nullptr ||
        !ExactlyEqual(*old_columns, *new_columns)) {
      result_.Add(Severity::kFail, name,
                  "column layout changed; cannot compare rows");
      return;
    }
    const JsonValue* old_rows = old_s.Find("rows");
    const JsonValue* new_rows = new_s.Find("rows");
    if (old_rows == nullptr || new_rows == nullptr ||
        !old_rows->is_array() || !new_rows->is_array()) {
      return;
    }
    if (old_rows->items.size() != new_rows->items.size()) {
      result_.Add(Severity::kFail, name,
                  "row count changed: " +
                      std::to_string(old_rows->items.size()) + " -> " +
                      std::to_string(new_rows->items.size()));
      return;
    }
    for (size_t r = 0; r < old_rows->items.size(); ++r) {
      const JsonValue& old_row = old_rows->items[r];
      const JsonValue& new_row = new_rows->items[r];
      const std::string* old_label = FindString(old_row, "label");
      const std::string* new_label = FindString(new_row, "label");
      const std::string label =
          old_label != nullptr ? *old_label : "row " + std::to_string(r);
      if (old_label == nullptr || new_label == nullptr ||
          *old_label != *new_label) {
        result_.Add(Severity::kFail, name,
                    "row " + std::to_string(r) + " label changed");
        continue;
      }
      const JsonValue* old_values = old_row.Find("values");
      const JsonValue* new_values = new_row.Find("values");
      if (old_values == nullptr || new_values == nullptr ||
          old_values->items.size() != new_values->items.size() ||
          old_values->items.size() != old_columns->items.size()) {
        result_.Add(Severity::kFail, name,
                    "row " + label + ": value count mismatch");
        continue;
      }
      for (size_t c = 0; c < old_values->items.size(); ++c) {
        const JsonValue& column = old_columns->items[c];
        const std::string* column_name = FindString(column, "name");
        const JsonValue* wall = column.Find("wall");
        const std::string what =
            label + "." +
            (column_name != nullptr ? *column_name : std::to_string(c));
        if (wall != nullptr && wall->boolean) {
          CheckWall(name, what, old_values->items[c].number,
                    new_values->items[c].number);
        } else {
          CheckExact(name, what, old_values->items[c], new_values->items[c]);
        }
      }
    }
  }

  void CompareTimings() {
    const JsonValue* old_timings = old_.Find("timings");
    const JsonValue* new_timings = new_.Find("timings");
    if (old_timings == nullptr || new_timings == nullptr ||
        !old_timings->is_array() || !new_timings->is_array()) {
      return;
    }
    for (const JsonValue& old_t : old_timings->items) {
      const std::string* name = FindString(old_t, "name");
      if (name == nullptr) {
        continue;
      }
      const JsonValue* new_t = nullptr;
      for (const JsonValue& candidate : new_timings->items) {
        const std::string* candidate_name = FindString(candidate, "name");
        if (candidate_name != nullptr && *candidate_name == *name) {
          new_t = &candidate;
          break;
        }
      }
      if (new_t == nullptr) {
        result_.Add(Severity::kWarn, "timings",
                    *name + ": missing in new run");
        continue;
      }
      const JsonValue* old_median = old_t.Find("median_ms");
      const JsonValue* new_median = new_t->Find("median_ms");
      if (old_median != nullptr && new_median != nullptr) {
        CheckWall("timings", *name + ".median_ms", old_median->number,
                  new_median->number);
      }
      const JsonValue* old_p95 = old_t.Find("p95_ms");
      const JsonValue* new_p95 = new_t->Find("p95_ms");
      if (old_p95 != nullptr && new_p95 != nullptr) {
        CheckWall("timings", *name + ".p95_ms", old_p95->number,
                  new_p95->number);
      }
    }
  }

  const JsonValue& old_;
  const JsonValue& new_;
  const CompareOptions& options_;
  CompareResult result_;
};

}  // namespace

bool CompareResult::HasFailure() const {
  for (const CompareFinding& f : findings) {
    if (f.severity == Severity::kFail) {
      return true;
    }
  }
  return false;
}

void CompareResult::Add(CompareFinding::Severity severity, std::string where,
                        std::string message) {
  findings.push_back(
      CompareFinding{severity, std::move(where), std::move(message)});
}

CompareResult CompareReports(const JsonValue& old_report,
                             const JsonValue& new_report,
                             const CompareOptions& options) {
  return Comparator(old_report, new_report, options).Run();
}

}  // namespace hdov::telemetry
