#include "servebench/stats.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>

namespace servebench {

double NearestRank(const std::vector<double>& sorted, double q) {
  const size_t n = sorted.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return sorted[rank - 1];
}

size_t SamplesBeyond(size_t count, double q) {
  if (count == 0) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(count)));
  rank = std::clamp<size_t>(rank, 1, count);
  return count - rank;
}

SessionQuantile QuantileOverSessions(
    const std::vector<std::vector<double>>& sessions, double q) {
  SessionQuantile result;
  std::vector<double> pooled;
  bool each_supported = !sessions.empty();
  for (const std::vector<double>& samples : sessions) {
    result.count += samples.size();
    pooled.insert(pooled.end(), samples.begin(), samples.end());
    each_supported = each_supported && SamplesBeyond(samples.size(), q) >= 10;
  }
  if (pooled.empty()) return result;
  if (each_supported) {
    std::vector<double> per_session;
    for (std::vector<double> samples : sessions) {
      std::sort(samples.begin(), samples.end());
      per_session.push_back(NearestRank(samples, q));
    }
    result.value = Median(per_session);
    return result;
  }
  std::sort(pooled.begin(), pooled.end());
  result.value = NearestRank(pooled, q);
  result.pooled = true;
  return result;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = NearestRank(samples, 0.50);
  s.p90 = NearestRank(samples, 0.90);
  s.p99 = NearestRank(samples, 0.99);
  s.beyond_p90 = SamplesBeyond(s.count, 0.90);
  s.beyond_p99 = SamplesBeyond(s.count, 0.99);
  return s;
}

OpenLoopSchedule::OpenLoopSchedule(int64_t start_ns, double ops_per_second)
    : start_ns_(start_ns), ns_per_op_(1e9 / ops_per_second) {}

int64_t OpenLoopSchedule::DueNs(uint64_t op) const {
  return start_ns_ +
         static_cast<int64_t>(std::llround(ns_per_op_ * static_cast<double>(op)));
}

int64_t OpenLoopSchedule::RecordStart(uint64_t op, int64_t started_ns) {
  const int64_t late = std::max<int64_t>(0, started_ns - DueNs(op));
  max_late_ns_ = std::max(max_late_ns_, late);
  return late;
}

std::optional<uint64_t> ParseProcStatCpuTicks(std::string_view stat) {
  const size_t paren = stat.rfind(')');
  if (paren == std::string_view::npos) return std::nullopt;
  // After "pid (comm)" come state (field 3) ... utime (14), stime (15).
  std::string_view rest = stat.substr(paren + 1);
  uint64_t fields[15] = {};
  int field = 2;
  size_t i = 0;
  while (field < 15) {
    while (i < rest.size() && rest[i] == ' ') ++i;
    if (i >= rest.size()) return std::nullopt;
    size_t end = i;
    while (end < rest.size() && rest[end] != ' ') ++end;
    ++field;
    if (field >= 14) {
      const std::string token(rest.substr(i, end - i));
      char* parsed_end = nullptr;
      fields[field - 1] = std::strtoull(token.c_str(), &parsed_end, 10);
      if (token.empty() || *parsed_end != '\0') return std::nullopt;
    }
    i = end;
  }
  return fields[13] + fields[14];
}

std::optional<CpuTimes> ParseProcStatCpuLine(std::string_view proc_stat) {
  if (proc_stat.substr(0, 4) != "cpu ") return std::nullopt;
  const std::string line(proc_stat.substr(4, proc_stat.find('\n') - 4));
  // user nice system idle iowait irq softirq steal [guest guest_nice]
  CpuTimes times;
  const char* p = line.c_str();
  for (int field = 0; field < 8; ++field) {
    char* end = nullptr;
    const uint64_t value = std::strtoull(p, &end, 10);
    if (end == p) return std::nullopt;
    times.total += value;
    if (field == 7) times.steal = value;
    p = end;
  }
  return times;
}

std::optional<uint64_t> ParseVmHwmKb(std::string_view status) {
  constexpr std::string_view kKey = "VmHWM:";
  size_t pos = 0;
  while ((pos = status.find(kKey, pos)) != std::string_view::npos) {
    if (pos == 0 || status[pos - 1] == '\n') break;
    pos += kKey.size();
  }
  if (pos == std::string_view::npos) return std::nullopt;
  size_t i = pos + kKey.size();
  while (i < status.size() && (status[i] == ' ' || status[i] == '\t')) ++i;
  size_t end = i;
  while (end < status.size() && std::isdigit(static_cast<unsigned char>(status[end]))) {
    ++end;
  }
  if (end == i || status.substr(end, 3) != " kB") return std::nullopt;
  return std::strtoull(std::string(status.substr(i, end - i)).c_str(), nullptr,
                       10);
}

std::optional<uint64_t> ParseVarzCounter(std::string_view json,
                                         std::string_view name) {
  const size_t section = json.find("\"counters\"");
  if (section == std::string_view::npos) return std::nullopt;
  const size_t section_end = json.find('}', section);
  std::string key = "\"";
  key.append(name).append("\":");
  const size_t pos = json.find(key, section);
  if (pos == std::string_view::npos || pos > section_end) return std::nullopt;
  size_t i = pos + key.size();
  while (i < json.size() && json[i] == ' ') ++i;
  size_t end = i;
  while (end < json.size() && std::isdigit(static_cast<unsigned char>(json[end]))) {
    ++end;
  }
  if (end == i) return std::nullopt;
  return std::strtoull(std::string(json.substr(i, end - i)).c_str(), nullptr,
                       10);
}

namespace {

std::string FormatDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// Minimal JSON reader for the result line's fixed shape: objects,
/// strings without escapes, numbers and booleans.
class Reader {
 public:
  explicit Reader(std::string_view text) : text_(text) {}

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool String(std::string* out) {
    if (!Consume('"')) return false;
    const size_t end = text_.find('"', pos_);
    if (end == std::string_view::npos) return false;
    *out = std::string(text_.substr(pos_, end - pos_));
    if (out->find('\\') != std::string::npos) return false;
    pos_ = end + 1;
    return true;
  }
  bool Number(double* out) {
    SkipSpace();
    const std::string rest(text_.substr(pos_));
    char* end = nullptr;
    *out = std::strtod(rest.c_str(), &end);
    if (end == rest.c_str() || !std::isfinite(*out)) return false;
    pos_ += static_cast<size_t>(end - rest.c_str());
    return true;
  }
  bool Bool(bool* out) {
    SkipSpace();
    if (text_.substr(pos_, 4) == "true") {
      *out = true;
      pos_ += 4;
      return true;
    }
    if (text_.substr(pos_, 5) == "false") {
      *out = false;
      pos_ += 5;
      return true;
    }
    return false;
  }
  /// Parses `{ "key": <value>, ... }`, calling `value(key)` for each.
  template <typename F>
  bool Object(F&& value) {
    if (!Consume('{')) return false;
    if (Consume('}')) return true;
    do {
      std::string key;
      if (!String(&key) || !Consume(':') || !value(key)) return false;
    } while (Consume(','));
    return Consume('}');
  }
  bool AtEnd() {
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  std::string_view text_;
  size_t pos_ = 0;
};

bool WholeCount(double value, uint64_t* out) {
  if (value < 0 || value != std::floor(value) || value > 9.0e15) return false;
  *out = static_cast<uint64_t>(value);
  return true;
}

}  // namespace

std::string FormatResultLine(const RunResult& result) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + FormatDouble(metric.value) +
           ", \"unit\": \"" + metric.unit + "\"}";
  }
  out += "}}";
  return out;
}

bool ParseResultLine(std::string_view line, RunResult* result) {
  RunResult parsed;
  std::set<std::string> seen;
  Reader reader(line);
  const bool ok = reader.Object([&](const std::string& key) {
    if (!seen.insert(key).second) return false;
    double number = 0;
    if (key == "correct") return reader.Bool(&parsed.correct);
    if (key == "attempted") {
      return reader.Number(&number) && WholeCount(number, &parsed.attempted);
    }
    if (key == "failed") {
      return reader.Number(&number) && WholeCount(number, &parsed.failed);
    }
    if (key == "metrics") {
      return reader.Object([&](const std::string& name) {
        Metric metric;
        std::set<std::string> fields;
        const bool metric_ok = reader.Object([&](const std::string& field) {
          if (!fields.insert(field).second) return false;
          if (field == "value") return reader.Number(&metric.value);
          if (field == "unit") return reader.String(&metric.unit);
          return false;
        });
        return metric_ok && fields.size() == 2 &&
               parsed.metrics.emplace(name, metric).second;
      });
    }
    return false;
  });
  if (!ok || !reader.AtEnd() || seen.size() != 4 || parsed.attempted == 0 ||
      parsed.failed > parsed.attempted) {
    return false;
  }
  *result = std::move(parsed);
  return true;
}

}  // namespace servebench
