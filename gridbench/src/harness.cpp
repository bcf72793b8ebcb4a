#include "harness.h"

#include <sched.h>
#include <sys/resource.h>
#include <sys/utsname.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <numeric>
#include <sstream>
#include <thread>

namespace gridbench {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

namespace {

double timeval_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

rusage self_usage() {
  rusage ru{};
  (void)::getrusage(RUSAGE_SELF, &ru);
  return ru;
}

/// First line of `path` starting with `prefix`, or "".
std::string line_with_prefix(const char* path, const std::string& prefix) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) return line;
  }
  return {};
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out.push_back(c);
    }
  }
  return out;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

CpuTimes process_cpu() {
  const rusage ru = self_usage();
  return CpuTimes{timeval_s(ru.ru_utime), timeval_s(ru.ru_stime)};
}

double peak_rss_mib() {
  // VmHWM, not ru_maxrss: Linux carries ru_maxrss across exec, so a
  // process started from a large parent would report the parent's peak.
  std::istringstream fields(line_with_prefix("/proc/self/status", "VmHWM:"));
  std::string label;
  double kib = 0.0;
  fields >> label >> kib;
  return kib / 1024.0;
}

Noise noise_now() {
  Noise n;
  // "cpu  user nice system idle iowait irq softirq steal ..."
  std::istringstream fields(line_with_prefix("/proc/stat", "cpu "));
  std::string label;
  std::uint64_t v[8] = {};
  fields >> label;
  for (auto& x : v) fields >> x;
  n.steal_ticks = v[7];
  const rusage ru = self_usage();
  n.voluntary_csw = static_cast<std::uint64_t>(ru.ru_nvcsw);
  n.involuntary_csw = static_cast<std::uint64_t>(ru.ru_nivcsw);
  return n;
}

Noise noise_delta(const Noise& before, const Noise& after) {
  return Noise{after.steal_ticks - before.steal_ticks,
               after.voluntary_csw - before.voluntary_csw,
               after.involuntary_csw - before.involuntary_csw};
}

std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string host_identity(const std::string& source_rev) {
  std::string cpu = line_with_prefix("/proc/cpuinfo", "model name");
  if (const auto colon = cpu.find(':'); colon != std::string::npos) {
    cpu = cpu.substr(colon + 1);
    cpu.erase(0, cpu.find_first_not_of(' '));
  }
  if (cpu.empty()) cpu = "unknown";
  utsname uts{};
  const std::string kernel = ::uname(&uts) == 0 ? uts.release : "unknown";
  std::ostringstream out;
  out << "rev=" << source_rev << " cpu=\"" << cpu << "\" nproc="
      << usable_cpus() << " kernel=" << kernel << " compiler=\""
      << GRIDBENCH_COMPILER << "\" build=" << GRIDBENCH_BUILD_TYPE;
  return out.str();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

Tail tail_of(const std::vector<double>& values) {
  static constexpr double kLadder[] = {99.9, 99.0, 95.0, 90.0};
  Tail t;
  t.samples = values.size();
  for (const double p : kLadder) {
    const auto beyond = static_cast<std::size_t>(
        std::floor(static_cast<double>(values.size()) * (100.0 - p) / 100.0));
    if (beyond >= 10) {
      t.percentile = p;
      t.beyond = beyond;
      t.value = quantile(values, p / 100.0);
      return t;
    }
  }
  return t;
}

std::int64_t SpanLog::open(std::string name) {
  if (!enabled_) return -1;
  Span span;
  span.name = std::move(name);
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - origin_)
                      .count();
  span.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(std::move(span));
  const auto index = static_cast<std::int64_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void SpanLog::close(std::int64_t index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::vector<std::string> SpanLog::summary() const {
  // Children close before their parent and never overlap each other, so
  // the covered part of a parent is the plain sum of its children.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  struct Row {
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double dur = static_cast<double>(spans_[i].end_ns -
                                           spans_[i].start_ns);
    Row& r = rows[spans_[i].name];
    ++r.count;
    r.total_ms += dur * 1e-6;
    r.self_ms += (dur - static_cast<double>(child_ns[i])) * 1e-6;
  }
  std::vector<std::string> lines;
  for (const auto& [name, r] : rows) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "span %-28s count=%-7llu total_ms=%.3f self_ms=%.3f",
                  name.c_str(), static_cast<unsigned long long>(r.count),
                  r.total_ms, r.self_ms);
    lines.emplace_back(buf);
  }
  return lines;
}

void SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << json_escape(s.name) << "\",\"start_ns\":"
        << s.start_ns << ",\"end_ns\":" << s.end_ns << ",\"parent\":"
        << s.parent << "}\n";
  }
}

std::string Result::to_json() const {
  std::ostringstream out;
  bool ok = correct;
  for (const Metric& m : metrics) ok = ok && std::isfinite(m.value);
  out << "{\"correct\": " << (ok ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out << (i == 0 ? "" : ", ") << "\"" << json_escape(m.name)
        << "\": {\"value\": "
        << number(std::isfinite(m.value) ? m.value : 0.0)
        << ", \"unit\": \"" << json_escape(m.unit) << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace gridbench
