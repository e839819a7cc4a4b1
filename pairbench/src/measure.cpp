#include "measure.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string_view>

#include "common/check.hpp"

namespace pairbench {

namespace {

const auto kEpoch = std::chrono::steady_clock::now();

double seconds_of(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

// Every digit of a double, so repeated runs never read identical by
// rounding.
std::string exact(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

double read_vm_hwm_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6));
  }
  PAIRMR_CHECK(false, "VmHWM missing from /proc/self/status");
  return 0.0;
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kEpoch)
      .count();
}

BenchSpans::Scope::Scope(BenchSpans* owner, const char* name, std::int64_t op,
                         bool traced)
    : owner_(owner),
      name_(name),
      op_(op),
      traced_(traced),
      start_(owner != nullptr ? now_s() : 0.0) {}

BenchSpans::Scope::~Scope() {
  if (owner_ != nullptr) {
    owner_->events_.push_back({name_, op_, traced_, start_, now_s()});
  }
}

void BenchSpans::write_chrome(std::ostream& out) const {
  // Engine lanes use the job ordinal as pid; this lane sits far above it.
  constexpr const char* kPid = "1000000000";
  out << "[\n{\"name\":\"process_name\",\"cat\":\"pairbench\",\"ph\":\"M\","
         "\"pid\":"
      << kPid << ",\"tid\":0,\"args\":{\"name\":\"pairbench\"}}";
  for (const Event& e : events_) {
    out << ",\n{\"name\":" << json_string(e.name)
        << ",\"cat\":\"pairbench\",\"ph\":\"X\",\"ts\":" << exact(e.start * 1e6)
        << ",\"dur\":" << exact((e.end - e.start) * 1e6) << ",\"pid\":" << kPid
        << ",\"tid\":0,\"args\":{\"op\":" << e.op
        << ",\"traced\":" << (e.traced ? "true" : "false") << "}}";
  }
  out << "\n]\n";
}

double median(std::vector<double> samples) {
  PAIRMR_REQUIRE(!samples.empty(), "median of no samples");
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double percentile(std::vector<double> samples, double p) {
  PAIRMR_REQUIRE(!samples.empty(), "percentile of no samples");
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(samples.size())));
  return samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
}

CpuTimes cpu_now() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return {seconds_of(self.ru_utime) + seconds_of(self.ru_stime),
          seconds_of(children.ru_utime) + seconds_of(children.ru_stime)};
}

PeakRss::PeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  PAIRMR_CHECK(clear.good(), "cannot reset VmHWM via /proc/self/clear_refs");
}

double PeakRss::mib() const { return read_vm_hwm_kib() / 1024.0; }

double children_peak_rss_mib() {
  rusage children{};
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(children.ru_maxrss) / 1024.0;
}

void Report::line(const std::string& name, double value,
                  const std::string& unit, const std::string& detail) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "  %-42s %16.6g %-6s", name.c_str(), value,
                unit.c_str());
  std::cout << buf << detail << "\n";
}

void Report::median_metric(const std::string& name,
                           const std::vector<double>& samples,
                           const std::string& unit, double scale) {
  const double value = median(samples) * scale;
  PAIRMR_CHECK(std::isfinite(value), name + " is not a finite number");
  metrics_.push_back({name, value, unit});
  char detail[128];
  int used = std::snprintf(detail, sizeof(detail),
                           " median of n=%zu, quartiles %.4g..%.4g",
                           samples.size(), percentile(samples, 0.25) * scale,
                           percentile(samples, 0.75) * scale);
  // The highest whole percentile with at least ten samples beyond it.
  const double n = static_cast<double>(samples.size());
  const double tail = std::floor(100.0 * (1.0 - 10.0 / n)) / 100.0;
  if (tail > 0.5) {
    std::snprintf(detail + used, sizeof(detail) - static_cast<std::size_t>(used),
                  ", p%g %.4g", tail * 100.0, percentile(samples, tail) * scale);
  }
  line(name, value, unit, detail);
}

void Report::latency_lines(const std::string& stem,
                           const std::vector<double>& samples,
                           const std::string& unit, double scale,
                           double tail) {
  std::string n = " n=";
  n += std::to_string(samples.size());
  line(stem + "_p50_" + unit, median(samples) * scale, unit, n);
  char label[16];
  std::snprintf(label, sizeof(label), "_p%g_", tail * 100.0);
  const double beyond = static_cast<double>(samples.size()) * (1.0 - tail);
  if (beyond + 1e-9 >= 10.0) {
    line(stem + label + unit, percentile(samples, tail) * scale, unit, n);
  } else {
    std::cout << "  " << stem << label << unit
              << ": fewer than 10 samples beyond it," << n << "\n";
  }
}

void Report::print_result(const Outcome& outcome) const {
  std::string out = "{\"correct\": ";
  out += outcome.failed == 0 ? "true" : "false";
  out += ", \"attempted\": ";
  out += std::to_string(outcome.attempted);
  out += ", \"failed\": ";
  out += std::to_string(outcome.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics_) {
    if (!first) out += ", ";
    first = false;
    out += json_string(m.name);
    out += ": {\"value\": ";
    out += exact(m.value);
    out += ", \"unit\": ";
    out += json_string(m.unit);
    out += "}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

}  // namespace pairbench
