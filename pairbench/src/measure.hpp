// Measurement plumbing shared by the pairbench workloads: the benchmark
// clock and its own spans, sample statistics, process CPU and RSS
// probes, and the result printer.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace pairbench {

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Smoke-test sizes: every code path, a fraction of the work.
  bool tiny = false;
  // Traced runs write <trace_prefix>.engine.json (the engine tracer's
  // Chrome export) and <trace_prefix>.bench.json (the benchmark spans).
  std::string trace_prefix;
};

// Seconds since process start on std::chrono::steady_clock. The engine
// tracer is built on this clock, so engine spans and the benchmark's
// spans share one timeline.
double now_s();

// The benchmark's own spans around calls into the program (write_dataset,
// scheme construction, run, update, top_k, read_elements, ...). Inert
// when disabled. `op` ties a span to one measured operation; `traced`
// says whether the engine tracer was attached during it.
class BenchSpans {
 public:
  explicit BenchSpans(bool enabled) : enabled_(enabled) {}

  class Scope {
   public:
    Scope(BenchSpans* owner, const char* name, std::int64_t op, bool traced);
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

   private:
    BenchSpans* owner_;
    const char* name_;
    std::int64_t op_;
    bool traced_;
    double start_;
  };

  // op < 0 marks a span outside the measured operations (set-up, checks).
  Scope scope(const char* name, std::int64_t op = -1, bool traced = false) {
    return Scope(enabled_ ? this : nullptr, name, op, traced);
  }

  // Chrome trace_event "X" events on a lane of their own.
  void write_chrome(std::ostream& out) const;

 private:
  struct Event {
    const char* name;
    std::int64_t op;
    bool traced;
    double start;
    double end;
  };

  bool enabled_;
  std::vector<Event> events_;
};

// Tally of operations: a run, an update or a query; a wrong output is a
// failed operation.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

double median(std::vector<double> samples);
// Nearest-rank percentile, p in (0, 1].
double percentile(std::vector<double> samples, double p);

struct CpuTimes {
  double self_s = 0.0;      // this process, user + system
  double children_s = 0.0;  // reaped children (fork workers), user + system
  double total() const { return self_s + children_s; }
};
CpuTimes cpu_now();

// Peak resident set of this process over an interval, in MiB: VmHWM is
// reset through /proc/self/clear_refs when the interval starts and read
// when it ends, so work outside the interval (output checks) does not
// count.
class PeakRss {
 public:
  PeakRss();
  double mib() const;
};

// Largest resident set of any reaped child process, in MiB.
double children_peak_rss_mib();

// Metrics for the result line plus a human-readable report on stdout.
class Report {
 public:
  // A report line only: a timing with its sample count, or a figure the
  // result line does not carry.
  void line(const std::string& name, double value, const std::string& unit,
            const std::string& detail = {});
  // Median of `samples` as a result metric, with the sample count.
  void median_metric(const std::string& name, const std::vector<double>& samples,
                     const std::string& unit, double scale = 1.0);
  // Median and the `tail` percentile as report lines; the tail only
  // when at least ten samples lie beyond it.
  void latency_lines(const std::string& stem, const std::vector<double>& samples,
                     const std::string& unit, double scale, double tail);

  // The last line of stdout: one JSON object.
  void print_result(const Outcome& outcome) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

}  // namespace pairbench
