// The pairbench workloads and the probes they share.
//
// Every workload runs on 4 simulated nodes with at most 4 worker threads
// and pins backend, shuffle plane and memory budget explicitly. A run
// sets up several times (set-up time is a metric of its own), then
// repeats the workload's operation for the configured seconds, checking
// every output against a direct nested-loop reference outside the timed
// calls. A traced run interleaves traced and untraced operations, so the
// tracing overhead is measured on interleaved samples.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "measure.hpp"
#include "mr/cluster.hpp"
#include "mr/types.hpp"
#include "pairwise/element.hpp"
#include "pairwise/pipeline.hpp"
#include "pairwise/runner.hpp"
#include "pairwise/scheme.hpp"

namespace pairbench {

Outcome run_batch(const Config& config, Report& report);
Outcome run_serve(const Config& config, Report& report);

inline constexpr std::uint32_t kNodes = 4;

// 4 nodes; worker threads capped at min(4, nproc).
pairmr::mr::ClusterConfig cluster_config();

// Every result the job keeps over all pairs of `payloads`, by a direct
// nested loop of the job's ComputeFn (no scheme, engine or prepared
// kernel), oriented as the pipeline orients pairs: comp(lower id, higher
// id). Element i carries payload i and its results sorted by partner id,
// the layout of an aggregated pipeline output.
std::vector<pairmr::Element> reference_all_pairs(
    const std::vector<std::string>& payloads, const pairmr::PairwiseJob& job);

// Median seconds of `fn` over at least `min_reps` calls and `min_seconds`.
template <class Fn>
double median_call_seconds(Fn&& fn, int min_reps, double min_seconds) {
  std::vector<double> reps;
  const double start = now_s();
  while (static_cast<int>(reps.size()) < min_reps ||
         now_s() - start < min_seconds) {
    const double t0 = now_s();
    fn();
    reps.push_back(now_s() - t0);
  }
  return median(reps);
}

struct Rate {
  double per_second = 0.0;
  std::uint64_t count = 0;  // evaluations or records per pass
};

// pairwise.pipeline: a PairEvaluator over `pairs` (slot indices into
// `elems`), in the bench_hotpath idiom.
Rate evaluator_rate(const pairmr::PairwiseJob& job,
                    const std::vector<pairmr::Element>& elems,
                    const std::vector<std::pair<std::size_t, std::size_t>>& pairs);

// mr.group: group_by_key over `records` (copied per pass, untimed).
Rate group_rate(const std::vector<pairmr::mr::Record>& records);

// Job 1 map output of the given elements under `scheme`: one record per
// (working set, element) keyed by the big-endian task id.
std::vector<pairmr::mr::Record> map_output_records(
    const pairmr::DistributionScheme& scheme,
    const std::vector<pairmr::Element>& elems);

// Per-layer figures, one sample per traced operation; the result line
// carries each figure's median. The names are the ones the benchmark
// computes itself; run.py adds the span-derived ones from the trace file.
class LayerSamples {
 public:
  void add(const std::string& name, double value) {
    samples_[name].push_back(value);
  }
  // Emits every layer metric; each must have at least one sample.
  void emit(Report& report) const;

 private:
  std::map<std::string, std::vector<double>> samples_;
};

// The scheme, runner, spill and fork figures of one traced run or update,
// from its RunReport and the process CPU times around the call.
void add_report_layers(LayerSamples& layers, const pairmr::RunReport& run,
                       double seconds, const CpuTimes& before,
                       const CpuTimes& after);

// Writes the engine tracer's Chrome export and the benchmark spans next
// to each other; run.py merges them into one trace file.
void write_trace_files(const Config& config, const pairmr::mr::Tracer& tracer,
                       const BenchSpans& spans);

}  // namespace pairbench
