#include <algorithm>
#include <fstream>
#include <thread>

#include "common/check.hpp"
#include "common/serde.hpp"
#include "mr/counters.hpp"
#include "mr/group.hpp"
#include "mr/trace.hpp"
#include "workloads.hpp"

namespace pairbench {

using namespace pairmr;

namespace {

// Per-layer metrics the benchmark computes itself, in result-line order.
struct LayerMetric {
  const char* name;
  const char* unit;
};

constexpr LayerMetric kLayerMetrics[] = {
    {"pairwise.scheme.build_ms", "ms"},
    {"pairwise.scheme.replication", "ratio"},
    {"pairwise.scheme.max_working_set_bytes", "B"},
    {"pairwise.pipeline.pairs_per_s", "1/s"},
    {"pairwise.pipeline.evaluations", "count"},
    {"pairwise.runner.job1_s", "s"},
    {"pairwise.runner.job2_s", "s"},
    {"pairwise.runner.driver_s", "s"},
    {"pairwise.runner.job1_output_bytes", "B"},
    {"pairwise.runner.job2_remote_bytes", "B"},
    {"mr.group.records_per_s", "1/s"},
    {"mr.spill.bytes", "B"},
    {"mr.spill.runs", "count"},
    {"mr.spill.merge_passes", "count"},
    {"mr.backend.fork.workers_forked", "count"},
    {"mr.backend.fork.workers_reused", "count"},
    {"mr.backend.fork.worker_cpu_s", "s"},
    {"mr.backend.fork.coordinator_cpu_s", "s"},
    {"mr.backend.fork.shm_bytes", "B"},
    {"pairwise.session.delta_job_s", "s"},
    {"pairwise.session.merge_job_s", "s"},
    {"pairwise.session.update_driver_s", "s"},
    {"pairwise.session.state_bytes", "B"},
    {"pairwise.session.cache_hit_ratio", "ratio"},
    {"pairwise.session.invalidated_per_update", "count"},
    {"pairwise.session.query_hit_us", "us"},
    {"pairwise.session.query_miss_us", "us"},
    {"trace.overhead_ratio", "ratio"},
};

constexpr double kProbeSeconds = 0.2;

}  // namespace

mr::ClusterConfig cluster_config() {
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  return {.num_nodes = kNodes, .worker_threads = std::min(4u, cores)};
}

std::vector<Element> reference_all_pairs(
    const std::vector<std::string>& payloads, const PairwiseJob& job) {
  const std::size_t v = payloads.size();
  std::vector<Element> elems(v);
  for (std::size_t i = 0; i < v; ++i) {
    elems[i].id = i;
    elems[i].payload = payloads[i];
  }
  struct Kept {
    std::size_t lo, hi;
    std::string result;
  };
  const unsigned threads = cluster_config().worker_threads;
  std::vector<std::vector<Kept>> kept(threads);
  {
    std::vector<std::jthread> workers;
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        for (std::size_t lo = t; lo < v; lo += threads) {
          for (std::size_t hi = lo + 1; hi < v; ++hi) {
            std::string r = job.compute(elems[lo], elems[hi]);
            if (!job.keep || job.keep(elems[lo], elems[hi], r)) {
              kept[t].push_back({lo, hi, std::move(r)});
            }
          }
        }
      });
    }
  }
  for (auto& list : kept) {
    for (Kept& k : list) {
      elems[k.lo].results.push_back({k.hi, k.result});
      elems[k.hi].results.push_back({k.lo, std::move(k.result)});
    }
  }
  for (Element& e : elems) {
    std::sort(e.results.begin(), e.results.end(),
              [](const ResultEntry& a, const ResultEntry& b) {
                return a.other < b.other;
              });
  }
  return elems;
}

Rate evaluator_rate(
    const PairwiseJob& job, const std::vector<Element>& elems,
    const std::vector<std::pair<std::size_t, std::size_t>>& pairs) {
  std::vector<std::vector<ResultEntry>> acc(elems.size());
  std::uint64_t evaluations = 0;
  const double seconds = median_call_seconds(
      [&] {
        for (auto& a : acc) a.clear();
        PairEvaluator evaluator(job, elems);
        for (const auto& [lo, hi] : pairs) {
          evaluator.evaluate(lo, hi, acc[lo], acc[hi]);
        }
        evaluations = evaluator.evaluations();
      },
      3, kProbeSeconds);
  PAIRMR_CHECK(evaluations == pairs.size(),
               "evaluator probe evaluated a different pair count");
  return {static_cast<double>(evaluations) / seconds, evaluations};
}

Rate group_rate(const std::vector<mr::Record>& records) {
  std::vector<double> reps;
  std::uint64_t grouped = 0;
  const double start = now_s();
  while (reps.size() < 3 || now_s() - start < kProbeSeconds) {
    std::vector<mr::Record> copy = records;
    grouped = 0;
    const double t0 = now_s();
    mr::group_by_key(copy, [&](const mr::Bytes&,
                               const std::vector<mr::Bytes>& values) {
      grouped += values.size();
    });
    reps.push_back(now_s() - t0);
  }
  PAIRMR_CHECK(grouped == records.size(), "group_by_key lost records");
  return {static_cast<double>(grouped) / median(reps), grouped};
}

std::vector<mr::Record> map_output_records(const DistributionScheme& scheme,
                                           const std::vector<Element>& elems) {
  std::vector<mr::Record> records;
  for (const Element& e : elems) {
    const std::string value = encode_element(e);
    for (const TaskId task : scheme.subsets_of(e.id)) {
      records.push_back({encode_u64_key(task), value});
    }
  }
  return records;
}

void add_report_layers(LayerSamples& layers, const RunReport& run,
                       double seconds, const CpuTimes& before,
                       const CpuTimes& after) {
  const mr::JobResult& job1 = run.compute_jobs.front();
  const mr::JobResult& job2 = run.merge_jobs.front();
  const auto add = [&](const char* name, std::uint64_t value) {
    layers.add(name, static_cast<double>(value));
  };
  layers.add("pairwise.scheme.replication", run.replication_factor);
  add("pairwise.scheme.max_working_set_bytes", run.max_working_set_bytes);
  layers.add("pairwise.runner.job1_s", job1.elapsed_seconds);
  layers.add("pairwise.runner.job2_s", job2.elapsed_seconds);
  layers.add("pairwise.runner.driver_s",
             seconds - job1.elapsed_seconds - job2.elapsed_seconds);
  add("pairwise.runner.job1_output_bytes",
      job1.counter(mr::counter::kReduceOutputBytes));
  add("pairwise.runner.job2_remote_bytes",
      job2.counter(mr::counter::kShuffleBytesRemote));
  add("mr.spill.bytes", run.spill_bytes);
  add("mr.spill.runs", run.spill_runs);
  add("mr.spill.merge_passes", run.merge_passes);
  add("mr.backend.fork.workers_forked", run.workers_forked);
  add("mr.backend.fork.workers_reused", run.workers_reused);
  layers.add("mr.backend.fork.worker_cpu_s", after.children_s - before.children_s);
  layers.add("mr.backend.fork.coordinator_cpu_s", after.self_s - before.self_s);
  add("mr.backend.fork.shm_bytes", run.counter(mr::counter::kShuffleShmBytes));
}

void LayerSamples::emit(Report& report) const {
  for (const LayerMetric& m : kLayerMetrics) {
    const auto it = samples_.find(m.name);
    PAIRMR_CHECK(it != samples_.end() && !it->second.empty(),
                 std::string("no samples for layer metric ") + m.name);
    report.median_metric(m.name, it->second, m.unit);
  }
  PAIRMR_CHECK(samples_.size() == std::size(kLayerMetrics),
               "a layer sample has no metric entry");
}

void write_trace_files(const Config& config, const mr::Tracer& tracer,
                       const BenchSpans& spans) {
  std::ofstream engine(config.trace_prefix + ".engine.json");
  tracer.write_chrome_trace(engine);
  std::ofstream bench(config.trace_prefix + ".bench.json");
  spans.write_chrome(bench);
  PAIRMR_CHECK(engine.good() && bench.good(), "cannot write the trace files");
}

}  // namespace pairbench
