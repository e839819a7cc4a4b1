// Batch workloads: one two-job DesignScheme all-pairs run per operation.
//
//   batch-compute    gene-network MI over 1000 expression profiles,
//                    in-process — the kernel dominates;
//   batch-shipping   121 blobs of 64 KiB on the fork backend with the shm
//                    plane and a kernel that reads 8 bytes per payload —
//                    replication and shipping dominate;
//   batch-outofcore  the blob shape at v=183 in-process under a 1 MiB
//                    per-task memory budget — the only workload that
//                    spills.
#include <malloc.h>

#include <cstring>
#include <memory>

#include "common/check.hpp"
#include "common/serde.hpp"
#include "mr/trace.hpp"
#include "pairwise/dataset.hpp"
#include "pairwise/design_scheme.hpp"
#include "pairwise/runner.hpp"
#include "workloads.hpp"
#include "workloads/generators.hpp"
#include "workloads/kernels.hpp"

namespace pairbench {

using namespace pairmr;

namespace {

struct BatchShape {
  std::uint64_t v = 0;
  bool profiles = false;           // expression profiles + MI, else blobs
  std::uint32_t samples = 0;       // profiles only
  std::uint64_t element_bytes = 0;  // blobs only
  mr::BackendKind backend = mr::BackendKind::kInProcess;
  mr::ShufflePlane plane = mr::ShufflePlane::kSocket;
  std::uint64_t budget_bytes = 0;
};

BatchShape shape_of(const Config& config) {
  const bool tiny = config.tiny;
  BatchShape s;
  if (config.workload == "batch-compute") {
    s.v = tiny ? 57 : 1000;
    s.profiles = true;
    s.samples = tiny ? 64 : 256;
  } else if (config.workload == "batch-shipping") {
    s.v = tiny ? 31 : 121;
    s.element_bytes = tiny ? 4096 : 65536;
    s.backend = mr::BackendKind::kFork;
    s.plane = mr::ShufflePlane::kShm;
  } else {
    PAIRMR_REQUIRE(config.workload == "batch-outofcore",
                   "unknown batch workload " + config.workload);
    s.v = tiny ? 31 : 183;
    s.element_bytes = tiny ? 4096 : 65536;
    s.budget_bytes = tiny ? 16384 : 1 << 20;
  }
  return s;
}

// Reads one 8-byte word of each payload, so the blob workloads price
// replication and shipping rather than arithmetic. XOR keeps it symmetric
// bit for bit.
std::string word_xor(const Element& a, const Element& b) {
  PAIRMR_CHECK(a.payload.size() >= 8 && b.payload.size() >= 8,
               "blob payloads are at least one word");
  std::uint64_t x = 0;
  std::uint64_t y = 0;
  std::memcpy(&x, a.payload.data(), 8);
  std::memcpy(&y, b.payload.data(), 8);
  x ^= y;
  return std::string(reinterpret_cast<const char*>(&x), 8);
}

PairwiseJob make_job(const BatchShape& s) {
  PairwiseJob job;
  if (s.profiles) {
    job.compute = workloads::mutual_information_kernel(8);
    job.prepared = workloads::mutual_information_prepared(8);
    job.keep = workloads::keep_above(0.25);
  } else {
    job.compute = word_xor;
  }
  return job;
}

struct BatchSetup {
  std::unique_ptr<mr::Cluster> cluster;
  std::vector<std::string> payloads;
  std::vector<std::string> inputs;
  std::shared_ptr<const DesignScheme> scheme;
};

BatchSetup set_up(const BatchShape& s, std::uint64_t seed, BenchSpans& spans) {
  const auto span = spans.scope("setup");
  BatchSetup out;
  out.cluster = std::make_unique<mr::Cluster>(cluster_config());
  if (s.profiles) {
    out.payloads = workloads::vector_payloads(
        workloads::expression_profiles(s.v, s.samples, 8, seed));
  } else {
    out.payloads = workloads::blob_payloads(s.v, s.element_bytes, seed);
  }
  {
    const auto w = spans.scope("write_dataset");
    out.inputs = write_dataset(*out.cluster, "/input", out.payloads);
  }
  {
    const auto sc = spans.scope("scheme");
    out.scheme = std::make_shared<DesignScheme>(s.v);
  }
  return out;
}

// pairwise.pipeline and mr.group probes over the largest working set and
// the first map task's output.
void probe_layers(const BatchSetup& setup, const PairwiseJob& job,
                  LayerSamples& layers) {
  const DesignScheme& scheme = *setup.scheme;
  volatile std::uint64_t sink = 0;
  const double build_s = median_call_seconds(
      [&] { sink = sink + DesignScheme(scheme.num_elements()).num_tasks(); },
      3, 0.2);
  layers.add("pairwise.scheme.build_ms", build_s * 1e3);

  std::vector<ElementId> largest;
  for (TaskId t = 0; t < scheme.num_tasks(); ++t) {
    std::vector<ElementId> ws = scheme.working_set(t);
    if (ws.size() > largest.size()) largest = std::move(ws);
  }
  std::vector<Element> elems;
  for (const ElementId id : largest) {
    elems.push_back({id, setup.payloads[id], {}});
  }
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t lo = 0; lo < elems.size(); ++lo) {
    for (std::size_t hi = lo + 1; hi < elems.size(); ++hi) {
      pairs.emplace_back(lo, hi);
    }
  }
  const Rate eval = evaluator_rate(job, elems, pairs);
  layers.add("pairwise.pipeline.pairs_per_s", eval.per_second);
  layers.add("pairwise.pipeline.evaluations",
             static_cast<double>(eval.count));

  std::vector<Element> first_split;
  for (const mr::Record& rec :
       setup.cluster->dfs().open(setup.inputs.front())->records) {
    const ElementId id = decode_u64_key(rec.key);
    first_split.push_back({id, setup.payloads[id], {}});
  }
  layers.add("mr.group.records_per_s",
             group_rate(map_output_records(scheme, first_split)).per_second);
}

}  // namespace

Outcome run_batch(const Config& config, Report& report) {
  const BatchShape shape = shape_of(config);
  const PairwiseJob job = make_job(shape);
  BenchSpans spans(config.trace);

  // Set-up: cluster, inputs, write_dataset, scheme. The first one is
  // measured; a throwaway one after every operation spreads the set-up
  // samples over the whole run, like the operation samples.
  std::vector<double> setup_s;
  const auto timed_set_up = [&] {
    const double t0 = now_s();
    BatchSetup out = set_up(shape, config.seed, spans);
    setup_s.push_back(now_s() - t0);
    return out;
  };
  const BatchSetup setup = timed_set_up();
  mr::Cluster& cluster = *setup.cluster;

  const std::vector<Element> expected = [&] {
    const auto span = spans.scope("reference");
    return reference_all_pairs(setup.payloads, job);
  }();
  const std::uint64_t pairs = shape.v * (shape.v - 1) / 2;

  RunSpec spec;
  spec.input_paths = setup.inputs;
  spec.mode = RunMode::kTwoJob;
  spec.scheme = setup.scheme;
  spec.job = job;
  spec.options.backend = shape.backend;
  spec.options.shuffle_plane = shape.plane;
  spec.options.memory_budget = {.bytes = shape.budget_bytes, .merge_fan_in = 16};

  mr::Tracer tracer(now_s);
  PairwiseRunner runner(cluster);
  Outcome outcome;
  LayerSamples layers;
  std::vector<double> untraced_s, traced_s, cpu_s, network_b, intermediate_b,
      peak_mib;

  const double window = now_s();
  for (std::uint64_t op = 0;
       now_s() - window < config.seconds || op < (config.trace ? 2u : 1u);
       ++op) {
    const bool traced = config.trace && op % 2 == 0;
    spec.options.work_dir = "/run-";
    spec.options.work_dir += std::to_string(op);
    cluster.set_tracer(traced ? &tracer : nullptr);
    if (shape.backend == mr::BackendKind::kFork) {
      // Workers inherit the coordinator's resident pages when they fork:
      // hand the benchmark's freed memory (checks, throwaway set-ups,
      // earlier outputs) back first, so fork cost and worker RSS do not
      // depend on how many runs came before.
      malloc_trim(0);
    }
    const std::uint64_t net0 = cluster.network().remote_bytes();
    const CpuTimes cpu0 = cpu_now();
    const PeakRss peak;
    const double t0 = now_s();
    RunReport run;
    {
      const auto span = spans.scope("run", static_cast<std::int64_t>(op), traced);
      run = runner.run(spec);
    }
    const double seconds = now_s() - t0;
    const double peak_rss = peak.mib();
    const CpuTimes cpu1 = cpu_now();
    cluster.set_tracer(nullptr);

    const double net = static_cast<double>(cluster.network().remote_bytes() - net0);
    (traced ? traced_s : untraced_s).push_back(seconds);
    if (!traced) {
      cpu_s.push_back(cpu1.total() - cpu0.total());
      network_b.push_back(net);
      intermediate_b.push_back(static_cast<double>(run.intermediate_bytes));
      peak_mib.push_back(peak_rss);
    } else {
      add_report_layers(layers, run, seconds, cpu0, cpu1);
    }

    bool ok = run.evaluations == pairs;
    {
      const auto span = spans.scope("read_elements", static_cast<std::int64_t>(op));
      ok = ok && read_elements(cluster, run.output_dir) == expected;
    }
    outcome.record(ok);
    cluster.dfs().remove_prefix(spec.options.work_dir);
    timed_set_up();
  }

  if (!config.trace) {
    report.median_metric("setup_s", setup_s, "s");
    report.median_metric("makespan_s", untraced_s, "s");
    report.median_metric("network_bytes", network_b, "B");
    report.median_metric("intermediate_bytes", intermediate_b, "B");
    report.median_metric("peak_rss_mib", peak_mib, "MiB");
    report.median_metric("cpu_s", cpu_s, "s");
    if (shape.backend == mr::BackendKind::kFork) {
      report.line("worker_peak_rss_mib", children_peak_rss_mib(), "MiB");
    }
    return outcome;
  }

  probe_layers(setup, job, layers);
  for (const char* idle :
       {"pairwise.session.delta_job_s", "pairwise.session.merge_job_s",
        "pairwise.session.update_driver_s", "pairwise.session.state_bytes",
        "pairwise.session.cache_hit_ratio",
        "pairwise.session.invalidated_per_update",
        "pairwise.session.query_hit_us", "pairwise.session.query_miss_us"}) {
    layers.add(idle, 0.0);
  }
  layers.add("trace.overhead_ratio", median(traced_s) / median(untraced_s) - 1.0);
  layers.emit(report);
  write_trace_files(config, tracer, spans);
  return outcome;
}

}  // namespace pairbench
