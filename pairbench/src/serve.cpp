// serve-churn: a PairwiseSession used as many small jobs.
//
// One caller runs a closed loop: update() with 10 new token documents,
// then top_k(id, 10) calls on ids drawn with a Zipf popularity skew.
// Each update runs a delta job plus a merge job that re-reads the whole
// state, so update latency grows with the state. To keep the latency
// distribution the same whatever the run length, the loop runs in
// epochs: each epoch sets up a fresh session over the same 1000 base
// documents (one set-up sample) and replays the same 50 updates and the
// same queries, then compares the session state with a from-scratch
// batch run over the union.
#include <algorithm>
#include <cmath>
#include <memory>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "mr/trace.hpp"
#include "pairwise/dataset.hpp"
#include "pairwise/delta_scheme.hpp"
#include "pairwise/runner.hpp"
#include "pairwise/session.hpp"
#include "workloads.hpp"
#include "workloads/generators.hpp"
#include "workloads/kernels.hpp"

namespace pairbench {

using namespace pairmr;

namespace {

struct ServeShape {
  std::uint64_t base_v;
  std::uint64_t k;        // documents per update
  std::uint64_t updates;  // per epoch
  std::uint64_t queries;  // top_k calls after each update
  std::uint32_t vocabulary;
  std::uint32_t draws;
  std::size_t top;
  double zipf;  // query popularity exponent
};

ServeShape shape_of(const Config& config) {
  if (config.tiny) return {60, 3, 10, 5, 200, 12, 10, 1.6};
  return {1000, 10, 50, 20, 2000, 40, 10, 1.6};
}

PairwiseJob make_job() {
  PairwiseJob job;
  job.compute = workloads::jaccard_kernel();
  job.prepared = workloads::jaccard_prepared();
  job.keep = workloads::keep_above(0.1);
  return job;
}

SessionOptions session_options() {
  SessionOptions options;
  options.batch_scheme = SchemeKind::kBlock;
  options.plane = PlaneConstruction::kTheorem2Prime;
  options.run.backend = mr::BackendKind::kInProcess;
  options.run.shuffle_plane = mr::ShufflePlane::kSocket;
  options.run.memory_budget = {.bytes = 0, .merge_fan_in = 16};
  options.score = workloads::decode_result;
  return options;
}

// Ids by Zipf popularity over a seeded permutation of every id an epoch
// reaches; draws above the current union are redrawn.
class PopularIds {
 public:
  PopularIds(std::uint64_t n, double exponent, std::uint64_t seed)
      : by_rank_(n), cdf_(n) {
    Rng rng(seed);
    for (std::uint64_t i = 0; i < n; ++i) by_rank_[i] = i;
    for (std::uint64_t i = n; i > 1; --i) {
      std::swap(by_rank_[i - 1], by_rank_[rng.next_below(i)]);
    }
    double total = 0.0;
    for (std::uint64_t r = 0; r < n; ++r) {
      total += std::pow(static_cast<double>(r + 1), -exponent);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  ElementId draw(Rng& rng, std::uint64_t below) const {
    for (;;) {
      const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), rng.next_double());
      const ElementId id =
          by_rank_[std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1)];
      if (id < below) return id;
    }
  }

 private:
  std::vector<ElementId> by_rank_;
  std::vector<double> cdf_;
};

// The k best partners of `ref` among ids below `union_v`, ranked as
// top_k documents it: score descending, then partner id.
std::vector<ResultEntry> expected_top(const Element& ref, std::uint64_t union_v,
                                      std::size_t k) {
  std::vector<ResultEntry> out;
  for (const ResultEntry& r : ref.results) {
    if (r.other < union_v) out.push_back(r);
  }
  std::sort(out.begin(), out.end(), [](const ResultEntry& a, const ResultEntry& b) {
    const double sa = workloads::decode_result(a.result);
    const double sb = workloads::decode_result(b.result);
    if (sa != sb) return sa > sb;
    return a.other < b.other;
  });
  if (out.size() > k) out.resize(k);
  return out;
}

using Snapshot = std::vector<std::pair<std::string, std::vector<mr::Record>>>;

Snapshot snapshot(const mr::Cluster& cluster, const std::string& dir) {
  Snapshot out;
  for (const std::string& path : cluster.dfs().list(dir + "/")) {
    out.emplace_back(path.substr(dir.size()), cluster.dfs().open(path)->records);
  }
  return out;
}

// The session state must be byte-identical to a from-scratch batch run
// over the union with the session's own scheme construction.
bool state_matches_batch(const mr::Cluster& live, const PairwiseSession& session,
                         const std::vector<std::string>& union_payloads,
                         const PairwiseJob& job, BenchSpans& spans) {
  const auto span = spans.scope("state_check");
  mr::Cluster fresh(cluster_config());
  RunSpec spec;
  {
    const auto w = spans.scope("write_dataset");
    spec.input_paths = write_dataset(fresh, "/batch-input", union_payloads);
  }
  {
    const auto sc = spans.scope("scheme");
    spec.scheme = PairwiseSession::batch_scheme(
        SchemeKind::kBlock, union_payloads.size(), kNodes, 0,
        PlaneConstruction::kTheorem2Prime);
  }
  spec.job = job;
  spec.options.work_dir = "/batch";
  spec.options.backend = mr::BackendKind::kInProcess;
  spec.options.shuffle_plane = mr::ShufflePlane::kSocket;
  RunReport batch;
  {
    const auto r = spans.scope("run");
    batch = PairwiseRunner(fresh).run(spec);
  }
  return snapshot(live, session.state_dir()) == snapshot(fresh, batch.output_dir);
}

struct Epoch {
  std::unique_ptr<mr::Cluster> cluster;
  std::unique_ptr<PairwiseSession> session;
  std::vector<std::string> payloads;  // base, then every update's delta
};

Epoch set_up(const ServeShape& s, const PairwiseJob& job, std::uint64_t seed,
             BenchSpans& spans) {
  const auto span = spans.scope("setup");
  Epoch e;
  e.cluster = std::make_unique<mr::Cluster>(cluster_config());
  e.payloads = workloads::document_payloads(workloads::token_documents(
      s.base_v + s.updates * s.k, s.vocabulary, s.draws, seed));
  e.session = std::make_unique<PairwiseSession>(*e.cluster, job, session_options());
  const auto submit = spans.scope("submit");
  e.session->submit({e.payloads.begin(), e.payloads.begin() + s.base_v});
  return e;
}

void probe_layers(const ServeShape& s, const std::vector<std::string>& payloads,
                  const PairwiseJob& job, LayerSamples& layers) {
  const std::uint64_t grid = std::min<std::uint64_t>(kNodes, s.base_v);
  volatile std::uint64_t sink = 0;
  const double build_s = median_call_seconds(
      [&] { sink = sink + DeltaScheme(s.base_v, s.k, grid, 1).num_tasks(); }, 3,
      0.2);
  layers.add("pairwise.scheme.build_ms", build_s * 1e3);

  // The first update's pairs: base_v x k cross pairs plus C(k, 2).
  std::vector<Element> elems;
  for (ElementId id = 0; id < s.base_v + s.k; ++id) {
    elems.push_back({id, payloads[id], {}});
  }
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t lo = 0; lo < elems.size(); ++lo) {
    for (std::size_t hi = std::max<std::size_t>(lo + 1, s.base_v);
         hi < elems.size(); ++hi) {
      pairs.emplace_back(lo, hi);
    }
  }
  const Rate eval = evaluator_rate(job, elems, pairs);
  layers.add("pairwise.pipeline.pairs_per_s", eval.per_second);
  layers.add("pairwise.pipeline.evaluations", static_cast<double>(eval.count));

  const DeltaScheme delta(s.base_v, s.k, grid, 1);
  layers.add("mr.group.records_per_s",
             group_rate(map_output_records(delta, elems)).per_second);
}

}  // namespace

Outcome run_serve(const Config& config, Report& report) {
  const ServeShape shape = shape_of(config);
  const PairwiseJob job = make_job();
  BenchSpans spans(config.trace);
  mr::Tracer tracer(now_s);
  Outcome outcome;
  LayerSamples layers;

  std::vector<std::string> all_payloads;
  std::vector<Element> expected;
  std::vector<double> setup_s, untraced_s, traced_s, cpu_s, network_b,
      intermediate_b, peak_mib, query_us, hit_us, miss_us;
  std::uint64_t hits = 0, misses = 0, invalidated = 0, updates = 0;
  const PopularIds popular(shape.base_v + shape.updates * shape.k, shape.zipf,
                           config.seed ^ 0x9e3779b97f4a7c15ull);

  const double window = now_s();
  for (std::uint64_t epoch = 0;
       now_s() - window < config.seconds || epoch < 3; ++epoch) {
    const double t_setup = now_s();
    Epoch e = set_up(shape, job, config.seed, spans);
    setup_s.push_back(now_s() - t_setup);
    mr::Cluster& cluster = *e.cluster;
    PairwiseSession& session = *e.session;
    if (epoch == 0) {
      // Every epoch replays the same documents and queries, so the
      // reference is built once.
      all_payloads = e.payloads;
      const auto span = spans.scope("reference");
      expected = reference_all_pairs(all_payloads, job);
    }
    PAIRMR_CHECK(e.payloads == all_payloads, "epochs replay the same documents");

    Rng query_rng(config.seed * 0x2545f4914f6cdd1dull + 1);
    std::vector<bool> update_ok;
    const PeakRss peak;
    for (std::uint64_t u = 0; u < shape.updates; ++u) {
      const std::uint64_t base = session.num_elements();
      const auto first = all_payloads.begin() + static_cast<std::ptrdiff_t>(base);
      const std::vector<std::string> delta(first, first + static_cast<std::ptrdiff_t>(shape.k));
      // One update in ten is traced: the delta job maps every input file
      // of the union, so a traced update records hundreds of spans. The
      // traced ones sit mid-decade so they see the same states on average
      // as the untraced ones.
      const bool traced = config.trace && u % 10 == 4;
      const SessionCacheStats before = session.cache_stats();
      cluster.set_tracer(traced ? &tracer : nullptr);
      const std::uint64_t net0 = cluster.network().remote_bytes();
      const CpuTimes cpu0 = cpu_now();
      const double t0 = now_s();
      RunReport up;
      {
        const auto span = spans.scope("update", static_cast<std::int64_t>(updates), traced);
        up = session.update(delta);
      }
      const double seconds = now_s() - t0;
      const CpuTimes cpu1 = cpu_now();
      cluster.set_tracer(nullptr);
      ++updates;
      invalidated += session.cache_stats().invalidated - before.invalidated;

      (traced ? traced_s : untraced_s).push_back(seconds);
      if (!traced) {
        cpu_s.push_back(cpu1.total() - cpu0.total());
        network_b.push_back(static_cast<double>(cluster.network().remote_bytes() - net0));
        intermediate_b.push_back(static_cast<double>(up.intermediate_bytes));
      } else {
        const double job1 = up.compute_jobs.front().elapsed_seconds;
        const double job2 = up.merge_jobs.front().elapsed_seconds;
        std::uint64_t state_bytes = 0;
        for (const std::string& path : session.state_paths()) {
          state_bytes += cluster.dfs().open(path)->bytes;
        }
        add_report_layers(layers, up, seconds, cpu0, cpu1);
        layers.add("pairwise.session.delta_job_s", job1);
        layers.add("pairwise.session.merge_job_s", job2);
        layers.add("pairwise.session.update_driver_s", seconds - job1 - job2);
        layers.add("pairwise.session.state_bytes", static_cast<double>(state_bytes));
      }
      const std::uint64_t delta_pairs = base * shape.k + shape.k * (shape.k - 1) / 2;
      update_ok.push_back(up.evaluations == delta_pairs &&
                          up.pairs_delta == delta_pairs &&
                          up.pairs_reused == base * (base - 1) / 2 &&
                          session.num_elements() == base + shape.k);

      const std::uint64_t union_v = session.num_elements();
      for (std::uint64_t q = 0; q < shape.queries; ++q) {
        const ElementId id = popular.draw(query_rng, union_v);
        const std::uint64_t hits0 = session.cache_stats().hits;
        const double q0 = now_s();
        std::vector<ResultEntry> answer;
        {
          const BenchSpans::Scope span(traced ? &spans : nullptr, "top_k", -1, false);
          answer = session.top_k(id, shape.top);
        }
        const double us = (now_s() - q0) * 1e6;
        const bool hit = session.cache_stats().hits > hits0;
        query_us.push_back(us);
        (hit ? hit_us : miss_us).push_back(us);
        ++(hit ? hits : misses);
        outcome.record(answer == expected_top(expected[id], union_v, shape.top));
      }
    }
    peak_mib.push_back(peak.mib());

    const bool state_ok = state_matches_batch(
        cluster, session,
        {all_payloads.begin(), all_payloads.begin() +
                                   static_cast<std::ptrdiff_t>(session.num_elements())},
        job, spans);
    update_ok.back() = update_ok.back() && state_ok;
    for (const bool ok : update_ok) outcome.record(ok);
  }

  if (!config.trace) {
    report.median_metric("setup_s", setup_s, "s");
    report.median_metric("makespan_s", untraced_s, "s");
    report.median_metric("network_bytes", network_b, "B");
    report.median_metric("intermediate_bytes", intermediate_b, "B");
    report.median_metric("peak_rss_mib", peak_mib, "MiB");
    report.median_metric("cpu_s", cpu_s, "s");
    report.latency_lines("update", untraced_s, "ms", 1e3, 0.9);
    report.latency_lines("query", query_us, "us", 1.0, 0.99);
    report.line("cache_hit_ratio",
                static_cast<double>(hits) / static_cast<double>(hits + misses),
                "ratio");
    return outcome;
  }

  probe_layers(shape, all_payloads, job, layers);
  layers.add("pairwise.session.cache_hit_ratio",
             static_cast<double>(hits) / static_cast<double>(hits + misses));
  layers.add("pairwise.session.invalidated_per_update",
             static_cast<double>(invalidated) / static_cast<double>(updates));
  layers.add("pairwise.session.query_hit_us", hit_us.empty() ? 0.0 : median(hit_us));
  layers.add("pairwise.session.query_miss_us", miss_us.empty() ? 0.0 : median(miss_us));
  layers.add("trace.overhead_ratio", median(traced_s) / median(untraced_s) - 1.0);
  layers.emit(report);
  write_trace_files(config, tracer, spans);
  return outcome;
}

}  // namespace pairbench
