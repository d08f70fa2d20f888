// Certified-CEC benchmark harness: runs one workload through the public
// API for a fixed time, gates every job on its known answer, and prints the
// metrics as one JSON object on the last line of standard output.
//
//   certbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--mislabel 1]
//
// --trace 0 prints the end-to-end metrics, measured without spans.
// --trace 1 prints the per-layer metrics: it alternates untraced passes
// with traced ones, in which the benchmark itself calls the stages of
// cec::checkMiter under spans (perfbench/pipeline.h), and it checks that
// both reproduce the same deterministic counters. --mislabel 1 declares one
// inequivalent mutant equivalent, so the correctness gate must fail; the
// self-test in run.py relies on it.
//
// Workloads (why each was chosen is recorded in BENCHMARK.json):
//   suite_certify  closed loop, one client, the 10 suite miters other than
//                  mul6/mul7, full trust chain (audit, sweep, CPF, disk).
//   hard_mul       closed loop, mul6 through the cube engine at nproc
//                  threads, full trust chain.
//   serve_stream   open loop: a seeded Poisson stream of small, medium and
//                  mutant miters into serve::BatchService with its shipped
//                  defaults (lemma cache on, nproc workers), audit and a
//                  per-job CPF path.
//   verify_certs   closed loop re-verification of the certificates written
//                  in set-up (suite miters plus mul6) through both consumer
//                  paths: read + in-memory check, and the streaming check.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <span>
#include <string_view>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "bench/workloads.h"
#include "perfbench/pipeline.h"
#include "src/base/rng.h"
#include "src/cec/certify.h"
#include "src/cec/miter.h"
#include "src/gen/arith.h"
#include "src/proof/checker.h"
#include "src/proofio/reader.h"
#include "src/serve/service.h"

namespace certbench {
namespace {

namespace cec = cp::cec;
namespace serve = cp::serve;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Worker threads of every parallel layer: one per hardware thread, at
/// most four, so the figures stay comparable across machines of that size.
std::uint32_t benchThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::uint32_t>(hw == 0 ? 1 : hw, 1, 4);
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, printed by every --trace 0 run. failed_share is not
/// among them: it is 0 on a correct run, so it travels as the result line's
/// attempted/failed counts and in the info line instead.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"certify_s.p50", "s"},
    {"certify_s.p90", "s"},
    {"jobs_per_s", "1/s"},
    {"latency_s.p50", "s"},
    {"latency_s.p90", "s"},
    {"stream_verify_mb_per_s", "MB/s"},
    {"mem_verify_mb_per_s", "MB/s"},
    {"proof_bytes", "bytes"},
    {"peak_rss_mb", "MB"},
};

/// Per-layer metrics, printed by every --trace 1 run. Times and counters
/// are means per job over the traced passes; a layer a workload bypasses,
/// or whose time no public field exposes there, reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"cnf.audit_s", "s"},
    {"cec.axiom_validator_s", "s"},
    {"cec.engine_s", "s"},
    {"cec.sat_calls", "count"},
    {"cec.conflicts", "count"},
    {"cec.propagations", "count"},
    {"cec.sat_merges", "count"},
    {"cec.sat_merge_ratio", "ratio"},
    {"cec.structural_merges", "count"},
    {"cec.counterexamples", "count"},
    {"cec.skipped_candidates", "count"},
    {"cec.proof_structural_steps", "count"},
    {"cube.cubes", "count"},
    {"cube.refuted", "count"},
    {"cube.pruned_ratio", "ratio"},
    {"cube.probe_conflicts", "count"},
    {"cube.scaling_1_to_n", "ratio"},
    {"proof.trim_s", "s"},
    {"proof.raw_resolutions", "count"},
    {"proof.trimmed_resolutions", "count"},
    {"proof.trim_keep_ratio", "ratio"},
    {"proof.check_s", "s"},
    {"proofio.finish_s", "s"},
    {"proofio.bytes", "bytes"},
    {"proofio.stream_check_s", "s"},
    {"proofio.live_clauses_peak", "count"},
    {"proofio.read_s", "s"},
    {"cec.lemma_cache.hits", "count"},
    {"cec.lemma_cache.misses", "count"},
    {"cec.lemma_cache.hit_ratio", "ratio"},
    {"cec.lemma_cache.spliced", "count"},
    {"serve.queued_s.p50", "s"},
    {"serve.queued_s.p99", "s"},
    {"serve.run_s.p50", "s"},
    {"serve.run_s.p99", "s"},
    {"serve.worker_busy_share", "ratio"},
    {"serve.submit_blocked_s", "s"},
    {"serve.gen_lag_s.max", "s"},
    {"trace.unaccounted_s", "s"},
    {"trace.overhead_share", "ratio"},
};

/// Everything one run measured and checked.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// False when the traced pipeline, a thread count or a repeated pass
  /// produced different deterministic counters.
  bool consistent = true;
  std::map<std::string, double> values;
  std::map<std::string, double> info;  ///< sample counts and shares
  std::vector<std::string> problems;

  void gate(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      problems.push_back("wrong result: " + what);
    }
  }
  void expectSame(double a, double b, const std::string& what) {
    if (a != b) {
      consistent = false;
      problems.push_back("counter mismatch: " + what + " (" +
                         std::to_string(a) + " vs " + std::to_string(b) + ")");
    }
  }
};

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return ratio(sum, static_cast<double>(v.size()));
}

/// Linear-interpolation quantile (q in [0, 1]); 0 for no samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// Samples strictly above the q-quantile: the support of a percentile.
double beyond(const std::vector<double>& v, double q) {
  const double cut = quantile(v, q);
  return static_cast<double>(
      std::count_if(v.begin(), v.end(), [&](double x) { return x > cut; }));
}

/// Upper percentile that one stall cannot set: the samples are cut into up
/// to 5 consecutive windows that each keep at least 10 samples beyond the
/// percentile, and the median of the windows' percentiles is returned.
double upperQuantile(const std::vector<double>& samples, double q) {
  const std::size_t windows = std::clamp<std::size_t>(
      static_cast<std::size_t>(double(samples.size()) * (1 - q) / 10), 1, 5);
  std::vector<double> perWindow;
  for (std::size_t w = 0; w < windows; ++w) {
    perWindow.push_back(quantile(
        {samples.begin() + w * samples.size() / windows,
         samples.begin() + (w + 1) * samples.size() / windows},
        q));
  }
  return quantile(perWindow, 0.5);
}

/// Records the p50 and p90 of `samples` under `name`, with the sample
/// count and the number of samples beyond the p90. The p90, not the p99, is
/// the tail the benchmark bounds: on a shared 4-vCPU machine a job stream's
/// p99 moved by 40-70% between identical runs.
void putPercentiles(Outcome& out, const std::string& name,
                    const std::vector<double>& samples) {
  out.values[name + ".p50"] = quantile(samples, 0.5);
  out.values[name + ".p90"] = upperQuantile(samples, 0.9);
  out.info[name + ".samples"] = static_cast<double>(samples.size());
  out.info[name + ".beyond_p90"] = beyond(samples, 0.9);
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Set-up repetitions; see timedSetup().
constexpr int kSetupReps = 5;

/// Runs `build` at least `reps` times and for at least 0.25 s, and returns
/// the median wall time; the last run's products are the ones the workload
/// uses. The time floor gives millisecond set-ups enough repetitions for a
/// steady median.
double timedSetup(int reps, const std::function<void()>& build) {
  std::vector<double> times;
  const auto t0 = Clock::now();
  while (static_cast<int>(times.size()) < reps || since(t0) < 0.25) {
    const auto start = Clock::now();
    build();
    times.push_back(since(start));
  }
  return quantile(times, 0.5);
}

template <typename T>
void shuffle(std::vector<T>& v, cp::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(i)]);
  }
}

std::vector<std::size_t> iota(std::size_t n) {
  std::vector<std::size_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = i;
  return v;
}

/// What one closed-loop job verified: CPF bytes and the seconds its
/// streaming and in-memory checks took.
struct JobCost {
  double bytes = 0, streamSeconds = 0, memSeconds = 0;
};

/// Closed loop with one client: whole passes over jobs 0..n-1, each pass in
/// a fresh seeded order, until `seconds` have passed. Records certify_s and
/// latency_s (a job is due when the previous one ends) and the throughputs
/// of each pass, reported as medians over passes so one disturbed pass does
/// not move them.
void runClosedLoop(Outcome& out, std::size_t n, double seconds, cp::Rng& rng,
                   const std::function<JobCost(std::size_t)>& job) {
  std::vector<double> certify, latency, jobsPerS, streamMbPerS, memMbPerS;
  const auto t0 = Clock::now();
  auto due = t0;
  while (since(t0) < seconds) {
    std::vector<std::size_t> order = iota(n);
    shuffle(order, rng);
    JobCost pass;
    const auto passStart = Clock::now();
    for (const std::size_t i : order) {
      const auto start = Clock::now();
      const JobCost cost = job(i);
      const auto end = Clock::now();
      certify.push_back(std::chrono::duration<double>(end - start).count());
      latency.push_back(std::chrono::duration<double>(end - due).count());
      due = end;
      pass.bytes += cost.bytes;
      pass.streamSeconds += cost.streamSeconds;
      pass.memSeconds += cost.memSeconds;
    }
    jobsPerS.push_back(static_cast<double>(n) / since(passStart));
    streamMbPerS.push_back(ratio(pass.bytes / 1e6, pass.streamSeconds));
    memMbPerS.push_back(ratio(pass.bytes / 1e6, pass.memSeconds));
  }
  putPercentiles(out, "certify_s", certify);
  putPercentiles(out, "latency_s", latency);
  out.values["jobs_per_s"] = quantile(jobsPerS, 0.5);
  out.values["stream_verify_mb_per_s"] = quantile(streamMbPerS, 0.5);
  out.values["mem_verify_mb_per_s"] = quantile(memMbPerS, 0.5);
  out.info["passes"] = static_cast<double>(jobsPerS.size());
}

/// Per-job means of span durations by name, plus each job root's time not
/// covered by its children (trace.unaccounted_s), over root spans `root`.
struct SpanTotals {
  std::map<std::string, double> perJob;
  double unaccountedPerJob = 0.0;
  double rootPerJob = 0.0;
};

SpanTotals sumSpans(const Trace& trace, const std::string& root) {
  SpanTotals totals;
  const std::vector<Span>& spans = trace.spans();
  std::vector<double> childSum(spans.size(), 0.0);
  std::map<std::string, double> sums;
  std::size_t roots = 0;
  double rootSum = 0.0;
  for (const Span& s : spans) {
    const double d = s.end - s.start;
    if (s.parent >= 0) {
      childSum[static_cast<std::size_t>(s.parent)] += d;
      sums[s.name] += d;
    }
  }
  double unaccounted = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent < 0 && spans[i].name == root) {
      ++roots;
      rootSum += spans[i].end - spans[i].start;
      unaccounted += (spans[i].end - spans[i].start) - childSum[i];
    }
  }
  const double n = static_cast<double>(roots);
  for (const auto& [name, sum] : sums) totals.perJob[name] = ratio(sum, n);
  totals.unaccountedPerJob = ratio(unaccounted, n);
  totals.rootPerJob = ratio(rootSum, n);
  return totals;
}

/// Adds the CecStats counters the per-layer metrics read to `sums`, keyed
/// by metric name ("cube.pruned" only feeds cube.pruned_ratio).
void addStats(std::map<std::string, double>& sums, const cec::CecStats& s) {
  const std::pair<const char*, std::uint64_t> fields[] = {
      {"cec.sat_calls", s.satCalls},
      {"cec.conflicts", s.conflicts},
      {"cec.propagations", s.propagations},
      {"cec.sat_merges", s.satMerges},
      {"cec.structural_merges", s.structuralMerges},
      {"cec.counterexamples", s.counterexamples},
      {"cec.skipped_candidates", s.skippedCandidates},
      {"cec.proof_structural_steps", s.proofStructuralSteps},
      {"cube.cubes", s.cubeCount},
      {"cube.refuted", s.cubesRefuted},
      {"cube.pruned", s.cubesPruned},
      {"cube.probe_conflicts", s.cubeProbeConflicts},
      {"cec.lemma_cache.hits", s.lemmaCacheHits},
      {"cec.lemma_cache.misses", s.lemmaCacheMisses},
      {"cec.lemma_cache.spliced", s.lemmaCacheSpliced},
  };
  for (const auto& [name, value] : fields) {
    sums[name] += static_cast<double>(value);
  }
}

/// Records the per-job means of `sums` over `jobs` jobs, and the ratios
/// taken over the whole run.
void putStatMeans(Outcome& out, std::map<std::string, double> sums,
                  double jobs) {
  out.values["cec.sat_merge_ratio"] =
      ratio(sums["cec.sat_merges"], sums["cec.sat_calls"]);
  out.values["cube.pruned_ratio"] =
      ratio(sums["cube.pruned"], sums["cube.cubes"]);
  out.values["cec.lemma_cache.hit_ratio"] =
      ratio(sums["cec.lemma_cache.hits"],
            sums["cec.lemma_cache.hits"] + sums["cec.lemma_cache.misses"]);
  sums.erase("cube.pruned");
  for (const auto& [name, sum] : sums) out.values[name] = ratio(sum, jobs);
}

/// Scratch directory inside the working directory, removed on exit.
class WorkDir {
 public:
  explicit WorkDir(const std::string& workload)
      : path_(std::filesystem::path(".bench_work") /
              (workload + "-" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~WorkDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
    std::filesystem::remove(path_.parent_path(), ec);  // only if empty
  }
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;

  std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

struct MiterJob {
  std::string name;
  cp::aig::Aig miter;
  cec::Verdict expected = cec::Verdict::kEquivalent;
};

/// Miter of `left` against `right` with output `flip` of `right` inverted:
/// a single-output-flip mutant, inequivalent by construction.
cp::aig::Aig mutantMiter(const cp::aig::Aig& left, cp::aig::Aig right,
                         std::size_t flip) {
  right.setOutput(flip, !right.output(flip));
  return cec::buildMiter(left, right);
}

std::vector<MiterJob> suiteJobs(bool mislabel) {
  std::vector<MiterJob> jobs;
  for (const cp::bench::Workload& w : cp::bench::suite()) {
    if (w.name == "mul6_array_wallace" || w.name == "mul7_array_wallace") {
      continue;
    }
    jobs.push_back({w.name, w.build()});
  }
  if (mislabel) {
    // Deliberately wrong label: the gate must count this job as failed.
    jobs.push_back({"mislabelled_mutant",
                    mutantMiter(cp::gen::rippleCarryAdder(8),
                                cp::gen::carryLookaheadAdder(8, 4), 3),
                    cec::Verdict::kEquivalent});
  }
  return jobs;
}

MiterJob mul6Job() { return {"mul6_array_wallace", cp::bench::miterMul6()}; }

/// The full trust chain CI runs: audit, default sweep engine, CPF + disk.
cec::EngineConfig suiteConfig() {
  cec::EngineConfig config;
  config.auditEncoding = true;
  return config;
}

/// The same chain with the cube engine at `threads` workers. The check
/// stays at the default single thread, as in suiteConfig().
cec::EngineConfig cubeConfig(std::uint32_t threads) {
  cec::EngineConfig config = suiteConfig();
  cp::cube::CubeOptions cube;
  cube.parallel.numThreads = threads;
  config.engine = cube;
  return config;
}

// ---------------------------------------------------------------------------
// suite_certify and hard_mul: closed-loop certification
// ---------------------------------------------------------------------------

void gateReport(Outcome& out, const MiterJob& job,
                const cec::CertifyReport& r) {
  bool ok = r.cec.verdict == job.expected;
  if (ok && job.expected == cec::Verdict::kEquivalent) {
    ok = r.proofChecked && r.disk.checked && r.audit.ran && r.audit.ok;
  }
  out.gate(ok, job.name);
}

Outcome runCertify(const std::string& workload, std::uint64_t seed,
                   double seconds, bool traced, bool mislabel,
                   const WorkDir& dir) {
  Outcome out;
  const bool hard = workload == "hard_mul";
  const std::uint32_t threads = benchThreads();
  std::vector<MiterJob> jobs;
  out.values["setup_s"] = timedSetup(kSetupReps, [&] {
    jobs = hard ? std::vector<MiterJob>{mul6Job()} : suiteJobs(mislabel);
  });
  const cec::EngineConfig base = hard ? cubeConfig(threads) : suiteConfig();
  auto configFor = [&](std::size_t i) {
    cec::EngineConfig config = base;
    config.proofPath = dir.file(jobs[i].name + ".cpf");
    return config;
  };

  // One untraced certification; bytes per miter must repeat exactly.
  std::vector<cec::CertifyReport> first(jobs.size());
  std::vector<bool> seen(jobs.size(), false);
  auto certify = [&](std::size_t i) {
    cec::CertifyReport report;
    try {
      report = cec::checkMiter(jobs[i].miter, configFor(i));
    } catch (const std::exception& e) {
      out.problems.push_back(jobs[i].name + " threw: " + e.what());
      out.gate(false, jobs[i].name);
      return report;
    }
    gateReport(out, jobs[i], report);
    if (!seen[i]) {
      seen[i] = true;
      first[i] = report;
    } else {
      out.expectSame(static_cast<double>(report.disk.write.bytes),
                     static_cast<double>(first[i].disk.write.bytes),
                     jobs[i].name + " CPF bytes across passes");
    }
    return report;
  };

  cp::Rng rng(seed);
  // Warm-up pass: fills caches and finishes lazy set-up; gated, not timed.
  for (std::size_t i = 0; i < jobs.size(); ++i) (void)certify(i);

  if (!traced) {
    runClosedLoop(out, jobs.size(), seconds, rng, [&](std::size_t i) {
      const cec::CertifyReport r = certify(i);
      return JobCost{static_cast<double>(r.disk.write.bytes),
                     r.disk.checkSeconds, r.checkSeconds};
    });
    double proofBytes = 0.0;
    for (const cec::CertifyReport& r : first) {
      proofBytes += static_cast<double>(r.disk.write.bytes);
    }
    out.values["proof_bytes"] = proofBytes;
    return out;
  }

  // Traced run: untraced checkMiter passes alternate with staged passes;
  // the staged pipeline must reproduce checkMiter's counters exactly.
  Trace trace;
  std::vector<double> untracedJob, tracedJob;
  std::map<std::string, double> sums;
  double rawRes = 0, trimmedRes = 0, bytes = 0, livePeak = 0;
  std::uint64_t nextJob = 1;
  const auto t0 = Clock::now();
  while (untracedJob.empty() || tracedJob.empty() || since(t0) < seconds) {
    std::vector<std::size_t> order = iota(jobs.size());
    shuffle(order, rng);
    for (const std::size_t i : order) {
      const auto start = Clock::now();
      (void)certify(i);
      untracedJob.push_back(since(start));
    }
    for (const std::size_t i : order) {
      const std::uint64_t id = nextJob++;
      const auto start = Clock::now();
      StagedReport r;
      {
        ScopedSpan root(&trace, "job", id);
        r = certifyStaged(jobs[i].miter, configFor(i), &trace, id,
                          root.index());
      }
      tracedJob.push_back(since(start));
      bool ok = r.cec.verdict == jobs[i].expected;
      if (ok && jobs[i].expected == cec::Verdict::kEquivalent) {
        ok = r.auditOk && r.memChecked && r.diskChecked;
      }
      out.gate(ok, jobs[i].name + " (staged)");
      const cec::CertifyReport& u = first[i];
      const std::string& n = jobs[i].name;
      out.expectSame(static_cast<double>(r.cec.verdict),
                     static_cast<double>(u.cec.verdict), n + " verdict");
      out.expectSame(static_cast<double>(r.cec.stats.conflicts),
                     static_cast<double>(u.cec.stats.conflicts),
                     n + " conflicts");
      out.expectSame(static_cast<double>(r.cec.stats.propagations),
                     static_cast<double>(u.cec.stats.propagations),
                     n + " propagations");
      out.expectSame(static_cast<double>(r.trim.resolutionsAfter),
                     static_cast<double>(u.trim.resolutionsAfter),
                     n + " trimmed resolutions");
      out.expectSame(static_cast<double>(r.write.bytes),
                     static_cast<double>(u.disk.write.bytes),
                     n + " CPF bytes");
      addStats(sums, r.cec.stats);
      rawRes += static_cast<double>(r.trim.resolutionsBefore);
      trimmedRes += static_cast<double>(r.trim.resolutionsAfter);
      bytes += static_cast<double>(r.write.bytes);
      livePeak = std::max(livePeak,
                          static_cast<double>(r.stream.liveClausesPeak));
    }
  }

  const SpanTotals spans = sumSpans(trace, "job");
  auto span = [&](std::string_view name) {
    const auto it = spans.perJob.find(std::string(name));
    return it == spans.perJob.end() ? 0.0 : it->second;
  };
  out.values["cnf.audit_s"] = span(kSpanAudit);
  out.values["cec.engine_s"] = span(kSpanEngine);
  out.values["proofio.finish_s"] = span(kSpanFinish);
  out.values["proof.trim_s"] = span(kSpanTrim);
  out.values["cec.axiom_validator_s"] = span(kSpanValidator);
  out.values["proof.check_s"] = span(kSpanCheck);
  out.values["proofio.stream_check_s"] = span(kSpanStreamCheck);
  out.values["trace.unaccounted_s"] = spans.unaccountedPerJob;
  out.values["trace.overhead_share"] = mean(tracedJob) / mean(untracedJob) - 1;
  for (const auto& [name, perJob] : spans.perJob) {
    out.info["share." + name] = ratio(perJob, spans.rootPerJob);
  }
  out.info["share.unaccounted"] =
      ratio(spans.unaccountedPerJob, spans.rootPerJob);

  // Counters: per-job means over the staged passes.
  const double n = static_cast<double>(tracedJob.size());
  putStatMeans(out, sums, n);
  out.values["proof.raw_resolutions"] = ratio(rawRes, n);
  out.values["proof.trimmed_resolutions"] = ratio(trimmedRes, n);
  out.values["proof.trim_keep_ratio"] = ratio(trimmedRes, rawRes);
  out.values["proofio.bytes"] = ratio(bytes, n);
  out.values["proofio.live_clauses_peak"] = livePeak;

  if (hard) {
    // The cube fan-out at one thread: same counters and bytes, and the
    // engine span ratio is the parallel layer's scaling.
    Trace single;
    cec::EngineConfig config = cubeConfig(1);
    config.proofPath = dir.file("mul6_1thread.cpf");
    StagedReport r;
    {
      ScopedSpan root(&single, "job", 0);
      r = certifyStaged(jobs[0].miter, config, &single, 0, root.index());
    }
    const cec::CecStats& p = first[0].cec.stats;
    for (const auto& [what, a, b] :
         std::vector<std::tuple<std::string, std::uint64_t, std::uint64_t>>{
             {"cube cut size", r.cec.stats.cubeCutSize, p.cubeCutSize},
             {"cubes", r.cec.stats.cubeCount, p.cubeCount},
             {"cubes refuted", r.cec.stats.cubesRefuted, p.cubesRefuted},
             {"cubes pruned", r.cec.stats.cubesPruned, p.cubesPruned},
             {"cube probe conflicts", r.cec.stats.cubeProbeConflicts,
              p.cubeProbeConflicts},
             {"conflicts", r.cec.stats.conflicts, p.conflicts},
             {"CPF bytes", r.write.bytes, first[0].disk.write.bytes}}) {
      out.expectSame(static_cast<double>(a), static_cast<double>(b),
                     "mul6 at 1 vs " + std::to_string(threads) +
                         " threads: " + what);
    }
    out.values["cube.scaling_1_to_n"] =
        ratio(sumSpans(single, "job").perJob[std::string(kSpanEngine)],
              span(kSpanEngine));
  }
  return out;
}

// ---------------------------------------------------------------------------
// verify_certs: both consumer paths over certificates written in set-up
// ---------------------------------------------------------------------------

struct Certificate {
  MiterJob job;
  std::string path;
  std::uint64_t bytes = 0;
};

struct VerifyTimes {
  double validator = 0, read = 0, check = 0, stream = 0;
  std::uint64_t livePeak = 0;
};

using Validator = std::function<bool(std::span<const cp::sat::Lit>)>;

/// The in-memory consumer's check: proof::checkProof with the miter's
/// axiom validator at `threads` workers.
bool checkInMemory(const cp::proof::ProofLog& log,
                   const Validator& validator,
                   std::uint32_t threads) {
  cp::proof::CheckOptions options;
  options.requireRoot = true;
  options.axiomValidator = validator;
  options.parallel.numThreads = threads;
  return cp::proof::checkProof(log, options).ok;
}

/// Re-verifies one certificate through both consumers: read + in-memory
/// check at the checker's default single thread (the `proof_tools check`
/// path), and the streaming check (the `checkbin` path).
VerifyTimes verifyOne(Outcome& out, const Certificate& cert, Trace* trace,
                      std::uint64_t id) {
  VerifyTimes t;
  ScopedSpan root(trace, "job", id);
  auto stage = [&](std::string_view name, double& seconds, auto&& body) {
    ScopedSpan span(trace, std::string(name), id, root.index());
    const auto start = Clock::now();
    body();
    seconds = since(start);
  };
  Validator validator;
  cp::proof::ProofLog log;
  bool memOk = false, diskOk = false;
  stage(kSpanValidator, t.validator,
        [&] { validator = cec::miterAxiomValidator(cert.job.miter); });
  stage(kSpanRead, t.read,
        [&] { log = cp::proofio::readProofFile(cert.path); });
  stage(kSpanCheck, t.check, [&] { memOk = checkInMemory(log, validator, 1); });
  stage(kSpanStreamCheck, t.stream, [&] {
    cp::proofio::StreamCheckOptions options;
    options.requireRoot = true;
    options.axiomValidator = validator;
    cp::proofio::StreamCheckStats stats;
    diskOk = cp::proofio::checkProofFile(cert.path, options, &stats).ok;
    t.livePeak = stats.liveClausesPeak;
  });
  out.gate(memOk && diskOk, cert.job.name + " certificate");
  return t;
}

Outcome runVerify(std::uint64_t seed, double seconds, bool traced,
                  const WorkDir& dir) {
  Outcome out;
  const std::uint32_t threads = benchThreads();
  std::vector<Certificate> certs;
  out.values["setup_s"] = timedSetup(kSetupReps, [&] {
    std::vector<Certificate> built;
    std::vector<MiterJob> jobs = suiteJobs(false);
    jobs.push_back(mul6Job());
    for (MiterJob& job : jobs) {
      const bool isMul6 = job.name == "mul6_array_wallace";
      cec::EngineConfig config = isMul6 ? cubeConfig(threads) : suiteConfig();
      config.proofPath = dir.file(job.name + ".cpf");
      cp::proof::ProofLog log;
      cp::proofio::WriteStats write;
      const cec::CecResult r =
          writeCertificate(job.miter, config, log, write, nullptr, 0, -1);
      if (r.verdict != cec::Verdict::kEquivalent) {
        throw std::runtime_error("verify_certs set-up: " + job.name +
                                 " is not certified equivalent");
      }
      built.push_back({std::move(job), config.proofPath, write.bytes});
    }
    if (!certs.empty()) {
      for (std::size_t i = 0; i < built.size(); ++i) {
        out.expectSame(static_cast<double>(built[i].bytes),
                       static_cast<double>(certs[i].bytes),
                       built[i].job.name + " CPF bytes across set-ups");
      }
    }
    certs = std::move(built);
  });

  double proofBytes = 0;
  for (const Certificate& c : certs) proofBytes += static_cast<double>(c.bytes);
  cp::Rng rng(seed);
  for (const Certificate& c : certs) {
    (void)verifyOne(out, c, nullptr, 0);  // warm-up, untimed
  }

  if (!traced) {
    runClosedLoop(out, certs.size(), seconds, rng, [&](std::size_t i) {
      const VerifyTimes t = verifyOne(out, certs[i], nullptr, 0);
      return JobCost{static_cast<double>(certs[i].bytes), t.stream,
                     t.read + t.check};
    });
    out.values["proof_bytes"] = proofBytes;
    return out;
  }

  Trace trace;
  std::vector<double> untracedJob, tracedJob;
  double bytes = 0, livePeak = 0, parallelCheck = 0, singleCheck = 0;
  std::uint64_t nextJob = 1;
  const auto t0 = Clock::now();
  while (untracedJob.empty() || tracedJob.empty() || since(t0) < seconds) {
    std::vector<std::size_t> order = iota(certs.size());
    shuffle(order, rng);
    for (const std::size_t i : order) {
      const auto start = Clock::now();
      (void)verifyOne(out, certs[i], nullptr, 0);
      untracedJob.push_back(since(start));
    }
    for (const std::size_t i : order) {
      const auto start = Clock::now();
      const VerifyTimes t = verifyOne(out, certs[i], &trace, nextJob++);
      tracedJob.push_back(since(start));
      bytes += static_cast<double>(certs[i].bytes);
      livePeak = std::max(livePeak, static_cast<double>(t.livePeak));
      // The parallel checker on the same proof, outside the job spans: the
      // info line compares it with the single-thread check the job uses.
      const cp::proof::ProofLog log = cp::proofio::readProofFile(certs[i].path);
      const auto parallelStart = Clock::now();
      out.gate(checkInMemory(log, cec::miterAxiomValidator(certs[i].job.miter),
                             threads),
               certs[i].job.name + " certificate at " +
                   std::to_string(threads) + " threads");
      parallelCheck += since(parallelStart);
      singleCheck += t.check + t.validator;
    }
  }
  out.info["proof.check_nproc_over_1"] = ratio(parallelCheck, singleCheck);
  const SpanTotals spans = sumSpans(trace, "job");
  for (const auto& [name, perJob] : spans.perJob) {
    out.values[name + "_s"] = perJob;
    out.info["share." + name] = ratio(perJob, spans.rootPerJob);
  }
  out.values["proofio.bytes"] =
      ratio(bytes, static_cast<double>(tracedJob.size()));
  out.values["proofio.live_clauses_peak"] = livePeak;
  out.values["trace.unaccounted_s"] = spans.unaccountedPerJob;
  out.values["trace.overhead_share"] = mean(tracedJob) / mean(untracedJob) - 1;
  return out;
}

// ---------------------------------------------------------------------------
// serve_stream: open-loop Poisson stream into the batch service
// ---------------------------------------------------------------------------

/// Offered load in jobs per second: well below what nproc = 4 workers
/// sustain on this mix, so a growing backlog means a regression.
constexpr double kServeRate = 400.0;

/// Job kinds of the stream. Kinds 0-3 repeat small adder and parity
/// sub-circuits, so the cross-job lemma cache hits; 4-5 are medium suite
/// miters; mutants flip one output of a small pair's second circuit.
constexpr int kSmallKinds = 4;
constexpr int kKinds = 6;

std::pair<cp::aig::Aig, cp::aig::Aig> servePair(int kind) {
  namespace gen = cp::gen;
  switch (kind) {
    case 0: return {gen::rippleCarryAdder(8), gen::carryLookaheadAdder(8, 4)};
    case 1: return {gen::rippleCarryAdder(8), gen::carrySelectAdder(8, 3)};
    case 2: return {gen::parityChain(10), gen::parityTree(10)};
    case 3: return {gen::rippleCarryAdder(6), gen::carrySkipAdder(6, 2)};
    case 4: return {gen::rippleCarryAdder(16), gen::carryLookaheadAdder(16, 4)};
    default: return {gen::aluVariantA(8), gen::aluVariantB(8)};
  }
}

struct StreamJob {
  std::size_t miter = 0;  ///< index into Stream::miters
  int kind = 0;           ///< kKinds for a mutant
  cec::Verdict expected = cec::Verdict::kEquivalent;
  double due = 0.0;  ///< seconds after the stream starts
};

/// A seeded job stream: the distinct miters it draws on, built once, and
/// the jobs in arrival order. Each submission copies its miter, so the
/// stream stays small and peak memory is the service's, not the plan's.
struct Stream {
  std::vector<cp::aig::Aig> miters;
  std::vector<StreamJob> jobs;
};

/// Job kinds, mutant placement and flipped outputs, and Poisson arrival
/// times all derive from `seed`.
Stream buildStream(std::uint64_t seed, double seconds) {
  Stream stream;
  for (int kind = 0; kind < kKinds; ++kind) {
    const auto [left, right] = servePair(kind);
    stream.miters.push_back(cec::buildMiter(left, right));
  }
  std::map<std::pair<int, std::size_t>, std::size_t> mutants;
  cp::Rng rng(seed);
  double due = 0.0;
  const std::size_t count =
      static_cast<std::size_t>(std::ceil(kServeRate * seconds));
  for (std::size_t i = 0; i < count; ++i) {
    StreamJob job;
    // Exponential inter-arrival time from a uniform in (0, 1].
    const double u =
        (static_cast<double>(rng.below(1u << 30)) + 1.0) / double(1u << 30);
    due += -std::log(u) / kServeRate;
    job.due = due;
    const std::uint64_t roll = rng.below(100);
    if (roll < 10) {
      const int base = static_cast<int>(rng.below(kSmallKinds));
      auto [left, right] = servePair(base);
      const std::size_t flip = rng.below(right.numOutputs());
      const auto [it, fresh] =
          mutants.try_emplace({base, flip}, stream.miters.size());
      if (fresh) {
        stream.miters.push_back(mutantMiter(left, std::move(right), flip));
      }
      job.miter = it->second;
      job.kind = kKinds;
      job.expected = cec::Verdict::kInequivalent;
    } else {
      job.kind = roll < 82 ? static_cast<int>(rng.below(kSmallKinds))
                           : kSmallKinds + static_cast<int>(rng.below(2));
      job.miter = static_cast<std::size_t>(job.kind);
    }
    stream.jobs.push_back(job);
  }
  return stream;
}

/// One stream replayed on one service: records and timings by job index.
struct StreamRun {
  std::vector<serve::JobRecord> records;
  std::vector<double> latency;    ///< due -> terminal record
  std::vector<double> terminal;   ///< terminal time, seconds after start
  std::vector<double> lag;        ///< how late the generator submitted
  std::vector<double> submitted;  ///< seconds spent inside submit()
  std::size_t workers = 0;
};

/// Replays `jobs` in real time on a fresh service with the shipped
/// defaults. Jobs from index `tracedFrom` on get spans around submit; the
/// final drain gets one too when any job is traced.
StreamRun runStream(const Stream& stream, const WorkDir& dir, Trace* trace,
                    std::size_t tracedFrom) {
  const std::vector<StreamJob>& jobs = stream.jobs;
  StreamRun run;
  serve::ServiceOptions options;
  options.parallel.numThreads = benchThreads();
  serve::BatchService service(options);
  run.workers = service.numWorkers();
  std::vector<double> admitted(jobs.size());
  const auto t0 = Clock::now() + std::chrono::milliseconds(20);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const std::string name = "job" + std::to_string(i);
    serve::JobOptions options;
    options.engine.auditEncoding = true;
    options.engine.proofPath = dir.file(name + ".cpf");
    serve::JobSpec spec =
        serve::makeMiterJob(name, stream.miters[jobs[i].miter], options);
    const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(jobs[i].due));
    std::this_thread::sleep_until(due);
    const auto start = Clock::now();
    run.lag.push_back(std::chrono::duration<double>(start - due).count());
    {
      ScopedSpan span(i >= tracedFrom ? trace : nullptr, "serve.submit",
                      i + 1);
      (void)service.submit(std::move(spec));
    }
    const auto end = Clock::now();
    run.submitted.push_back(
        std::chrono::duration<double>(end - start).count());
    admitted[i] = std::chrono::duration<double>(end - t0).count();
  }
  {
    ScopedSpan span(tracedFrom < jobs.size() ? trace : nullptr,
                    "serve.drain", 0);
    run.records = service.drain();
  }
  for (std::size_t i = 0; i < run.records.size(); ++i) {
    const serve::JobRecord& r = run.records[i];
    run.terminal.push_back(admitted[i] + r.queuedSeconds + r.runSeconds);
    run.latency.push_back(run.terminal[i] - jobs[i].due);
  }
  return run;
}

void gateStream(Outcome& out, const std::vector<StreamJob>& jobs,
                const StreamRun& run) {
  for (std::size_t i = 0; i < run.records.size(); ++i) {
    const serve::JobRecord& r = run.records[i];
    bool ok = r.state == serve::JobState::kDone &&
              r.verdict == jobs[i].expected;
    if (ok && jobs[i].expected == cec::Verdict::kEquivalent) {
      ok = r.proofChecked && r.auditRan && r.auditOk && r.proofBytes > 0;
    }
    if (!r.error.empty()) out.problems.push_back(r.name + ": " + r.error);
    out.gate(ok, r.name);
  }
}

/// Share of the stream replayed before measuring: it fills the lemma cache
/// and the allocator, as a long-running service would have.
constexpr double kServeWarmupShare = 0.1;

Outcome runServe(std::uint64_t seed, double seconds, bool traced,
                 const WorkDir& dir) {
  Outcome out;
  Stream stream;
  out.values["setup_s"] = timedSetup(
      kSetupReps, [&] { stream = buildStream(seed, seconds); });
  const std::vector<StreamJob>& jobs = stream.jobs;
  const std::size_t warm =
      static_cast<std::size_t>(kServeWarmupShare * double(jobs.size()));
  // Untraced run: everything after the warm-up is measured. Traced run:
  // the first half of that untraced, the second half traced.
  const std::size_t from = traced ? (warm + jobs.size()) / 2 : warm;
  if (jobs.size() - from < 10 || from - warm < (traced ? 10u : 0u)) {
    throw std::invalid_argument("serve_stream: --seconds too short");
  }
  Trace trace;
  const StreamRun run = runStream(stream, dir, traced ? &trace : nullptr, from);
  gateStream(out, jobs, run);

  std::vector<double> latency, queued, runSeconds;
  std::map<int, std::vector<double>> bytesByKind;
  std::map<std::string, double> sums;
  double bytes = 0, checkSeconds = 0, certified = 0, livePeak = 0;
  double trimmedRes = 0, completed = 0, busy = 0, lagMax = 0, blocked = 0;
  double unaccounted = 0;
  double first = jobs[from].due, last = first;
  for (std::size_t i = from; i < run.records.size(); ++i) {
    const serve::JobRecord& r = run.records[i];
    latency.push_back(run.latency[i]);
    last = std::max(last, run.terminal[i]);
    lagMax = std::max(lagMax, run.lag[i]);
    blocked += run.submitted[i];
    unaccounted += run.latency[i] - run.lag[i] - run.submitted[i] -
                   r.queuedSeconds - r.runSeconds;
    if (r.state != serve::JobState::kDone) continue;
    ++completed;
    queued.push_back(r.queuedSeconds);
    runSeconds.push_back(r.runSeconds);
    busy += r.runSeconds;
    addStats(sums, r.stats);
    if (jobs[i].expected == cec::Verdict::kEquivalent) {
      ++certified;
      bytesByKind[jobs[i].kind].push_back(static_cast<double>(r.proofBytes));
      bytes += static_cast<double>(r.proofBytes);
      checkSeconds += r.checkSeconds;
      trimmedRes += static_cast<double>(r.proofResolutions);
      livePeak = std::max(livePeak, static_cast<double>(r.liveClausesPeak));
    }
  }
  const double wall = last - first;

  if (!traced) {
    putPercentiles(out, "certify_s", runSeconds);
    putPercentiles(out, "latency_s", latency);
    out.values["jobs_per_s"] = ratio(completed, wall);
    out.info["offered_jobs_per_s"] = kServeRate;
    // A job record carries the in-memory and disk check time only as one
    // sum, so both verify rates read that combined rate here.
    out.values["stream_verify_mb_per_s"] = ratio(bytes / 1e6, checkSeconds);
    out.values["mem_verify_mb_per_s"] = ratio(bytes / 1e6, checkSeconds);
    double proofBytes = 0;
    for (const auto& [kind, samples] : bytesByKind) {
      proofBytes += quantile(samples, 0.5);
    }
    out.values["proof_bytes"] = proofBytes;
    return out;
  }

  const double n = static_cast<double>(latency.size());
  putStatMeans(out, sums, completed);
  out.values["proof.trimmed_resolutions"] = ratio(trimmedRes, certified);
  out.values["proofio.bytes"] = ratio(bytes, certified);
  out.values["proofio.live_clauses_peak"] = livePeak;
  out.values["serve.queued_s.p50"] = quantile(queued, 0.5);
  out.values["serve.queued_s.p99"] = quantile(queued, 0.99);
  out.values["serve.run_s.p50"] = quantile(runSeconds, 0.5);
  out.values["serve.run_s.p99"] = quantile(runSeconds, 0.99);
  out.values["serve.worker_busy_share"] =
      ratio(busy, wall * static_cast<double>(run.workers));
  out.values["serve.submit_blocked_s"] = blocked;
  out.values["serve.gen_lag_s.max"] = lagMax;
  // Time from due to terminal that neither the generator's lag, the submit
  // span nor the record's queued and run time accounts for.
  out.values["trace.unaccounted_s"] = ratio(unaccounted, n);
  const std::vector<double> untraced(run.latency.begin() + warm,
                                     run.latency.begin() + from);
  out.values["trace.overhead_share"] = mean(latency) / mean(untraced) - 1;
  out.info["share.serve.queued"] = ratio(mean(queued), mean(latency));
  out.info["share.serve.run"] = ratio(mean(runSeconds), mean(latency));
  return out;
}

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool mislabel = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "certbench: %s\nusage: certbench --workload "
               "<suite_certify|hard_mul|serve_stream|verify_certs> --seed <n> "
               "--seconds <s> --trace <0|1> [--mislabel 1]\n",
               why.c_str());
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        args.workload = value;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else if (key == "--mislabel") {
        args.mislabel = std::stoi(value) != 0;
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + value);
    }
  }
  if (args.workload != "suite_certify" && args.workload != "hard_mul" &&
      args.workload != "serve_stream" && args.workload != "verify_certs") {
    usage("unknown workload '" + args.workload + "'");
  }
  if (!(args.seconds > 0 && args.seconds <= 120)) {
    usage("--seconds must lie in (0, 120]");
  }
  if (args.mislabel && args.workload != "suite_certify") {
    usage("--mislabel applies to suite_certify only");
  }
  return args;
}

/// Prints `specs` as the result line's metrics object; a metric the
/// workload did not set reads 0.
void printMetrics(const MetricSpec* begin, const MetricSpec* end,
                  const std::map<std::string, double>& values) {
  for (const MetricSpec* m = begin; m != end; ++m) {
    const auto it = values.find(m->name);
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                m == begin ? "" : ", ", m->name,
                it == values.end() ? 0.0 : it->second, m->unit);
  }
}

int run(const Args& args) {
  const WorkDir dir(args.workload);
  Outcome out;
  if (args.workload == "serve_stream") {
    out = runServe(args.seed, args.seconds, args.trace, dir);
  } else if (args.workload == "verify_certs") {
    out = runVerify(args.seed, args.seconds, args.trace, dir);
  } else {
    out = runCertify(args.workload, args.seed, args.seconds, args.trace,
                     args.mislabel, dir);
  }
  out.values["peak_rss_mb"] = peakRssMb();
  for (auto& [name, value] : out.values) {
    if (!std::isfinite(value)) {
      out.consistent = false;
      std::fprintf(stderr, "certbench: %s is not finite\n", name.c_str());
      value = 0.0;
    }
  }

  for (const std::string& p : out.problems) {
    std::fprintf(stderr, "certbench: %s\n", p.c_str());
  }
  const double failedShare =
      ratio(static_cast<double>(out.failed),
            static_cast<double>(out.attempted));
  std::printf("{\"info\": {\"workload\": \"%s\", \"seed\": %llu, "
              "\"trace\": %d, \"nproc\": %u, \"threads\": %u, "
              "\"compiler\": \"%s\", \"build_type\": \"%s\", "
              "\"failed_share\": %.17g, \"consistent\": %s",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
              std::thread::hardware_concurrency(), benchThreads(),
              CERTBENCH_COMPILER, CERTBENCH_BUILD_TYPE, failedShare,
              out.consistent ? "true" : "false");
  for (const auto& [name, value] : out.info) {
    std::printf(", \"%s\": %.17g", name.c_str(), value);
  }
  std::printf("}}\n");

  const MetricSpec* begin =
      args.trace ? std::begin(kPerLayer) : std::begin(kEndToEnd);
  const MetricSpec* end =
      args.trace ? std::end(kPerLayer) : std::end(kEndToEnd);
  const bool correct = out.failed == 0 && out.consistent && out.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  printMetrics(begin, end, out.values);
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace certbench

int main(int argc, char** argv) {
  const certbench::Args args = certbench::parseArgs(argc, argv);
  try {
    return certbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "certbench: %s\n", e.what());
    return 1;
  }
}
