// Span recording and the stage-by-stage certification pipeline of the
// certified-CEC benchmark.
//
// The traced run times each layer from the benchmark's own code: it calls
// the public entry points that cec::checkMiter is composed of, one span per
// stage, so no span lives inside the library. certifyStaged() must therefore
// stay a faithful copy of checkMiter's stage order and options; the harness
// checks that it reproduces checkMiter's deterministic counters exactly.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/aig/aig.h"
#include "src/cec/certify.h"
#include "src/proof/proof_log.h"

namespace certbench {

/// One traced interval. Times are seconds since the trace's origin.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  std::int64_t parent = -1;  ///< index of the enclosing span, -1 for a root
  std::uint64_t job = 0;     ///< spans of one job share this id
};

/// In-memory span store; spans are kept until the run ends.
class Trace {
 public:
  Trace() : origin_(std::chrono::steady_clock::now()) {}

  std::int64_t open(std::string name, std::uint64_t job, std::int64_t parent);
  void close(std::int64_t index);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  double now() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction; with a null
/// trace it records nothing, so one code path serves traced and untraced
/// passes.
class ScopedSpan {
 public:
  ScopedSpan(Trace* trace, std::string name, std::uint64_t job,
             std::int64_t parent = -1)
      : trace_(trace),
        index_(trace != nullptr ? trace->open(std::move(name), job, parent)
                                : -1) {}
  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int64_t index() const { return index_; }

 private:
  Trace* trace_;
  std::int64_t index_;
};

/// Span names of the staged pipeline, in stage order, and of the CPF read
/// that only the verify_certs consumer path has.
inline constexpr std::string_view kSpanAudit = "cnf.audit";
inline constexpr std::string_view kSpanEngine = "cec.engine";
inline constexpr std::string_view kSpanFinish = "proofio.finish";
inline constexpr std::string_view kSpanTrim = "proof.trim";
inline constexpr std::string_view kSpanValidator = "cec.axiom_validator";
inline constexpr std::string_view kSpanCheck = "proof.check";
inline constexpr std::string_view kSpanStreamCheck = "proofio.stream_check";
inline constexpr std::string_view kSpanRead = "proofio.read";

/// What one staged certification produced: the fields of
/// cec::CertifyReport the benchmark gates and compares on.
struct StagedReport {
  cp::cec::CecResult cec;
  bool auditOk = false;
  bool memChecked = false;   ///< in-memory checker accepted the trimmed proof
  bool diskChecked = false;  ///< streaming checker accepted the container
  cp::proof::TrimStats trim;
  cp::proofio::WriteStats write;
  cp::proofio::StreamCheckStats stream;
};

/// Runs the configured engine (sweeping or cube) with a CPF writer on
/// config.proofPath attached as the proof log's sink, then finishes the
/// container: stages 2 and 3 of checkMiter, under the spans kSpanEngine and
/// kSpanFinish.
cp::cec::CecResult writeCertificate(const cp::aig::Aig& miter,
                                    const cp::cec::EngineConfig& config,
                                    cp::proof::ProofLog& log,
                                    cp::proofio::WriteStats& write,
                                    Trace* trace, std::uint64_t job,
                                    std::int64_t parent);

/// The stages of cec::checkMiter called one by one, each under its own
/// span: encode + audit, engine with the CPF writer, finish, trim, axiom
/// validator build, in-memory check, streaming disk check. An inequivalent
/// verdict replays its counterexample instead and skips the proof stages.
/// Requires config.auditEncoding and a non-empty config.proofPath.
StagedReport certifyStaged(const cp::aig::Aig& miter,
                           const cp::cec::EngineConfig& config, Trace* trace,
                           std::uint64_t job, std::int64_t parent);

}  // namespace certbench
