#include "perfbench/pipeline.h"

#include <functional>
#include <span>
#include <stdexcept>
#include <variant>

#include "src/base/diagnostics.h"
#include "src/cec/cube_cec.h"
#include "src/cec/sweeping_cec.h"
#include "src/cnf/audit.h"
#include "src/cnf/cnf.h"
#include "src/proof/checker.h"
#include "src/proof/trim.h"
#include "src/proofio/reader.h"
#include "src/proofio/writer.h"

namespace certbench {

namespace cec = cp::cec;
namespace proof = cp::proof;
namespace proofio = cp::proofio;

double Trace::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

std::int64_t Trace::open(std::string name, std::uint64_t job,
                         std::int64_t parent) {
  Span span;
  span.name = std::move(name);
  span.parent = parent;
  span.job = job;
  span.start = now();
  spans_.push_back(std::move(span));
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void Trace::close(std::int64_t index) {
  spans_[static_cast<std::size_t>(index)].end = now();
}

cec::CecResult writeCertificate(const cp::aig::Aig& miter,
                                const cec::EngineConfig& config,
                                proof::ProofLog& log,
                                proofio::WriteStats& write, Trace* trace,
                                std::uint64_t job, std::int64_t parent) {
  proofio::ProofWriter writer(config.proofPath);
  writer.setVarMap(cp::cnf::VarMap::identity(miter.numNodes()).varOf);
  cec::CecResult result;
  {
    ScopedSpan span(trace, std::string(kSpanEngine), job, parent);
    log.setSink(&writer);
    try {
      if (const auto* sweep = std::get_if<cec::SweepOptions>(&config.engine)) {
        result = cec::sweepingCheck(miter, *sweep, &log);
      } else if (const auto* cube =
                     std::get_if<cp::cube::CubeOptions>(&config.engine)) {
        result = cec::cubeCheck(miter, *cube, &log);
      } else {
        throw std::invalid_argument(
            "certbench: only the sweeping and cube engines are staged");
      }
    } catch (...) {
      log.setSink(nullptr);
      throw;
    }
    log.setSink(nullptr);
  }
  ScopedSpan span(trace, std::string(kSpanFinish), job, parent);
  if (!result.cubeSpans.empty()) {
    std::vector<proofio::CubeSpan> spans;
    spans.reserve(result.cubeSpans.size());
    for (const cec::CubeProofSpan& s : result.cubeSpans) {
      spans.push_back({s.literals, s.firstClause, s.lastClause});
    }
    writer.setCubeSpans(spans);
  }
  write = writer.finish();
  return result;
}

StagedReport certifyStaged(const cp::aig::Aig& miter,
                           const cec::EngineConfig& config, Trace* trace,
                           std::uint64_t job, std::int64_t parent) {
  if (!config.auditEncoding || config.proofPath.empty()) {
    throw std::invalid_argument(
        "certbench: the staged pipeline needs an audit and a proof path");
  }
  StagedReport report;
  {
    ScopedSpan span(trace, std::string(kSpanAudit), job, parent);
    const cp::cnf::Cnf cnf = cp::cnf::encodeWithOutputAssertion(miter);
    cp::diag::DiagnosticCollector findings(cp::diag::Severity::kWarning);
    cp::cnf::AuditOptions options;
    options.parallel = config.check;
    report.auditOk =
        cp::cnf::auditEncoding(miter, cnf,
                               cp::cnf::VarMap::identity(miter.numNodes()),
                               findings, options)
            .ok();
  }

  proof::ProofLog log;
  report.cec =
      writeCertificate(miter, config, log, report.write, trace, job, parent);

  if (report.cec.verdict == cec::Verdict::kInequivalent) {
    if (!miter.evaluate(report.cec.counterexample).at(0)) {
      throw std::logic_error(
          "certbench: counterexample does not set the miter output");
    }
    return report;
  }
  if (report.cec.verdict != cec::Verdict::kEquivalent) return report;

  proof::TrimmedProof trimmed;
  {
    ScopedSpan span(trace, std::string(kSpanTrim), job, parent);
    trimmed = proof::trimProof(log);
  }
  report.trim = trimmed.stats;

  std::function<bool(std::span<const cp::sat::Lit>)> validator;
  {
    ScopedSpan span(trace, std::string(kSpanValidator), job, parent);
    validator = cec::miterAxiomValidator(miter);
  }
  {
    ScopedSpan span(trace, std::string(kSpanCheck), job, parent);
    proof::CheckOptions options;
    options.requireRoot = true;
    options.axiomValidator = validator;
    options.parallel.numThreads = config.check.numThreads;
    report.memChecked = proof::checkProof(trimmed.log, options).ok;
  }
  {
    ScopedSpan span(trace, std::string(kSpanStreamCheck), job, parent);
    proofio::StreamCheckOptions options;
    options.requireRoot = true;
    options.axiomValidator = validator;
    report.diskChecked =
        proofio::checkProofFile(config.proofPath, options, &report.stream).ok;
  }
  return report;
}

}  // namespace certbench
