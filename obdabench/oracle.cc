#include "oracle.h"

#include <algorithm>

#include "base/hash.h"
#include "core/csp_translation.h"
#include "core/omq.h"
#include "ddlog/eval.h"
#include "ddlog/program.h"
#include "dl/parser.h"
#include "serve/protocol.h"
#include "serve/session.h"

namespace obdabench {

obda::base::Result<obda::data::Schema> ParseSchema(const std::string& specs) {
  obda::data::Schema schema;
  for (const std::string& spec : obda::serve::Tokenize(specs)) {
    obda::base::Status status = obda::serve::AddRelationSpec(spec, schema);
    if (!status.ok()) return status;
  }
  return schema;
}

std::shared_ptr<const obda::data::Instance> Snapshot(
    const obda::data::Schema& schema,
    const std::vector<obda::data::Fact>& facts) {
  obda::serve::Session session(schema);
  for (const obda::data::Fact& fact : facts) (void)session.Assert(fact);
  return session.Materialize().instance;
}

std::optional<std::string> CanonicalAnswers(std::string_view response) {
  std::vector<std::string> lines;
  bool ok = false;
  while (!response.empty()) {
    const std::size_t nl = response.find('\n');
    const std::string_view line = response.substr(0, nl);
    response.remove_prefix(nl == std::string_view::npos ? response.size()
                                                        : nl + 1);
    if (line == "OK" || line.rfind("OK ", 0) == 0) {
      ok = true;
      break;
    }
    if (line.rfind("ERR", 0) == 0) return std::nullopt;
    lines.emplace_back(line);
  }
  if (!ok) return std::nullopt;
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

obda::base::Result<std::string> OracleAnswers(
    const OmqSpec& spec, const obda::data::Instance& instance) {
  std::vector<std::vector<obda::data::ConstId>> tuples;
  int arity = 0;
  if (spec.kind == "PROGRAM") {
    obda::base::Result<obda::ddlog::Program> program =
        obda::ddlog::ParseProgram(instance.schema(), spec.payload);
    if (!program.ok()) return program.status();
    arity = program->QueryArity();
    obda::ddlog::EvalOptions options;
    options.threads = 1;
    options.max_decisions = 0;
    obda::base::Result<obda::ddlog::Answers> answers =
        obda::ddlog::CertainAnswers(*program, instance, options);
    if (!answers.ok()) return answers.status();
    tuples = std::move(answers->tuples);
  } else {
    obda::base::Result<obda::dl::Ontology> ontology =
        obda::dl::ParseOntology(spec.ontology);
    if (!ontology.ok()) return ontology.status();
    obda::base::Result<obda::core::OntologyMediatedQuery> omq =
        spec.kind == "AQ"
            ? obda::core::OntologyMediatedQuery::WithAtomicQuery(
                  instance.schema(), *ontology, spec.payload)
            : obda::core::OntologyMediatedQuery::WithBooleanAtomicQuery(
                  instance.schema(), *ontology, spec.payload);
    if (!omq.ok()) return omq.status();
    arity = omq->arity();
    obda::base::Result<std::vector<std::vector<obda::data::ConstId>>>
        answers = obda::core::CertainAnswersViaCsp(*omq, instance);
    if (!answers.ok()) return answers.status();
    tuples = std::move(answers).value();
  }
  std::vector<std::string> lines;
  if (arity == 0) {
    lines.push_back(tuples.empty() ? "false" : "true");
  } else {
    for (const auto& tuple : tuples) {
      std::string line = "(";
      for (std::size_t i = 0; i < tuple.size(); ++i) {
        if (i > 0) line += ", ";
        line += obda::data::FormatConstant(instance.ConstantName(tuple[i]));
      }
      lines.push_back(line + ")");
    }
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

std::uint64_t CheckAnswers(const std::vector<AnswerLog>& logs,
                           const std::vector<OmqSpec>& specs,
                           const SnapshotFn& snapshot, AnswerMemo* memo,
                           const char* label,
                           std::vector<std::string>* problems,
                           std::size_t* mismatches) {
  auto problem = [&](const std::string& text) {
    if (problems->size() < 12) problems->push_back(label + (" " + text));
  };
  std::uint64_t digest = obda::base::kFnvOffsetBasis;
  for (const AnswerLog& log : logs) {
    if (log.overflow() != 0) {
      *mismatches += log.overflow();
      problem("client " + std::to_string(log.client()) + ": " +
              std::to_string(log.overflow()) +
              " responses beyond the distinct ones kept for one query and "
              "data state");
    }
    // Canonical answers per kept response ("" when malformed).
    std::map<AnswerLog::Key, std::vector<std::string>> canonical;
    for (const auto& [key, variants] : log.variants()) {
      const auto [omq, state] = key;
      const auto memo_key = std::make_tuple(log.client(), omq, state);
      auto it = memo->find(memo_key);
      if (it == memo->end()) {
        std::shared_ptr<const obda::data::Instance> instance =
            snapshot(log.client(), state);
        obda::base::Result<std::string> expected =
            OracleAnswers(specs.at(omq), *instance);
        it = memo->emplace(memo_key,
                           expected.ok() ? *expected
                                         : "oracle error: " +
                                               expected.status().message())
                 .first;
      }
      for (const AnswerLog::Variant& variant : variants) {
        // ERR responses never reach the log: they were counted as failed.
        const std::optional<std::string> got =
            CanonicalAnswers(variant.response);
        canonical[key].push_back(got.value_or(""));
        if (got.has_value() && *got == it->second) continue;
        *mismatches += variant.count;
        problem("oracle mismatch: " + specs.at(omq).family + " client " +
                std::to_string(log.client()) + " state " +
                std::to_string(state) + " (" + std::to_string(variant.count) +
                "x) got [" +
                (got.has_value() ? got->substr(0, 80) : "malformed") +
                "] want [" + it->second.substr(0, 80) + "]");
      }
    }
    for (const auto& [key, index] : log.digest_order()) {
      digest = obda::base::Fnv1a(canonical.at(key).at(index) + "\x1f",
                                 digest);
    }
  }
  return digest;
}

}  // namespace obdabench
