#include "replay.h"

#include <future>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "core/csp_translation.h"
#include "core/rewritability.h"
#include "data/generator.h"
#include "data/io.h"
#include "ddlog/program.h"
#include "dl/parser.h"
#include "serve/prepared.h"
#include "serve/protocol.h"
#include "store/store.h"

namespace obdabench {

using obda::serve::PlanTier;
using obda::serve::Response;

namespace {

/// The op a traced store load belongs to: set by Replayer::Prepare right
/// before PreparedCache::Lookup, which runs the second tier on the same
/// thread.
struct ReplayContext {
  SpanLog* log = nullptr;
  std::uint32_t parent = 0;
  std::uint64_t op = 0;
  int thread = 0;
};

ReplayContext& CurrentReplay() {
  thread_local ReplayContext context;
  return context;
}

struct ContextSpan {
  explicit ContextSpan(const char* name)
      : span(*CurrentReplay().log, name, CurrentReplay().parent,
             CurrentReplay().op, CurrentReplay().thread) {}
  ScopedSpan span;
};

const char* ExecuteSpanName(obda::serve::PlanKind plan) {
  switch (plan) {
    case obda::serve::PlanKind::kFoRewriting:
      return "prepared.execute.fo";
    case obda::serve::PlanKind::kDatalogRewriting:
      return "prepared.execute.datalog";
    case obda::serve::PlanKind::kSatGrounding:
      return "prepared.execute.sat";
  }
  return "prepared.execute";
}

const char* RootName(Verb verb) {
  switch (verb) {
    case Verb::kPrepare:
      return "op.prepare";
    case Verb::kQuery:
      return "op.query";
    case Verb::kMutate:
      return "op.mutate";
    case Verb::kAux:
      return "op.aux";
    case Verb::kSetup:
      return "op.setup";
  }
  return "op";
}

}  // namespace

void InstallTracedStoreLoader(
    obda::serve::Server& server,
    std::shared_ptr<const obda::store::ArtifactStore> store) {
  obda::serve::PrepareOptions prepare = server.options().prepare;
  // The same loader Server installs for ServerOptions::store, with each
  // store call inside a span.
  server.cache().SetSecondTier(
      [store, prepare](const obda::serve::CacheKey& key,
                       std::uint64_t content_hash)
          -> std::shared_ptr<obda::serve::PreparedQuery> {
        obda::base::Result<obda::serve::PlannedOmq> plan =
            obda::base::InvalidArgumentError("unset");
        {
          ContextSpan span("store.load_plan");
          plan = store->LoadPlan(key);
        }
        if (!plan.ok()) return nullptr;
        std::shared_ptr<const obda::ddlog::PreprocessSeed> seed;
        if (plan->tier == PlanTier::kSat || plan->tier == PlanTier::kSatRaw) {
          ContextSpan span("store.load_grounding");
          auto grounding = store->LoadGrounding(key, content_hash);
          if (grounding.ok()) seed = std::move(grounding->seed);
        }
        obda::serve::PrepareOptions opts = prepare;
        opts.planner.force = static_cast<PlanTier>(key.plan_mode);
        ContextSpan span("prepared.from_artifacts");
        auto built = obda::serve::PreparedQuery::FromArtifacts(
            std::move(plan).value(), opts, std::move(seed));
        if (!built.ok()) return nullptr;
        return std::move(built).value();
      });
}

std::string Replayer::Run(const Line& line, std::uint64_t op) {
  std::string text;
  {
    ScopedSpan root(log_, RootName(line.verb), 0, op, thread_);
    const Response response = Dispatch(line, root.id(), op);
    ScopedSpan render(log_, "serve.render", root.id(), op, thread_);
    text = obda::serve::Render(response);
  }
  return text;
}

Response Replayer::Dispatch(const Line& line, std::uint32_t root,
                            std::uint64_t op) {
  std::vector<std::string> tokens;
  {
    ScopedSpan span(log_, "serve.tokenize", root, op, thread_);
    tokens = obda::serve::Tokenize(line.text);
  }
  const std::string& cmd = tokens.at(0);
  if (cmd == "SCHEMA") {
    obda::data::Schema schema;
    for (std::size_t i = 1; i < tokens.size(); ++i) {
      obda::base::Status status =
          obda::serve::AddRelationSpec(tokens[i], schema);
      if (!status.ok()) return Response::Error(status);
    }
    session_ = std::make_unique<obda::serve::Session>(std::move(schema));
    return Response::Ok("relations=" +
                        std::to_string(session_->schema().NumRelations()));
  }
  if (cmd == "ONTOLOGY") {
    const std::string_view tail = obda::serve::TailAfter(line.text, 1);
    ScopedSpan span(log_, "dl.parse_ontology", root, op, thread_);
    auto parsed = obda::dl::ParseOntology(tail);
    if (!parsed.ok()) return Response::Error(parsed.status());
    ontology_ = std::move(parsed).value();
    ontology_text_ = std::string(tail);
    return Response::Ok();
  }
  if (session_ == nullptr) {
    return Response::Error(
        obda::base::InvalidArgumentError("no session: run SCHEMA first"));
  }
  if (cmd == "ASSERT" || cmd == "RETRACT") {
    obda::base::Result<std::vector<obda::data::Fact>> facts =
        obda::base::InvalidArgumentError("unset");
    {
      ScopedSpan span(log_, "data.parse_facts", root, op, thread_);
      facts = obda::data::ParseFacts(obda::serve::TailAfter(line.text, 1));
    }
    if (!facts.ok()) return Response::Error(facts.status());
    const bool assert_op = cmd == "ASSERT";
    std::size_t changed = 0;
    {
      ScopedSpan span(log_, "session.mutate", root, op, thread_);
      for (const obda::data::Fact& fact : *facts) {
        auto result =
            assert_op ? session_->Assert(fact) : session_->Retract(fact);
        if (!result.ok()) return Response::Error(result.status());
        if (*result) ++changed;
      }
    }
    return Response::Ok(std::string(assert_op ? "added=" : "removed=") +
                        std::to_string(changed) + " generation=" +
                        std::to_string(session_->generation()));
  }
  if (cmd == "PREPARE") return Prepare(tokens, line.text, root, op);
  if (cmd == "QUERY" && tokens.size() == 2) return Query(tokens[1], root, op);
  return Response::Error(
      obda::base::InvalidArgumentError("replay: unsupported line"));
}

Response Replayer::Prepare(const std::vector<std::string>& tokens,
                           const std::string& text, std::uint32_t root,
                           std::uint64_t op) {
  if (tokens.size() < 4) {
    return Response::Error(obda::base::InvalidArgumentError("PREPARE"));
  }
  const std::string& name = tokens[1];
  PlanTier forced = server_.options().prepare.planner.force;
  std::size_t kind_idx = 2;
  if (tokens[2] == "SAT") {
    forced = PlanTier::kSat;
    kind_idx = 3;
  } else if (tokens[2].rfind("PLAN=", 0) == 0) {
    auto tier = obda::serve::ParsePlanTier(tokens[2].substr(5));
    if (!tier.has_value()) {
      return Response::Error(obda::base::InvalidArgumentError("PLAN="));
    }
    forced = *tier;
    kind_idx = 3;
  }
  const std::string& kind = tokens.at(kind_idx);
  const std::string payload(
      obda::serve::TailAfter(text, static_cast<int>(kind_idx) + 1));
  if (kind == "PROGRAM") forced = PlanTier::kSat;

  obda::serve::CacheKey key;
  {
    ScopedSpan span(log_, "serve.cache_key", root, op, thread_);
    key = obda::serve::MakeCacheKey(session_->schema(), ontology_text_, kind,
                                    payload, forced, session_->num_facts());
  }
  std::shared_ptr<obda::serve::PreparedQuery> query;
  {
    ScopedSpan span(log_, "serve.cache_lookup", root, op, thread_);
    CurrentReplay() = ReplayContext{&log_, span.id(), op, thread_};
    query = server_.cache().Lookup(key, session_->content_hash());
  }
  const bool from_cache = query != nullptr;
  last_plan_.reset();
  last_omq_.reset();
  if (!from_cache) {
    obda::serve::PrepareOptions opts = server_.options().prepare;
    opts.planner.force = forced;
    obda::base::Result<std::shared_ptr<obda::serve::PreparedQuery>> built =
        obda::base::InvalidArgumentError("unset");
    if (kind == "PROGRAM") {
      obda::base::Result<obda::ddlog::Program> program =
          obda::base::InvalidArgumentError("unset");
      {
        ScopedSpan span(log_, "ddlog.parse_program", root, op, thread_);
        program = obda::ddlog::ParseProgram(session_->schema(), payload);
      }
      if (!program.ok()) return Response::Error(program.status());
      ScopedSpan span(log_, "prepared.from_program", root, op, thread_);
      built = obda::serve::PreparedQuery::FromProgram(
          std::move(program).value(), opts);
    } else {
      obda::base::Result<obda::core::OntologyMediatedQuery> omq =
          obda::base::InvalidArgumentError("unset");
      {
        ScopedSpan span(log_, "core.build_omq", root, op, thread_);
        omq = kind == "AQ"
                  ? obda::core::OntologyMediatedQuery::WithAtomicQuery(
                        session_->schema(), ontology_, payload)
                  : obda::core::OntologyMediatedQuery::WithBooleanAtomicQuery(
                        session_->schema(), ontology_, payload);
      }
      if (!omq.ok()) return Response::Error(omq.status());
      // PreparedQuery::FromOmq is exactly PlanOmq followed by adopting the
      // plan; split here so the two get separate spans.
      obda::serve::PlannerOptions popts = opts.planner;
      if (!opts.allow_rewriting && popts.force == PlanTier::kAuto) {
        popts.force = PlanTier::kSat;
      }
      obda::base::Result<obda::serve::PlannedOmq> planned =
          obda::base::InvalidArgumentError("unset");
      {
        ScopedSpan span(log_, "planner.plan_omq", root, op, thread_);
        planned = obda::serve::PlanOmq(*omq, popts, session_->num_facts());
      }
      if (!planned.ok()) return Response::Error(planned.status());
      last_plan_ = planned->explain;
      last_omq_ = *omq;
      ScopedSpan span(log_, "prepared.from_artifacts", root, op, thread_);
      built = obda::serve::PreparedQuery::FromArtifacts(
          std::move(planned).value(), opts);
    }
    if (!built.ok()) return Response::Error(built.status());
    query = std::move(built).value();
    server_.cache().Insert(key, query);
  }
  prepared_[name] = query;
  return Response::Ok(
      "plan=" + std::string(obda::serve::PlanKindName(query->plan())) +
      " tier=" + PlanTierName(query->tier()) +
      " cached=" + (from_cache ? "1" : "0") +
      " arity=" + std::to_string(query->arity()));
}

Response Replayer::Query(const std::string& name, std::uint32_t root,
                         std::uint64_t op) {
  auto it = prepared_.find(name);
  if (it == prepared_.end()) {
    return Response::Error(obda::base::NotFoundError("no such query"));
  }
  obda::serve::PreparedQuery& query = *it->second;
  auto promise = std::make_shared<std::promise<Response>>();
  std::future<Response> future = promise->get_future();
  obda::serve::Scheduler::Task task;
  task.request_id = server_.MintRequestId();
  const std::int64_t submitted = NowNs();
  task.run = [this, &query, promise, root, op, submitted] {
    Span wait;
    wait.id = SpanLog::NextId();
    wait.parent = root;
    wait.op = op;
    wait.name = "scheduler.queue_wait";
    wait.thread = thread_;
    wait.start_ns = submitted;
    wait.end_ns = NowNs();
    log_.Add(wait);
    obda::serve::Session& session = *session_;
    {
      const bool build = session.generation() != materialized_generation_;
      ScopedSpan span(log_, build ? "session.materialize" : "session.snapshot",
                      root, op, thread_);
      (void)session.Materialize();
      materialized_generation_ = session.generation();
    }
    obda::serve::ExecInfo info;
    obda::base::Result<obda::ddlog::Answers> answers =
        obda::base::InvalidArgumentError("unset");
    {
      ScopedSpan span(log_, ExecuteSpanName(query.plan()), root, op, thread_);
      answers = query.Execute(session, obda::serve::RequestBudget{}, &info);
    }
    ScopedSpan span(log_, "serve.encode_answers", root, op, thread_);
    if (!answers.ok()) {
      promise->set_value(Response::Error(answers.status()));
      return;
    }
    // serve::Server::Client::RunQuery's rendering.
    Response response = Response::Ok();
    if (query.arity() == 0) {
      response.payload.push_back(answers->tuples.empty() ? "false" : "true");
    } else {
      for (const auto& tuple : answers->tuples) {
        std::string line = "(";
        for (std::size_t i = 0; i < tuple.size(); ++i) {
          if (i > 0) line += ", ";
          line += obda::data::FormatConstant(
              info.instance->ConstantName(tuple[i]));
        }
        response.payload.push_back(line + ")");
      }
    }
    response.info = "n=" + std::to_string(answers->tuples.size()) +
                    " plan=" + obda::serve::PlanKindName(info.plan) +
                    " generation=" + std::to_string(info.generation) +
                    " grounded=" + (info.grounded ? "1" : "0") +
                    " delta=" + (info.delta ? "1" : "0");
    if (answers->inconsistent) response.info += " inconsistent=1";
    promise->set_value(std::move(response));
  };
  task.expired = [promise] {
    promise->set_value(Response::Error(
        obda::base::ResourceExhaustedError("deadline expired")));
  };
  obda::base::Status admitted;
  {
    ScopedSpan span(log_, "scheduler.submit", root, op, thread_);
    admitted = server_.scheduler().Submit(session_->id(), std::move(task));
  }
  if (!admitted.ok()) return Response::Error(admitted);
  return future.get();
}

double AttributeLadder(const obda::core::OntologyMediatedQuery& omq,
                       const obda::serve::PlanExplain& explain, SpanLog& log,
                       std::uint64_t op, int thread) {
  const obda::serve::PlannerOptions options;  // the planner's defaults
  auto has_event = [&](const std::string& event) {
    for (const std::string& e : explain.budget_events) {
      if (e == event) return true;
    }
    return false;
  };
  const std::int64_t start = NowNs();
  const bool forced = explain.chosen_by == obda::serve::PlanChoice::kForced;
  const bool sat_only = forced && (explain.tier == PlanTier::kSat ||
                                   explain.tier == PlanTier::kSatRaw);
  const bool want_fo = !forced || explain.tier == PlanTier::kFo;
  const bool want_datalog = !forced || explain.tier == PlanTier::kDatalog;
  if (want_fo && !sat_only && !has_event("fo:wall_budget")) {
    obda::base::Result<bool> fo = obda::base::InvalidArgumentError("unset");
    {
      ScopedSpan span(log, "core.fo_decide", 0, op, thread);
      fo = obda::core::IsFoRewritable(omq, options.max_template_elements);
    }
    if (fo.ok() && *fo && options.fo_validation_samples > 0) {
      obda::base::Result<obda::core::FoRewriting> extracted =
          obda::base::InvalidArgumentError("unset");
      {
        ScopedSpan span(log, "core.fo_extract", 0, op, thread);
        extracted = obda::core::ExtractFoRewriting(omq, options.obstruction);
      }
      if (extracted.ok()) {
        obda::base::Result<obda::csp::CoCspQuery> compiled =
            obda::base::InvalidArgumentError("unset");
        {
          ScopedSpan span(log, "core.compile", 0, op, thread);
          compiled =
              obda::core::CompileToCsp(omq, options.max_template_elements);
        }
        if (compiled.ok()) {
          ScopedSpan span(log, "core.fo_validate", 0, op, thread);
          const obda::csp::CoCspQuery oracle =
              compiled->ReduceToIncomparable();
          bool valid = true;
          for (int s = 0; valid && s < options.fo_validation_samples; ++s) {
            // The planner's deterministic validation samples.
            obda::base::Rng rng(0x0BDA'9000 + static_cast<std::uint64_t>(s));
            obda::data::RandomInstanceOptions sample_options;
            sample_options.num_constants = 8;
            sample_options.facts_per_relation = 12;
            const obda::data::Instance sample = obda::data::RandomInstance(
                omq.data_schema(), sample_options, rng);
            valid = extracted->Evaluate(sample) == oracle.Evaluate(sample);
          }
        }
      }
    }
  }
  if (want_datalog && !sat_only && !has_event("datalog:wall_budget")) {
    obda::base::Result<bool> datalog =
        obda::base::InvalidArgumentError("unset");
    {
      ScopedSpan span(log, "core.datalog_decide", 0, op, thread);
      datalog =
          obda::core::IsDatalogRewritable(omq, options.max_template_elements);
    }
    if (datalog.ok() && *datalog) {
      ScopedSpan span(log, "core.datalog_extract", 0, op, thread);
      (void)obda::core::ExtractDatalogRewriting(
          omq, options.max_canonical_elements);
    }
  }
  return static_cast<double>(NowNs() - start) / 1e6;
}

}  // namespace obdabench
