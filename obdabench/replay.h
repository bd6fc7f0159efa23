#ifndef OBDABENCH_REPLAY_H_
#define OBDABENCH_REPLAY_H_

// The layer-decomposed replay behind the traced run. It executes the same
// protocol lines as Server::Client::HandleLine, but calls each layer's
// public functions itself and records a span around every call: one root
// span per op, with children for serve::Tokenize, Session::Assert/Retract,
// Session::Materialize, MakeCacheKey, PreparedCache::Lookup (and, through
// a span-wrapping second tier, ArtifactStore::LoadPlan/LoadGrounding),
// PlanOmq, PreparedQuery::FromArtifacts/FromProgram, Scheduler::Submit,
// the queue wait, PreparedQuery::Execute and serve::Render.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "core/omq.h"
#include "dl/ontology.h"
#include "ops.h"
#include "serve/planner.h"
#include "serve/server.h"
#include "serve/session.h"
#include "trace.h"

namespace obda::store {
class ArtifactStore;
}  // namespace obda::store

namespace obdabench {

/// Installs on `server` a second-tier loader that does what the server's
/// own store loader does, wrapped in spans (attributed to the calling
/// thread's current op).
void InstallTracedStoreLoader(
    obda::serve::Server& server,
    std::shared_ptr<const obda::store::ArtifactStore> store);

class Replayer {
 public:
  Replayer(obda::serve::Server& server, SpanLog& log, int thread)
      : server_(server), log_(log), thread_(thread) {}

  /// Executes one line; returns the rendered response (as HandleLine
  /// would). Timed lines get a root span tagged with `op`.
  std::string Run(const Line& line, std::uint64_t op);

  /// The planner record and OMQ of the last PREPARE that compiled (the
  /// input of the ladder attribution), cleared by the next PREPARE.
  const std::optional<obda::serve::PlanExplain>& last_plan() const {
    return last_plan_;
  }
  const std::optional<obda::core::OntologyMediatedQuery>& last_omq() const {
    return last_omq_;
  }

 private:
  obda::serve::Response Dispatch(const Line& line, std::uint32_t root,
                                 std::uint64_t op);
  obda::serve::Response Prepare(const std::vector<std::string>& tokens,
                                const std::string& text, std::uint32_t root,
                                std::uint64_t op);
  obda::serve::Response Query(const std::string& name, std::uint32_t root,
                              std::uint64_t op);

  obda::serve::Server& server_;
  SpanLog& log_;
  const int thread_;
  std::unique_ptr<obda::serve::Session> session_;
  std::string ontology_text_;
  obda::dl::Ontology ontology_;
  std::map<std::string, std::shared_ptr<obda::serve::PreparedQuery>>
      prepared_;
  std::uint64_t materialized_generation_ = ~std::uint64_t{0};
  std::optional<obda::serve::PlanExplain> last_plan_;
  std::optional<obda::core::OntologyMediatedQuery> last_omq_;
};

/// Re-runs, one by one and each inside its own span, the admission-ladder
/// steps `explain` says PlanOmq ran for `omq` (core::IsFoRewritable,
/// ExtractFoRewriting, CompileToCsp + sample validation,
/// IsDatalogRewritable, ExtractDatalogRewriting), with the planner's
/// default budgets. Returns the summed step time in ms.
double AttributeLadder(const obda::core::OntologyMediatedQuery& omq,
                       const obda::serve::PlanExplain& explain, SpanLog& log,
                       std::uint64_t op, int thread);

}  // namespace obdabench

#endif  // OBDABENCH_REPLAY_H_
