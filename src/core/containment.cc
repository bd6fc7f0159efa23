#include "core/containment.h"

#include <algorithm>
#include <functional>

#include "base/check.h"
#include "core/csp_translation.h"
#include "csp/query.h"
#include "obs/metrics.h"

namespace obda::core {

namespace {

/// Registry handles for the containment deciders.
struct ContainmentCounters {
  obs::Counter& csp_calls = obs::GetCounter("containment.csp_calls");
  obs::Counter& bounded_calls = obs::GetCounter("containment.bounded_calls");
  /// Candidate instances enumerated by the bounded decider.
  obs::Counter& candidates = obs::GetCounter("containment.candidates");
  /// Certain-answer oracle invocations (two per surviving candidate).
  obs::Counter& oracle_calls = obs::GetCounter("containment.oracle_calls");
  obs::TimerStat& compile = obs::GetTimer("containment.compile");
  obs::TimerStat& decide = obs::GetTimer("containment.decide");
  obs::TimerStat& bounded = obs::GetTimer("containment.bounded");

  static ContainmentCounters& Get() {
    static ContainmentCounters counters;
    return counters;
  }
};

}  // namespace

base::Result<bool> OmqContained(const OntologyMediatedQuery& q1,
                                const OntologyMediatedQuery& q2) {
  obs::TraceSpan span("containment.csp");
  ContainmentCounters::Get().csp_calls.Add(1);
  if (!q1.data_schema().LayoutCompatible(q2.data_schema())) {
    return base::InvalidArgumentError(
        "containment requires a common data schema");
  }
  if (q1.arity() != q2.arity()) {
    return base::InvalidArgumentError("arity mismatch");
  }
  auto csp1 = [&] {
    obs::ScopedTimer timer(ContainmentCounters::Get().compile);
    return CompileToCsp(q1);
  }();
  if (!csp1.ok()) return csp1.status();
  auto csp2 = [&] {
    obs::ScopedTimer timer(ContainmentCounters::Get().compile);
    return CompileToCsp(q2);
  }();
  if (!csp2.ok()) return csp2.status();
  obs::ScopedTimer timer(ContainmentCounters::Get().decide);
  return csp::CoCspContained(*csp1, *csp2);
}

namespace {

/// Enumerates all instances over `schema` with exactly `num_elements`
/// elements and at most `max_facts` facts, invoking `visit`; stops early
/// when `visit` returns false.
bool EnumerateInstances(
    const data::Schema& schema, int num_elements, int max_facts,
    const std::function<bool(const data::Instance&)>& visit) {
  // All possible facts.
  struct FactTemplate {
    data::RelationId rel;
    std::vector<data::ConstId> args;
  };
  std::vector<FactTemplate> all_facts;
  for (data::RelationId r = 0; r < schema.NumRelations(); ++r) {
    const int arity = schema.Arity(r);
    std::vector<data::ConstId> args(static_cast<std::size_t>(arity), 0);
    for (;;) {
      all_facts.push_back(FactTemplate{r, args});
      int pos = arity - 1;
      while (pos >= 0 &&
             ++args[pos] == static_cast<data::ConstId>(num_elements)) {
        args[pos] = 0;
        --pos;
      }
      if (pos < 0) break;
      if (arity == 0) break;
    }
    if (arity == 0) all_facts.pop_back();  // 0-ary enumerated once below
  }
  // Choose subsets of facts up to max_facts (combinations).
  std::vector<int> chosen;
  std::function<bool(std::size_t)> recurse = [&](std::size_t start) {
    {
      data::Instance d(schema);
      for (int i = 0; i < num_elements; ++i) {
        d.AddConstant("e" + std::to_string(i));
      }
      for (int f : chosen) {
        d.AddFact(all_facts[f].rel, all_facts[f].args);
      }
      if (!visit(d)) return false;
    }
    if (static_cast<int>(chosen.size()) == max_facts) return true;
    for (std::size_t f = start; f < all_facts.size(); ++f) {
      chosen.push_back(static_cast<int>(f));
      if (!recurse(f + 1)) return false;
      chosen.pop_back();
    }
    return true;
  };
  return recurse(0);
}

}  // namespace

base::Result<ContainmentVerdict> OmqContainedBounded(
    const OntologyMediatedQuery& q1, const OntologyMediatedQuery& q2,
    const ContainmentOptions& options) {
  ContainmentCounters& counters = ContainmentCounters::Get();
  obs::ScopedTimer bounded_timer(counters.bounded);
  obs::TraceSpan span("containment.bounded");
  counters.bounded_calls.Add(1);
  if (!q1.data_schema().LayoutCompatible(q2.data_schema())) {
    return base::InvalidArgumentError(
        "containment requires a common data schema");
  }
  if (q1.arity() != q2.arity()) {
    return base::InvalidArgumentError("arity mismatch");
  }
  dl::BoundedModelOptions bounded;
  bounded.extra_elements = options.extra_elements;

  base::Status failure = base::Status::Ok();
  bool contained = true;
  for (int n = 1; n <= options.max_elements && contained; ++n) {
    bool completed = EnumerateInstances(
        q1.data_schema(), n, options.max_facts,
        [&](const data::Instance& d) {
          counters.candidates.Add(1);
          counters.oracle_calls.Add(1);
          auto a1 = q1.CertainAnswersBounded(d, bounded);
          if (!a1.ok()) {
            failure = a1.status();
            return false;
          }
          counters.oracle_calls.Add(1);
          auto a2 = q2.CertainAnswersBounded(d, bounded);
          if (!a2.ok()) {
            failure = a2.status();
            return false;
          }
          for (const auto& tuple : *a1) {
            if (std::find(a2->begin(), a2->end(), tuple) == a2->end()) {
              contained = false;
              return false;
            }
          }
          return true;
        });
    if (!completed && failure.ok() && !contained) break;
    if (!failure.ok()) return failure;
  }
  return contained ? ContainmentVerdict::kContainedWithinBound
                   : ContainmentVerdict::kNotContained;
}

}  // namespace obda::core
