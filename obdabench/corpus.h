#ifndef OBDABENCH_CORPUS_H_
#define OBDABENCH_CORPUS_H_

// Seeded inputs of the three workloads. Everything here is protocol text:
// the program under test only ever sees SCHEMA / ONTOLOGY / ASSERT /
// PREPARE lines built from these specs.

#include <cstdint>
#include <string>
#include <vector>

#include "base/rng.h"
#include "data/io.h"

namespace obdabench {

/// One ontology-mediated query (or bare MDDlog program) together with the
/// data it is served against.
struct OmqSpec {
  /// Family label, stable across seeds ("fo3", "reach", "k3", "k4",
  /// "conp_aq", "program", "mix_fo", ...). Plan digests group by it.
  std::string family;
  /// Relation specs for the SCHEMA line, e.g. "qab12_A/1 qab12_R/2".
  std::string schema;
  /// ONTOLOGY payload ("" for PROGRAM specs).
  std::string ontology;
  /// "AQ", "BAQ" or "PROGRAM".
  std::string kind;
  /// Query concept, or the program text on one line.
  std::string payload;
  /// Optional tier modifier ("PLAN=datalog", "PLAN=sat"), "" = planner.
  std::string plan;
  /// The session's base facts.
  std::vector<obda::data::Fact> facts;
  /// Facts absent from `facts`, over constants already present, used for
  /// single-fact mutations (so the snapshot universe never changes).
  std::vector<obda::data::Fact> extra;
  /// prepare_cold: ASSERT+QUERY / RETRACT+QUERY pairs run on `extra[0]`.
  int write_pairs = 1;
};

/// `PREPARE <name> [plan] <kind> <payload>`.
std::string PrepareLine(const std::string& name, const OmqSpec& spec);
/// `ASSERT f1, f2, ...` (or RETRACT) over `facts`.
std::string FactsLine(const char* verb,
                      const std::vector<obda::data::Fact>& facts);

/// prepare_cold: `ColdCorpusSize()` never-seen OMQs, renamed per (seed,
/// pass) so no two share a cache key. The family composition is fixed;
/// the seed picks names, data and order.
std::vector<OmqSpec> ColdCorpus(std::uint64_t seed, int pass);
int ColdCorpusSize();
/// "family:count ..." of the cold corpus, for the human report.
std::string ColdCorpusComposition();

/// serve_mix: 48 distinct OMQs over one shared unary schema — 16
/// ontologies, each under the planner (lands on the fo tier), PLAN=datalog
/// and PLAN=sat. `facts`/`extra` are left empty: sessions are per client.
std::vector<OmqSpec> MixPool(std::uint64_t seed);
/// One client's session data: `base` facts over the pool schema and
/// `toggles` absent facts that its mutations flip. The structure is fixed
/// per client; the seed renames relations and constants.
void MixSessionData(std::uint64_t seed, int client,
                    std::vector<obda::data::Fact>* base,
                    std::vector<obda::data::Fact>* toggles);

/// mutation_churn: the E23 Phase D SAT-tier program over E/2 L/1 with
/// `kChurnFacts` E facts over `kChurnConstants` constants plus an L band;
/// `extra` holds the Zipf-ranked pool of E facts the mutations flip. The
/// seed renames the constants; the facts are the same on every seed.
inline constexpr int kChurnFacts = 100'000;
inline constexpr int kChurnConstants = 400;
inline constexpr int kChurnPool = 6;
OmqSpec ChurnSpec(std::uint64_t seed);

/// Zipf(s = 1) sampler over ranks [0, n).
class Zipf {
 public:
  explicit Zipf(int n);
  int Sample(obda::base::Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

}  // namespace obdabench

#endif  // OBDABENCH_CORPUS_H_
