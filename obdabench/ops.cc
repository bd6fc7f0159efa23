#include "ops.h"

#include <algorithm>
#include <string_view>

#include "trace.h"

namespace obdabench {

void AnswerLog::Add(int omq, int state, bool digest,
                    const std::string& response) {
  // Keep the answer lines and the OK of the terminator, not its info
  // (timings and execution flags vary from call to call).
  std::string_view kept = response;
  const std::size_t last =
      response.size() < 2 ? 0 : response.rfind('\n', response.size() - 2) + 1;
  if (response.compare(last, 2, "OK") == 0) kept = kept.substr(0, last + 2);
  const Key key{omq, state};
  std::vector<Variant>& variants = variants_[key];
  std::size_t i = 0;
  while (i < variants.size() && variants[i].response != kept) ++i;
  if (i == variants.size()) {
    if (variants.size() == kMaxVariants) {
      ++overflow_;
      return;
    }
    variants.push_back(Variant{std::string(kept), 0});
  }
  ++variants[i].count;
  if (digest) digest_order_.emplace_back(key, i);
}

// Fixed reservoir seeds: which samples a full reservoir keeps must not
// depend on anything but the op stream.
Samples::Samples(std::size_t query_capacity, std::size_t other_capacity)
    : query_ms(query_capacity, 1),
      ttfa_ms(other_capacity, 2),
      reprepare_ms(other_capacity, 3),
      fresh_ms(other_capacity, 4) {}

void OpTimer::Fail(const Line& line, const std::string& response) {
  ++samples_->failed;
  if (samples_->errors.size() < 8) {
    samples_->errors.push_back(line.text.substr(0, 80) + " -> " +
                               response.substr(0, 160));
  }
}

std::string OpTimer::Run(const Line& line, const Exec& exec) {
  const std::int64_t t0 = NowNs();
  std::string response = exec(line);
  const std::int64_t t1 = NowNs();
  const bool err = response.rfind("ERR", 0) == 0 ||
                   response.find("\nERR") != std::string::npos;
  const double ms = static_cast<double>(t1 - t0) / 1e6;
  last_ms_ = ms;
  last_ttfa_ms_ = last_fresh_ms_ = -1;
  // The log is this client's own; only the samples are shared.
  if (line.verb == Verb::kQuery && !err) {
    answers_->Add(line.omq, line.state, line.digest, response);
  }
  std::lock_guard<std::mutex> lock(samples_->mu);
  if (line.verb == Verb::kSetup) {
    if (err) Fail(line, response);
    return response;
  }
  ++samples_->attempted;
  samples_->timed_ms += ms;
  if (err) {
    Fail(line, response);
    return response;
  }
  switch (line.verb) {
    case Verb::kPrepare: {
      const bool cached = response.find(" cached=1") != std::string::npos;
      if (cached == line.expect_cold) {
        Fail(line, response);
        break;
      }
      if (!line.expect_cold) samples_->reprepare_ms.Add(ms);
      prepare_start_[line.slot] = t0;
      break;
    }
    case Verb::kQuery: {
      if (response.find(" grounded=0 delta=0") != std::string::npos) {
        ++samples_->hot_queries;
      }
      auto it = prepare_start_.find(line.slot);
      if (it != prepare_start_.end()) {
        last_ttfa_ms_ = static_cast<double>(t1 - it->second) / 1e6;
        samples_->ttfa_ms.Add(last_ttfa_ms_);
        prepare_start_.erase(it);
      }
      if (mutation_start_ >= 0) {
        last_fresh_ms_ = static_cast<double>(t1 - mutation_start_) / 1e6;
        samples_->fresh_ms.Add(last_fresh_ms_);
        mutation_start_ = -1;
      }
      samples_->query_ms.Add(ms);
      break;
    }
    case Verb::kMutate:
      if (mutation_start_ < 0) mutation_start_ = t0;
      break;
    default:
      break;
  }
  return response;
}

void ObsDelta::Begin() { before_ = obda::obs::MetricsRegistry::Global().Snap(); }
void ObsDelta::End() { after_ = obda::obs::MetricsRegistry::Global().Snap(); }

namespace {

template <typename T>
const T* Find(const std::vector<T>& items, const std::string& name) {
  for (const T& item : items) {
    if (item.name == name) return &item;
  }
  return nullptr;
}

}  // namespace

double ObsDelta::Counter(const std::string& name) const {
  const auto* a = Find(after_.counters, name);
  const auto* b = Find(before_.counters, name);
  return static_cast<double>((a ? a->value : 0) - (b ? b->value : 0));
}

double ObsDelta::TimerMs(const std::string& name) const {
  const auto* a = Find(after_.timers, name);
  const auto* b = Find(before_.timers, name);
  return (a ? a->total_millis : 0) - (b ? b->total_millis : 0);
}

std::uint64_t ObsDelta::TimerCount(const std::string& name) const {
  const auto* a = Find(after_.timers, name);
  const auto* b = Find(before_.timers, name);
  return (a ? a->count : 0) - (b ? b->count : 0);
}

obda::obs::Histogram::Snapshot ObsDelta::Histogram(
    const std::string& name) const {
  obda::obs::Histogram::Snapshot out;
  const auto* a = Find(after_.histograms, name);
  const auto* b = Find(before_.histograms, name);
  if (a == nullptr) return out;
  out = a->data;
  if (b != nullptr) {
    out.count -= b->data.count;
    out.total -= b->data.total;
    for (int i = 0; i < obda::obs::Histogram::kBuckets; ++i) {
      out.buckets[i] -= b->data.buckets[i];
    }
  }
  return out;
}

}  // namespace obdabench
