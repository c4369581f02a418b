#include "columnar/csr_cache.h"

#include <utility>

#include "obs/trace.h"

namespace graphlog::columnar {

Result<std::shared_ptr<const Csr>> CsrCache::Get(
    const storage::Relation& rel, obs::MetricsRegistry* metrics,
    const gov::GovernorContext* governor) {
  const uint64_t uid = rel.uid();
  Stats call;  // this call's counters, folded into stats_ and exported
  std::shared_ptr<const Csr> csr;
  if (uid != 0) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = by_uid_.find(uid);
    if (it != by_uid_.end()) {
      const Csr& c = *it->second;
      if (c.source_data_generation == rel.data_generation() &&
          c.source_size == rel.size()) {
        call.reuses = 1;
        csr = it->second;
      } else {
        by_uid_.erase(it);
        call.invalidations = 1;
      }
    }
  }
  if (csr == nullptr) {
    const uint64_t t0 = obs::NowNs();
    GRAPHLOG_ASSIGN_OR_RETURN(Csr built, BuildCsr(rel, governor));
    csr = std::make_shared<const Csr>(std::move(built));
    call.builds = 1;
    call.build_ns = obs::NowNs() - t0;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    obs::FoldCounters(kCounters, call, &stats_);
    if (uid != 0 && call.builds != 0) by_uid_[uid] = csr;
  }
  obs::ExportCounters(kCounters, call, metrics);
  return csr;
}

CsrCache::Stats CsrCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void CsrCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  by_uid_.clear();
}

size_t CsrCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return by_uid_.size();
}

}  // namespace graphlog::columnar
