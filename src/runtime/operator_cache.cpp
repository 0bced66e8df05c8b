#include "runtime/operator_cache.hpp"

#include "dsp/steering.hpp"
#include "sparse/power.hpp"

namespace roarray::runtime {

OperatorKey OperatorKey::of(const dsp::Grid& aoa_grid, const dsp::Grid& toa_grid,
                            const dsp::ArrayConfig& array_cfg) {
  OperatorKey k;
  k.aoa_lo = aoa_grid.lo();
  k.aoa_hi = aoa_grid.hi();
  k.aoa_n = aoa_grid.size();
  k.toa_lo = toa_grid.lo();
  k.toa_hi = toa_grid.hi();
  k.toa_n = toa_grid.size();
  k.antennas = array_cfg.num_antennas;
  k.subcarriers = array_cfg.num_subcarriers;
  k.spacing_over_wavelength = array_cfg.spacing_over_wavelength();
  k.subcarrier_spacing_hz = array_cfg.subcarrier_spacing_hz;
  return k;
}

std::shared_ptr<const CachedOperator> build_cached_operator(
    const dsp::Grid& aoa_grid, const dsp::Grid& toa_grid,
    const dsp::ArrayConfig& array_cfg) {
  array_cfg.validate();
  auto entry = std::make_shared<CachedOperator>(CachedOperator{
      sparse::KroneckerOperator(dsp::steering_matrix_aoa(aoa_grid, array_cfg),
                                dsp::steering_matrix_toa(toa_grid, array_cfg)),
      0.0});
  entry->norm_sq = sparse::operator_norm_sq(entry->op);
  return entry;
}

std::shared_ptr<const CachedOperator> OperatorCache::get(
    const dsp::Grid& aoa_grid, const dsp::Grid& toa_grid,
    const dsp::ArrayConfig& array_cfg) {
  const OperatorKey key = OperatorKey::of(aoa_grid, toa_grid, array_cfg);
  MutexLock lk(mutex_);
  auto it = entries_.find(key);
  if (it != entries_.end()) return it->second;
  // Build under the lock: first-touch stalls siblings briefly but
  // guarantees exactly one instance per key.
  auto entry = build_cached_operator(aoa_grid, toa_grid, array_cfg);
  entries_.emplace(key, entry);
  return entry;
}

std::shared_ptr<const CachedOperator> OperatorCache::get_coarse(
    const dsp::Grid& fine_aoa_grid, const dsp::Grid& fine_toa_grid,
    const dsp::ArrayConfig& array_cfg, const sparse::CoarseFineConfig& cf) {
  return get(sparse::decimate_grid(fine_aoa_grid, cf.aoa_decimation),
             sparse::decimate_grid(fine_toa_grid, cf.toa_decimation),
             array_cfg);
}

std::size_t OperatorCache::size() const {
  MutexLock lk(mutex_);
  return entries_.size();
}

void OperatorCache::clear() {
  MutexLock lk(mutex_);
  entries_.clear();
}

}  // namespace roarray::runtime
