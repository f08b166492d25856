// Integer feasibility and projection for affine constraint systems.
//
// This is the stand-in for the Omega tool-kit [11] the paper uses: an
// implementation of Pugh's Omega test. `integer_feasible` is exact —
// normalization with GCD tightening, integer equality elimination via
// the symmetric-mod substitution, Fourier–Motzkin with exact/dark
// shadows and splintering when shadows disagree. `eliminate_var_real`
// and `project_onto` perform rational FM with integer tightening, used
// for loop-bound generation (§5.5) where conservative projection is
// the right tool.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "linalg/constraint.hpp"

namespace inlt {

/// Memo table for `eliminate_var_real`, keyed by a 64-bit hash of the
/// normalized encoding of (constraint system, eliminated variable).
/// Every hit verifies the full key (structural equality of the stored
/// system) before being served, so hash collisions can never leak a
/// wrong projection — the stored value is exactly what the uncached
/// computation produced, and a hit is bit-identical to a
/// recomputation. Thread-safe; shared by the worker threads of
/// TransformSession::search().
class ProjectionCache {
 public:
  using Hasher = std::uint64_t (*)(const ConstraintSystem&, int);

  ProjectionCache() = default;
  /// Test seam: substitute a (possibly degenerate) hash function. All
  /// lookups still verify the full key, so results stay exact even
  /// under a constant hash.
  explicit ProjectionCache(Hasher hasher) : hash_(hasher) {}

  /// 64-bit FNV-1a over var names, equalities, inequalities and the
  /// eliminated variable's index — no string serialization.
  static std::uint64_t hash_key(const ConstraintSystem& cs, int var_idx);

  std::optional<ConstraintSystem> find(const ConstraintSystem& cs,
                                       int var_idx) const;
  void insert(const ConstraintSystem& cs, int var_idx,
              const ConstraintSystem& value);

  size_t size() const;
  void clear();

 private:
  struct Entry {
    ConstraintSystem key;
    int var_idx;
    ConstraintSystem value;
  };
  mutable std::mutex mu_;
  // Hash -> entries sharing it (verified by full-key comparison).
  std::unordered_map<std::uint64_t, std::vector<Entry>> buckets_;
  size_t size_ = 0;
  Hasher hash_ = &hash_key;
};

/// Install `cache` as the elimination memo for the current thread;
/// returns the previously installed cache (nullptr if none). While a
/// cache is installed, `eliminate_var_real` consults it and records
/// hits/misses on the global Stats ("fm.cache_hits"/"fm.cache_misses").
ProjectionCache* set_projection_cache(ProjectionCache* cache);

/// RAII install/restore of the thread's projection cache.
class ScopedProjectionCache {
 public:
  explicit ScopedProjectionCache(ProjectionCache* cache)
      : prev_(set_projection_cache(cache)) {}
  ~ScopedProjectionCache() { set_projection_cache(prev_); }
  ScopedProjectionCache(const ScopedProjectionCache&) = delete;
  ScopedProjectionCache& operator=(const ScopedProjectionCache&) = delete;

 private:
  ProjectionCache* prev_;
};

/// Exact: does the system have an integer solution?
bool integer_feasible(const ConstraintSystem& cs);

/// Rational Fourier–Motzkin elimination of one variable, with GCD
/// normalization of the results. The output is implied by the input
/// (every integer solution of the input maps to one of the output);
/// it may admit extra integer points when coefficients exceed 1.
ConstraintSystem eliminate_var_real(const ConstraintSystem& cs, int var_idx);

/// Project onto the named subset of variables (in the given order),
/// eliminating all others with eliminate_var_real. Equalities whose
/// support is entirely within `keep` are preserved as equalities.
ConstraintSystem project_onto(const ConstraintSystem& cs,
                              const std::vector<int>& keep);

/// Normalize in place: GCD-tighten, drop tautologies, deduplicate.
/// Returns false if a constraint is unsatisfiable on its face
/// (0 >= positive, or an equality failing the GCD test).
bool normalize_system(ConstraintSystem& cs);

}  // namespace inlt
