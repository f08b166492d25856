#include "pipeline/search.hpp"

#include <atomic>
#include <chrono>
#include <limits>
#include <sstream>

#include "dependence/direction.hpp"
#include "pipeline/candidate.hpp"
#include "support/check.hpp"
#include "support/stats.hpp"
#include "support/trace.hpp"
#include "transform/exact_legality.hpp"
#include "transform/incremental.hpp"
#include "transform/parallel.hpp"
#include "transform/target_deps.hpp"

namespace inlt {

std::string RejectionBreakdown::to_text(const DependenceSet& deps) const {
  std::ostringstream os;
  os << "rejected candidates: " << rejected << "\n";
  os << "  by dependence:\n";
  for (size_t d = 0; d < by_dependence.size(); ++d) {
    if (by_dependence[d] == 0) continue;
    const Dependence& dep = deps.deps[d];
    os << "    [" << d << "] " << dep_kind_name(dep.kind) << " " << dep.src
       << " -> " << dep.dst << " " << dep_to_string(dep.vector) << ": "
       << by_dependence[d] << "\n";
  }
  os << "  by row:\n";
  for (size_t r = 0; r + 1 < by_row.size(); ++r)
    if (by_row[r] != 0) os << "    row " << r << ": " << by_row[r] << "\n";
  if (!by_row.empty() && by_row.back() != 0)
    os << "    completion: " << by_row.back() << "\n";
  return os.str();
}

PermutationSkewGenerator::PermutationSkewGenerator(const IvLayout& layout,
                                                   SearchSpace space)
    : layout_(layout),
      space_(space),
      slots_(layout.all_loop_positions()),
      used_(slots_.size(), 0) {
  INLT_CHECK_MSG(space_.skew_bound >= 0, "negative skew bound");
  INLT_CHECK_MSG(space_.skew_depth >= 0, "negative skew depth");
}

int PermutationSkewGenerator::num_slots() const {
  return static_cast<int>(slots_.size());
}

int PermutationSkewGenerator::skew_window(int depth) const {
  return std::min(depth, space_.skew_depth);
}

i64 PermutationSkewGenerator::num_options(int depth) const {
  i64 n = static_cast<i64>(slots_.size()) - depth;  // unplaced variables
  i64 base = 2 * space_.skew_bound + 1;
  for (int w = skew_window(depth); w > 0; --w) n = checked_mul(n, base);
  return n;
}

int PermutationSkewGenerator::unused_at(i64 var_choice) const {
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (used_[i]) continue;
    if (var_choice-- == 0) return static_cast<int>(i);
  }
  INLT_CHECK_MSG(false, "option index out of range");
  return -1;
}

IntVec PermutationSkewGenerator::row(i64 k) const {
  int depth = static_cast<int>(chosen_.size());
  int window = skew_window(depth);
  i64 base = 2 * space_.skew_bound + 1;
  i64 nskew = 1;
  for (int w = 0; w < window; ++w) nskew *= base;
  INLT_CHECK(k >= 0 && k < num_options(depth));
  i64 var_choice = k / nskew;
  i64 combo = k % nskew;

  IntVec r(layout_.size(), 0);
  r[slots_[unused_at(var_choice)]] = 1;
  // Skew coefficients for the window of most recently placed
  // variables, earliest slot's digit most significant.
  for (int w = 0; w < window; ++w) {
    nskew /= base;
    i64 c = combo / nskew - space_.skew_bound;
    combo %= nskew;
    int s = depth - window + w;  // slot whose variable we skew against
    r[slots_[chosen_[s]]] += c;
  }
  return r;
}

void PermutationSkewGenerator::push(i64 k) {
  int window = skew_window(static_cast<int>(chosen_.size()));
  i64 base = 2 * space_.skew_bound + 1;
  i64 nskew = 1;
  for (int w = 0; w < window; ++w) nskew *= base;
  int slot = unused_at(k / nskew);
  used_[slot] = 1;
  chosen_.push_back(slot);
}

void PermutationSkewGenerator::pop() {
  INLT_CHECK(!chosen_.empty());
  used_[chosen_.back()] = 0;
  chosen_.pop_back();
}

std::vector<IntMat> materialize_candidates(const IvLayout& layout,
                                           CandidateGenerator& gen) {
  std::vector<IntMat> out;
  IntMat m = IntMat::identity(layout.size());
  std::vector<int> slots = layout.all_loop_positions();
  INLT_CHECK(static_cast<int>(slots.size()) == gen.num_slots());

  std::function<void(int)> rec = [&](int depth) {
    if (depth == gen.num_slots()) {
      out.push_back(m);
      return;
    }
    for (i64 k = 0; k < gen.num_options(depth); ++k) {
      IntVec r = gen.row(k);
      for (int j = 0; j < layout.size(); ++j) m(slots[depth], j) = r[j];
      gen.push(k);
      rec(depth + 1);
      gen.pop();
    }
  };
  rec(0);
  return out;
}

SearchResult TransformSession::search(CandidateGenerator& gen,
                                      const SearchOptions& sopts) {
  const int nslots = gen.num_slots();
  INLT_CHECK_MSG(nslots == static_cast<int>(layout_->all_loop_positions().size()),
                 "generator slot count does not match the layout");
  INLT_CHECK_MSG(sopts.progress_interval > 0,
                 "progress_interval must be positive");
  INLT_CHECK_MSG(sopts.top_k >= 0, "top_k must be non-negative");
  // Hull prefixes cannot prune exact-mode candidates: the ILP test
  // accepts matrices the hull rejects, so in exact mode the engine is
  // bypassed and every candidate is evaluated.
  const bool prune = !opts_.exact;
  const bool full = sopts.mode == SearchMode::kFull;
  const bool cost = sopts.cost || sopts.top_k > 0;
  if (prune && !engine_)
    engine_ = std::make_unique<IncrementalLegality>(*layout_, deps_);

  ScopedSpan run_span("search.run", "search");
  const auto t0 = std::chrono::steady_clock::now();

  // Exact subtree sizes per depth (prefix-independent by the
  // generator contract) — what index arithmetic under pruning uses.
  std::vector<i64> leaves_below(nslots + 1, 1);
  for (int d = nslots; d-- > 0;)
    leaves_below[d] = checked_mul(leaves_below[d + 1], gen.num_options(d));

  IntMat m = IntMat::identity(layout_->size());
  const std::vector<int>& slots = layout_->all_loop_positions();
  // Layout position -> slot index, for converting a legality
  // diagnostic's deciding row into a by_row bucket.
  std::vector<int> pos_to_slot(layout_->size(), -1);
  for (int s = 0; s < nslots; ++s) pos_to_slot[slots[s]] = s;

  CandidateAccumulator acc(deps_.deps.size(), nslots, pos_to_slot, sopts);
  acc.stats().candidates_total = leaves_below[0];

  // -- pipeline configuration ---------------------------------------
  // Full mode, the legality-only filter and rank mode are the same
  // stage list with different members: which stages exist and what
  // each runs is decided here, once, instead of being interleaved
  // with the walk.
  std::optional<VerifyReference> ref;  // outlives the kVerify stage
  // One AST skeleton per search. NewAST (Fig 6) reads only M's edge
  // rows, and the walk writes only loop-slot rows of the identity, so
  // recover_ast gives every candidate this same skeleton. The exact
  // legality, cost, tile and verify stages read it.
  std::optional<AstRecovery> skeleton;
  if (cost || full || !prune)
    skeleton.emplace(recover_ast(*layout_, IntMat::identity(layout_->size())));
  // Inter-stage scratch, built on first use by whichever deferred
  // stage needs it: the target-space dependences M·D that the cost,
  // tile and verify stages share.
  auto target_deps = [this, &skeleton](Candidate& c) -> const DependenceSet& {
    if (!c.target_deps)
      c.target_deps.emplace(
          target_dependences(*layout_, deps_, c.matrix, *skeleton));
    return *c.target_deps;
  };
  CandidatePipeline pipe;
  if (prune) {
    // The engine's full-depth verdict IS the hull legality test
    // (test_incremental proves the equivalence); in full mode the
    // codegen stage rebuilds the result from scratch anyway, so the
    // leaf verdict records only the flag.
    if (full) {
      pipe.add(StageKind::kLegality, /*deferred=*/false,
               [](Candidate& c) { c.result.legal = true; });
    } else {
      pipe.add(StageKind::kLegality, /*deferred=*/false, [this](Candidate& c) {
        c.result.legal = true;
        c.result.legality.unsatisfied = engine_->current_unsatisfied();
      });
    }
  } else if (!full) {
    // Exact filter mode: decide legality by the ILP test at the leaf,
    // skipping plan/build/simplify.
    pipe.add(StageKind::kLegality, /*deferred=*/false,
             [this, &skeleton](Candidate& c) {
      ScopedProjectionCache install(&cache_);
      c.result.legal = check_legality_exact(*layout_, c.matrix, *skeleton,
                                            opts_.codegen.pad)
                           .legal();
      c.rejected = !c.result.legal;
    });
  }
  // (Exact full mode has no standalone legality stage: the ILP
  // verdict is produced inside codegen by generate_code_exact.)
  // One cost model per search: its N_S memo is shared by every
  // candidate's kCost stage and freed when the search returns.
  std::optional<CostModel> model;
  if (cost) {
    ModelOptions mopts = sopts.model;
    mopts.pad = opts_.codegen.pad;
    mopts.exec_threads = sopts.exec_threads;
    model.emplace(*layout_, mopts);
    // Rank mode scores first and builds the full estimate (M·D, the
    // parallel schedule, per-reference costs) only for a candidate
    // whose score is below the worst kept hit. That is exact: the
    // bound only falls, and a candidate settles after every one
    // already kept, so one not below the bound could neither beat the
    // worst hit nor win a tie (DESIGN.md, "Rank by score"). A sink
    // sees every hit, so with one set every hit gets the estimate.
    const bool bounded = sopts.top_k > 0 && !sopts.sink;
    pipe.add(StageKind::kCost, /*deferred=*/true,
             [&model, &skeleton, &acc, bounded, target_deps](Candidate& c) {
               try {
                 if (bounded && !(model->lines(c.matrix, *skeleton) <
                                  acc.bound()))
                   return;
                 c.cost.emplace(
                     model->estimate(c.matrix, *skeleton, target_deps(c)));
               } catch (const Error&) {
                 // Unrankable, not illegal: the hit survives with no
                 // estimate and sorts after every scored one.
               }
             });
  }
  if (full) {
    pipe.add(StageKind::kCodegen, /*deferred=*/true, [this](Candidate& c) {
      c.result = evaluate_impl(c.matrix, &c.plans);
      c.rejected = !c.result.legal;
    });
    if (sopts.tile) {
      const TileOptions topts = sopts.tile_opts;
      ModelOptions tmopts = sopts.model;
      // M·D is the generated program's dependence set only under the
      // diagonal padding both the analyzer and codegen default to.
      const bool derive = opts_.analyzer.pad == PadMode::kDiagonal &&
                          opts_.codegen.pad == PadMode::kDiagonal;
      std::atomic<i64>* fallbacks =
          &Stats::global().counter("tile.reanalysis_fallbacks");
      pipe.add(StageKind::kTile, /*deferred=*/true,
               [this, topts, tmopts, derive, fallbacks, &skeleton,
                target_deps](Candidate& c) {
                 if (!(c.result.legal && c.result.program)) return;
                 try {
                   const Program& generated = *c.result.program;
                   const IvLayout layout(generated);
                   std::optional<DependenceSet> deps;
                   if (derive)
                     deps = generated_dependences(
                         *layout_, deps_, c.matrix, *skeleton,
                         target_deps(c), c.plans, layout);
                   TiledProgram tp;
                   if (deps) {
                     tp = apply_tile(layout, *deps, topts, tmopts);
                   } else {
                     // Reconstruction loops, a subtree simplify
                     // deleted, or a non-diagonal pad: analyze the
                     // generated program, under the session's
                     // projection memo like codegen.
                     if (analysis_blocker(generated).empty())
                       fallbacks->fetch_add(1, std::memory_order_relaxed);
                     ScopedProjectionCache install(&cache_);
                     tp = apply_tile(generated, topts, tmopts);
                   }
                   if (tp.program) c.result.program = std::move(*tp.program);
                   c.tile.emplace(std::move(tp.plan));
                 } catch (const Error& e) {
                   // Per-candidate structural mismatch (e.g. a band
                   // index valid for one candidate's shape but not
                   // another's): keep the untiled program, record why.
                   TilePlan failed;
                   failed.note = e.what();
                   c.tile.emplace(std::move(failed));
                 }
               });
    }
    if (!sopts.verify_params.empty()) {
      const int exec_threads = sopts.exec_threads;
      pipe.add(StageKind::kVerify, /*deferred=*/true,
               [&ref, exec_threads, &skeleton, target_deps](Candidate& c) {
                 if (!(c.result.legal && ref && c.result.program)) return;
                 // Candidate doall partition for the parallel engine;
                 // any analysis failure just verifies serially (the
                 // verdict is thread-count independent either way).
                 std::vector<std::string> partition;
                 if (exec_threads > 1) {
                   try {
                     partition = analyze_target_parallelism(*skeleton,
                                                            target_deps(c))
                                     .partition;
                     // A tiled hit's program loops over tiles: remap
                     // partitioned band variables to their tile loops.
                     if (c.tile && c.tile->applied)
                       partition = tiled_partition(partition, c.tile->spec,
                                                   c.tile->tile_vars);
                   } catch (const Error&) {
                     partition.clear();
                   }
                 }
                 c.result.verify = ref->check(*c.result.program, partition);
               });
    }
  }
  const bool deferred = pipe.has_deferred();
  if (run_span.active()) run_span.arg("pipeline", pipe.describe());

  // Per-candidate decision time is recorded only in full mode: the
  // legality-only filter decides millions of candidates per second and
  // even two clock reads per leaf would dominate it.
  HistogramCell* cand_hist =
      full ? &Stats::global().histogram("search.candidate_ns") : nullptr;

  // Survivors of the legality walk stream to the deferred stages while
  // the walk continues (the IncrementalLegality engine is stateful, so
  // the walk itself stays sequential; the deferred stages are not) and
  // settle in enumeration order, so hits, stats and rejection
  // provenance are identical at any thread count. Full-mode survivors
  // each cost milliseconds and go one per block; rank-mode survivors
  // cost tens of microseconds and go in blocks growing to 64 as the
  // walk finds more of them. At most a few blocks per thread are
  // unsettled at once.
  const int nthreads = resolve_threads(opts_.threads, std::numeric_limits<int>::max());
  const size_t block = pipe.has(StageKind::kCodegen) ? 1 : 64;
  InOrderFanOut fan(
      nthreads, block, /*window=*/4 * static_cast<size_t>(nthreads),
      [&](Candidate& c) {
        ScopedSpan cs("search.candidate", "search");
        const auto c0 = std::chrono::steady_clock::now();
        pipe.run_deferred(c);
        if (cand_hist)
          cand_hist->record(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - c0)
                  .count());
        if (cs.active()) {
          cs.arg("index", c.index);
          cs.arg("legal", c.result.legal);
        }
      },
      [&acc](Candidate&& c) { acc.settle(std::move(c)); });
  // The verification reference runs the source once, on its own
  // thread: started before the first survivor is handed to a worker,
  // and only if there is one. A source that cannot run rethrows from
  // every check, and the fan-out rethrows it from search().
  auto prepare_verify = [&] {
    if (ref || sopts.verify_params.empty()) return;
    ExecPlan plan;
    plan.threads = sopts.exec_threads;
    if (sopts.exec_threads > 1)
      plan.source_partition =
          source_parallel_schedule(*layout_, deps_).partition;
    ref.emplace(*program_, sopts.verify_params, sopts.verify_fill,
                sopts.verify_seed, sopts.verify_engine, plan);
  };

  i64 index = 0;
  i64 next_report = sopts.progress ? sopts.progress_interval
                                   : std::numeric_limits<i64>::max();
  auto emit_progress = [&](i64 done) {
    SearchProgress p;
    p.done = done;
    p.total = acc.stats().candidates_total;
    p.legal = acc.stats().legal;
    p.pruned = acc.stats().pruned_candidates;
    p.elapsed_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    p.rate = p.elapsed_s > 0 ? static_cast<double>(done) / p.elapsed_s : 0;
    p.prune_rate = done > 0 ? static_cast<double>(p.pruned) / done : 0;
    p.eta_s = p.rate > 0 ? static_cast<double>(p.total - done) / p.rate : 0;
    sopts.progress(p);
  };

  std::function<void(int)> rec = [&](int depth) {
    if (depth == nslots) {
      if (prune && !engine_->current_legal()) {
        // Viable prefix, illegal completion: the zero projection of
        // leaf_killer() is what rejected it.
        acc.prune_leaf(engine_->leaf_killer());
        ++index;
        if (index >= next_report) {
          emit_progress(index);
          next_report = index + sopts.progress_interval;
        }
        return;
      }
      acc.note_evaluated();
      Candidate c;
      c.index = index;
      c.matrix = m;
      pipe.run_leaf(c);
      if (deferred && !c.rejected) {
        // Deferred stages pending: hand the survivor to the fan-out.
        prepare_verify();
        fan.push(std::move(c));
      } else {
        acc.settle(std::move(c));
      }
      ++index;
      if (index >= next_report) {
        emit_progress(index);
        next_report = index + sopts.progress_interval;
      }
      return;
    }
    for (i64 k = 0; k < gen.num_options(depth); ++k) {
      IntVec r = gen.row(k);
      for (int j = 0; j < layout_->size(); ++j) m(slots[depth], j) = r[j];
      gen.push(k);
      bool viable = true;
      if (prune) viable = engine_->push_row(r);
      if (!viable) {
        i64 n = leaves_below[depth + 1];
        acc.prune_subtree(engine_->killer(), engine_->killer_row(), n);
        if (Tracer::enabled()) {
          ScopedSpan ps("search.prune", "search");
          ps.arg("depth", static_cast<i64>(depth));
          ps.arg("dep", static_cast<i64>(engine_->killer()));
          ps.arg("pruned", n);
        }
        index += n;
        if (index >= next_report) {
          emit_progress(index);
          next_report = index + sopts.progress_interval;
        }
      } else {
        rec(depth + 1);
      }
      if (prune) engine_->pop_row();
      gen.pop();
    }
  };
  rec(0);

  // Drain the deferred stages still in flight.
  if (fan.pushed() > 0) {
    ScopedSpan eval_span("search.evaluate", "search");
    fan.finish();
    if (eval_span.active()) {
      eval_span.arg("candidates", fan.pushed());
      eval_span.arg("threads", static_cast<i64>(fan.workers()));
    }
    Stats::global().raise("search.inflight_peak", fan.inflight_peak());
  }

  // Final report: done == total, so consumers can close their display.
  if (sopts.progress) emit_progress(index);

  if (run_span.active()) {
    run_span.arg("total", acc.stats().candidates_total);
    run_span.arg("evaluated", acc.stats().evaluated);
    run_span.arg("legal", acc.stats().legal);
    run_span.arg("pruned", acc.stats().pruned_candidates);
  }
  Stats::global().add("search.candidates", acc.stats().candidates_total);
  Stats::global().add("search.evaluated", acc.stats().evaluated);
  Stats::global().add("search.pruned", acc.stats().pruned_candidates);
  return acc.take();
}

SearchResult TransformSession::search(const SearchSpace& space,
                                      const SearchOptions& sopts) {
  PermutationSkewGenerator gen(*layout_, space);
  return search(gen, sopts);
}

}  // namespace inlt
