#include "pipeline/search.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <sstream>
#include <thread>

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

std::unique_ptr<CandidateGenerator> PermutationSkewGenerator::clone() const {
  return std::make_unique<PermutationSkewGenerator>(*this);
}

namespace {

// Worker threads for a session's SessionOptions::threads request: 0
// means the machine's parallelism, n > 0 exactly n.
int resolve_threads(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

// One depth-first walk over a candidate space: the generator, the
// engine that prunes it (null in exact mode) and the matrix the walk
// writes its rows into — an identity whose loop-slot rows the pushed
// options overwrite. Destroying a walk pops whatever it still has
// pushed, so a walk that throws leaves its generator and engine where
// it found them.
struct Walk {
  Walk(CandidateGenerator& gen, IncrementalLegality* engine,
       const std::vector<int>& slots, int width)
      : gen(gen), engine(engine), slots(slots), m(IntMat::identity(width)) {}
  ~Walk() {
    while (!path.empty()) pop();
  }
  Walk(const Walk&) = delete;
  Walk& operator=(const Walk&) = delete;

  int depth() const { return static_cast<int>(path.size()); }
  /// Descend by option k; false when the engine proves every
  /// completion of the new prefix illegal.
  bool push(i64 k) {
    IntVec r = gen.row(k);
    for (int j = 0; j < m.cols(); ++j) m(slots[depth()], j) = r[j];
    gen.push(k);
    path.push_back(k);
    return !engine || engine->push_row(r);
  }
  void pop() {
    if (engine) engine->pop_row();
    gen.pop();
    path.pop_back();
  }

  CandidateGenerator& gen;
  IncrementalLegality* engine;
  const std::vector<int>& slots;
  IntMat m;
  std::vector<i64> path;  // the option pushed at each depth
};

// Walk the subtree below `w`'s prefix down to depth `stop` in
// enumeration order, from candidate `index` on: `visit(index)` at each
// viable prefix of depth `stop`, which covers leaves[stop]
// candidates; a pruned prefix records its subtree in `tally`, then
// `pruned(n)` with its leaf count.
template <class Visit, class Pruned>
void descend(Walk& w, int stop, const std::vector<i64>& leaves,
             WalkTally& tally, i64& index, const Visit& visit,
             const Pruned& pruned) {
  const int depth = w.depth();
  if (depth == stop) {
    visit(index);
    index += leaves[depth];
    return;
  }
  for (i64 k = 0; k < w.gen.num_options(depth); ++k) {
    if (w.push(k)) {
      descend(w, stop, leaves, tally, index, visit, pruned);
    } else {
      const i64 n = leaves[depth + 1];
      tally.prune_subtree(w.engine->killer(), w.engine->killer_row(), n);
      if (Tracer::enabled()) {
        ScopedSpan ps("search.prune", "search");
        ps.arg("depth", static_cast<i64>(depth));
        ps.arg("dep", static_cast<i64>(w.engine->killer()));
        ps.arg("pruned", n);
      }
      index += n;
      pruned(n);
    }
    w.pop();
  }
}

// Viable prefixes of depth `stop` below `w`'s, counted up to `want`.
i64 viable_prefixes(Walk& w, int stop, i64 want) {
  if (w.depth() == stop) return 1;
  i64 n = 0;
  for (i64 k = 0; k < w.gen.num_options(w.depth()) && n < want; ++k) {
    if (w.push(k)) n += viable_prefixes(w, stop, want - n);
    w.pop();
  }
  return n;
}

// One unit of deferred work: a survivor of the calling thread's walk,
// or the subtree below one viable prefix at the cut depth.
struct Unit {
  Candidate survivor;
  /// Subtree: the option at each slot above the cut (empty for a
  /// single survivor), and the enumeration index of its first
  /// candidate.
  std::vector<i64> prefix;
  i64 index = 0;
  /// Subtree: its decided candidates in index order, and its prunes
  /// and counted leaves.
  std::vector<Candidate> decided;
  WalkTally tally;
};

// What one worker walks its subtrees with, built once per search.
struct SubtreeWorker {
  SubtreeWorker(const CandidateGenerator& gen, const IvLayout& layout,
                const DependenceSet& deps)
      : gen(gen.clone()), engine(layout, deps) {}
  std::unique_ptr<CandidateGenerator> gen;
  IncrementalLegality engine;
};

// Subtrees per session thread at the cut: enough that uneven subtrees
// still balance over the workers.
constexpr i64 kSubtreesPerThread = 8;

// Exact subtree sizes per depth (prefix-independent by the generator
// contract): what index arithmetic under pruning uses.
std::vector<i64> leaves_below(const CandidateGenerator& gen) {
  std::vector<i64> out(gen.num_slots() + 1, 1);
  for (int d = gen.num_slots(); d-- > 0;)
    out[d] = checked_mul(out[d + 1], gen.num_options(d));
  return out;
}

}  // namespace

std::vector<IntMat> materialize_candidates(const IvLayout& layout,
                                           CandidateGenerator& gen) {
  const std::vector<int>& slots = layout.all_loop_positions();
  INLT_CHECK(static_cast<int>(slots.size()) == gen.num_slots());
  std::vector<IntMat> out;
  Walk w(gen, /*engine=*/nullptr, slots, layout.size());
  WalkTally unused;
  i64 index = 0;
  descend(
      w, gen.num_slots(), leaves_below(gen), unused, index,
      [&](i64) { out.push_back(w.m); }, [](i64) {});
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

  const std::vector<i64> leaves = leaves_below(gen);

  const int width = layout_->size();
  const std::vector<int>& slots = layout_->all_loop_positions();
  // Layout position -> slot index, for converting a legality
  // diagnostic's deciding row into a by_row bucket.
  std::vector<int> pos_to_slot(width, -1);
  for (int s = 0; s < nslots; ++s) pos_to_slot[slots[s]] = s;

  CandidateAccumulator acc(deps_.deps.size(), nslots, pos_to_slot, sopts);
  acc.stats().candidates_total = leaves[0];

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
    skeleton.emplace(recover_ast(*layout_, IntMat::identity(width)));
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
  if (!prune && !full) {
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
  // (Under the hull test the walk's verdict is the legality stage; in
  // exact full mode the ILP verdict is produced inside codegen by
  // generate_code_exact.)
  // One cost model per search: its N_S memo is shared by every
  // candidate's kCost stage and freed when the search returns.
  std::optional<CostModel> model;
  // Rank mode scores first and builds the full estimate (M·D, the
  // parallel schedule, per-reference costs) only for a candidate
  // whose score is below the worst kept hit. That is exact: the bound
  // only falls, and a candidate settles after every one already kept,
  // so one not below the bound could neither beat the worst hit nor
  // win a tie (DESIGN.md, "Rank by score"). A sink sees every hit, so
  // with one set every hit gets the estimate.
  const bool bounded = sopts.top_k > 0 && !sopts.sink;
  if (cost) {
    ModelOptions mopts = sopts.model;
    mopts.pad = opts_.codegen.pad;
    mopts.exec_threads = sopts.exec_threads;
    model.emplace(*layout_, mopts, &*skeleton);
    pipe.add(StageKind::kCost, /*deferred=*/true,
             [&model, &skeleton, &acc, bounded, target_deps](Candidate& c) {
               try {
                 if (bounded &&
                     !((c.score ? *c.score
                                : model->lines(c.matrix, *skeleton)) <
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
  auto run_deferred = [&](Candidate& c) {
    ScopedSpan cs("search.candidate", "search");
    const auto c0 = std::chrono::steady_clock::now();
    pipe.run_deferred(c);
    if (cand_hist)
      cand_hist->record(std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - c0)
                            .count());
    if (cs.active()) {
      cs.arg("index", c.index);
      cs.arg("legal", c.result.legal);
    }
  };

  // A full-depth prefix of walk `w`: true when the engine accepts the
  // candidate (counted as evaluated), false when it rejects the
  // completion (counted as pruned).
  auto legal_leaf = [&](Walk& w, WalkTally& tally) {
    if (prune && !w.engine->current_legal()) {
      // Viable prefix, illegal completion: the zero projection of
      // leaf_killer() is what rejected it.
      tally.prune_leaf(w.engine->leaf_killer());
      return false;
    }
    tally.note_evaluated();
    return true;
  };
  // The record of an accepted leaf, through the leaf stages.
  auto record = [&](Walk& w, i64 index) {
    Candidate c;
    c.index = index;
    c.matrix = w.m;
    if (prune) {
      // The engine's full-depth verdict IS the hull legality test
      // (test_incremental proves the equivalence); in full mode the
      // codegen stage rebuilds the result from scratch anyway, so the
      // verdict records only the flag.
      c.result.legal = true;
      if (!full) c.result.legality.unsatisfied = w.engine->current_unsatisfied();
    }
    pipe.run_leaf(c);
    return c;
  };

  // -- the cut --------------------------------------------------------
  // The legality walk is the floor of a search whose survivors cost
  // microseconds, so with several threads the calling thread walks
  // only down to the shallowest depth with kSubtreesPerThread viable
  // prefixes per thread, and each viable prefix there is one unit of
  // deferred work: a worker walks its whole subtree. The count comes
  // from the session's engine, whose memo the walk above the cut then
  // reuses. Full-mode survivors cost milliseconds each and go one per
  // unit, as do the survivors of a space too small to cut.
  const int nthreads = resolve_threads(opts_.threads);
  int cut = nslots;
  if (prune && nthreads > 1 && !pipe.has(StageKind::kCodegen)) {
    Walk probe(gen, engine_.get(), slots, width);
    const i64 want = kSubtreesPerThread * nthreads;
    for (int d = 1; d < nslots && cut == nslots; ++d)
      if (viable_prefixes(probe, d, want) >= want) cut = d;
  }
  const bool split = cut < nslots;
  std::vector<SubtreeWorker> workers;
  if (split) {
    workers.reserve(static_cast<size_t>(nthreads));
    for (int t = 0; t < nthreads; ++t) workers.emplace_back(gen, *layout_, deps_);
  }

  // `search.inflight_peak`: the most candidate records held at once
  // between the walk that made them and settling.
  std::atomic<i64> held{0}, held_peak{0};
  auto hold = [&](i64 n) {
    const i64 now = held.fetch_add(n, std::memory_order_relaxed) + n;
    i64 peak = held_peak.load(std::memory_order_relaxed);
    while (now > peak && !held_peak.compare_exchange_weak(
                             peak, now, std::memory_order_relaxed)) {
    }
  };

  // Progress: candidates decided so far — passed by the calling
  // thread's walk, or in a settled subtree — reported every
  // progress_interval of them.
  i64 done = 0;
  i64 next_report = sopts.progress ? sopts.progress_interval
                                   : std::numeric_limits<i64>::max();
  auto advance = [&](i64 n) {
    done += n;
    if (done < next_report) return;
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
    next_report = done + sopts.progress_interval;
  };

  // Units stream to the workers while the calling thread walks on, and
  // settle in enumeration order, so hits, stats and rejection
  // provenance are identical at any thread count. A subtree's worker
  // replays its prefix on the worker's own engine, walks the rest,
  // runs every stage of its survivors inline and returns them with its
  // tally; its engine is then cleared, so its memo never outgrows one
  // subtree. Single rank-mode survivors cost tens of microseconds and
  // go in blocks growing to 64 as the walk finds more of them;
  // subtrees and full-mode survivors go one per block. At most a few
  // blocks per thread are unsettled at once.
  const size_t block = split || pipe.has(StageKind::kCodegen) ? 1 : 64;
  // In a bounded rank search a subtree walk scores each legal leaf
  // itself and keeps no record of one whose score cannot make the top
  // K — it is only counted. Its bound is the lower of the published one
  // and the K-th best total_lines among the subtree's own estimated
  // hits: those settle before any later leaf of the subtree, so the
  // argument of DESIGN.md "Rank by score" holds for them too.
  const bool count_only = bounded && !full;
  const size_t top_k = static_cast<size_t>(sopts.top_k);
  auto walk_subtree = [&](Unit& u, SubtreeWorker& sw) {
    std::vector<double> best;  // max-heap of the subtree's K best
    Walk w(*sw.gen, &sw.engine, slots, width);
    for (i64 k : u.prefix) {
      const bool viable = w.push(k);
      INLT_CHECK_MSG(viable, "a cut prefix replayed as dead");
    }
    i64 index = u.index;
    descend(
        w, nslots, leaves, u.tally, index,
        [&](i64 i) {
          if (!legal_leaf(w, u.tally)) return;
          std::optional<double> score;
          if (count_only) {
            try {
              score = model->lines(w.m, *skeleton);
            } catch (const Error&) {
              // Unrankable: the Cost stage records it without an
              // estimate.
            }
            const double bound =
                best.size() < top_k ? acc.bound()
                                    : std::min(acc.bound(), best.front());
            if (score && !(*score < bound)) {
              u.tally.count_legal();
              return;
            }
          }
          Candidate c = record(w, i);
          c.score = score;
          if (deferred && !c.rejected) run_deferred(c);
          if (count_only && c.cost) {
            best.push_back(c.cost->total_lines);
            std::push_heap(best.begin(), best.end());
            if (best.size() > top_k) {
              std::pop_heap(best.begin(), best.end());
              best.pop_back();
            }
          }
          u.decided.push_back(std::move(c));
        },
        [](i64) {});
  };
  InOrderFanOut<Unit> fan(
      nthreads, block, /*window=*/4 * static_cast<size_t>(nthreads),
      [&](Unit& u, int worker) {
        if (u.prefix.empty()) {
          run_deferred(u.survivor);
          return;
        }
        SubtreeWorker& sw = workers[worker];
        walk_subtree(u, sw);
        sw.engine.clear();
        hold(static_cast<i64>(u.decided.size()));
      },
      [&](Unit&& u) {
        if (u.prefix.empty()) {
          held.fetch_sub(1, std::memory_order_relaxed);
          acc.settle(std::move(u.survivor));
          return;
        }
        held.fetch_sub(static_cast<i64>(u.decided.size()),
                       std::memory_order_relaxed);
        acc.tally().add(u.tally);
        for (Candidate& c : u.decided) acc.settle(std::move(c));
        advance(leaves[cut]);
      });
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

  {
    Walk w(gen, engine_.get(), slots, width);
    i64 index = 0;
    descend(
        w, cut, leaves, acc.tally(), index,
        [&](i64 i) {
          if (split) {
            Unit u;
            u.prefix = w.path;
            u.index = i;
            u.tally = WalkTally(deps_.deps.size(), nslots);
            fan.push(std::move(u));
            return;
          }
          if (legal_leaf(w, acc.tally())) {
            Candidate c = record(w, i);
            if (deferred && !c.rejected) {
              // Deferred stages pending: hand the survivor over.
              prepare_verify();
              Unit u;
              u.survivor = std::move(c);
              hold(1);
              fan.push(std::move(u));
            } else {
              acc.settle(std::move(c));
            }
          }
          advance(1);
        },
        advance);
  }

  // Drain the deferred work still in flight.
  if (fan.pushed() > 0) {
    ScopedSpan eval_span("search.evaluate", "search");
    fan.finish();
    if (eval_span.active()) {
      eval_span.arg("units", fan.pushed());
      eval_span.arg("threads", static_cast<i64>(fan.workers()));
    }
    Stats::global().raise("search.inflight_peak", held_peak.load());
    if (split) Stats::global().add("search.subtrees", fan.pushed());
  }

  // Final report: done == total, so consumers can close their display.
  if (sopts.progress) {
    next_report = done;
    advance(0);
  }

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
