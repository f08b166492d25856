// The traced re-drive of the search workloads: the candidate pipeline
// of TransformSession::search (walk -> complete -> cost -> codegen ->
// tile -> verify) rebuilt from each layer's public functions at one
// thread, with one span around every call. Candidates are the
// pipeline's own records, merged by its CandidateAccumulator, so the
// result is the one search() returns; trace_search checks that.
#include <functional>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "codegen/simplify.hpp"
#include "exec/native.hpp"
#include "ir/parser.hpp"
#include "pipeline/candidate.hpp"
#include "transform/incremental.hpp"

namespace perfbench {

namespace {

/// The legality walk of search(): depth-first over the generator;
/// dead prefixes and illegal leaves go to the accumulator, engine-legal
/// leaves are returned in enumeration order for the deferred stages.
std::vector<inlt::Candidate> legality_walk(const inlt::IvLayout& layout,
                                           const inlt::DependenceSet& deps,
                                           const SearchWorkload& w,
                                           inlt::CandidateAccumulator& acc) {
  inlt::IncrementalLegality engine(layout, deps);
  inlt::PermutationSkewGenerator gen(layout, w.space);
  const int nslots = gen.num_slots();
  std::vector<i64> leaves_below(nslots + 1, 1);
  for (int d = nslots; d-- > 0;)
    leaves_below[d] = leaves_below[d + 1] * gen.num_options(d);
  acc.stats().candidates_total = leaves_below[0];

  const std::vector<int> slots = layout.all_loop_positions();
  inlt::IntMat m = inlt::IntMat::identity(layout.size());
  std::vector<inlt::Candidate> out;
  i64 index = 0;
  std::function<void(int)> walk = [&](int depth) {
    if (depth == nslots) {
      if (!engine.current_legal()) {
        acc.prune_leaf(engine.leaf_killer());
      } else {
        acc.note_evaluated();
        inlt::Candidate c;
        c.index = index;
        c.matrix = m;
        c.result.legal = true;
        if (!w.full)
          c.result.legality.unsatisfied = engine.current_unsatisfied();
        out.push_back(std::move(c));
      }
      ++index;
      return;
    }
    for (i64 k = 0; k < gen.num_options(depth); ++k) {
      inlt::IntVec r = gen.row(k);
      for (int j = 0; j < layout.size(); ++j) m(slots[depth], j) = r[j];
      gen.push(k);
      if (engine.push_row(r)) {
        walk(depth + 1);
      } else {
        acc.prune_subtree(engine.killer(), engine.killer_row(),
                          leaves_below[depth + 1]);
        index += leaves_below[depth + 1];
      }
      engine.pop_row();
      gen.pop();
    }
  };
  walk(0);
  return out;
}

void reject(inlt::Candidate& c, const inlt::Error& e) {
  c.result = {};
  c.result.error = e.what();
  c.rejected = true;
}

}  // namespace

std::unique_ptr<Analyzed> analyze_traced(const Input& in, SpanRecorder* rec) {
  auto a = std::make_unique<Analyzed>();
  a->program =
      in_span(rec, "ir.parse", [&] { return inlt::parse_program(in.source); });
  {
    Scope s(rec, "instance.layout");
    a->layout.emplace(a->program);
  }
  a->deps = in_span(rec, "dependence.analyze", [&] {
    return inlt::analyze_dependences(*a->layout,
                                     session_options(1).analyzer);
  });
  return a;
}

inlt::SearchResult search_traced(const Config& cfg, const SearchWorkload& w,
                                 const Analyzed& a, SpanRecorder* rec,
                                 std::map<std::string, i64>* work) {
  const inlt::SessionOptions sess = session_options(1);
  const inlt::SearchOptions sopts = search_options(w, cfg.seed);
  const inlt::IvLayout& layout = *a.layout;
  const inlt::DependenceSet& deps = a.deps;
  (*work)["dependence.deps"] += static_cast<i64>(deps.deps.size());

  const std::vector<int> slots = layout.all_loop_positions();
  std::vector<int> pos_to_slot(layout.size(), -1);
  for (size_t s = 0; s < slots.size(); ++s)
    pos_to_slot[slots[s]] = static_cast<int>(s);
  inlt::CandidateAccumulator acc(deps.deps.size(),
                                 static_cast<int>(slots.size()), pos_to_slot,
                                 sopts);
  std::vector<inlt::Candidate> pending = in_span(rec, "transform.walk", [&] {
    return legality_walk(layout, deps, w, acc);
  });
  (*work)["transform.evaluated"] += acc.stats().evaluated;

  const bool native = w.engine == inlt::ExecEngine::kNative;
  std::optional<inlt::VerifyReference> ref;
  if (w.verify_n > 0 && !pending.empty()) {
    if (native)
      in_span(rec, "exec.native_prepare",
              [&] { return inlt::native_prepare(a.program); });
    Scope s(rec, "exec.verify");
    ref.emplace(a.program, sopts.verify_params, sopts.verify_fill,
                sopts.verify_seed, 1e-9, sopts.verify_engine);
  }

  inlt::ModelOptions mopts = sopts.model;
  mopts.pad = sess.codegen.pad;
  mopts.exec_threads = sopts.exec_threads;
  inlt::ProjectionCache cache;
  for (inlt::Candidate& c : pending) {
    // Complete + Cost.
    try {
      c.recovery.emplace(in_span(rec, "transform.recover", [&] {
        return inlt::recover_ast(layout, c.matrix);
      }));
    } catch (const inlt::Error& e) {
      reject(c, e);
      continue;
    }
    try {
      c.cost.emplace(in_span(rec, "model.cost", [&] {
        return inlt::estimate_cost(layout, deps, c.matrix, *c.recovery, mopts);
      }));
    } catch (const inlt::Error&) {
      // unrankable, still legal
    }
    if (!w.full) continue;

    // Codegen + simplify under the session's projection memo.
    try {
      inlt::ScopedProjectionCache install(&cache);
      inlt::CodegenResult res = in_span(rec, "codegen.generate", [&] {
        return inlt::generate_code(layout, deps, c.matrix, sess.codegen);
      });
      c.result.legality = std::move(res.legality);
      c.result.program = in_span(rec, "codegen.simplify", [&] {
        return inlt::simplify_program(res.program);
      });
    } catch (const inlt::Error& e) {
      reject(c, e);
      continue;
    }
    (*work)["codegen.output_nodes"] += count_nodes(*c.result.program);
    if (w.tile) {
      ++(*work)["tile.attempted"];
      try {
        inlt::TiledProgram tp = in_span(rec, "tile.apply", [&] {
          return inlt::apply_tile(*c.result.program, sopts.tile_opts,
                                  sopts.model);
        });
        if (tp.program) c.result.program = std::move(*tp.program);
        if (tp.plan.applied) ++(*work)["tile.applied"];
        c.tile.emplace(std::move(tp.plan));
      } catch (const inlt::Error& e) {
        inlt::TilePlan failed;
        failed.note = e.what();
        c.tile.emplace(std::move(failed));
      }
    }
    if (ref) {
      if (native)
        in_span(rec, "exec.native_prepare",
                [&] { return inlt::native_prepare(*c.result.program); });
      c.result.verify = in_span(rec, "exec.verify", [&] {
        return ref->check(*c.result.program, std::vector<std::string>{});
      });
    }
  }
  for (inlt::Candidate& c : pending) acc.settle(std::move(c));
  return acc.take();
}

}  // namespace perfbench
