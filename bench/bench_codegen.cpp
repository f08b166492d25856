// C6 — code-generation cost: Fourier–Motzkin bound generation and the
// whole §5 pipeline as nest depth grows (skewed deep perfect nests are
// the worst case for FM, since every level's bounds mention all outer
// variables).
//
// Emits BENCH_codegen.json (override with --out=PATH); see
// bench/harness.hpp for --benchmark_min_time.
#include <sstream>
#include <string>
#include <vector>

#include "codegen/generate.hpp"
#include "harness.hpp"
#include "ir/gallery.hpp"
#include "ir/parser.hpp"
#include "transform/completion.hpp"
#include "transform/transforms.hpp"

namespace {

using namespace inlt;

Program make_deep_nest(int depth) {
  std::ostringstream os;
  os << "param N\n";
  std::string indent;
  for (int d = 0; d < depth; ++d) {
    os << indent << "do I" << d << " = 1, N\n";
    indent += "  ";
  }
  os << indent << "S0: A(";
  for (int d = 0; d < depth; ++d) os << (d ? ", " : "") << "I" << d;
  os << ") = 1.0\n";
  for (int d = depth - 1; d >= 0; --d) {
    indent = std::string(static_cast<size_t>(2 * d), ' ');
    os << indent << "end\n";
  }
  return parse_program(os.str());
}

IntMat full_skew(const IvLayout& layout, int depth) {
  // Skew every loop by its inner neighbor: a dense lower-triangular-ish
  // transformation stressing bound generation.
  IntMat m = IntMat::identity(layout.size());
  for (int d = 0; d + 1 < depth; ++d)
    m = mat_mul(loop_skew(layout, "I" + std::to_string(d),
                          "I" + std::to_string(d + 1), 1),
                m);
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args =
      bench::parse_args(argc, argv, {"BENCH_codegen.json", 0.5});
  std::vector<bench::Measurement> rows;
  auto timed = [&](std::string name, const IvLayout& layout,
                   const DependenceSet& deps, const IntMat& m) {
    rows.push_back({std::move(name), bench::time_op(args.budget_s, [&] {
                      generate_code(layout, deps, m);
                    }), {}});
  };

  for (int depth = 2; depth <= 6; ++depth) {
    const Program p = make_deep_nest(depth);
    const IvLayout layout(p);
    const DependenceSet deps = analyze_dependences(layout);
    timed("generate_deep_skew_" + std::to_string(depth), layout, deps,
          full_skew(layout, depth));
    rows.back().facts = {{"depth", depth}};
  }

  {
    // Full §6 pipeline cost: analysis excluded, codegen only, on the
    // left-looking matrix the completion assembles from one row.
    const Program p = gallery::cholesky();
    const IvLayout layout(p);
    const DependenceSet deps = analyze_dependences(layout);
    IntVec first(layout.size(), 0);
    first[layout.loop_position("L")] = 1;
    timed("generate_cholesky_left_looking", layout, deps,
          complete_transformation(layout, deps, {first}).matrix);
  }

  {
    // §5.4/5.5's example end to end, including augmentation.
    const Program p = gallery::augmentation_example();
    const IvLayout layout(p);
    const DependenceSet deps = analyze_dependences(layout);
    timed("generate_skew_augmentation", layout, deps,
          loop_skew(layout, "I", "J", -1));
  }

  bench::write_report("bench_codegen", rows, args.out);
  return 0;
}
