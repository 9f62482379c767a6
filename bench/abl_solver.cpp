/// Ablation: linear-solver choice for the steady-state thermal grid.
/// Multigrid-preconditioned CG is the shipped default; Jacobi-CG is the
/// simple baseline and Gauss-Seidel the classic alternative. Same answers,
/// very different iteration counts. All three run on the model's stencil
/// operator.

#include <chrono>

#include "bench_util.hpp"
#include "common/multigrid.hpp"
#include "power/chip_model.hpp"

namespace {

struct Problem {
  aqua::StencilMatrix matrix;
  std::vector<double> rhs;
};

Problem make_problem(std::size_t chips) {
  const aqua::ChipModel chip = aqua::make_low_power_cmp();
  const aqua::PackageConfig pkg;
  const aqua::Stack3d stack(chip.floorplan(), chips, aqua::FlipPolicy::kNone);
  aqua::StackThermalModel model(
      stack, pkg,
      aqua::CoolingOption(aqua::CoolingKind::kWaterImmersion).boundary(pkg));
  std::vector<std::vector<double>> powers;
  for (std::size_t l = 0; l < chips; ++l) {
    powers.push_back(chip.block_powers(stack.layer(l), aqua::gigahertz(1.5)));
  }
  return {model.conductance(), model.power_vector(powers)};
}

void microbench_cg(benchmark::State& state) {
  const Problem p = make_problem(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(aqua::solve_cg(p.matrix, p.rhs));
  }
}
BENCHMARK(microbench_cg)->Arg(2)->Arg(8)->Unit(benchmark::kMillisecond);

void microbench_mg_cg(benchmark::State& state) {
  const Problem p = make_problem(static_cast<std::size_t>(state.range(0)));
  const aqua::MultigridPreconditioner mg(p.matrix);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        aqua::solve_cg(p.matrix, p.rhs, {}, {}, &mg));
  }
}
BENCHMARK(microbench_mg_cg)->Arg(2)->Arg(8)->Unit(benchmark::kMillisecond);

void microbench_gauss_seidel(benchmark::State& state) {
  const Problem p = make_problem(static_cast<std::size_t>(state.range(0)));
  aqua::SolverOptions opts;
  opts.max_iterations = 200000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(aqua::solve_gauss_seidel(p.matrix, p.rhs, opts));
  }
}
BENCHMARK(microbench_gauss_seidel)->Arg(2)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  aqua::bench::banner("Ablation",
                      "multigrid-CG vs. Jacobi-CG vs. Gauss-Seidel on the "
                      "thermal grid");
  aqua::Table t({"chips", "nodes", "mg_iters", "cg_iters", "gs_iters",
                 "max_T_diff_C"});
  for (std::size_t chips : {2u, 4u, 8u}) {
    const Problem p = make_problem(chips);
    const aqua::MultigridPreconditioner mg_precond(p.matrix);
    const aqua::SolveResult mg =
        aqua::solve_cg(p.matrix, p.rhs, {}, {}, &mg_precond);
    const aqua::SolveResult cg = aqua::solve_cg(p.matrix, p.rhs);
    aqua::SolverOptions gs_opts;
    gs_opts.max_iterations = 200000;
    const aqua::SolveResult gs =
        aqua::solve_gauss_seidel(p.matrix, p.rhs, gs_opts);
    double diff = 0.0;
    for (std::size_t i = 0; i < cg.x.size(); ++i) {
      diff = std::max(diff, std::abs(cg.x[i] - gs.x[i]));
      diff = std::max(diff, std::abs(cg.x[i] - mg.x[i]));
    }
    t.row()
        .add_int(static_cast<long long>(chips))
        .add_int(static_cast<long long>(p.matrix.rows()))
        .add_int(static_cast<long long>(mg.iterations))
        .add_int(static_cast<long long>(cg.iterations))
        .add_int(static_cast<long long>(gs.iterations))
        .add(diff, 6);
  }
  t.print(std::cout);
  std::cout << "\nall three converge to the same field; multigrid-CG needs "
               "the fewest iterations — hence the default\n\n";
  return aqua::bench::run_microbenchmarks(argc, argv);
}
