/// Ablation: linear-solver choice for the steady-state thermal grid.
/// Spectral-preconditioned CG is every thermal solve's path; Jacobi-CG is
/// its reference. Same answers, very different iteration
/// counts. Both run on the model's stencil operator.

#include <chrono>

#include "bench_util.hpp"
#include "common/spectral.hpp"
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

void microbench_spectral_cg(benchmark::State& state) {
  const Problem p = make_problem(static_cast<std::size_t>(state.range(0)));
  const aqua::SpectralPreconditioner spectral(p.matrix);
  for (auto _ : state) {
    benchmark::DoNotOptimize(aqua::solve_cg(p.matrix, p.rhs, {}, &spectral));
  }
}
BENCHMARK(microbench_spectral_cg)->Arg(2)->Arg(8)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  aqua::bench::banner("Ablation",
                      "spectral-CG vs. Jacobi-CG on the thermal grid");
  aqua::Table t(
      {"chips", "nodes", "spectral_iters", "cg_iters", "max_T_diff_C"});
  for (std::size_t chips : {2u, 4u, 8u}) {
    const Problem p = make_problem(chips);
    const aqua::SpectralPreconditioner spectral_precond(p.matrix);
    const aqua::SolveResult spectral =
        aqua::solve_cg(p.matrix, p.rhs, {}, &spectral_precond);
    const aqua::SolveResult cg = aqua::solve_cg(p.matrix, p.rhs);
    double diff = 0.0;
    for (std::size_t i = 0; i < cg.x.size(); ++i) {
      diff = std::max(diff, std::abs(cg.x[i] - spectral.x[i]));
    }
    t.row()
        .add_int(static_cast<long long>(chips))
        .add_int(static_cast<long long>(p.matrix.rows()))
        .add_int(static_cast<long long>(spectral.iterations))
        .add_int(static_cast<long long>(cg.iterations))
        .add(diff, 6);
  }
  t.print(std::cout);
  std::cout << "\nboth converge to the same field; spectral-CG needs "
               "one iteration — hence the default\n\n";
  return aqua::bench::run_microbenchmarks(argc, argv);
}
