// Ablation: signal-to-memory assignment solver quality and effort.
//
// The paper's tool "finds the optimal assignment"; this bench shows what
// optimality is worth on the real demonstrator instance by comparing the
// exact branch-and-bound against the greedy constructor and simulated
// annealing, for several memory counts.
#include "alloc/assignment_problem.hpp"
#include "alloc/solvers.hpp"
#include "bench_common.hpp"
#include "scbd/budget_distribution.hpp"

int main(int argc, char** argv) {
  using namespace dtse;
  const auto options = bench::profile_options_from_args(argc, argv);
  bench::print_header("Ablation: assignment solver comparison", options);

  const auto profiled = workloads::BtpcWorkload{}.profile(options);
  const auto best = workloads::btpc_best_variant(profiled);
  const auto scbd = scbd::distribute_budget(best, {});

  memlib::MemoryLibrary library;
  const auto [onchip, offchip] = alloc::MemoryAllocator::partition_groups(best);
  const alloc::AssignmentProblem problem(best, onchip, scbd.conflicts, library,
                                         20'000'000);
  std::cout << "on-chip groups: " << onchip.size()
            << ", minimum memories: " << problem.min_memories() << "\n\n";

  support::Table table({"memories", "solver", "scalar cost", "area [mm2]",
                        "power [mW]", "search nodes"});
  for (const int n : {5, 8, 12}) {
    for (const auto solver : {alloc::Solver::kBranchAndBound, alloc::Solver::kGreedy,
                              alloc::Solver::kSimulatedAnnealing}) {
      alloc::SolverOptions solver_options;
      solver_options.solver = solver;
      const auto solution = alloc::solve_assignment(problem, n, solver_options);
      table.add_row({std::to_string(n), alloc::to_string(solver),
                     solution.feasible ? support::Table::num(solution.scalar_cost) : "-",
                     support::Table::num(solution.summary.onchip_area_mm2),
                     support::Table::num(solution.summary.onchip_power_mw),
                     std::to_string(solution.nodes_explored)});
    }
  }
  std::cout << table.to_string()
            << "\nbranch-and-bound is the reference; greedy/annealing trade quality for "
               "effort on larger instances.\n";
  return 0;
}
