// Fig. 5 of the paper: accuracy of the EHR model (Eq. 4) without
// interference. For each buffer size, run all ten Table II distributions,
// compare the measured L3 miss rate to the model's prediction for the full
// L3, and report avg |error| and stddev across the distributions.
//
// Paper reference shape: average absolute error < 10% everywhere, avg+std
// <= 15%, error shrinking as buffers grow (associativity effects fade),
// < 5% once miss rates exceed ~50%.
#include <atomic>

#include "bench_util.hpp"
#include "model/distributions.hpp"

namespace {

int fig5(const am::Cli& cli, const am::bench::BenchContext& ctx) {
  const auto num_sizes =
      static_cast<std::size_t>(cli.get_int("sizes", cli.get_bool("full", false) ? 22 : 8));
  const auto accesses = static_cast<std::uint64_t>(
      cli.get_int("accesses", 300'000));

  const auto sizes = ctx.paper_buffer_bytes(num_sizes);
  struct Cell {
    double measured = 0.0, predicted = 0.0;
  };
  std::vector<std::vector<Cell>> grid(sizes.size(),
                                      std::vector<Cell>(10));

  am::ThreadPool pool;
  std::atomic<std::size_t> done{0};
  for (std::size_t si = 0; si < sizes.size(); ++si) {
    for (std::size_t di = 0; di < 10; ++di) {
      pool.submit([&, si, di] {
        const std::uint64_t elements = sizes[si] / 4;
        const auto dist =
            am::model::AccessDistribution::table2(elements)[di];
        const auto outcome =
            am::bench::run_synth_experiment(ctx, dist, 1, 0, accesses);
        const am::model::EhrModel model(dist, 4);
        grid[si][di] = {outcome.miss_rate,
                        model.expected_miss_rate(ctx.machine.l3.size_bytes)};
        ++done;
      });
    }
  }
  pool.wait_idle();

  am::Table t({"Buffer", "Avg miss (meas)", "Avg miss (model)",
               "Avg |error|", "Stddev |error|", "Avg+Std"});
  for (std::size_t si = 0; si < sizes.size(); ++si) {
    am::RunningStats err, meas, pred;
    for (const auto& cell : grid[si]) {
      err.add(std::abs(cell.measured - cell.predicted));
      meas.add(cell.measured);
      pred.add(cell.predicted);
    }
    t.add_row({am::format_bytes(static_cast<double>(sizes[si])),
               am::Table::num(meas.mean(), 3), am::Table::num(pred.mean(), 3),
               am::Table::num(err.mean(), 3), am::Table::num(err.stddev(), 3),
               am::Table::num(err.mean() + err.stddev(), 3)});
  }
  am::bench::emit(t, ctx,
                  "Fig. 5: EHR model error vs buffer size "
                  "(paper: avg < 0.10, avg+std <= 0.15, shrinking with size)");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return am::bench::run_driver(argc, argv, "fig5_model_eval",
                               /*default_scale=*/16, /*nodes=*/1, fig5);
}
