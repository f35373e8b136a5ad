// Table II of the paper: the ten probabilistic access patterns with their
// parameters and standard deviations, plus the concentration integral that
// drives the EHR model.
#include "bench_util.hpp"

#include "model/distributions.hpp"

namespace {

int table2(const am::Cli& cli, const am::bench::BenchContext& ctx) {
  const std::uint64_t n =
      static_cast<std::uint64_t>(cli.get_int("elements", 1'000'000));

  am::Table t({"Pattern", "Distribution", "Parameters", "Stddev/n",
               "n*integral(p^2)"});
  const auto dists = am::model::AccessDistribution::table2(n);
  const char* params[] = {
      "mu=n/2 sigma=n/4", "mu=n/2 sigma=n/6", "mu=n/2 sigma=n/8",
      "lambda=4/n",       "lambda=6/n",       "lambda=8/n",
      "a=0 b=0.4n c=n",   "a=0 b=0.6n c=n",   "a=0 b=0.8n c=n",
      "a=0 b=n"};
  const char* kinds[] = {"Normal",      "Normal",      "Normal",
                         "Exponential", "Exponential", "Exponential",
                         "Triangular",  "Triangular",  "Triangular",
                         "Uniform"};
  for (std::size_t i = 0; i < dists.size(); ++i) {
    t.add_row({dists[i].name(), kinds[i], params[i],
               am::Table::num(dists[i].stddev() / static_cast<double>(n), 4),
               am::Table::num(
                   dists[i].integral_pdf_sq() * static_cast<double>(n), 3)});
  }
  am::bench::emit(t, ctx, "Table II: memory access patterns (n = " +
                              std::to_string(n) + " elements)");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return am::bench::run_driver(argc, argv, "table2_distributions",
                               /*default_scale=*/1, /*nodes=*/1, table2);
}
