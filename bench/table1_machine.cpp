// Table I of the paper: the Xeon20MB memory hierarchy. Prints the simulated
// machine's geometry (full size and the bench default scale) so every other
// bench's platform is documented.
#include "bench_util.hpp"

namespace {

int table1(const am::Cli& /*cli*/, const am::bench::BenchContext& ctx) {
  am::Table t({"Cache", "Scope", "Capacity", "Line Size", "Associativity",
               "Latency (cyc)"});
  const auto& m = ctx.machine;
  auto row = [&](const char* name, const char* scope,
                 const am::sim::CacheConfig& c, am::sim::Cycles lat) {
    t.add_row({name, scope, am::format_bytes(static_cast<double>(c.size_bytes)),
               std::to_string(c.line_bytes) + " bytes",
               std::to_string(c.ways) + "-way", std::to_string(lat)});
  };
  row("L1 D", "Private", m.l1, m.l1_latency);
  row("L2", "Private", m.l2, m.l2_latency);
  row("L3", "Shared", m.l3, m.l3_latency);
  am::bench::emit(t, ctx, "Table I: memory hierarchy (simulated Xeon E5-2670)");

  am::Table sys({"Parameter", "Value"});
  sys.add_row({"Cores per socket", std::to_string(m.cores_per_socket)});
  sys.add_row({"Sockets per node", std::to_string(m.sockets_per_node)});
  sys.add_row({"Frequency", am::Table::num(m.frequency_ghz, 1) + " GHz"});
  sys.add_row({"Memory bandwidth / socket",
               am::format_bandwidth(m.mem_bandwidth_bytes_per_sec)});
  sys.add_row({"Interconnect",
               am::format_bandwidth(m.link_bandwidth_bytes_per_sec) + ", " +
                   std::to_string(m.link_latency) + " cyc"});
  sys.add_row({"Line-fill buffers / core",
               std::to_string(m.max_outstanding_misses)});
  am::bench::emit(sys, ctx, "Platform parameters");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return am::bench::run_driver(argc, argv, "table1_machine",
                               /*default_scale=*/1, /*nodes=*/1, table1);
}
