// Figure 5c: compiler runtime vs number of subscriptions, up to 100K.
//
// Paper setup: ITCH subscriptions "stock == S and price > P : fwd(H)" with
// S one of 100 symbols, P in (0, 1000), H one of 200 end hosts. Paper
// result: "Compiling 100K subscriptions resulted in 21,401 table entries
// and 198 multicast groups, which can easily fit in switch memory",
// taking ~1200s in the authors' OCaml prototype. Absolute times differ
// (this is a C++ implementation); the reproduced claims are the
// superlinear-but-tractable growth and the entry/group counts.
//
// Flags: --quick (small sizes), --json FILE (write one compile-stats JSON
// object per size, newline-delimited; "-" for stderr). The stdout table is
// unchanged by either flag so existing tooling keeps parsing it. The
// compile is the serial monolithic one; bench/compile_scale runs the
// partitioned layout on a worker pool.
#include <cstdio>
#include <string>
#include <string_view>

#include "compiler/compile.hpp"
#include "spec/itch_spec.hpp"
#include "table/table.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"
#include "workload/itch_subs.hpp"

using namespace camus;

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--json FILE|-]\n",
                   argv[0]);
      return 2;
    }
  }

  std::FILE* json_out = nullptr;
  if (!json_path.empty()) {
    json_out = json_path == "-" ? stderr : std::fopen(json_path.c_str(), "w");
    if (!json_out) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
  }

  std::printf(
      "Figure 5c: compile time vs #subscriptions (ITCH workload: stock==S "
      "and price>P)\n");
  std::printf(
      "paper @100K: 21401 entries, 198 mcast groups, ~1200s (OCaml "
      "prototype)\n\n");

  auto schema = spec::make_itch_schema();
  util::TextTable table({"#subscriptions", "compile time (s)",
                         "table entries", "mcast groups", "bdd nodes",
                         "fits switch"});
  std::vector<std::size_t> sizes = {1000, 5000, 10000, 25000, 50000, 100000};
  if (quick) sizes = {1000, 10000};

  for (std::size_t n : sizes) {
    workload::ItchSubsParams p;
    p.seed = 42;
    p.n_subscriptions = n;
    p.n_symbols = 100;
    p.n_hosts = 200;
    p.price_max = 1000;
    auto subs = workload::generate_itch_subscriptions(schema, p);

    util::Timer t;
    auto c = compiler::compile_rules(schema, subs.rules);
    const double secs = t.seconds();
    if (!c.ok()) {
      std::fprintf(stderr, "compile failed: %s\n",
                   c.error().to_string().c_str());
      return 1;
    }
    const auto& stats = c.value().stats;
    const bool fits =
        table::ResourceBudget{}.fits(c.value().pipeline.resources());
    table.add_row({std::to_string(n), util::TextTable::fmt(secs, 3),
                   std::to_string(stats.total_entries),
                   std::to_string(stats.multicast_groups),
                   std::to_string(stats.bdd_after_prune.node_count),
                   fits ? "yes" : "NO"});
    if (json_out)
      std::fprintf(json_out, "%s\n", stats.to_json().c_str());
  }
  std::printf("%s", table.to_string().c_str());
  if (json_out && json_out != stderr) std::fclose(json_out);
  return 0;
}
