// In-network market-feed splitting — the paper's case study (Figure 6).
//
// Several trading servers subscribe to slices of a Nasdaq-style ITCH feed
// with content filters (symbols, price thresholds, stateful aggregates).
// The Camus controller compiles the filters, programs the switch through a
// two-phase installer, and the full feed is pushed through: each server
// receives exactly its slice at the switch, with no host-side filtering.
// The controller journals every step; MemStorage keeps the journal in
// memory, as nothing here has to survive a crash.
//
//   $ ./itch_pubsub [n_messages]    # default 100000
#include <cstdlib>
#include <iostream>

#include "pubsub/durable.hpp"
#include "pubsub/endpoints.hpp"
#include "pubsub/install.hpp"
#include "spec/itch_spec.hpp"
#include "util/stats.hpp"
#include "workload/feed.hpp"

using namespace camus;

int main(int argc, char** argv) {
  const std::size_t n_messages =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 100000;

  // The trading floor's subscriptions: one strategy per server port.
  util::MemStorage journal;
  pubsub::DurableController ctl(spec::make_itch_schema(), journal);
  if (auto opened = ctl.open(); !opened.ok()) {
    std::cerr << opened.error().to_string() << "\n";
    return 1;
  }
  const std::vector<std::pair<std::uint16_t, std::string>> strategies = {
      {1, "stock == GOOGL"},
      {2, "stock == AAPL or stock == MSFT"},
      {3, "stock == GOOGL and price > 2000000"},    // GOOGL above $200
      {4, "shares > 800"},                          // block trades, any symbol
      {5, "stock == NVDA and avg(price) > 1500000"},  // momentum gate
  };
  for (const auto& [port, filter] : strategies) {
    auto ok = ctl.subscribe(port, filter);
    if (!ok.ok()) {
      std::cerr << "subscription rejected: " << ok.error().to_string() << "\n";
      return 1;
    }
  }
  // The stateful strategy also keeps the moving average updated.
  if (auto ok = ctl.subscribe(5, "stock == NVDA : update(avg_price)");
      !ok.ok()) {
    std::cerr << ok.error().to_string() << "\n";
    return 1;
  }

  auto delta = ctl.commit();
  if (!delta.ok()) {
    std::cerr << "compile error: " << delta.error().to_string() << "\n";
    return 1;
  }
  // The switch boots empty; the commit's delta programs it.
  switchsim::Switch sw(spec::make_itch_schema(), table::Pipeline{});
  pubsub::TwoPhaseInstaller installer(sw);
  auto installed = ctl.install(installer, delta.value());
  if (!installed.ok() || !installed.value().committed) {
    std::cerr << "install failed: "
              << (installed.ok() ? installed.value().error
                                 : installed.error().to_string())
              << "\n";
    return 1;
  }
  std::cout << "Compiled " << ctl.subscription_count()
            << " subscriptions: " << delta.value().leaves[0].stats.to_string()
            << "\n";
  std::cout << "Switch resources: " << sw.resources().to_string()
            << "  (fits Tofino-like budget: " << (sw.fits() ? "yes" : "NO")
            << ")\n\n";

  // Publish a synthetic feed through the switch.
  workload::FeedParams fp;
  fp.seed = 2026;
  fp.n_messages = n_messages;
  fp.watched_fraction = 0.01;
  auto feed = workload::generate_feed(fp);

  pubsub::Publisher pub;
  std::vector<pubsub::Subscriber> subs;
  for (std::uint16_t port = 1; port <= 5; ++port) subs.emplace_back(port);

  for (const auto& fm : feed.messages) {
    const auto frame = pub.publish(fm.msg);
    for (const auto& copy : sw.process(frame, fm.t_us))
      subs[copy.port - 1].deliver(frame);
  }

  const auto& c = sw.counters();
  std::cout << "Feed: " << c.rx_frames << " messages, " << c.matched
            << " matched at least one subscriber, " << c.dropped
            << " dropped at the switch, " << c.multicast_frames
            << " replicated to multiple ports\n\n";

  util::TextTable table({"port", "filter", "received", "top symbols"});
  for (std::size_t i = 0; i < strategies.size(); ++i) {
    std::string tops;
    std::size_t shown = 0;
    // per_symbol() is ordered; show up to three entries.
    for (const auto& [sym, count] : subs[i].per_symbol()) {
      if (shown++ == 3) break;
      if (!tops.empty()) tops += ", ";
      tops += sym + ":" + std::to_string(count);
    }
    table.add_row({std::to_string(strategies[i].first),
                   strategies[i].second,
                   std::to_string(subs[i].received()), tops});
  }
  std::cout << table.to_string();
  return 0;
}
