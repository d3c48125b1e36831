// Test fixture for the paper's Figure 6 loop on the single switch: the
// journaled controller, over in-memory storage, programs a switch that
// boots empty through the two-phase installer.
#pragma once

#include <gtest/gtest.h>

#include "compiler/fabric.hpp"
#include "compiler/options.hpp"
#include "pubsub/durable.hpp"
#include "pubsub/install.hpp"
#include "spec/itch_spec.hpp"
#include "switchsim/switch.hpp"
#include "table/pipeline.hpp"
#include "util/journal.hpp"
#include "util/result.hpp"

namespace camus::fixture {

struct SingleSwitch {
  util::MemStorage storage;
  pubsub::DurableController ctl;
  switchsim::Switch sw{spec::make_itch_schema(), table::Pipeline{}};
  pubsub::TwoPhaseInstaller installer{sw};

  explicit SingleSwitch(compiler::CompileOptions opts = {})
      : ctl(spec::make_itch_schema(), storage,
            compiler::FabricSpec::single_switch(), opts) {
    EXPECT_TRUE(ctl.open().ok());
  }

  // Commits, then installs the commit's delta on the switch.
  util::Result<pubsub::FabricDelta> commit_and_install() {
    auto delta = ctl.commit();
    if (!delta.ok()) return delta.error();
    auto report = ctl.install(installer, delta.value());
    if (!report.ok()) return report.error();
    if (!report.value().committed)
      return util::Error{"install aborted: " + report.value().error};
    return delta;
  }

  // The program the last commit compiled for the switch.
  const table::Pipeline& program() const {
    return ctl.intended().value()->leaves[0];
  }
};

}  // namespace camus::fixture
