#include "pubsub/durable.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <utility>

#include "lang/parser.hpp"

namespace camus::pubsub {

using util::Error;
using util::RecordType;
using util::Result;

namespace {

Error not_open() {
  return Error{"DurableController used before a successful open()", 0, 0,
               "E142"};
}

Error not_committed(const char* what) {
  return Error{std::string("DurableController::") + what +
                   " before a successful commit()",
               0, 0, "E122"};
}

Error bad_payload(RecordType type, const std::string& payload) {
  return Error{"malformed journal payload for record type " +
                   std::to_string(static_cast<int>(type)) + ": '" + payload +
                   "'",
               0, 0, "J011"};
}

// Parses leading unsigned fields off an istringstream; false on failure.
bool read_u64(std::istringstream& is, std::uint64_t& out) {
  return static_cast<bool>(is >> out);
}

// Parses "port prio text" (kSubscribe payloads and snapshot "sub" lines).
bool read_sub(std::istringstream& is, std::uint16_t& port, int& prio,
              std::string& text) {
  std::uint64_t p = 0;
  long long pr = 0;
  if (!(is >> p >> pr)) return false;
  std::getline(is, text);
  if (!text.empty() && text.front() == ' ') text.erase(0, 1);
  port = static_cast<std::uint16_t>(p);
  prio = static_cast<int>(pr);
  return true;
}

}  // namespace

DurableController::DurableController(spec::Schema schema,
                                     util::StableStorage& storage,
                                     compiler::FabricSpec topology,
                                     compiler::CompileOptions opts)
    : schema_(std::move(schema)),
      topology_(topology),
      opts_(opts),
      journal_(storage),
      steer_ids_(topology.leaves),
      steering_(topology.leaves) {
  leaves_.reserve(topology_.leaves);
  for (std::size_t l = 0; l < topology_.leaves; ++l)
    leaves_.push_back(Node{compiler::IncrementalCompiler(schema_, opts_)});
  if (topology_.spines > 0)
    spine_.emplace(Node{compiler::IncrementalCompiler(
        schema_, compiler::spine_compile_options(opts_))});
}

Result<bool> DurableController::check_shape(
    const FabricTargets& targets) const {
  if (targets.spines.size() != topology_.spines ||
      targets.leaves.size() != topology_.leaves)
    return Error{"FabricTargets shape disagrees with the topology", 0, 0,
                 "F151"};
  return true;
}

Result<std::pair<DurableController::Sub, lang::BoundRule>>
DurableController::bind(std::uint16_t port, int priority,
                        const std::string& text) const {
  auto parsed = lang::parse_rule(text);
  if (!parsed.ok()) return parsed.error();
  auto bound = lang::bind_rule(parsed.value(), schema_);
  if (!bound.ok()) return bound.error();
  Sub sub;
  sub.port = port;
  sub.priority = priority;
  sub.text = text;
  sub.ports = bound.value().actions.ports;
  auto pins = compiler::steering_pins(bound.value(), schema_, topology_,
                                      leaves_[0].inc.manager()->order(),
                                      opts_.max_dnf_terms);
  if (!pins.ok()) return pins.error();
  sub.pins = std::move(pins).take();
  return std::pair{std::move(sub), std::move(bound).take()};
}

void DurableController::place(Sub sub, const lang::BoundRule& rule) {
  for (auto& [leaf, restricted] :
       compiler::restrict_to_leaves(rule, topology_)) {
    sub.placed.emplace_back(leaf, leaves_[leaf].inc.add(std::move(restricted)));
    leaves_[leaf].dirty = true;
  }
  subs_.push_back(std::move(sub));
}

Result<bool> DurableController::apply_subscribe(std::uint16_t port,
                                                int priority,
                                                const std::string& text) {
  auto bound = bind(port, priority, text);
  if (!bound.ok()) return bound.error();
  auto [sub, rule] = std::move(bound).take();
  place(std::move(sub), rule);
  return true;
}

std::size_t DurableController::apply_unsubscribe(std::uint16_t port) {
  const auto gone = std::stable_partition(
      subs_.begin(), subs_.end(),
      [port](const Sub& s) { return !s.forwards_only_to(port); });
  const auto removed = static_cast<std::size_t>(subs_.end() - gone);
  for (auto it = gone; it != subs_.end(); ++it) {
    for (const auto& [leaf, id] : it->placed) {
      leaves_[leaf].inc.remove(id);
      leaves_[leaf].dirty = true;
    }
    if (it->committed) retired_.push_back(std::move(*it));
  }
  subs_.erase(gone, subs_.end());
  return removed;
}

void DurableController::update_steering() {
  const bdd::BddManager& mgr = *spine_->inc.manager();
  std::map<lang::Subject, std::size_t> pinned_count;
  for (const Sub& s : subs_)
    for (const auto& [subject, _] : s.pins) ++pinned_count[subject];
  const std::optional<lang::Subject> steer =
      compiler::choose_steering(pinned_count, mgr.order());

  std::vector<Steering> want(topology_.leaves);
  for (const Sub& s : subs_) {
    std::optional<std::uint64_t> pin;
    if (steer) {
      const auto it = s.pins.find(*steer);
      if (it != s.pins.end()) pin = it->second;
    }
    for (const auto& [leaf, id] : s.placed) {
      Steering& w = want[leaf];
      w.populated = true;
      if (pin)
        w.values = w.values.unite(util::IntervalSet::point(*pin));
      else
        w.needs_all = true;
    }
  }

  const std::uint64_t steer_umax =
      steer ? mgr.domains().umax(*steer) : util::IntervalSet::kMax;
  for (std::size_t leaf = 0; leaf < topology_.leaves; ++leaf) {
    Steering& w = want[leaf];
    // Normalize to what the rule encodes, so equal sets compare equal.
    if (!w.populated || w.needs_all) {
      w.values = util::IntervalSet::empty();
    } else {
      w.subject = steer;
    }
    if (steer_ids_[leaf] && w == steering_[leaf]) continue;
    if (steer_ids_[leaf]) spine_->inc.remove(*steer_ids_[leaf]);
    steer_ids_[leaf] = spine_->inc.add(compiler::steering_rule(
        topology_, leaf, steer, w.populated, w.needs_all, w.values,
        steer_umax));
    steering_[leaf] = std::move(w);
    spine_->dirty = true;
  }
}

Result<std::uint64_t> DurableController::apply_commit(FabricDelta* out) {
  FabricDelta delta;
  delta.leaves.resize(topology_.leaves);
  // The nodes to recompile, spine first, each with its delta's slot.
  std::vector<std::pair<Node*, Delta*>> dirty;
  if (spine_) {
    update_steering();
    if (spine_->dirty) dirty.emplace_back(&*spine_, &delta.spine);
  }
  for (std::size_t l = 0; l < topology_.leaves; ++l)
    if (leaves_[l].dirty) dirty.emplace_back(&leaves_[l], &delta.leaves[l]);

  // All or nothing: when a live commit fails to compile, or the lint gate
  // rejects it, every node gets its diff base back and stays dirty, and
  // the intent does not move (diverged_: see commit()). Replay keeps no
  // bases: a replayed commit that fails fails open().
  std::vector<table::Pipeline> bases;
  if (out)
    for (auto& [node, _] : dirty)
      bases.push_back(node->inc.has_pipeline() ? *node->inc.pipeline().value()
                                               : table::Pipeline{});
  auto fail = [&](Error error) -> Result<std::uint64_t> {
    for (std::size_t j = 0; j < bases.size(); ++j)
      dirty[j].first->inc.restore_installed(std::move(bases[j]));
    diverged_ = true;
    return error;
  };

  // The CheckpointPolicy's cost model times what replaying a kCommit
  // reruns: the recompiles, not the copies above or the lint gate below.
  const auto t0 = std::chrono::steady_clock::now();
  for (auto& [node, slot] : dirty) {
    auto committed = node->inc.commit();
    if (!committed.ok()) return fail(committed.error());
    *slot = std::move(committed).take();
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  if (out && lint_policy_ != LintPolicy::kOff) {
    lint_report_ = verify::Report{};
    for (std::size_t l = 0; l < topology_.leaves; ++l) {
      if (!leaves_[l].dirty) continue;
      auto passed = lint(leaves_[l].inc, l);
      if (!passed.ok()) return fail(passed.error());
    }
  }

  // Snapshot the new programs as the intent: install rollback only rewinds
  // the compilers' diff bases, never this.
  if (!intended_) {
    intended_.emplace();
    intended_->spec = topology_;
    intended_->leaves.resize(topology_.leaves);
  }
  if (spine_ && spine_->dirty)
    intended_->spine = *spine_->inc.pipeline().value();
  for (std::size_t l = 0; l < topology_.leaves; ++l)
    if (leaves_[l].dirty)
      intended_->leaves[l] = *leaves_[l].inc.pipeline().value();
  for (auto& [node, _] : dirty) node->dirty = false;
  intended_->seal();
  delta.digest = intended_->fabric_digest;
  if (out) *out = std::move(delta);
  for (Sub& sub : subs_) sub.committed = true;
  retired_.clear();
  commit_seconds_ewma_ = commit_seconds_ewma_ == 0
                             ? secs
                             : 0.75 * commit_seconds_ewma_ + 0.25 * secs;
  return intended_->fabric_digest;
}

Result<bool> DurableController::lint(const compiler::IncrementalCompiler& inc,
                                     std::size_t leaf) {
  // The leaf's rules, restricted to its ports as place() added them.
  std::vector<lang::BoundRule> rules;
  for (const Sub& s : subs_) {
    auto bound = bind(s.port, s.priority, s.text);
    if (!bound.ok()) return bound.error();
    for (auto& [l, rule] :
         compiler::restrict_to_leaves(bound.value().second, topology_))
      if (l == leaf) rules.push_back(std::move(rule));
  }
  const compiler::Compiled candidate{.pipeline = *inc.pipeline().value(),
                                     .stats = {},
                                     .manager = inc.manager(),
                                     .root = inc.root()};
  auto verified = verify::verify_compiled(schema_, rules, candidate,
                                          lint_report_, lint_opts_);
  if (!verified.ok()) return verified.error();
  if (lint_policy_ == LintPolicy::kReject && lint_report_.has_errors())
    return Error{"verifier rejected the program of leaf " +
                 std::to_string(leaf) + ":\n" + lint_report_.to_text()};
  return true;
}

Result<const compiler::FabricProgram*> DurableController::intended() const {
  if (!intended_) return not_committed("intended()");
  return &*intended_;
}

const table::Pipeline& DurableController::program_for(std::size_t i) const {
  return i < topology_.spines ? intended_->spine
                              : intended_->leaves[i - topology_.spines];
}

std::vector<util::Record> DurableController::snapshot_records() const {
  // The snapshot holds what the last commit compiled. The changes made
  // since follow it as records: an unsubscribe of each retired
  // subscription's port (which removes exactly the retired ones), then the
  // uncommitted subscriptions in order.
  auto payload = [](const Sub& s) {
    return std::to_string(s.port) + " " + std::to_string(s.priority) + " " +
           s.text;
  };
  std::ostringstream os;
  os << "epoch " << epoch_ << "\n"
     << "commits " << commit_seq_ << "\n"
     << "installs " << install_seq_ << "\n";
  std::vector<util::Record> records(1);
  for (const Sub& s : retired_) {
    os << "sub " << payload(s) << "\n";
    records.push_back({RecordType::kUnsubscribe, std::to_string(s.ports[0])});
  }
  for (const Sub& s : subs_) {
    if (s.committed)
      os << "sub " << payload(s) << "\n";
    else
      records.push_back({RecordType::kSubscribe, payload(s)});
  }
  records[0] = {RecordType::kSnapshot, os.str()};
  return records;
}

Result<bool> DurableController::replay_snapshot(const std::string& payload) {
  std::istringstream lines(payload);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    std::istringstream is(line);
    std::string tag;
    is >> tag;
    if (tag == "epoch" || tag == "commits" || tag == "installs") {
      std::uint64_t v = 0;
      if (!read_u64(is, v))
        return bad_payload(RecordType::kSnapshot, line);
      if (tag == "epoch") epoch_ = v;
      if (tag == "commits") commit_seq_ = v;
      if (tag == "installs") install_seq_ = v;
    } else if (tag == "sub") {
      std::uint16_t port = 0;
      int prio = 0;
      std::string text;
      if (!read_sub(is, port, prio, text))
        return bad_payload(RecordType::kSnapshot, line);
      auto applied = apply_subscribe(port, prio, text);
      if (!applied.ok()) return applied.error();
    } else {
      return bad_payload(RecordType::kSnapshot, line);
    }
  }
  // The snapshot captured committed state: rebuild the intended programs
  // (fresh state numbering — see the header's recovery-fidelity note).
  if (commit_seq_ > 0) {
    auto committed = apply_commit(nullptr);
    if (!committed.ok()) return committed.error();
  }
  return true;
}

Result<RecoveryInfo> DurableController::open() {
  if (opened_)
    return Error{"DurableController::open() called twice", 0, 0, "E142"};
  if (!topology_.valid())
    return Error{"topology needs at least one leaf, and at least one spine "
                 "unless it is the single switch (0 spines x 1 leaf)",
                 0, 0, "F151"};
  auto replayed = journal_.replay();
  if (!replayed.ok()) return replayed.error();
  const util::ReplayResult& rep = replayed.value();

  recovery_ = RecoveryInfo{};
  recovery_.torn_bytes = rep.torn_bytes;
  recovery_.recovered = !rep.records.empty();

  std::uint64_t max_epoch = 0;
  std::optional<std::uint64_t> in_flight;

  for (const util::Record& rec : rep.records) {
    ++recovery_.records_replayed;
    std::istringstream is(rec.payload);
    switch (rec.type) {
      case RecordType::kSnapshot: {
        recovery_.from_snapshot = true;
        auto ok = replay_snapshot(rec.payload);
        if (!ok.ok()) return ok.error();
        max_epoch = std::max(max_epoch, epoch_);
        break;
      }
      case RecordType::kEpoch: {
        std::uint64_t e = 0;
        if (!read_u64(is, e)) return bad_payload(rec.type, rec.payload);
        max_epoch = std::max(max_epoch, e);
        break;
      }
      case RecordType::kSubscribe: {
        std::uint16_t port = 0;
        int prio = 0;
        std::string text;
        if (!read_sub(is, port, prio, text))
          return bad_payload(rec.type, rec.payload);
        auto applied = apply_subscribe(port, prio, text);
        if (!applied.ok()) return applied.error();
        break;
      }
      case RecordType::kUnsubscribe: {
        std::uint64_t port = 0;
        if (!read_u64(is, port)) return bad_payload(rec.type, rec.payload);
        apply_unsubscribe(static_cast<std::uint16_t>(port));
        break;
      }
      case RecordType::kCommit: {
        std::uint64_t seq = 0, digest = 0;
        if (!read_u64(is, seq) || !read_u64(is, digest))
          return bad_payload(rec.type, rec.payload);
        auto got = apply_commit(nullptr);
        if (!got.ok()) return got.error();
        commit_seq_ = seq;
        ++recovery_.commits_replayed;
        if (got.value() != digest) {
          ++recovery_.digest_mismatches;
          // Exact replay is deterministic: a divergence means the journal
          // or the compiler lied. After a snapshot, state numbering is
          // legitimately fresh and digests shift — count, don't fail.
          if (!recovery_.from_snapshot)
            return Error{"replayed commit " + std::to_string(seq) +
                             " digest mismatch (journal corruption or "
                             "non-deterministic compiler)",
                         0, 0, "J010"};
        }
        break;
      }
      case RecordType::kInstallBegin: {
        std::uint64_t seq = 0;
        if (!read_u64(is, seq)) return bad_payload(rec.type, rec.payload);
        install_seq_ = std::max(install_seq_, seq);
        in_flight = seq;
        break;
      }
      case RecordType::kInstallCommit:
      case RecordType::kInstallAbort: {
        in_flight.reset();
        break;
      }
    }
  }

  epoch_ = max_epoch + 1;
  recovery_.epoch = epoch_;
  recovery_.subscriptions = subs_.size();
  auto journaled = journal_.append(RecordType::kEpoch,
                                   std::to_string(epoch_));
  if (!journaled.ok()) return journaled.error();

  if (in_flight) {
    // The crash hit between kInstallBegin and its outcome — possibly
    // between per-switch commits. Resolve by journaling the abort: the
    // journaled commit is still the intent, and the next reconcile()
    // drives every switch to it from digests.
    recovery_.install_in_flight = true;
    auto aborted = journal_.append(RecordType::kInstallAbort,
                                   std::to_string(*in_flight));
    if (!aborted.ok()) return aborted.error();
  }

  // Seed the CheckpointPolicy with what a successor would have to replay:
  // everything we just replayed, plus the kEpoch (and possible abort) we
  // appended.
  records_since_checkpoint_ =
      recovery_.records_replayed + 1 + (in_flight ? 1 : 0);
  commits_since_checkpoint_ = recovery_.commits_replayed;

  opened_ = true;
  return recovery_;
}

Result<bool> DurableController::subscribe(std::uint16_t port,
                                          std::string_view rule_text,
                                          int priority) {
  if (!opened_) return not_open();
  // Replay reads kSubscribe payloads and snapshot lines with getline, so a
  // line break would truncate the rule. Joining the lines is no fix: a '#'
  // or '//' comment would then swallow the rest of the rule.
  if (rule_text.find('\n') != std::string_view::npos)
    return Error{"rule text spans lines; the journal stores one rule per "
                 "line", 0, 0, "E143"};
  std::string text(rule_text);
  // Interest-only form: append the subscriber's forwarding action.
  if (text.find(':') == std::string::npos)
    text += " : fwd(" + std::to_string(port) + ")";
  // Validate BEFORE journaling — a rejected rule must not pollute the log
  // (replay re-binds every journaled rule and treats failure as fatal).
  auto bound = bind(port, priority, text);
  if (!bound.ok()) return bound.error();
  // WAL: journal, sync, then mutate memory.
  std::ostringstream payload;
  payload << port << " " << priority << " " << text;
  auto journaled = journal_.append(RecordType::kSubscribe, payload.str());
  if (!journaled.ok()) return journaled.error();
  ++records_since_checkpoint_;
  auto [sub, rule] = std::move(bound).take();
  place(std::move(sub), rule);
  return true;
}

Result<std::size_t> DurableController::unsubscribe(std::uint16_t port) {
  if (!opened_) return not_open();
  // Pure query first: a no-op unsubscribe journals nothing.
  if (std::none_of(subs_.begin(), subs_.end(),
                   [port](const Sub& s) { return s.forwards_only_to(port); }))
    return std::size_t{0};
  auto journaled = journal_.append(RecordType::kUnsubscribe,
                                   std::to_string(port));
  if (!journaled.ok()) return journaled.error();
  ++records_since_checkpoint_;
  return apply_unsubscribe(port);
}

Result<FabricDelta> DurableController::commit() {
  if (!opened_) return not_open();
  // The compile is pure in-memory: a crash before the journal append just
  // loses an uncommitted compile, which replay correctly omits.
  FabricDelta delta;
  auto digest = apply_commit(&delta);
  if (!digest.ok()) return digest.error();
  ++commit_seq_;
  if (diverged_) {
    // A failed commit left its BDD nodes and state ids in the compilers, so
    // a kCommit record could not replay to this digest (J010). Journal the
    // commit as a snapshot, whose replay recompiles from scratch.
    auto compacted = checkpoint();
    if (!compacted.ok()) return compacted.error();
    diverged_ = false;
    return delta;
  }
  std::ostringstream payload;
  payload << commit_seq_ << " " << digest.value();
  auto journaled = journal_.append(RecordType::kCommit, payload.str());
  if (!journaled.ok()) return journaled.error();
  ++records_since_checkpoint_;
  ++commits_since_checkpoint_;
  auto compacted = maybe_auto_checkpoint();
  if (!compacted.ok()) return compacted.error();
  return delta;
}

void DurableController::rewind(const FabricTargets& targets,
                               const FabricDelta& delta) {
  // The node's next delta must land on what its switch runs (rollback
  // already undid any commit this install made), so the next commit
  // recompiles it against that program.
  if (spine_ && !FabricDelta::empty(delta.spine)) {
    spine_->inc.restore_installed(
        table::Pipeline(*targets.spines[0]->active()));
    spine_->dirty = true;
  }
  for (std::size_t l = 0; l < topology_.leaves; ++l) {
    if (FabricDelta::empty(delta.leaves[l])) continue;
    leaves_[l].inc.restore_installed(
        table::Pipeline(*targets.leaves[l]->active()));
    leaves_[l].dirty = true;
  }
}

Result<FabricInstallReport> DurableController::abort_install(
    FabricInstallReport report, const FabricTargets& targets,
    const FabricDelta& delta) {
  auto aborted = journal_.append(RecordType::kInstallAbort,
                                 std::to_string(install_seq_));
  if (!aborted.ok()) return aborted.error();
  records_since_checkpoint_ += 2;  // kInstallBegin + outcome
  rewind(targets, delta);
  return report;
}

Result<FabricInstallReport> DurableController::install(
    const FabricTargets& targets, const FabricDelta& delta,
    const fault::Plan* faults, int fault_switch, std::size_t chunk_bytes,
    int max_attempts, int chunk_retries) {
  if (!opened_) return not_open();
  if (!intended_) return not_committed("install()");
  auto shaped = check_shape(targets);
  if (!shaped.ok()) return shaped.error();
  if (delta.leaves.size() != topology_.leaves)
    return Error{"FabricDelta shape disagrees with the topology", 0, 0,
                 "F151"};

  FabricInstallReport report;
  report.epoch = epoch_;
  report.reports.resize(targets.size());

  // The whole transaction is one journaled install; the begin record
  // carries the fabric digest so a post-crash reader knows what was being
  // attempted.
  ++install_seq_;
  std::ostringstream begin;
  begin << install_seq_ << " " << delta.digest;
  auto journaled = journal_.append(RecordType::kInstallBegin, begin.str());
  if (!journaled.ok()) return journaled.error();

  // --- Phase 1: stage every non-empty node delta. No switch is touched; a
  // failure anywhere aborts with the fabric exactly as it was.
  std::vector<StagedInstall> staged(targets.size());
  const std::vector<std::size_t> touched = delta.touched(topology_.spines);
  for (const std::size_t i : touched) {
    const Delta& d = delta.at(i, topology_.spines);
    TwoPhaseInstaller& installer = targets.at(i);
    installer.set_epoch(epoch_);
    const fault::Plan* plan =
        (fault_switch < 0 || static_cast<std::size_t>(fault_switch) == i)
            ? faults
            : nullptr;
    staged[i] = d.requires_reprogram
                    ? installer.stage(program_for(i), plan, chunk_bytes,
                                      max_attempts, chunk_retries)
                    : installer.stage(d.ops, plan, chunk_bytes, max_attempts,
                                      chunk_retries);
    report.reports[i] = staged[i].report;
    if (!staged[i].staged) {
      report.all_or_nothing_abort = true;
      report.error = "stage failed on switch " + std::to_string(i) + ": " +
                     staged[i].report.error;
      return abort_install(std::move(report), targets, delta);
    }
    ++report.staged;
  }

  // --- Phase 2: commit switch by switch. Every switch already staged its
  // program, so a commit fails only on fencing (a newer controller took
  // the switch, E140) or on a moved base (the switch was written after its
  // delta was staged, E144). Either rolls back the switches already
  // flipped.
  for (std::size_t k = 0;; ++k) {
    if (crash_after_commits_ >= 0 &&
        static_cast<std::size_t>(crash_after_commits_) ==
            report.committed_switches) {
      // Simulated controller death: no outcome record, the fabric possibly
      // mixed. open() + reconcile() must repair.
      crash_after_commits_ = -1;
      report.crashed_mid_commit = true;
      report.error = "controller crashed mid-commit (injected)";
      return report;
    }
    if (k == touched.size()) break;
    const std::size_t i = touched[k];
    const bool ok = targets.at(i).commit(staged[i]);
    report.reports[i] = staged[i].report;
    if (!ok) {
      report.error = "commit failed on switch " + std::to_string(i) + ": " +
                     staged[i].report.error;
      for (std::size_t j = 0; j < k; ++j)
        if (targets.at(touched[j]).rollback()) ++report.rolled_back;
      return abort_install(std::move(report), targets, delta);
    }
    ++report.committed_switches;
  }

  auto recorded = journal_.append(RecordType::kInstallCommit,
                                  std::to_string(install_seq_));
  if (!recorded.ok()) return recorded.error();
  records_since_checkpoint_ += 2;  // kInstallBegin + outcome
  report.committed = true;
  return report;
}

Result<FabricReconcileReport> DurableController::reconcile(
    const FabricTargets& targets, const fault::Plan* faults,
    std::size_t chunk_bytes, int max_attempts, int chunk_retries) {
  if (!opened_) return not_open();
  auto shaped = check_shape(targets);
  if (!shaped.ok()) return shaped.error();

  FabricReconcileReport report;

  // Fence every switch first: after this loop a deposed controller's
  // stragglers bounce everywhere (E140), so repairs cannot interleave with
  // a predecessor's writes on any node.
  for (std::size_t i = 0; i < targets.size(); ++i) {
    TwoPhaseInstaller& installer = targets.at(i);
    auto fenced = installer.target().fence(epoch_);
    if (!fenced.ok()) return fenced.error();
    installer.set_epoch(epoch_);
  }

  report.converged = true;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    TwoPhaseInstaller& installer = targets.at(i);
    switchsim::Switch& sw = installer.target();
    // The intended program = the last journaled commit (NOT the diff
    // base), or the empty program before any commit.
    table::Pipeline want;
    if (intended_) want = program_for(i);
    const std::uint64_t want_digest = table::pipeline_digest(want);

    // Anti-entropy handshake: the switch reports per-stage digests; a
    // stage diverges when its digest differs or one side lacks it.
    std::map<std::string, std::uint64_t> have;
    for (const table::StageDigest& h : sw.stage_digests())
      have[h.table] = h.digest;
    for (const table::StageDigest& w : table::stage_digests(want)) {
      const auto it = have.find(w.table);
      if (it == have.end() || it->second != w.digest) ++report.diverged_stages;
      if (it != have.end()) have.erase(it);
    }
    report.diverged_stages += have.size();

    if (sw.program_digest() == want_digest) {
      ++report.in_sync;
      report.reused_entries += want.total_entries();
      report.total_entries += want.total_entries();
      continue;
    }

    // Minimal repair in the same diff currency as live churn deltas, so
    // reconciliation and the compilers never disagree about an update.
    const auto running = sw.pipeline_snapshot();
    table::PipelineDiff diff = table::diff_pipelines(running.get(), want);
    report.reused_entries += diff.reused_entries;
    report.total_entries += diff.total_entries;
    InstallReport install;
    if (diff.requires_reprogram) {
      ++report.full_reprograms;
      install = installer.install(want, faults, chunk_bytes, max_attempts,
                                  chunk_retries);
    } else {
      report.repair_ops += diff.ops.size();
      install = installer.apply_delta(diff.ops, faults, chunk_bytes,
                                      max_attempts, chunk_retries);
    }
    if (!install.committed || sw.program_digest() != want_digest) {
      report.converged = false;
      if (report.error.empty())
        report.error = "repair failed on switch " + std::to_string(i) + ": " +
                       install.error;
      continue;
    }
    ++report.repaired;
    // The switch now runs the intent; make it the node's diff base.
    Node& node = i < topology_.spines ? *spine_
                                      : leaves_[i - topology_.spines];
    node.inc.restore_installed(std::move(want));
  }
  return report;
}

Result<bool> DurableController::checkpoint() {
  if (!opened_) return not_open();
  const std::vector<util::Record> records = snapshot_records();
  auto compacted = journal_.compact(records);
  if (!compacted.ok()) return compacted;
  // Replay now starts at the snapshot: its records, and one recompile when
  // committed state exists.
  records_since_checkpoint_ = records.size();
  commits_since_checkpoint_ = commit_seq_ > 0 ? 1 : 0;
  return compacted;
}

double DurableController::estimated_replay_seconds() const noexcept {
  // Commit records rerun the incremental compiles on replay; charge them
  // the measured EWMA (or the generic record cost until the first
  // measurement lands). Everything else is a parse + bind.
  const double per_commit = commit_seconds_ewma_ > 0
                                ? commit_seconds_ewma_
                                : policy_.per_record_seconds;
  return static_cast<double>(records_since_checkpoint_) *
             policy_.per_record_seconds +
         static_cast<double>(commits_since_checkpoint_) * per_commit;
}

Result<bool> DurableController::maybe_auto_checkpoint() {
  if (policy_.max_replay_seconds <= 0) return false;
  if (records_since_checkpoint_ < policy_.min_records) return false;
  if (estimated_replay_seconds() <= policy_.max_replay_seconds) return false;
  auto cp = checkpoint();
  if (!cp.ok()) return cp.error();
  ++auto_checkpoints_;
  return true;
}

}  // namespace camus::pubsub
