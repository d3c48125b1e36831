// Control-plane entry deltas: the minimal-update currency of the live
// subscription churn path (paper §3: "state updates can benefit from
// table entry re-use"). One EntryOp is one control-plane operation on a
// programmed switch — install, delete, or (leaf only) modify a single
// entry. The incremental compiler emits them, the installer ships them
// over the (possibly faulty) control channel, and apply_ops() patches a
// running Pipeline in place — the software analogue of a Tofino taking
// table updates from its driver while forwarding at line rate.
//
// Ordering and priority: match priority inside a table is structural
// (exact beats range beats wildcard, ranges are disjoint), not positional,
// so a patched table is behaviourally identical to a freshly generated one
// regardless of entry order. apply_ops() applies removes before modifies
// before adds so that a remove+add pair touching the same value region
// never transiently violates range disjointness, then re-validates the
// whole pipeline before the patch is considered committed.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "table/pipeline.hpp"
#include "util/result.hpp"

namespace camus::table {

// Current delta wire-format version; deserialize_ops rejects others.
inline constexpr int kDeltaFormatVersion = 2;

// The leaf table's reserved name in EntryOp::table. Field tables are
// compiler-named ("tbl_<field>", "map_<field>") and never collide.
inline constexpr std::string_view kLeafTableName = "leaf";

// One control-plane operation: install, delete, or modify one entry.
struct EntryOp {
  enum class Kind : std::uint8_t { kAdd, kRemove, kModify };
  Kind kind = Kind::kAdd;
  std::string table;  // field/value-map table name, or kLeafTableName
  StateId state = 0;
  ValueMatch match;        // field ops only
  StateId next_state = 0;  // field ops only
  lang::ActionSet actions;  // leaf ops only; kModify is leaf-only

  bool is_leaf() const noexcept { return table == kLeafTableName; }

  std::string to_string() const;

  friend bool operator==(const EntryOp&, const EntryOp&) = default;
};

// Outcome summary of one apply_ops() call.
struct ApplyStats {
  std::size_t adds = 0;
  std::size_t removes = 0;
  std::size_t modifies = 0;
};

// Applies a delta to a pipeline in place. Strict: every op must land
// exactly (U0xx diagnostics otherwise), so a desynchronized controller
// and switch are detected instead of silently diverging:
//   U001  op names a table the pipeline does not have
//   U002  remove: no entry matches (state, match, next_state)
//   U003  add: an identical entry already exists
//   U004  modify on a field table (modify is leaf-only)
//   U005  leaf remove/modify: state absent, or actions mismatch on remove
//   U006  leaf add: state already has an entry
//   U007  patched pipeline failed structural validation
// On error the pipeline may hold a partial patch: callers apply to a
// scratch copy and swap (see Switch::stage), never to a pipeline readers
// can observe. Leaf adds/modifies intern multicast
// groups locally, so deltas are independent of group renumbering; a
// delta that removes or modifies a multi-port leaf renumbers the groups
// densely over the live leaves, dropping those no leaf uses.
util::Result<ApplyStats> apply_ops(Pipeline& pipe,
                                   std::span<const EntryOp> ops);

// Binary wire format for shipping a delta over the control channel
// (digest protection is the installer's job). All integers little-endian:
//   header   "CDLT", u32 version (kDeltaFormatVersion), u32 op count
//   stages   u32 count, then per stage u32 length + name bytes: the field
//            and value-map tables the ops name, sorted, unique, each used
//   per op   u8 kind, u32 stage index (2^32-1 for the leaf), u32 state
//     field  u8 match kind, u64 lo, u64 hi, u32 next state
//     leaf   u32 count + u16 ports, u32 count + u32 state updates
// A leaf's port list is written as raw u16s: an unsubscribe's delta holds
// leaves of ~145 ports each, and printing and parsing that many numbers
// as text would be most of the cost of its install.
//
// serialize_ops writes the ops as they are; one whose lists are unsorted
// or whose match is malformed encodes, and its decode fails (D005).
// deserialize_ops accepts only canonical input, so every accepted input
// re-encodes to itself (serialize_ops(deserialize_ops(w)) == w). Every
// count is checked against the bytes left before anything is allocated.
// Rejections carry a D0xx code:
//   D001  bad magic or unsupported version
//   D002  truncated: a field or a count's items run past the end
//   D003  unknown op kind or match kind
//   D004  stage index names no stage
//   D005  non-canonical: stage names unsorted, repeated, unused or
//         "leaf"; a match whose lo/hi its kind does not allow (any is
//         0..0, exact has lo == hi, range lo <= hi); ports or state
//         updates not strictly ascending
//   D006  trailing bytes after the last op
std::string serialize_ops(std::span<const EntryOp> ops);
util::Result<std::vector<EntryOp>> deserialize_ops(std::string_view wire);

// --- pipeline diffing & digests (reconciliation currency) ----------------
//
// The incremental compiler, the controller's warm-boot anti-entropy pass,
// and the recovery tests all need the same two primitives: a canonical
// order-independent digest of what a pipeline's stages contain, and the
// minimal EntryOp delta that turns one pipeline into another. Both
// deliberately ignore multicast group *ids* (renumbered per compilation;
// leaf ops re-intern locally) and entry order (match priority is
// structural), so two semantically identical programs produced by
// different histories compare equal.

// Digest of one stage's contents. `entries` is the logical entry count.
struct StageDigest {
  std::string table;  // value-map/table name, or kLeafTableName
  std::uint64_t digest = 0;
  std::size_t entries = 0;

  friend bool operator==(const StageDigest&, const StageDigest&) = default;
};

// Per-stage digests in pipeline order (value maps, field tables, leaf).
// This is what a switch reports during the warm-boot handshake: the
// controller compares it against the intended pipeline's digests to find
// diverged stages without reading any entries.
std::vector<StageDigest> stage_digests(const Pipeline& pipe);

// Order-independent digest of the whole program (folds stage_digests).
std::uint64_t pipeline_digest(const Pipeline& pipe);

// The minimal entry delta turning `have` into `want`, plus reuse
// accounting. `have == nullptr` is a cold start: every entry is an add,
// and requires_reprogram is set — with no base there is no program whose
// stages the ops could target, so the full image must ship.
struct PipelineDiff {
  std::vector<EntryOp> ops;
  std::size_t reused_entries = 0;  // entries of `want` already in `have`
  std::size_t total_entries = 0;   // entries in `want`
  // True when the delta cannot ship as ops against `have`: there is no
  // `have` (cold start), the stage layouts differ (even by an empty
  // stage or by one stage's match kind — entry ops cannot create, retire
  // or re-type stages), or the initial state moved (a wholesale
  // renumbering; entry ops cannot re-aim the walk's entry point). Install
  // the full `want` image instead.
  bool requires_reprogram = false;

  double reuse_fraction() const noexcept {
    return total_entries == 0 ? 1.0
                              : static_cast<double>(reused_entries) /
                                    static_cast<double>(total_entries);
  }
};

PipelineDiff diff_pipelines(const Pipeline* have, const Pipeline& want);

}  // namespace camus::table
