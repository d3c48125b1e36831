#include "table/serialize.hpp"

#include <unordered_map>
#include <vector>

#include "table/text_format.hpp"

namespace camus::table {

using textio::put_actions;
using textio::put_list;
using textio::put_match;
using textio::put_u64;
using util::Error;
using util::Result;

namespace {

const char* match_kind_name(MatchKind k) {
  switch (k) {
    case MatchKind::kExact: return "exact";
    case MatchKind::kRange: return "range";
    case MatchKind::kTernary: return "ternary";
  }
  return "?";
}

// Upper bounds on the encoded lines, so the image is sized once: a
// table line with its entries (every number at most 20 digits), a leaf
// entry, and a multicast group.
std::size_t table_bytes(const Table& t) {
  return 96 + t.name().size() + 80 * t.entries().size();
}
std::size_t leaf_bytes(const lang::ActionSet& a) {
  return 64 + 6 * a.ports.size() + 11 * a.state_updates.size();
}

void write_table(std::string& out, const char* tag, const Table& t) {
  out += tag;
  out += ' ';
  out += t.name();
  out += " subject=";
  out += t.subject().kind == lang::Subject::Kind::kField ? 'f' : 's';
  put_u64(out, t.subject().id);
  out += " kind=";
  out += match_kind_name(t.kind());
  out += " width=";
  put_u64(out, t.width_bits());
  out += " symbol=";
  out += t.is_symbol() ? '1' : '0';
  out += '\n';
  for (const auto& e : t.entries()) {
    out += "entry ";
    put_u64(out, e.state);
    put_match(out, e.match, e.next_state);
    out += '\n';
  }
}

Result<lang::Subject> parse_subject(std::string_view v) {
  if (v.empty()) return Error{"bad subject"};
  std::uint64_t id = 0;
  if (!textio::parse_u64(v.substr(1), &id)) return Error{"bad subject id"};
  if (v[0] == 'f')
    return lang::Subject::field(static_cast<std::uint32_t>(id));
  if (v[0] == 's')
    return lang::Subject::state(static_cast<std::uint32_t>(id));
  return Error{"bad subject kind"};
}

}  // namespace

std::string serialize_pipeline(const Pipeline& pipeline) {
  std::size_t bytes = 64;
  for (const auto& t : pipeline.value_maps) bytes += table_bytes(t);
  for (const auto& t : pipeline.tables) bytes += table_bytes(t);
  for (const auto& e : pipeline.leaf.entries()) bytes += leaf_bytes(*e.actions);
  for (std::uint32_t g = 0; g < pipeline.mcast.size(); ++g)
    bytes += 32 + 6 * pipeline.mcast.ports(g).size();
  std::string out;
  out.reserve(bytes);

  out += "camus-pipeline v";
  put_u64(out, kPipelineFormatVersion);
  out += "\ninitial_state ";
  put_u64(out, pipeline.initial_state);
  out += '\n';
  for (const auto& t : pipeline.value_maps) write_table(out, "value_map", t);
  for (const auto& t : pipeline.tables) write_table(out, "table", t);
  out += "leaf\n";
  for (const auto& e : pipeline.leaf.entries()) {
    out += "entry ";
    put_u64(out, e.state);
    put_actions(out, *e.actions);
    out += " mcast=";
    if (e.mcast_group)
      put_u64(out, *e.mcast_group);
    else
      out += '-';
    out += '\n';
  }
  for (std::uint32_t g = 0; g < pipeline.mcast.size(); ++g) {
    out += "mcast ";
    put_u64(out, g);
    out += " ports=";
    // An empty group, which the reader rejects, writes no list, not "-".
    if (const auto& ports = pipeline.mcast.ports(g); !ports.empty())
      put_list(out, ports);
    out += '\n';
  }
  out += "end\n";
  return out;
}

Result<Pipeline> deserialize_pipeline(std::string_view text) {
  textio::Lines lp(text);
  const auto& toks = lp.tok;
  Pipeline pipe;

  // Appended: gcc 12 at -O3 warns falsely (-Wrestrict) on an inlined
  // "literal" + std::string&&.
  std::string version = "v";
  version += std::to_string(kPipelineFormatVersion);
  if (!lp.next() || lp.n != 2 || toks[0] != "camus-pipeline" ||
      toks[1] != version)
    return lp.err("bad header (expected 'camus-pipeline v1')");

  std::uint64_t init = 0;
  if (!lp.next() || lp.n != 2 || toks[0] != "initial_state" ||
      !textio::parse_u64(toks[1], &init))
    return lp.err("bad initial_state line");
  pipe.initial_state = static_cast<StateId>(init);

  Table* current = nullptr;  // table receiving 'entry' lines
  bool in_leaf = false;
  bool done = false;
  // Group id -> the set of the first leaf entry naming it, which the
  // group then shares (leaf lines precede mcast lines).
  std::unordered_map<std::uint64_t, lang::ActionSetPtr> group_set;

  while (lp.next()) {
    if (toks[0] == "end") {
      done = true;
      break;
    }
    if (toks[0] == "table" || toks[0] == "value_map") {
      if (lp.n != 6) return lp.err("bad table line");
      auto subj = parse_subject(textio::kv(toks[2], "subject"));
      if (!subj.ok()) return lp.err(subj.error().message);
      const std::string_view kind_v = textio::kv(toks[3], "kind");
      MatchKind kind;
      if (kind_v == "exact") kind = MatchKind::kExact;
      else if (kind_v == "range") kind = MatchKind::kRange;
      else if (kind_v == "ternary") kind = MatchKind::kTernary;
      else return lp.err("bad table kind");
      std::uint64_t width = 0, symbol = 0;
      if (!textio::parse_u64(textio::kv(toks[4], "width"), &width) ||
          width == 0 || width > 64)
        return lp.err("bad table width");
      if (!textio::parse_u64(textio::kv(toks[5], "symbol"), &symbol) ||
          symbol > 1)
        return lp.err("bad symbol flag");
      auto& vec = toks[0] == "table" ? pipe.tables : pipe.value_maps;
      vec.emplace_back(std::string(toks[1]), subj.value(), kind,
                       static_cast<std::uint32_t>(width));
      vec.back().set_symbol(symbol == 1);
      current = &vec.back();
      in_leaf = false;
      continue;
    }
    if (toks[0] == "leaf") {
      in_leaf = true;
      current = nullptr;
      continue;
    }
    if (toks[0] == "mcast") {
      if (lp.n != 3) return lp.err("bad mcast line");
      std::vector<std::uint16_t> p16;
      bool in_range = true;
      if (!textio::parse_list(textio::kv(toks[2], "ports"),
                              [&](std::uint64_t p) {
                                in_range &= p <= 0xffff;
                                p16.push_back(static_cast<std::uint16_t>(p));
                              }) ||
          p16.empty())
        return lp.err("bad mcast ports");
      if (!in_range) return lp.err("mcast port out of range");
      std::uint64_t gid = 0;
      if (!textio::parse_u64(toks[1], &gid)) return lp.err("bad mcast id");
      const auto first = group_set.find(gid);
      const std::uint32_t id =
          first != group_set.end() && first->second->ports == p16
              ? pipe.mcast.intern(first->second)
              : pipe.mcast.intern(std::move(p16));
      if (id != gid) return lp.err("non-sequential multicast group id");
      continue;
    }
    if (toks[0] == "entry") {
      if (in_leaf) {
        if (lp.n != 5) return lp.err("bad leaf entry");
        std::uint64_t state = 0;
        if (!textio::parse_u64(toks[1], &state))
          return lp.err("bad leaf state");
        LeafEntry e;
        e.state = static_cast<StateId>(state);
        // One new set per entry, read in wire order and then made sorted
        // and unique as ActionSet::add_port/add_update would.
        lang::ActionSet actions;
        bool in_range = true;
        if (!textio::parse_list(textio::kv(toks[2], "ports"),
                                [&](std::uint64_t p) {
                                  in_range &= p <= 0xffff;
                                  actions.ports.push_back(
                                      static_cast<std::uint16_t>(p));
                                }))
          return lp.err("bad leaf ports");
        if (!in_range) return lp.err("leaf port out of range");
        if (!textio::parse_list(textio::kv(toks[3], "updates"),
                                [&](std::uint64_t u) {
                                  actions.state_updates.push_back(
                                      static_cast<std::uint32_t>(u));
                                }))
          return lp.err("bad leaf updates");
        textio::sort_unique(actions.ports);
        textio::sort_unique(actions.state_updates);
        e.actions = std::make_shared<const lang::ActionSet>(std::move(actions));
        const std::string_view mc = textio::kv(toks[4], "mcast");
        if (mc != "-") {
          std::uint64_t gid = 0;
          if (!textio::parse_u64(mc, &gid)) return lp.err("bad leaf mcast id");
          e.mcast_group = static_cast<std::uint32_t>(gid);
          group_set.emplace(gid, e.actions);
        }
        pipe.leaf.add_entry(std::move(e));
        continue;
      }
      if (!current) return lp.err("entry outside any table");
      if (lp.n != 6) return lp.err("bad table entry");
      std::uint64_t state = 0, lo = 0, hi = 0, next = 0;
      if (!textio::parse_u64(toks[1], &state) ||
          !textio::parse_u64(toks[3], &lo) ||
          !textio::parse_u64(toks[4], &hi) ||
          !textio::parse_u64(toks[5], &next))
        return lp.err("bad entry numbers");
      Entry e;
      e.state = static_cast<StateId>(state);
      e.next_state = static_cast<StateId>(next);
      if (toks[2] == "any") e.match = ValueMatch::any();
      else if (toks[2] == "exact") e.match = ValueMatch::exact(lo);
      else if (toks[2] == "range") {
        if (lo > hi) return lp.err("inverted range");
        e.match = ValueMatch::range(lo, hi);
      } else {
        return lp.err("bad entry match kind");
      }
      current->add_entry(e);
      continue;
    }
    return lp.err("unknown directive '" + std::string(toks[0]) + "'");
  }
  if (!done) return lp.err("missing 'end'");

  // Structural soundness (disjoint ranges, multicast referential
  // integrity) is checked before the pipeline is handed out.
  if (auto valid = pipe.validate(); !valid.ok())
    return Error{"invalid pipeline: " + valid.error().message};
  return pipe;
}

}  // namespace camus::table
