// Pipeline serialization: a complete, versioned text format for compiled
// pipelines. This is the controller -> switch exchange artifact: the
// dynamic compiler runs once centrally, and every switch (simulator)
// deserializes the same bytes. Unlike the human-oriented control-plane
// dump (p4gen), this format round-trips everything — table kinds, key
// widths, subjects, wildcard entries, leaf actions, multicast groups.
#pragma once

#include <string>
#include <string_view>

#include "table/pipeline.hpp"
#include "util/result.hpp"

namespace camus::table {

// Current format version; parse rejects other versions.
inline constexpr int kPipelineFormatVersion = 1;

std::string serialize_pipeline(const Pipeline& pipeline);

// Parses a pipeline. Fails with a line-numbered error on any
// malformed input.
util::Result<Pipeline> deserialize_pipeline(std::string_view text);

}  // namespace camus::table
