// Shard compiler for per-region serving: splits one frozen
// PathWeightFunction into per-shard PCDEWF1 artifacts keyed by the front
// edge of each variable's interned edge sequence (the same key the frozen
// CSR candidate index uses), plus a versioned, checksummed PCDEMF1
// manifest naming every shard. serving::Engine opens a manifest like a
// model artifact and attaches shards as requests need them; since each
// front edge's whole candidate row lives in the one shard owning that
// edge, in the monolithic order, a view over the shards (core/model_view.h)
// serves every path bit-identically to the unsplit model.
//
// Manifest layout (PCDEMF1, little-endian, fixed 64-byte header):
//
//   Header  { magic "PCDEMF1\0", version, shard_count, checksum,
//             alpha_seconds, source_fingerprint, name_blob_bytes }
//   Records shard_count x { key_lo, key_hi, fingerprint, bytes,
//                           name_off, name_len }      (48 bytes each)
//   Blob    concatenated shard file names (no terminators)
//
// The checksum covers alpha, the source fingerprint, every record, and the
// name blob; it doubles as the manifest fingerprint that stamps responses
// served from the shards. Shard key ranges partition [0, kMaxArtifactEdgeId)
// exactly: contiguous, ascending, first key_lo == 0, last key_hi ==
// ceiling - 1 — every edge id has exactly one owning shard. Shard files are
// ordinary PCDEWF1 artifacts living next to the manifest (names are flat
// siblings, no directory components).
//
// Durability mirrors the model artifacts: shard files first (each through
// the atomic temp/fsync/rename dance), the manifest last — the manifest
// commits the generation, so a crash mid-split never publishes a torn set.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/weight_function.h"

namespace pcde {
namespace core {

/// One shard of a split model, as recorded in the manifest.
struct ShardInfo {
  /// Inclusive front-edge key range [key_lo, key_hi] this shard owns.
  uint64_t key_lo = 0;
  uint64_t key_hi = 0;
  /// fingerprint() of the shard's model == its PCDEWF1 checksum; per-shard
  /// refresh reloads only shards whose manifest fingerprint changed.
  uint64_t fingerprint = 0;
  /// Shard artifact size in bytes (a short file fails validation before
  /// the artifact parser even runs).
  uint64_t bytes = 0;
  /// File name relative to the manifest's directory (flat sibling).
  std::string file;
};

/// A parsed, validated PCDEMF1 manifest.
struct ShardManifest {
  double alpha_seconds = 0.0;
  /// fingerprint() of the unsplit source model the shards were compiled
  /// from (diagnostic: ties a shard set back to its monolithic artifact).
  uint64_t source_fingerprint = 0;
  /// Checksum over the manifest payload — the generation identity that
  /// stamps the model_fingerprint of every response served from it.
  uint64_t fingerprint = 0;
  /// Shards in ascending key order, ranges partitioning
  /// [0, kMaxArtifactEdgeId) exactly.
  std::vector<ShardInfo> shards;
  /// Directory the shard file names resolve against: the manifest's own
  /// (set by LoadShardManifest and WriteModelShards; not part of the file).
  std::string dir;

  /// Index of the shard owning front-edge key `e` (ranges partition the
  /// whole key space; ids at or above the artifact ceiling clamp to the
  /// last shard). Requires a validated (non-empty) manifest.
  size_t ShardOf(uint64_t e) const;
};

struct ShardWriteOptions {
  /// Number of shards to split into (>= 1; needs at least this many
  /// distinct front edges in the model).
  size_t num_shards = 2;
  /// Shard files are named "<file_prefix>.<i>.pcdewf" next to the manifest.
  std::string file_prefix = "shard";
};

/// \brief Splits `wp` into per-shard PCDEWF1 artifacts plus a PCDEMF1
/// manifest at `manifest_path` (shard files are written into the manifest's
/// directory). Key ranges are cut so shards carry roughly equal variable
/// counts. Every write is atomic + crash-durable and carries fault sites
/// ("serialization.binary.*" for the shard artifacts,
/// "serialization.manifest.*" for the manifest itself). Returns the
/// manifest that was written.
StatusOr<ShardManifest> WriteModelShards(const PathWeightFunction& wp,
                                         const std::string& manifest_path,
                                         const ShardWriteOptions& options);

/// \brief Reads and validates a PCDEMF1 manifest: magic, version, checksum,
/// record bounds, name sanity, and the exact key-range partition are all
/// enforced here, so corrupt/truncated/version-skewed manifests fail with a
/// clean Status (never crash). Shard *files* are not opened — see
/// VerifyShardFiles and LoadShard.
/// Fault sites: "serialization.manifest_load.open" / ".read".
StatusOr<ShardManifest> LoadShardManifest(const std::string& manifest_path);

/// True when `path` starts with the PCDEMF1 magic (an unreadable or short
/// file is not a manifest).
bool IsShardManifest(const std::string& path);

/// \brief Checks every shard artifact `manifest` names before anything
/// serves from it: the file exists (else kNotFound), has the recorded
/// size, and its header checksum equals the recorded fingerprint (else
/// kInvalidArgument). Reads 64-byte headers only.
Status VerifyShardFiles(const ShardManifest& manifest);

/// \brief Loads shard `index` of `manifest` (buffered, or mapped under
/// `use_mmap`), rejecting an artifact whose fingerprint or time binning
/// differs from the manifest's with kInvalidArgument — the file may have
/// changed since VerifyShardFiles ran, and a foreign shard must not serve
/// under this manifest's fingerprint.
StatusOr<PathWeightFunction> LoadShard(const ShardManifest& manifest,
                                       size_t index, bool use_mmap);

}  // namespace core
}  // namespace pcde
