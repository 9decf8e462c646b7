// Persistence for the instantiated path weight function W_P. Instantiation
// is the expensive offline stage (the paper reports minutes at fleet
// scale); production deployments build once, save the frozen model, and
// load it into query servers — typically via serving::Engine::Open
// (src/serving/engine.h), which wraps the loader below and stands up the
// whole serving stack around the loaded model.
//
// One artifact format, PCDEWF1, which embeds the TimeBinning so a loaded
// model can never be silently queried under the wrong alpha grid: a
// little-endian header (magic, format version, alpha, payload checksum)
// plus a section table whose payload sections are the frozen model's flat
// arrays verbatim. SaveWeightFunctionBinary is a handful of writes;
// LoadWeightFunctionBinary is one file read (or one read-only mapping)
// plus pointer fixup and validation — no per-bucket parsing and no
// per-bucket allocation. The checksum doubles as the model fingerprint
// (PathWeightFunction::fingerprint), so query-cache keys are stable across
// save/load, and PeekBinaryArtifactFingerprint reads it from the header
// alone.
#pragma once

#include <string>

#include "common/status.h"
#include "core/weight_function.h"

namespace pcde {
namespace core {

/// Saves the artifact (header + section table + the frozen arrays),
/// atomically: a temp sibling is written, fsynced and renamed over `path`.
/// A model the loader would reject (alpha outside [1 s, 1 year], a front
/// edge id at or above kMaxArtifactEdgeId) fails with InvalidArgument.
Status SaveWeightFunctionBinary(const PathWeightFunction& wp,
                                const std::string& path);

/// Loads the artifact. The TimeBinning comes from the artifact. A corrupt,
/// truncated, version-skewed or foreign file (any file without the PCDEWF1
/// magic) fails with InvalidArgument, a missing one with NotFound and a
/// failed read with Internal; none of them crashes.
///
/// By default the file is read into a private buffer. `use_mmap` maps it
/// read-only (PROT_READ, MAP_SHARED) and parses in place instead, so
/// co-resident server processes serving the same artifact share one
/// page-cache copy of the model — the frozen layout is
/// position-independent, only the pointer fixup runs per process. If the
/// mapping itself fails (filesystem without mmap support, exotic
/// platforms), the call falls back to the buffered read; artifact-content
/// errors are final either way. The returned model keeps the mapping alive
/// and never writes through it.
///
/// Lifecycle requirement the buffered path does not have: a mapped
/// artifact must only ever be *replaced atomically* (write a sibling,
/// rename over — exactly what SaveWeightFunctionBinary does). Truncating
/// or rewriting the file in place while a process serves from the mapping
/// makes later page faults past the new EOF raise SIGBUS.
StatusOr<PathWeightFunction> LoadWeightFunctionBinary(const std::string& path,
                                                      bool use_mmap = false);

/// \brief Reads only the binary artifact's 64-byte header and returns its
/// payload checksum — which equals the fingerprint() of the model the file
/// encodes. Validates magic, format version, and alpha range, so
/// truncated/version-skewed files fail here with the same Statuses the
/// full loader would give. serving::Engine::Swap uses this to short-circuit
/// a refresh to an artifact whose content the engine is already serving
/// without paying the load + validation of the full payload.
StatusOr<uint64_t> PeekBinaryArtifactFingerprint(const std::string& path);

}  // namespace core
}  // namespace pcde
