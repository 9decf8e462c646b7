// Persistence for the instantiated path weight function W_P. Instantiation
// is the expensive offline stage (the paper reports minutes at fleet
// scale); production deployments build once, save the frozen model, and
// load it into query servers — typically via serving::Engine::Open
// (src/serving/engine.h), which wraps the loaders below and stands up the
// whole serving stack around the loaded model.
//
// Two artifact formats, both embedding the TimeBinning so a loaded model
// can never be silently queried under the wrong alpha grid:
//
//   * Binary (PCDEWF1): a little-endian header (magic, format version,
//     alpha, payload checksum) plus a section table whose payload sections
//     are the frozen model's flat arrays verbatim. SaveWeightFunctionBinary
//     is a handful of writes; LoadWeightFunctionBinary is one file read
//     plus pointer fixup and validation — no per-bucket parsing and no
//     per-bucket allocation. The checksum doubles as the model fingerprint
//     (PathWeightFunction::fingerprint), so query-cache keys are stable
//     across save/load.
//
//   * Text v2: the v1 record stream (one variable per VAR/DIM/HB record
//     group) prefixed with a BINNING record. Slow but greppable.
//     Text v1 files (no BINNING record) predate the embedded binning and
//     are rejected.
//
// LoadWeightFunction sniffs the format from the leading magic.
#pragma once

#include <string>

#include "common/status.h"
#include "core/weight_function.h"

namespace pcde {
namespace core {

/// Saves the text (v2) artifact: BINNING record + one VAR/DIM/HB record
/// group per variable, in variable-id order.
Status SaveWeightFunction(const PathWeightFunction& wp,
                          const std::string& path);

/// Saves the binary artifact (header + section table + the frozen arrays).
Status SaveWeightFunctionBinary(const PathWeightFunction& wp,
                                const std::string& path);

/// Loads either artifact format (sniffed from the leading bytes). The
/// TimeBinning comes from the artifact; corrupt, truncated, or
/// version-skewed files fail with a Status (never crash), and so do text
/// v1 files (InvalidArgument).
StatusOr<PathWeightFunction> LoadWeightFunction(const std::string& path);

/// Loads the binary artifact only (buffered read into a private arena).
StatusOr<PathWeightFunction> LoadWeightFunctionBinary(const std::string& path);

/// Flag-guarded variant: `use_mmap` maps the artifact read-only
/// (PROT_READ, MAP_SHARED) and parses in place instead of reading it into
/// a private buffer, so co-resident server processes serving the same
/// artifact share one page-cache copy of the model — the frozen layout is
/// position-independent, only the pointer fixup runs per process. If the
/// mapping itself fails (filesystem without mmap support, exotic
/// platforms), the call falls back to the buffered read; artifact-content
/// errors are final either way. The returned model keeps the mapping alive
/// and never writes through it.
///
/// Lifecycle requirement the buffered path does not have: a mapped
/// artifact must only ever be *replaced atomically* (write a sibling,
/// rename over — exactly what SaveWeightFunction[Binary] does).
/// Truncating or rewriting the file in place while a process serves from
/// the mapping makes later page faults past the new EOF raise SIGBUS.
StatusOr<PathWeightFunction> LoadWeightFunctionBinary(const std::string& path,
                                                      bool use_mmap);

/// \brief Reads only the binary artifact's 64-byte header and returns its
/// payload checksum — which equals the fingerprint() of the model the file
/// encodes. Validates magic, format version, and alpha range, so
/// truncated/version-skewed files fail here with the same Statuses the
/// full loader would give. serving::Engine::Swap uses this to short-circuit
/// a refresh to an artifact whose content the engine is already serving
/// without paying the load + validation of the full payload. Text
/// artifacts are rejected (their fingerprint requires a full parse).
StatusOr<uint64_t> PeekBinaryArtifactFingerprint(const std::string& path);

}  // namespace core
}  // namespace pcde
