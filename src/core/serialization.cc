#include "core/serialization.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <memory>
#include <new>
#include <vector>

#include "common/fault_injection.h"
#include "core/atomic_file_writer.h"

namespace pcde {
namespace core {

namespace {

// ---------------------------------------------------------------------------
// Binary artifact (PCDEWF1): fixed little-endian header + section table;
// the payload sections are the frozen model's flat arrays verbatim.
// ---------------------------------------------------------------------------

constexpr uint64_t kMagic = 0x0031465745444350ull;  // "PCDEWF1\0"
constexpr uint32_t kFormatVersion = 1;

enum SectionKind : uint64_t {
  kSeqOff = 1,
  kSeqEdges = 2,
  kVarSeq = 3,
  kIntervals = 4,
  kSupports = 5,
  kFlags = 6,
  kVarDimOff = 7,
  kBoundOff = 8,
  kBounds = 9,
  kBucketOff = 10,
  kIdxOff = 11,
  kProbs = 12,
  kIdx = 13,
};
constexpr uint32_t kNumSections = 13;
static_assert(kNumSections == WeightFunctionSections::kNumSections,
              "artifact section count tracks the canonical section table");

struct Header {
  uint64_t magic;
  uint32_t version;
  uint32_t section_count;
  uint64_t checksum;
  double alpha_seconds;
  uint64_t num_vars;
  uint64_t num_seqs;
  uint64_t reserved0;
  uint64_t reserved1;
};
static_assert(sizeof(Header) == 64, "header layout");

struct TableEntry {
  uint64_t kind;
  uint64_t offset;  // bytes from file start; 8-aligned
  uint64_t nbytes;
};
static_assert(sizeof(TableEntry) == 24, "table entry layout");

constexpr uint64_t kTableOffset = sizeof(Header);
constexpr uint64_t kPayloadOffset =
    kTableOffset + kNumSections * sizeof(TableEntry);

uint64_t Align8(uint64_t n) { return (n + 7) & ~uint64_t{7}; }

// The artifact's on-disk section layout (kinds, element counts, widths) is
// WeightFunctionSections::SectionTable — stated once, shared with the
// checksum and the byte accounting; the kind ids above name its rows.
using SectionPlan = WeightFunctionSections::SectionView;

/// Alpha bounds every loader enforces; saving is gated on the same range
/// so an unloadable artifact fails at build time, not at server start.
bool AlphaInArtifactRange(double alpha_seconds) {
  return alpha_seconds >= 1.0 && alpha_seconds <= 86400.0 * 365.0;
}

/// Save-side mirror of the loader's limits: a model that would be rejected
/// on load (alpha out of range, edge ids above the artifact ceiling) must
/// not save successfully.
Status ValidateSaveable(const PathWeightFunction& wp) {
  if (!AlphaInArtifactRange(wp.binning().alpha_seconds())) {
    return Status::InvalidArgument(
        "SaveWeightFunctionBinary: alpha = " +
        std::to_string(wp.binning().alpha_seconds()) +
        " s is outside the artifact range [1 s, 1 year]; the saved model "
        "could never be loaded");
  }
  // Front edges only, matching the loader: the ceiling exists to bound
  // the dense per-front-edge candidate index, which interior edges never
  // drive.
  const WeightFunctionSections& s = wp.sections();
  for (uint64_t q = 0; q < s.num_seqs; ++q) {
    const roadnet::EdgeId front = s.seq_edges[s.seq_off[q]];
    if (front >= kMaxArtifactEdgeId) {
      return Status::InvalidArgument(
          "SaveWeightFunctionBinary: front edge id " + std::to_string(front) +
          " exceeds the artifact ceiling (" +
          std::to_string(kMaxArtifactEdgeId) +
          "); the saved model could never be loaded");
    }
  }
  return Status::OK();
}

// Atomic, crash-durable artifact writes ride on the shared
// core::AtomicFileWriter (core/atomic_file_writer.h), which the saver here
// and the shard-manifest writer (core/shard_writer.cc) drive.

}  // namespace

Status SaveWeightFunctionBinary(const PathWeightFunction& wp,
                                const std::string& path) {
  PCDE_RETURN_NOT_OK(ValidateSaveable(wp));
  const WeightFunctionSections& s = wp.sections();
  const auto plan = s.SectionTable();

  Header header{};
  header.magic = kMagic;
  header.version = kFormatVersion;
  header.section_count = kNumSections;
  header.checksum = wp.fingerprint();
  header.alpha_seconds = wp.binning().alpha_seconds();
  header.num_vars = s.num_vars;
  header.num_seqs = s.num_seqs;

  std::vector<TableEntry> table(kNumSections);
  uint64_t offset = kPayloadOffset;
  for (size_t i = 0; i < plan.size(); ++i) {
    table[i] = TableEntry{plan[i].kind, offset, plan[i].nbytes};
    offset = Align8(offset + plan[i].nbytes);
  }

  // Atomic + crash-durable: temp sibling, fsync, rename, dirsync — a crash
  // or a full disk mid-save never destroys the previous good artifact.
  AtomicFileWriter out("SaveWeightFunctionBinary", "serialization.binary",
                       path);
  PCDE_RETURN_NOT_OK(out.Open());
  PCDE_RETURN_NOT_OK(out.Write(&header, sizeof(header)));
  PCDE_RETURN_NOT_OK(out.Write(table.data(), table.size() * sizeof(TableEntry)));
  const char pad[8] = {0};
  for (const SectionPlan& sec : plan) {
    if (sec.nbytes > 0) PCDE_RETURN_NOT_OK(out.Write(sec.data, sec.nbytes));
    const uint64_t padding = Align8(sec.nbytes) - sec.nbytes;
    if (padding > 0) PCDE_RETURN_NOT_OK(out.Write(pad, padding));
  }
  return out.Commit();
}

namespace {

/// Shared tail of both binary load paths: validates and wires the section
/// table over `base[0, file_size)` (a private read buffer or a read-only
/// mapping — `arena` keeps it alive) into a frozen PathWeightFunction.
StatusOr<PathWeightFunction> ParseBinaryArtifact(
    const uint8_t* base, uint64_t file_size,
    std::shared_ptr<const void> arena, const std::string& path) {
  auto bad = [&path](const std::string& what) {
    return Status::InvalidArgument("LoadWeightFunctionBinary: " + what +
                                   " in " + path);
  };
  Header header;
  std::memcpy(&header, base, sizeof(header));
  if (header.magic != kMagic) return bad("bad magic (not a PCDEWF1 artifact)");
  if (header.version != kFormatVersion) {
    return bad("unsupported format version " +
               std::to_string(header.version) + " (this build reads version " +
               std::to_string(kFormatVersion) + ")");
  }
  if (header.section_count != kNumSections) return bad("bad section count");
  // Bounded both ways: a near-zero alpha would push TimeBinning's
  // time/alpha quotients outside int32 range (undefined float-to-int
  // casts) at query time.
  if (!AlphaInArtifactRange(header.alpha_seconds)) {
    return bad("bad alpha_seconds");
  }
  // Every element is at least one byte, so any legitimate count is bounded
  // by the file size; this also keeps the size arithmetic overflow-free.
  if (header.num_vars > file_size || header.num_seqs > file_size) {
    return bad("implausible variable/sequence count");
  }
  if (kPayloadOffset > file_size) return bad("file shorter than section table");

  TableEntry table[kNumSections];
  std::memcpy(table, base + kTableOffset, sizeof(table));
  const uint8_t* sec_ptr[kNumSections + 1] = {nullptr};
  uint64_t sec_bytes[kNumSections + 1] = {0};
  for (const TableEntry& e : table) {
    if (e.kind < 1 || e.kind > kNumSections) return bad("unknown section kind");
    if (sec_ptr[e.kind] != nullptr) return bad("duplicate section");
    if (e.offset % 8 != 0 || e.offset < kPayloadOffset ||
        e.offset > file_size || e.nbytes > file_size - e.offset) {
      return bad("section out of file bounds");
    }
    sec_ptr[e.kind] = base + e.offset;
    sec_bytes[e.kind] = e.nbytes;
  }
  for (uint64_t kind = 1; kind <= kNumSections; ++kind) {
    if (sec_ptr[kind] == nullptr) return bad("missing section");
  }

  // Wire the sections, validating each size against the counts implied by
  // the previously validated sections (progressively: counts for the
  // data-dependent sections come out of the offset arrays themselves).
  WeightFunctionSections s;
  s.num_vars = header.num_vars;
  s.num_seqs = header.num_seqs;
  auto take = [&](uint64_t kind, uint64_t want_bytes,
                  const uint8_t** out) -> bool {
    if (sec_bytes[kind] != want_bytes) return false;
    *out = sec_ptr[kind];
    return true;
  };
  const uint8_t* p = nullptr;
  if (!take(kSeqOff, (s.num_seqs + 1) * 8, &p)) return bad("seq_off size");
  s.seq_off = reinterpret_cast<const uint64_t*>(p);
  if (s.TotalEdges() > file_size) return bad("implausible edge count");
  if (!take(kSeqEdges, s.TotalEdges() * sizeof(roadnet::EdgeId), &p)) {
    return bad("seq_edges size");
  }
  s.seq_edges = reinterpret_cast<const roadnet::EdgeId*>(p);
  if (!take(kVarSeq, s.num_vars * 4, &p)) return bad("var_seq size");
  s.var_seq = reinterpret_cast<const uint32_t*>(p);
  if (!take(kIntervals, s.num_vars * 4, &p)) return bad("intervals size");
  s.intervals = reinterpret_cast<const int32_t*>(p);
  if (!take(kSupports, s.num_vars * 8, &p)) return bad("supports size");
  s.supports = reinterpret_cast<const uint64_t*>(p);
  if (!take(kFlags, s.num_vars, &p)) return bad("flags size");
  s.flags = p;
  if (!take(kVarDimOff, (s.num_vars + 1) * 8, &p)) return bad("var_dim_off size");
  s.var_dim_off = reinterpret_cast<const uint64_t*>(p);
  if (s.TotalDims() > file_size) return bad("implausible dimension count");
  if (!take(kBoundOff, (s.TotalDims() + 1) * 8, &p)) return bad("bound_off size");
  s.bound_off = reinterpret_cast<const uint64_t*>(p);
  if (s.TotalBounds() > file_size) return bad("implausible boundary count");
  if (!take(kBounds, s.TotalBounds() * 8, &p)) return bad("bounds size");
  s.bounds = reinterpret_cast<const double*>(p);
  if (!take(kBucketOff, (s.num_vars + 1) * 8, &p)) return bad("bucket_off size");
  s.bucket_off = reinterpret_cast<const uint64_t*>(p);
  if (!take(kIdxOff, (s.num_vars + 1) * 8, &p)) return bad("idx_off size");
  s.idx_off = reinterpret_cast<const uint64_t*>(p);
  if (s.TotalBuckets() > file_size) return bad("implausible bucket count");
  if (!take(kProbs, s.TotalBuckets() * 8, &p)) return bad("probs size");
  s.probs = reinterpret_cast<const double*>(p);
  if (s.TotalIdx() > file_size) return bad("implausible index count");
  if (!take(kIdx, s.TotalIdx() * 4, &p)) return bad("idx size");
  s.idx = reinterpret_cast<const uint32_t*>(p);

  const uint64_t checksum =
      PathWeightFunction::SectionChecksum(header.alpha_seconds, s);
  if (checksum != header.checksum) {
    return bad("payload checksum mismatch (corrupt artifact)");
  }

  const TimeBinning binning(header.alpha_seconds / 60.0);
  return PathWeightFunction::FromSections(binning, std::move(arena), s,
                                          kMaxArtifactEdgeId, &checksum);
}

/// The mmap load path: maps the artifact read-only and parses in place, so
/// every server process on the host shares one resident copy of the model
/// (the arena is position-independent; only the pointer fixup runs per
/// process). Returns NotFound/InvalidArgument like the buffered path; any
/// mapping failure surfaces as a Status the caller falls back on.
StatusOr<PathWeightFunction> LoadWeightFunctionBinaryMmap(
    const std::string& path) {
  const int fd = PCDE_FAULT_POINT("serialization.mmap.open")
                     ? -1
                     : ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::NotFound("LoadWeightFunctionBinary: cannot open " + path);
  }
  struct stat st;
  if (PCDE_FAULT_POINT("serialization.mmap.stat") || ::fstat(fd, &st) != 0 ||
      st.st_size < 0) {
    ::close(fd);
    return Status::Internal("LoadWeightFunctionBinary: cannot stat " + path);
  }
  const uint64_t file_size = static_cast<uint64_t>(st.st_size);
  // Reject the degenerate file before ::mmap sees it: mapping zero bytes
  // fails with a bare EINVAL that reads like a kernel problem, when the
  // actual story is "your artifact is empty".
  if (file_size == 0) {
    ::close(fd);
    return Status::InvalidArgument(
        "LoadWeightFunctionBinary: empty (zero-length) artifact " + path);
  }
  if (file_size < sizeof(Header)) {
    ::close(fd);
    return Status::InvalidArgument(
        "LoadWeightFunctionBinary: file shorter than the header in " + path);
  }
  // PROT_READ + MAP_SHARED: the mapping is backed directly by the page
  // cache, so co-resident processes mapping the same artifact share the
  // physical pages. mmap is page-aligned, which satisfies the sections'
  // 8-byte alignment; bytes past EOF in the final page read as zero, the
  // same determinism the buffered path gets by zeroing its padding word.
  void* mapped = PCDE_FAULT_POINT("serialization.mmap.map")
                     ? MAP_FAILED
                     : ::mmap(nullptr, static_cast<size_t>(file_size),
                              PROT_READ, MAP_SHARED, fd, 0);
  ::close(fd);  // the mapping holds its own reference
  if (mapped == MAP_FAILED) {
    return Status::Internal("LoadWeightFunctionBinary: mmap failed for " +
                            path);
  }
  std::shared_ptr<const void> arena(
      mapped, [len = static_cast<size_t>(file_size)](const void* p) {
        ::munmap(const_cast<void*>(p), len);
      });
  return ParseBinaryArtifact(static_cast<const uint8_t*>(mapped), file_size,
                             std::move(arena), path);
}

}  // namespace

StatusOr<PathWeightFunction> LoadWeightFunctionBinary(const std::string& path,
                                                      bool use_mmap) {
  if (use_mmap) {
    auto mapped = LoadWeightFunctionBinaryMmap(path);
    // Fall back to the buffered read only when the *mapping* failed;
    // artifact-content errors are final either way.
    if (mapped.ok() || mapped.status().code() != StatusCode::kInternal) {
      return mapped;
    }
  }
  auto bad = [&path](const std::string& what) {
    return Status::InvalidArgument("LoadWeightFunctionBinary: " + what +
                                   " in " + path);
  };
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (PCDE_FAULT_POINT("serialization.load.open") || !in.is_open()) {
    return Status::NotFound("LoadWeightFunctionBinary: cannot open " + path);
  }
  const std::streamoff signed_size = in.tellg();
  if (signed_size < static_cast<std::streamoff>(sizeof(Header))) {
    return bad("file shorter than the header");
  }
  const uint64_t file_size = static_cast<uint64_t>(signed_size);
  in.seekg(0);
  // One read into one 8-byte-aligned buffer; this buffer IS the model
  // arena — the frozen arrays below are pointers into it. Allocated
  // uninitialized (a vector would memset the whole file size first) with
  // only the final padding word zeroed for determinism.
  const size_t words = static_cast<size_t>((file_size + 7) / 8);
  std::shared_ptr<uint64_t[]> buffer(new (std::nothrow) uint64_t[words]);
  if (buffer == nullptr) {
    // A (possibly sparse) multi-GB non-artifact must surface as a Status,
    // not an uncaught bad_alloc at server start.
    return bad("artifact too large to load (" + std::to_string(file_size) +
               " bytes)");
  }
  buffer[words - 1] = 0;
  in.read(reinterpret_cast<char*>(buffer.get()),
          static_cast<std::streamsize>(file_size));
  if (PCDE_FAULT_POINT("serialization.load.read") || !in.good()) {
    return Status::Internal("LoadWeightFunctionBinary: read failed for " +
                            path);
  }
  const uint8_t* base = reinterpret_cast<const uint8_t*>(buffer.get());
  return ParseBinaryArtifact(base, file_size,
                             std::shared_ptr<const void>(buffer, buffer.get()),
                             path);
}

StatusOr<uint64_t> PeekBinaryArtifactFingerprint(const std::string& path) {
  auto bad = [&path](const std::string& what) {
    return Status::InvalidArgument("PeekBinaryArtifactFingerprint: " + what +
                                   " in " + path);
  };
  std::ifstream in(path, std::ios::binary);
  if (PCDE_FAULT_POINT("serialization.peek.open") || !in.is_open()) {
    return Status::NotFound("PeekBinaryArtifactFingerprint: cannot open " +
                            path);
  }
  Header header;
  in.read(reinterpret_cast<char*>(&header), sizeof(header));
  if (PCDE_FAULT_POINT("serialization.peek.read") || !in.good()) {
    return bad("file shorter than the header");
  }
  // The same header gates the full loader applies; the checksum itself is
  // only a claim about the payload — a swap that trusts it still runs the
  // full load + validation before publishing anything.
  if (header.magic != kMagic) return bad("bad magic (not a PCDEWF1 artifact)");
  if (header.version != kFormatVersion) {
    return bad("unsupported format version " + std::to_string(header.version) +
               " (this build reads version " + std::to_string(kFormatVersion) +
               ")");
  }
  if (header.section_count != kNumSections) return bad("bad section count");
  if (!AlphaInArtifactRange(header.alpha_seconds)) {
    return bad("bad alpha_seconds");
  }
  return header.checksum;
}

}  // namespace core
}  // namespace pcde
