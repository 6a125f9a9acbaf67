// Copyright (c) mhxq authors. Licensed under the MIT license.
//
// Zero-copy persistence for published DocumentSnapshots: serialize a
// snapshot into the single-arena on-disk format of goddag/arena.h, and
// adopt such an arena back — by mmap or from an in-memory buffer — as a
// normal DocumentSnapshot whose RangeIndex, RangeSoA, and stats arrays
// borrow the mapped bytes instead of being rebuilt. Cold-starting a
// document this way costs one O(header) validation pass plus an O(nodes)
// node-table materialisation — no XML reparse, no index sort, no SoA pack
// (see DESIGN.md "On-disk format").
//
// Lifetime (CONCURRENCY.md "mapped-snapshot lifetime"): the mapping (or
// the adopted buffer) is owned by the returned snapshot and released only
// when the snapshot itself dies — i.e. after the last pin drops. Readers
// holding a pinned mapped snapshot are safe across document commits,
// corpus eviction, and even deletion of the underlying file (POSIX keeps
// the mapping valid after unlink). The snapshot's goddag owns all of its
// own state, so writers may clone-and-commit from it with the mapping long
// gone.
//
// Failure model: every malformed input — truncation, wrong magic or
// format version, checksum mismatch, out-of-bounds offsets or indices —
// is rejected with InvalidArgument, never undefined behaviour. A missing
// file is NotFound (the corpus spill path's "cold but not corrupt"
// signal). Arenas are little-endian and LP64-shaped; loading or writing
// on a mismatched platform fails with Unimplemented rather than guessing.

#ifndef MHX_GODDAG_PERSIST_H_
#define MHX_GODDAG_PERSIST_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/status_macros.h"
#include "base/statusor.h"
#include "goddag/arena.h"
#include "goddag/snapshot.h"

namespace mhx::goddag {

// The result of adopting an arena: the published snapshot, which keeps the
// mapping alive for as long as it is pinned anywhere (its goddag owns every
// byte it points at, so clones outlive the mapping).
struct MappedSnapshot {
  std::shared_ptr<const DocumentSnapshot> snapshot;
  // Size of the backing arena in bytes (file size for mmap loads).
  size_t arena_bytes = 0;
};

// Knobs for the load path.
struct LoadOptions {
  // Verify the FNV-1a body checksum over every section byte before
  // adopting. Default on: with it, a corrupted arena can never load
  // successfully. Turning it off trades that guarantee for O(header)
  // validation only — structural bounds checks still run.
  bool verify_body_checksum = true;
};

// Serializes a published snapshot into an in-memory arena image (the exact
// bytes WriteSnapshotFile would write). Forces the snapshot's index and
// stats builds first, so the arena always carries them prebuilt.
StatusOr<std::string> SerializeSnapshot(const DocumentSnapshot& snapshot);

// Serializes `snapshot` and writes it to `path` atomically (temp file +
// rename): readers never observe a half-written arena, and a crash leaves
// either the old file or the new one.
Status WriteSnapshotFile(const DocumentSnapshot& snapshot,
                         const std::string& path);

// Adopts an arena image held in memory. The buffer is retained (as the
// snapshot's keepalive) for the lifetime of the returned snapshot; the
// caller must not mutate it afterwards.
StatusOr<MappedSnapshot> AdoptArenaBuffer(
    std::shared_ptr<const std::string> bytes, const LoadOptions& options = {});

// Maps `path` read-only (mmap + madvise(WILLNEED) on POSIX; a plain read
// into memory elsewhere) and adopts it. NotFound when the file does not
// exist; InvalidArgument for any malformed content.
StatusOr<MappedSnapshot> LoadSnapshotFile(const std::string& path,
                                          const LoadOptions& options = {});

// One section-table row, decoded for display.
struct ArenaSectionInfo {
  uint32_t kind = 0;
  std::string name;
  uint64_t offset = 0;
  uint64_t size = 0;
  uint64_t count = 0;
};

// Header + section table of an arena file, plus checksum verdicts — the
// data behind `mhx_pack inspect`.
struct ArenaInfo {
  ArenaHeader header{};
  std::vector<ArenaSectionInfo> sections;
  bool body_checksum_ok = false;
};

// Reads and validates `path`'s header and section table (InvalidArgument
// on any structural defect) and reports whether the body checksum matches.
// Unlike LoadSnapshotFile, a body-checksum mismatch is reported in the
// result, not an error — inspection of damaged files is the point.
StatusOr<ArenaInfo> InspectArenaFile(const std::string& path);

// Renders an ArenaInfo as a human-readable header + section table.
std::string FormatArenaInfo(const ArenaInfo& info);

}  // namespace mhx::goddag

#endif  // MHX_GODDAG_PERSIST_H_
