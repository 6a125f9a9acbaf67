// Copyright (c) mhxq authors. Licensed under the MIT license.
//
// KyGoddag is the paper's keyed/numbered-hierarchy GODDAG (after
// Sperberg-McQueen & Huitfeldt's "general ordered-descendant directed acyclic
// graph" for overlapping markup): one shared base text, a shared leaf
// partition over that text, and any number of element hierarchies — each a
// tree on its own, all meeting in the common leaves. Hierarchies are either
// *persistent* (parsed from an XML encoding of the base text at build time)
// or *virtual* (added and removed at query time, which is how the paper's
// analyze-string() materialises match fragments as markup).
//
// Leaves are not materialised as graph nodes. Because every element range is
// a contiguous interval of the base text, the leaf partition is fully
// described by the sorted set of element boundary offsets, and all extended
// axis semantics reduce to interval arithmetic on node ranges (see
// xpath/axes.h). The partition is maintained either incrementally (boundary
// refcounts plus a tiered-vector splice, goddag/leaves.h — the default; a
// splice is O(log chunks + chunk), not O(partition)) or by a full lazy
// rebuild that rescans every node; `set_incremental_leaves` toggles the two
// so the E10 ablation can measure the difference.
//
// Thread-safety: unsynchronized — inside a document a KyGoddag is mutated
// only on the writer path (Builder::Build, Writer::Commit on a private
// Clone()) and read concurrently only once published inside an immutable
// DocumentSnapshot (goddag/snapshot.h, CONCURRENCY.md).
// Clone() is the MVCC copy-on-write step: the node table, hierarchy table,
// and leaf partition are copied; the base text is shared (refcounted, never
// mutated after construction).

#ifndef MHX_GODDAG_KYGODDAG_H_
#define MHX_GODDAG_KYGODDAG_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/status_macros.h"
#include "base/statusor.h"
#include "base/text_range.h"
#include "goddag/leaves.h"
#include "xml/parser.h"

namespace mhx::goddag {

using NodeId = uint32_t;
using HierarchyId = uint32_t;

inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

// What a node-table slot currently holds.
enum class GNodeKind : uint8_t {
  kFree = 0,  // recycled slot, not part of the document
  kRoot,      // the unique GODDAG root above all hierarchy roots
  kElement,
};

// One node-table entry: the element's identity plus its parent/children
// arcs within its own hierarchy and the base-text range it dominates.
struct GNode {
  GNodeKind kind = GNodeKind::kFree;
  HierarchyId hierarchy = 0;
  std::string name;
  TextRange range;
  std::vector<std::pair<std::string, std::string>> attributes;
  NodeId parent = kInvalidNode;   // within its hierarchy; GODDAG root for
                                  // hierarchy roots, kInvalidNode for the root
  std::vector<NodeId> children;   // element children in document order
};

// One markup hierarchy (persistent or virtual) over the shared base text.
struct Hierarchy {
  std::string name;
  NodeId root = kInvalidNode;
  // All element nodes of the hierarchy (root included) in document
  // (pre-order) order.
  std::vector<NodeId> nodes;
  bool is_virtual = false;
  bool active = false;
};

// One element of a virtual hierarchy, given by its range over the base text.
// Elements of one AddVirtualHierarchy call must pairwise nest or be disjoint.
struct VirtualElement {
  std::string name;
  TextRange range;
  std::vector<std::pair<std::string, std::string>> attributes;
};

// Sorts `elements` into document order (range begin ascending, containing
// element before contained) and validates them as one tree over a base text
// of `text_size` characters: every range non-empty and in bounds, no two
// elements properly overlapping. Shared by KyGoddag::AddVirtualHierarchy
// (document-resident virtual hierarchies) and GoddagOverlay (evaluation-
// scoped hierarchies, goddag/overlay.h).
Status SortAndValidateVirtualElements(size_t text_size,
                                      std::vector<VirtualElement>* elements);

class KyGoddag {
 public:
  explicit KyGoddag(std::string base_text);

  KyGoddag& operator=(const KyGoddag&) = delete;
  KyGoddag(KyGoddag&&) = default;
  KyGoddag& operator=(KyGoddag&&) = default;

  // Deep-copies the node table, hierarchy table, and leaf partition; shares
  // the (immutable) base text. The clone starts at this goddag's revision
  // and is the MVCC writer's private working copy — mutations to either
  // side are invisible to the other. O(nodes + leaves); unsynchronized,
  // the source must be quiesced (Writer::Commit clones a published
  // snapshot's goddag, which is).
  std::unique_ptr<KyGoddag> Clone() const {
    return std::unique_ptr<KyGoddag>(new KyGoddag(*this));
  }

  // Merges a parsed XML encoding of the base text as a new persistent
  // hierarchy. The document's character content must equal base_text().
  StatusOr<HierarchyId> AddHierarchy(const std::string& name,
                                     const xml::Document& doc);

  // Adds a virtual hierarchy under a fresh root element named `name` that
  // spans the whole base text. Fails if any range is empty, out of bounds,
  // or if two elements properly overlap (a single hierarchy must be a tree).
  StatusOr<HierarchyId> AddVirtualHierarchy(
      const std::string& name, std::vector<VirtualElement> elements);

  // Removes a hierarchy previously added with AddVirtualHierarchy; its node
  // and hierarchy slots are recycled. Persistent hierarchies cannot be
  // removed.
  Status RemoveVirtualHierarchy(HierarchyId id);

  const std::string& base_text() const { return *base_text_; }
  NodeId root() const { return 0; }

  const GNode& node(NodeId id) const { return nodes_[id]; }
  // Size of the node table including the GODDAG root and any free slots —
  // the iteration bound for full scans (check node(id).kind).
  size_t node_table_size() const { return nodes_.size(); }
  // Number of live element nodes across all hierarchies.
  size_t element_count() const { return element_count_; }

  const Hierarchy& hierarchy(HierarchyId id) const { return hierarchies_[id]; }
  // Size of the hierarchy table including inactive slots (check .active).
  size_t hierarchy_table_size() const { return hierarchies_.size(); }

  // The shared leaf partition, in text order, rebuilt lazily if stale.
  const std::vector<Leaf>& leaves() const;

  // Base-text content dominated by a node.
  std::string NodeString(NodeId id) const;

  // Toggles incremental leaf-partition maintenance (default on). When off,
  // any structural change invalidates the partition and the next leaves()
  // call pays a full rebuild that rescans every node.
  void set_incremental_leaves(bool incremental);
  bool incremental_leaves() const { return incremental_leaves_; }

  // Bumped on every structural change; index structures (goddag/index.h,
  // xpath/axes.h) use it to detect staleness.
  uint64_t revision() const { return revision_; }

 private:
  KyGoddag(const KyGoddag&) = default;  // via Clone() only

  // The arena loader (goddag/persist.cc) materialises a goddag field by
  // field from a validated on-disk snapshot instead of replaying the build.
  friend class ArenaLoader;

  NodeId AllocateNode();
  void FreeNode(NodeId id);
  NodeId ConvertXmlElement(const xml::Element& element, HierarchyId hierarchy,
                           NodeId parent, Hierarchy* out);
  HierarchyId AllocateHierarchySlot();
  void NoteBoundaryAdded(size_t pos);
  void NoteBoundaryRemoved(size_t pos);
  void NoteElementAdded(const TextRange& range);
  void NoteElementRemoved(const TextRange& range);
  void RebuildLeaves() const;

  // Shared across Clone() copies; immutable after construction.
  std::shared_ptr<const std::string> base_text_;
  std::vector<GNode> nodes_;
  std::vector<NodeId> free_nodes_;
  std::vector<Hierarchy> hierarchies_;
  std::vector<HierarchyId> free_hierarchies_;
  size_t element_count_ = 0;
  uint64_t revision_ = 0;

  bool incremental_leaves_ = true;
  // Leaf partition cache. `boundary_refs_` maps a boundary offset to the
  // number of live element endpoints at that offset (offsets 0 and n carry a
  // permanent sentinel ref). It is authoritative only while `!leaves_dirty_`
  // and `!boundary_refs_deferred_`; a full rebuild reconstructs it from the
  // node table. The partition itself is tiered (goddag/leaves.h) so
  // incremental splices are cheap; leaves() reads its cached flat view.
  //
  // The arena loader sets `boundary_refs_deferred_`: it adopts the partition
  // straight from the file but skips the O(boundaries) map build, since a
  // published snapshot's goddag never splices. The first boundary change on
  // such a goddag (a writer's private clone) falls back to one full rebuild,
  // after which maintenance is incremental again.
  mutable TieredLeafPartition leaves_;
  mutable std::map<size_t, uint32_t> boundary_refs_;
  mutable bool leaves_dirty_ = true;
  mutable bool boundary_refs_deferred_ = false;
};

}  // namespace mhx::goddag

#endif  // MHX_GODDAG_KYGODDAG_H_
