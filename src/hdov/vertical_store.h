// Vertical storage scheme (paper §4.2): a V-page-index segmented by cell —
// each segment holds N_node V-page pointers (nil for invisible nodes) —
// plus V-pages of visible nodes only, clustered per cell in depth-first
// node order so a query's V-page accesses form a near-sequential scan.
// Changing cells "flips" the segment: O(N_node) sequential I/O.

#ifndef HDOV_HDOV_VERTICAL_STORE_H_
#define HDOV_HDOV_VERTICAL_STORE_H_

#include <memory>

#include "common/result.h"
#include "hdov/hdov_tree.h"
#include "hdov/visibility_store.h"
#include "storage/paged_file.h"

namespace hdov {

class VerticalStore : public VisibilityStore {
 public:
  static Result<std::unique_ptr<VerticalStore>> Build(
      const HdovTree& tree, const std::vector<CellVPageSet>& cells,
      PageDevice* device);

  // Reattaches a built store to a restored device image from EncodeMeta
  // output (no I/O billed).
  static Result<std::unique_ptr<VerticalStore>> Load(const HdovTree& tree,
                                                     std::string_view meta,
                                                     PageDevice* device);

  std::string name() const override { return "vertical"; }
  Status BeginCell(CellId cell) override;
  Status GetVPage(uint32_t node_id, VPage* page, bool* visible) override;
  uint64_t SizeBytes() const override { return device_->SizeBytes(); }
  PageDevice* device() const override { return device_; }
  void EncodeMeta(std::string* dst) const override;

 private:
  static constexpr uint64_t kNilPointer = ~static_cast<uint64_t>(0);

  VerticalStore(PageDevice* device, size_t record_size)
      : device_(device), index_file_(device), vpages_(device, record_size) {}

  PageDevice* device_;
  PagedFile index_file_;          // One contiguous V-page-index blob.
  Extent index_extent_;           // All segments; cell c at c * N * 8 bytes.
  uint64_t segment_bytes_ = 0;    // N_node * sizeof(uint64_t).
  uint32_t num_cells_ = 0;
  VPageFile vpages_;              // Per-cell clustered V-pages.
  CellId current_cell_ = kInvalidCell;
  std::vector<uint64_t> segment_;  // Current cell's pointer segment.
};

}  // namespace hdov

#endif  // HDOV_HDOV_VERTICAL_STORE_H_
