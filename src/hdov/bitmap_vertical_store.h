// Bitmap-vertical storage scheme (extension; not in the paper): like the
// indexed-vertical scheme, but the per-cell V-page-index segment is a
// bitmap of visible nodes instead of explicit (offset, pointer) pairs.
// Because each cell's V-pages are clustered contiguously in DFS (node-id)
// order, a visible node's record slot is simply
//
//   slot = cell_base + (number of visible nodes with smaller id)
//
// i.e. a rank query on the bitmap — no pointers need to be stored at all.
// Segment size drops from 12 * N_vnode bytes to N_node / 8 bytes, which
// wins whenever more than ~1% of nodes are visible per cell.

#ifndef HDOV_HDOV_BITMAP_VERTICAL_STORE_H_
#define HDOV_HDOV_BITMAP_VERTICAL_STORE_H_

#include <memory>

#include "common/result.h"
#include "hdov/hdov_tree.h"
#include "hdov/visibility_store.h"
#include "storage/paged_file.h"

namespace hdov {

class BitmapVerticalStore : public VisibilityStore {
 public:
  static Result<std::unique_ptr<BitmapVerticalStore>> Build(
      const HdovTree& tree, const std::vector<CellVPageSet>& cells,
      PageDevice* device);

  // Reattaches a built store to a restored device image from EncodeMeta
  // output (no I/O billed).
  static Result<std::unique_ptr<BitmapVerticalStore>> Load(
      const HdovTree& tree, std::string_view meta, PageDevice* device);

  std::string name() const override { return "bitmap-vertical"; }
  Status BeginCell(CellId cell) override;
  Status GetVPage(uint32_t node_id, VPage* page, bool* visible) override;
  uint64_t SizeBytes() const override { return device_->SizeBytes(); }
  PageDevice* device() const override { return device_; }
  void EncodeMeta(std::string* dst) const override;

 private:
  BitmapVerticalStore(PageDevice* device, size_t record_size,
                      size_t num_nodes)
      : device_(device), index_file_(device), vpages_(device, record_size),
        num_nodes_(num_nodes),
        segment_bytes_((num_nodes + 7) / 8) {}

  PageDevice* device_;
  PagedFile index_file_;     // One contiguous blob of per-cell bitmaps.
  Extent index_extent_;
  VPageFile vpages_;
  size_t num_nodes_;
  uint64_t segment_bytes_;
  // Per-cell base slot of the clustered V-pages (16 B/cell, memory
  // resident like the indexed-vertical directory).
  std::vector<uint64_t> cell_base_;

  CellId current_cell_ = kInvalidCell;
  std::string bitmap_;             // Current cell's bitmap.
  std::vector<uint32_t> rank_;     // Prefix popcounts per byte.
};

}  // namespace hdov

#endif  // HDOV_HDOV_BITMAP_VERTICAL_STORE_H_
