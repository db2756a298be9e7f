#include "hdov/bitmap_vertical_store.h"

#include <bit>

#include "common/coding.h"

namespace hdov {

Result<std::unique_ptr<BitmapVerticalStore>> BitmapVerticalStore::Build(
    const HdovTree& tree, const std::vector<CellVPageSet>& cells,
    PageDevice* device) {
  if (cells.empty()) {
    return Status::InvalidArgument("bitmap store: no cells");
  }
  const size_t record_size = VPageRecordSize(tree.fanout());
  auto store = std::unique_ptr<BitmapVerticalStore>(
      new BitmapVerticalStore(device, record_size, tree.num_nodes()));

  // Pass 1: clustered V-pages per cell in node-id order, remembering each
  // cell's base slot, plus the visibility bitmaps.
  std::string blob;
  blob.reserve(cells.size() * store->segment_bytes_);
  store->cell_base_.reserve(cells.size());
  for (const CellVPageSet& cell : cells) {
    if (cell.pages.size() != tree.num_nodes()) {
      return Status::InvalidArgument(
          "bitmap store: cell V-page set size mismatch");
    }
    store->cell_base_.push_back(store->vpages_.num_records());
    std::string bitmap(store->segment_bytes_, '\0');
    for (size_t node = 0; node < tree.num_nodes(); ++node) {
      const VPage& page = cell.pages[node];
      if (page.empty() || !VPageVisible(page)) {
        continue;
      }
      HDOV_RETURN_IF_ERROR(
          store->vpages_.AppendRecord(SerializeVPage(page, tree.fanout()))
              .status());
      bitmap[node / 8] |= static_cast<char>(1u << (node % 8));
    }
    blob += bitmap;
  }
  HDOV_RETURN_IF_ERROR(store->vpages_.FinishBuild());
  HDOV_ASSIGN_OR_RETURN(store->index_extent_,
                        store->index_file_.Append(blob));
  return store;
}

Result<std::unique_ptr<BitmapVerticalStore>> BitmapVerticalStore::Load(
    const HdovTree& tree, std::string_view meta, PageDevice* device) {
  Decoder decoder(meta);
  auto store = std::unique_ptr<BitmapVerticalStore>(new BitmapVerticalStore(
      device, VPageRecordSize(tree.fanout()), tree.num_nodes()));
  HDOV_RETURN_IF_ERROR(DecodeExtent(&decoder, &store->index_extent_));
  if (!store->index_file_.Holds(store->index_extent_)) {
    return Status::Corruption(
        "bitmap vertical store: index extent past device end");
  }
  uint64_t cells = 0;
  HDOV_RETURN_IF_ERROR(decoder.DecodeFixed64(&cells));
  HDOV_RETURN_IF_ERROR(decoder.CheckCount(cells, sizeof(uint64_t)));
  store->cell_base_.resize(cells);
  for (uint64_t& base : store->cell_base_) {
    HDOV_RETURN_IF_ERROR(decoder.DecodeFixed64(&base));
  }
  HDOV_RETURN_IF_ERROR(store->vpages_.RestoreMeta(&decoder));
  return store;
}

void BitmapVerticalStore::EncodeMeta(std::string* dst) const {
  EncodeExtent(dst, index_extent_);
  EncodeFixed64(dst, cell_base_.size());
  for (uint64_t base : cell_base_) {
    EncodeFixed64(dst, base);
  }
  vpages_.EncodeMeta(dst);
}

Status BitmapVerticalStore::BeginCell(CellId cell) {
  if (cell >= cell_base_.size()) {
    return Status::OutOfRange("bitmap store: cell out of range");
  }
  if (cell == current_cell_) {
    return Status::OK();
  }
  ++tstats_.cell_flips;
  HDOV_ASSIGN_OR_RETURN(
      bitmap_, index_file_.ReadRange(index_extent_, cell * segment_bytes_,
                                     segment_bytes_));
  // Prefix popcounts: rank_[i] = number of visible nodes in bytes [0, i).
  rank_.assign(bitmap_.size() + 1, 0);
  for (size_t i = 0; i < bitmap_.size(); ++i) {
    rank_[i + 1] = rank_[i] + static_cast<uint32_t>(std::popcount(
                                  static_cast<uint8_t>(bitmap_[i])));
  }
  current_cell_ = cell;
  vpages_.InvalidateCache();
  return Status::OK();
}

Status BitmapVerticalStore::GetVPage(uint32_t node_id, VPage* page,
                                     bool* visible) {
  if (current_cell_ == kInvalidCell) {
    return Status::FailedPrecondition("bitmap store: BeginCell first");
  }
  if (node_id >= num_nodes_) {
    return Status::OutOfRange("bitmap store: node out of range");
  }
  const auto byte = static_cast<uint8_t>(bitmap_[node_id / 8]);
  if ((byte & (1u << (node_id % 8))) == 0) {
    ++tstats_.invisible_lookups;
    page->clear();
    *visible = false;
    return Status::OK();
  }
  // Rank: visible nodes before node_id.
  const uint32_t before_bits = static_cast<uint32_t>(std::popcount(
      static_cast<uint8_t>(byte & ((1u << (node_id % 8)) - 1u))));
  const uint64_t slot =
      cell_base_[current_cell_] + rank_[node_id / 8] + before_bits;
  HDOV_RETURN_IF_ERROR(vpages_.ReadRecord(slot, page));
  ++tstats_.vpage_fetches;
  *visible = true;
  return Status::OK();
}

}  // namespace hdov
