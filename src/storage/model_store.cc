#include "storage/model_store.h"

#include "common/coding.h"

namespace hdov {

ModelId ModelStore::Register(uint64_t bytes) {
  ModelExtent extent;
  extent.bytes = bytes;
  const uint32_t page_size = device_->page_size();
  extent.page_count = (bytes + page_size - 1) / page_size;
  if (extent.page_count == 0) {
    extent.page_count = 1;
  }
  extent.first_page = device_->AllocateUnmaterialized(extent.page_count);
  total_bytes_ += bytes;
  extents_.push_back(extent);
  return static_cast<ModelId>(extents_.size() - 1);
}

Status ModelStore::Fetch(ModelId id) {
  if (id >= extents_.size()) {
    return Status::OutOfRange("model store: unknown model id");
  }
  const ModelExtent& extent = extents_[id];
  return device_->ReadRun(extent.first_page, extent.page_count, nullptr);
}

void ModelStore::EncodeMeta(std::string* dst) const {
  EncodeFixed64(dst, extents_.size());
  for (const ModelExtent& extent : extents_) {
    EncodeFixed64(dst, extent.first_page);
    EncodeFixed64(dst, extent.page_count);
    EncodeFixed64(dst, extent.bytes);
  }
  EncodeFixed64(dst, total_bytes_);
}

Status ModelStore::RestoreMeta(std::string_view meta) {
  Decoder decoder(meta);
  uint64_t count = 0;
  HDOV_RETURN_IF_ERROR(decoder.DecodeFixed64(&count));
  HDOV_RETURN_IF_ERROR(decoder.CheckCount(count, 3 * sizeof(uint64_t)));
  std::vector<ModelExtent> extents(count);
  for (ModelExtent& extent : extents) {
    HDOV_RETURN_IF_ERROR(decoder.DecodeFixed64(&extent.first_page));
    HDOV_RETURN_IF_ERROR(decoder.DecodeFixed64(&extent.page_count));
    HDOV_RETURN_IF_ERROR(decoder.DecodeFixed64(&extent.bytes));
    // Written so that no crafted value can wrap the sum.
    if (extent.page_count > device_->page_count() ||
        extent.first_page > device_->page_count() - extent.page_count) {
      return Status::Corruption("model store: extent past device end");
    }
  }
  uint64_t total = 0;
  HDOV_RETURN_IF_ERROR(decoder.DecodeFixed64(&total));
  extents_ = std::move(extents);
  total_bytes_ = total;
  return Status::OK();
}

}  // namespace hdov
