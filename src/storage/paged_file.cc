#include "storage/paged_file.h"

#include <vector>

namespace hdov {

Result<Extent> PagedFile::Append(std::string_view data) {
  const uint32_t page_size = device_->page_size();
  Extent extent;
  extent.byte_length = data.size();
  extent.page_count = (data.size() + page_size - 1) / page_size;
  if (extent.page_count == 0) {
    extent.page_count = 1;  // Zero-length records still occupy one page.
  }
  extent.first_page = device_->AllocateUnmaterialized(extent.page_count);
  for (uint64_t i = 0; i < extent.page_count; ++i) {
    size_t offset = std::min<size_t>(i * page_size, data.size());
    size_t len = std::min<size_t>(page_size, data.size() - offset);
    HDOV_RETURN_IF_ERROR(
        device_->Write(extent.first_page + i, data.substr(offset, len)));
  }
  return extent;
}

bool PagedFile::Holds(const Extent& extent) const {
  const uint32_t page_size = device_->page_size();
  const uint64_t needed = extent.byte_length / page_size +
                          (extent.byte_length % page_size != 0 ? 1 : 0);
  return RunInBounds(extent.first_page, extent.page_count,
                     device_->page_count()) &&
         needed <= extent.page_count;
}

Result<std::string> PagedFile::ReadExtent(const Extent& extent) const {
  if (!extent.IsValid()) {
    return Status::InvalidArgument("paged file: invalid extent");
  }
  if (!Holds(extent)) {
    return Status::OutOfRange("paged file: extent beyond device");
  }
  std::vector<std::string> pages;
  HDOV_RETURN_IF_ERROR(
      device_->ReadRun(extent.first_page, extent.page_count, &pages));
  std::string data;
  data.reserve(extent.byte_length);
  for (const std::string& page : pages) {
    data += page;
  }
  data.resize(extent.byte_length);
  return data;
}

Result<std::string> PagedFile::ReadRange(const Extent& extent,
                                         uint64_t offset,
                                         uint64_t length) const {
  if (!extent.IsValid()) {
    return Status::InvalidArgument("paged file: invalid extent");
  }
  if (!Holds(extent)) {
    return Status::OutOfRange("paged file: extent beyond device");
  }
  if (length > extent.byte_length || offset > extent.byte_length - length) {
    return Status::OutOfRange("paged file: range beyond extent");
  }
  if (length == 0) {
    return std::string();
  }
  const uint32_t page_size = device_->page_size();
  const uint64_t first = offset / page_size;
  const uint64_t last = (offset + length - 1) / page_size;
  std::vector<std::string> pages;
  HDOV_RETURN_IF_ERROR(device_->ReadRun(extent.first_page + first,
                                        last - first + 1, &pages));
  std::string data;
  data.reserve((last - first + 1) * page_size);
  for (const std::string& page : pages) {
    data += page;
  }
  return data.substr(offset - first * page_size, length);
}

}  // namespace hdov
