// PagedFile: stores variable-length byte records as contiguous page runs
// ("extents") on a PageDevice. Used for V-page-index segments and other
// blobs larger than one page; reading an extent is one sequential scan.

#ifndef HDOV_STORAGE_PAGED_FILE_H_
#define HDOV_STORAGE_PAGED_FILE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/coding.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/page_device.h"

namespace hdov {

struct Extent {
  PageId first_page = kInvalidPage;
  uint64_t page_count = 0;
  uint64_t byte_length = 0;

  bool IsValid() const { return first_page != kInvalidPage; }
  uint64_t StoredBytes(uint32_t page_size) const {
    return page_count * page_size;
  }
};

// Extent <-> bytes, used by store/tree metadata blocks in snapshots.
inline void EncodeExtent(std::string* dst, const Extent& extent) {
  EncodeFixed64(dst, extent.first_page);
  EncodeFixed64(dst, extent.page_count);
  EncodeFixed64(dst, extent.byte_length);
}

inline Status DecodeExtent(Decoder* decoder, Extent* extent) {
  HDOV_RETURN_IF_ERROR(decoder->DecodeFixed64(&extent->first_page));
  HDOV_RETURN_IF_ERROR(decoder->DecodeFixed64(&extent->page_count));
  return decoder->DecodeFixed64(&extent->byte_length);
}

class PagedFile {
 public:
  explicit PagedFile(PageDevice* device) : device_(device) {}

  PageDevice* device() const { return device_; }

  // Appends `data` as a new extent (always whole pages).
  Result<Extent> Append(std::string_view data);

  // True when `extent` is a page run on the device whose pages can hold
  // its byte_length. Wrap-safe: extents are decoded off disk, and
  // `first_page + page_count` overflows for a crafted `first_page`.
  bool Holds(const Extent& extent) const;

  // Reads a whole extent back (one seek + page_count transfers).
  // OutOfRange when the device does not hold the extent.
  Result<std::string> ReadExtent(const Extent& extent) const;

  // Reads `length` bytes starting at `offset` within the extent, touching
  // only the pages that cover the range (one seek + covered transfers).
  // This is how segmented files (e.g. the V-page-index) read one segment
  // out of a larger contiguous region. OutOfRange when the device does not
  // hold the extent.
  Result<std::string> ReadRange(const Extent& extent, uint64_t offset,
                                uint64_t length) const;

 private:
  PageDevice* device_;
};

}  // namespace hdov

#endif  // HDOV_STORAGE_PAGED_FILE_H_
