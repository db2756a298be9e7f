#include "hdov/vpage.h"

#include "common/coding.h"

namespace hdov {

std::string SerializeVPage(const VPage& page, size_t capacity) {
  std::string out;
  out.reserve(VPageRecordSize(capacity));
  EncodeFixed32(&out, static_cast<uint32_t>(page.size()));
  for (const VdEntry& e : page) {
    EncodeFloat(&out, e.dov);
    EncodeFixed32(&out, e.nvo);
  }
  out.resize(VPageRecordSize(capacity), '\0');
  return out;
}

Status ParseVPage(std::string_view data, VPage* page) {
  Decoder decoder(data);
  uint32_t count = 0;
  HDOV_RETURN_IF_ERROR(decoder.DecodeFixed32(&count));
  HDOV_RETURN_IF_ERROR(
      decoder.CheckCount(count, sizeof(float) + sizeof(uint32_t)));
  page->clear();
  page->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    VdEntry e;
    HDOV_RETURN_IF_ERROR(decoder.DecodeFloat(&e.dov));
    HDOV_RETURN_IF_ERROR(decoder.DecodeFixed32(&e.nvo));
    page->push_back(e);
  }
  return Status::OK();
}

double VPageDovSum(const VPage& page) {
  double sum = 0.0;
  for (const VdEntry& e : page) {
    sum += e.dov;
  }
  return sum;
}

uint64_t VPageNvoSum(const VPage& page) {
  uint64_t sum = 0;
  for (const VdEntry& e : page) {
    sum += e.nvo;
  }
  return sum;
}

bool VPageVisible(const VPage& page) {
  for (const VdEntry& e : page) {
    if (e.dov > 0.0f) {
      return true;
    }
  }
  return false;
}

}  // namespace hdov
