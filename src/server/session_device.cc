#include "server/session_device.h"

namespace hdov {

Status SessionDevice::FetchThrough(PageId page, std::string* out) {
  if (cache_ != nullptr) {
    HDOV_ASSIGN_OR_RETURN(std::shared_ptr<const std::string> data,
                          cache_->Get(page));
    *out = *data;
    return Status::OK();
  }
  return base_->ReadRaw(page, out);
}

Status SessionDevice::Read(PageId page, std::string* out) {
  if (page >= base_->page_count()) {
    return Status::OutOfRange("session device: read past end");
  }
  BillRead(page, 1);
  if (out == nullptr) {
    return Status::OK();
  }
  return FetchThrough(page, out);
}

Status SessionDevice::ReadRun(PageId first, uint64_t count,
                              std::vector<std::string>* out) {
  if (count == 0) {
    return Status::OK();
  }
  if (!RunInBounds(first, count, base_->page_count())) {
    return Status::OutOfRange("session device: run read past end");
  }
  BillRead(first, count);
  if (out == nullptr) {
    return Status::OK();
  }
  out->clear();
  out->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    out->emplace_back();
    HDOV_RETURN_IF_ERROR(FetchThrough(first + i, &out->back()));
  }
  return Status::OK();
}

Status SessionDevice::ReadRaw(PageId page, std::string* out) const {
  return base_->ReadRaw(page, out);
}

bool SessionDevice::IsMaterialized(PageId page) const {
  return base_->IsMaterialized(page);
}

PageId SessionDevice::AllocateUnmaterialized(uint64_t count) {
  (void)count;
  return kInvalidPage;
}

Status SessionDevice::Write(PageId page, std::string_view data) {
  (void)page;
  (void)data;
  return Status::FailedPrecondition("session device: world is read-only");
}

Status SessionDevice::RestoreContents(std::vector<std::string> pages) {
  (void)pages;
  return Status::FailedPrecondition("session device: world is read-only");
}

}  // namespace hdov
