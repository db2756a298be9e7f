#include "storage/page_device.h"

#include "telemetry/trace_context.h"

namespace hdov {

PageDevice::PageDevice(const DiskModel& model, SimClock* clock)
    : model_(model),
      clock_(clock != nullptr ? clock : &own_clock_),
      flight_code_(telemetry::FlightInternName("device")) {}

PageDevice::~PageDevice() = default;

PageId PageDevice::Allocate() {
  pages_.emplace_back();
  pages_.back().resize(model_.page_size, '\0');
  return pages_.size() - 1;
}

PageId PageDevice::AllocateUnmaterialized(uint64_t count) {
  PageId first = pages_.size();
  pages_.resize(pages_.size() + count);  // Empty strings: unmaterialized.
  return first;
}

Status PageDevice::Write(PageId page, std::string_view data) {
  if (page >= pages_.size()) {
    return Status::OutOfRange("page device: write past end");
  }
  if (data.size() > model_.page_size) {
    return Status::InvalidArgument("page device: record exceeds page size");
  }
  std::string& slot = pages_[page];
  slot.assign(model_.page_size, '\0');
  slot.replace(0, data.size(), data);
  BillWrite(page);
  return Status::OK();
}

Status PageDevice::Read(PageId page, std::string* out) {
  if (page >= pages_.size()) {
    return Status::OutOfRange("page device: read past end");
  }
  BillRead(page, 1);
  if (out != nullptr) {
    const std::string& slot = pages_[page];
    if (slot.empty()) {
      out->assign(model_.page_size, '\0');  // Unmaterialized page.
    } else {
      *out = slot;
    }
  }
  return Status::OK();
}

Status PageDevice::ReadRun(PageId first, uint64_t count,
                           std::vector<std::string>* out) {
  if (count == 0) {
    return Status::OK();
  }
  if (!RunInBounds(first, count, pages_.size())) {
    return Status::OutOfRange("page device: run read past end");
  }
  BillRead(first, count);
  if (out != nullptr) {
    out->clear();
    out->reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      const std::string& slot = pages_[first + i];
      if (slot.empty()) {
        out->emplace_back(model_.page_size, '\0');
      } else {
        out->push_back(slot);
      }
    }
  }
  return Status::OK();
}

Status PageDevice::ReadRaw(PageId page, std::string* out) const {
  if (page >= pages_.size()) {
    return Status::OutOfRange("page device: raw read past end");
  }
  const std::string& slot = pages_[page];
  if (slot.empty()) {
    out->assign(model_.page_size, '\0');
  } else {
    *out = slot;
  }
  return Status::OK();
}

bool PageDevice::IsMaterialized(PageId page) const {
  return page < pages_.size() && !pages_[page].empty();
}

Status PageDevice::RestoreContents(std::vector<std::string> pages) {
  for (const std::string& page : pages) {
    if (!page.empty() && page.size() != model_.page_size) {
      return Status::InvalidArgument(
          "page device: restored page has wrong size");
    }
  }
  pages_ = std::move(pages);
  next_sequential_ = kInvalidPage;
  return Status::OK();
}

Status PageDevice::ExportContents(std::vector<std::string>* out) const {
  out->clear();
  out->resize(page_count());
  for (PageId id = 0; id < page_count(); ++id) {
    if (IsMaterialized(id)) {
      HDOV_RETURN_IF_ERROR(ReadRaw(id, &(*out)[id]));
    }
  }
  return Status::OK();
}

void PageDevice::RegisterWith(telemetry::MetricsRegistry* registry,
                              const std::string& prefix) const {
  // Flight events now attribute to the registered name (e.g.
  // "visual.io.tree") instead of the generic "device".
  flight_code_ = telemetry::FlightInternName(prefix);
  const IoStats* stats = &stats_;
  const auto view = [&](const char* name, uint64_t IoStats::*field) {
    registry->RegisterView(prefix + name, [stats, field] {
      return static_cast<double>(stats->*field);
    });
  };
  view(".page_reads", &IoStats::page_reads);
  view(".page_writes", &IoStats::page_writes);
  view(".seeks", &IoStats::seeks);
  view(".bytes_read", &IoStats::bytes_read);
  view(".bytes_written", &IoStats::bytes_written);
}

void PageDevice::BillRead(PageId first, uint64_t pages) {
  if (prefetch_sink_ != nullptr) {
    // Billing diversion: the read is speculative prefetch I/O. Charge the
    // sink's private counters and head tracker; the device's stats, the
    // shared clock, and next_sequential_ stay where the frame left them.
    PrefetchSink& sink = *prefetch_sink_;
    sink.stats.page_reads += pages;
    sink.stats.bytes_read += pages * model_.page_size;
    const uint64_t seeks = (first == sink.next_sequential) ? 0 : 1;
    sink.stats.seeks += seeks;
    sink.cost_millis += model_.ReadCostMillis(pages, seeks);
    sink.next_sequential = first + pages;
    sink.runs.emplace_back(first, pages);
    // A diverted read IS a prefetch issue, whatever scope the speculative
    // pass happens to be in (the searcher opens its own kSearch stage).
    telemetry::GlobalFlightRecorder().RecordWithStage(
        telemetry::FlightEventType::kPageRead, flight_code_, first, pages,
        static_cast<uint8_t>(telemetry::TraceStage::kPrefetch));
    return;
  }
  if (prefetch_residency_ != nullptr && pages > 0 &&
      prefetch_residency_->pages.size() >= pages) {
    bool all_resident = true;
    for (uint64_t i = 0; i < pages; ++i) {
      if (prefetch_residency_->pages.count(first + i) == 0) {
        all_resident = false;
        break;
      }
    }
    if (all_resident) {
      // Residency gate: the run was prefetched and is still resident, so
      // the frame does not stall on it. Consume the pages (one-shot) and
      // skip billing entirely — no stats, no clock, no head movement.
      for (uint64_t i = 0; i < pages; ++i) {
        prefetch_residency_->pages.erase(first + i);
      }
      prefetch_residency_->used_pages += pages;
      ++prefetch_residency_->used_runs;
      telemetry::GlobalFlightRecorder().Record(
          telemetry::FlightEventType::kPrefetchUsed, flight_code_, first,
          pages);
      return;
    }
  }
  stats_.page_reads += pages;
  stats_.bytes_read += pages * model_.page_size;
  uint64_t seeks = (first == next_sequential_) ? 0 : 1;
  stats_.seeks += seeks;
  clock_->AdvanceMillis(model_.ReadCostMillis(pages, seeks));
  next_sequential_ = first + pages;
  // Flight-recorder hook: observes the billed access, never bills itself
  // (the simulated counters above are identical with the recorder off).
  telemetry::GlobalFlightRecorder().Record(
      telemetry::FlightEventType::kPageRead, flight_code_, first, pages);
}

void PageDevice::BillWrite(PageId page) {
  ++stats_.page_writes;
  stats_.bytes_written += model_.page_size;
  uint64_t seeks = (page == next_sequential_) ? 0 : 1;
  stats_.seeks += seeks;
  clock_->AdvanceMillis(model_.ReadCostMillis(1, seeks));
  next_sequential_ = page + 1;
  telemetry::GlobalFlightRecorder().Record(
      telemetry::FlightEventType::kPageWrite, flight_code_, page, 1);
}

}  // namespace hdov
