// Arrays that report their accesses to a Recorder.
//
// The application under exploration performs all background-memory accesses
// through these wrappers.  Each array is declared once, with its bitwidth
// and declared geometry; constructed with a null recorder it is a plain
// vector with bounds checks, so the same codec implementation serves both
// production use and profiling runs.
//
// The read/write hot path is deliberately flat: bounds checks are
// `DTSE_DCHECK` (compiled out in Release, re-armed in tests), the
// "not recording" decision is one branch-predictable null test, and the
// recorder's aggregation slots are pre-resolved at registration time so a
// recorded access is a single inlined `record_slot` call with no key
// computation.  Uninstrumented Release-mode accesses therefore approach raw
// `std::vector` indexing speed.
#pragma once

#include <cstdint>
#include <vector>

#include "support/check.hpp"
#include "trace/recorder.hpp"

namespace dtse::trace {

template <typename T>
class InstrumentedArray {
 public:
  /// Registers the array with `recorder` when it is non-null; a null
  /// recorder leaves a plain bounds-checked vector.  `declared_words` lets
  /// the profile declare the full product geometry while allocating only
  /// the profiled working size (0 = same as `size`).
  InstrumentedArray(Recorder* recorder, std::string name, std::size_t size, int bitwidth,
                    T fill = T{}, std::uint64_t declared_words = 0,
                    std::optional<memlib::Location> forced_location = std::nullopt)
      : name_(name), data_(size, fill), recorder_(recorder) {
    if (recorder == nullptr) return;
    id_ = recorder->register_array(std::move(name),
                                   declared_words ? declared_words : size, bitwidth,
                                   forced_location);
    slot_read_ = Recorder::slot_of(id_, ir::AccessKind::kRead);
    slot_write_ = Recorder::slot_of(id_, ir::AccessKind::kWrite);
  }

  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] ArrayId id() const { return id_; }

  [[nodiscard]] T read(std::size_t index) const {
    DTSE_DCHECK(index < data_.size(), "read out of bounds on " + name_);
    if (recorder_ != nullptr && recorder_->in_iteration()) {
      recorder_->record_slot(slot_read_, index);
    }
    return data_[index];
  }

  void write(std::size_t index, T value) {
    DTSE_DCHECK(index < data_.size(), "write out of bounds on " + name_);
    if (recorder_ != nullptr && recorder_->in_iteration()) {
      recorder_->record_slot(slot_write_, index);
    }
    data_[index] = value;
  }

  /// Untracked access for initialization outside the measured region.
  [[nodiscard]] const std::vector<T>& raw() const { return data_; }
  std::vector<T>& raw() { return data_; }

 private:
  std::string name_;
  std::vector<T> data_;
  Recorder* recorder_ = nullptr;
  ArrayId id_ = 0;
  std::uint32_t slot_read_ = 0;
  std::uint32_t slot_write_ = 0;
};

/// Row-major 2-D view over an InstrumentedArray.
template <typename T>
class InstrumentedArray2D {
 public:
  InstrumentedArray2D(Recorder* recorder, std::string name, int width, int height,
                      int bitwidth, T fill = T{}, std::uint64_t declared_words = 0,
                      std::optional<memlib::Location> forced_location = std::nullopt)
      : width_(width), height_(height),
        array_(recorder, std::move(name), static_cast<std::size_t>(width) * height,
               bitwidth, fill, declared_words, forced_location) {}

  [[nodiscard]] int width() const { return width_; }
  [[nodiscard]] int height() const { return height_; }

  [[nodiscard]] T read(int x, int y) const {
    DTSE_DCHECK(x >= 0 && x < width_ && y >= 0 && y < height_,
                "2D read out of bounds on " + array_.name());
    return array_.read(static_cast<std::size_t>(y) * width_ + x);
  }

  void write(int x, int y, T value) {
    DTSE_DCHECK(x >= 0 && x < width_ && y >= 0 && y < height_,
                "2D write out of bounds on " + array_.name());
    array_.write(static_cast<std::size_t>(y) * width_ + x, value);
  }

  [[nodiscard]] InstrumentedArray<T>& flat() { return array_; }
  [[nodiscard]] const InstrumentedArray<T>& flat() const { return array_; }

 private:
  int width_;
  int height_;
  InstrumentedArray<T> array_;
};

}  // namespace dtse::trace
