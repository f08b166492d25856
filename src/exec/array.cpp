#include "exec/array.hpp"

#include <cmath>
#include <cstring>

#include "support/check.hpp"

namespace inlt {

DenseArray::DenseArray(std::vector<i64> lo, std::vector<i64> hi)
    : lo_(std::move(lo)), hi_(std::move(hi)) {
  INLT_CHECK(lo_.size() == hi_.size());
  i64 total = 1;
  strides_.resize(lo_.size());
  for (int d = static_cast<int>(lo_.size()) - 1; d >= 0; --d) {
    INLT_CHECK_MSG(hi_[d] >= lo_[d], "array dimension has empty range");
    strides_[d] = total;
    // Extent itself is overflow-checked: [lo, hi] can span nearly the
    // whole i64 range when a probe ran with absurd parameter values.
    total = checked_mul(total, checked_add(checked_sub(hi_[d], lo_[d]), 1));
  }
  data_.assign(static_cast<size_t>(total), 0.0);
}

size_t DenseArray::flat(const std::vector<i64>& idx) const {
  INLT_CHECK_MSG(idx.size() == lo_.size(), "array rank mismatch");
  i64 off = 0;
  for (size_t d = 0; d < idx.size(); ++d) {
    INLT_CHECK_MSG(idx[d] >= lo_[d] && idx[d] <= hi_[d],
                   "array index out of bounds");
    off = checked_add(off, checked_mul(idx[d] - lo_[d], strides_[d]));
  }
  return static_cast<size_t>(off);
}

double DenseArray::get(const std::vector<i64>& idx) const {
  return data_[flat(idx)];
}

void DenseArray::set(const std::vector<i64>& idx, double v) {
  data_[flat(idx)] = v;
}

void DenseArray::for_each_index(
    const std::function<void(const std::vector<i64>&)>& fn) const {
  std::vector<i64> idx = lo_;
  if (lo_.empty()) return;
  for (;;) {
    fn(idx);
    int d = rank() - 1;
    while (d >= 0 && idx[d] == hi_[d]) {
      idx[d] = lo_[d];
      --d;
    }
    if (d < 0) break;
    ++idx[d];
  }
}

double DenseArray::max_abs_diff(const DenseArray& o) const {
  INLT_CHECK_MSG(data_.size() == o.data_.size(), "array shape mismatch");
  double m = 0.0;
  for (size_t i = 0; i < data_.size(); ++i)
    m = std::max(m, std::fabs(data_[i] - o.data_[i]));
  return m;
}

bool DenseArray::bit_equal(const DenseArray& o) const {
  return lo_ == o.lo_ && hi_ == o.hi_ &&
         (data_.empty() || std::memcmp(data_.data(), o.data_.data(),
                                       data_.size() * sizeof(double)) == 0);
}

void Memory::declare(const std::string& name, std::vector<i64> lo,
                     std::vector<i64> hi) {
  arrays_[name] = DenseArray(std::move(lo), std::move(hi));
}

DenseArray& Memory::at(const std::string& name) {
  auto it = arrays_.find(name);
  if (it == arrays_.end()) throw Error("undeclared array " + name);
  return it->second;
}

const DenseArray& Memory::at(const std::string& name) const {
  auto it = arrays_.find(name);
  if (it == arrays_.end()) throw Error("undeclared array " + name);
  return it->second;
}

double Memory::max_abs_diff(const Memory& o) const {
  INLT_CHECK_MSG(arrays_.size() == o.arrays_.size(), "memory shape mismatch");
  double m = 0.0;
  for (const auto& [name, arr] : arrays_)
    m = std::max(m, arr.max_abs_diff(o.at(name)));
  return m;
}

bool Memory::bit_equal(const Memory& o) const {
  if (arrays_.size() != o.arrays_.size()) return false;
  for (const auto& [name, arr] : arrays_) {
    auto it = o.arrays_.find(name);
    if (it == o.arrays_.end() || !arr.bit_equal(it->second)) return false;
  }
  return true;
}

}  // namespace inlt
