//===-- support/SmallVec.h - Small-buffer vector ---------------*- C++ -*-===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal small-buffer-optimized vector for trivially copyable element
/// types: the first \p N elements live inline (no heap allocation), growth
/// beyond that spills to the heap. Used on the machine's hot paths for
/// readable-message candidate sets, where the common case is a handful of
/// timestamps and the container is rebuilt on every operation — inline
/// storage makes that rebuild allocation-free even on a freshly constructed
/// Machine (replay and shrinking construct machines constantly).
///
/// Deliberately tiny: push_back / pop_back / clear / indexing / iteration
/// and copy assignment (which reuses the target's storage) only, and only
/// for trivially copyable T (elements are memcpy-moved on spill).
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_SUPPORT_SMALLVEC_H
#define COMPASS_SUPPORT_SMALLVEC_H

#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <type_traits>

namespace compass {

/// Small-buffer vector; see file comment.
template <typename T, size_t N> class SmallVec {
  static_assert(std::is_trivially_copyable_v<T>,
                "SmallVec only supports trivially copyable types");

public:
  SmallVec() : Data(Inline), Cap(N) {}
  SmallVec(const SmallVec &) = delete;
  SmallVec &operator=(const SmallVec &O) {
    if (this != &O) {
      while (Cap < O.Len)
        grow();
      std::memcpy(Data, O.Data, O.Len * sizeof(T));
      Len = O.Len;
    }
    return *this;
  }
  ~SmallVec() {
    if (Data != Inline)
      std::free(Data);
  }

  void push_back(const T &V) {
    if (Len == Cap)
      grow();
    Data[Len++] = V;
  }

  void pop_back() { --Len; }
  void clear() { Len = 0; }

  size_t size() const { return Len; }
  bool empty() const { return Len == 0; }

  T &operator[](size_t I) { return Data[I]; }
  const T &operator[](size_t I) const { return Data[I]; }

  T *begin() { return Data; }
  T *end() { return Data + Len; }
  const T *begin() const { return Data; }
  const T *end() const { return Data + Len; }

private:
  void grow() {
    size_t NewCap = Cap * 2;
    T *NewData = static_cast<T *>(std::malloc(NewCap * sizeof(T)));
    std::memcpy(NewData, Data, Len * sizeof(T));
    if (Data != Inline)
      std::free(Data);
    Data = NewData;
    Cap = NewCap;
  }

  T *Data;
  size_t Len = 0;
  size_t Cap;
  T Inline[N];
};

} // namespace compass

#endif // COMPASS_SUPPORT_SMALLVEC_H
