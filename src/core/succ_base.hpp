#pragma once

#include <bit>

#include "util/word.hpp"

namespace dbr::core {

/// The De Bruijn shift rule of B(d,n) with its divisions strength-reduced,
/// for the per-node loops of the arena solve (core/ffc) and the ring
/// splicer (core/repair). The successors of u are suffix(u) * d + a for a
/// in [0, d); when d^n is a power of two (every d = 2^k instance) the
/// modulo and the divisions become masks and shifts, and otherwise each
/// helper costs at most one hardware division, where WordSpace's
/// suffix/prefix pair costs two.
struct SuccBase {
  Word suffix_count;  ///< d^(n-1)
  Word d;             ///< the radix
  Word mask;          ///< d^n - 1, meaningful only when pow2
  Word shift;         ///< log2(d), meaningful only when pow2
  bool pow2;          ///< d^n (equivalently d) is a power of two

  explicit SuccBase(const WordSpace& ws)
      : suffix_count(ws.size() / ws.radix()),
        d(ws.radix()),
        mask(ws.size() - 1),
        shift(static_cast<Word>(std::countr_zero(static_cast<Word>(ws.radix())))),
        pow2((ws.size() & (ws.size() - 1)) == 0) {}

  /// suffix(u) * d == (u * d) % d^n: the successors of u are this + a.
  Word operator()(Word u) const {
    return pow2 ? (u * d) & mask : (u % suffix_count) * d;
  }

  /// prefix(u) == u / d: the predecessors of u are a * suffix_count + this.
  Word pred_base(Word u) const { return pow2 ? u >> shift : u / d; }

  /// The last n-1 digits of u (WordSpace::suffix).
  Word suffix(Word u) const {
    return pow2 ? u & (suffix_count - 1) : u % suffix_count;
  }

  /// The last digit of u (WordSpace::tail).
  Digit tail(Word u) const {
    return static_cast<Digit>(pow2 ? u & (d - 1) : u % d);
  }

  /// True when u -> v is an edge of B(d,n), i.e. suffix(u) == prefix(v),
  /// for words u, v < d^n.
  bool adjacent(Word u, Word v) const { return v - (*this)(u) < d; }
};

}  // namespace dbr::core
