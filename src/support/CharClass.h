//===- CharClass.h - Locale-free ASCII character classes --------*- C++ -*-===//
//
// Part of gator-cpp, a reproduction of "Static Reference Analysis for GUI
// Objects in Android Software" (Rountev and Yan, CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Character classes for the text frontends (ALite, layout XML, DexLite),
/// answered from one 256-entry table. The table equals the C-locale
/// <cctype> predicates for every byte value: bytes >= 0x80 belong to no
/// class. Unlike std::isspace and friends it never consults the global
/// locale and needs no unsigned-char cast at the call site.
///
//===----------------------------------------------------------------------===//

#ifndef GATOR_SUPPORT_CHARCLASS_H
#define GATOR_SUPPORT_CHARCLASS_H

#include <array>
#include <cstdint>

namespace gator {
namespace charclass {

enum : uint8_t {
  Space = 1 << 0, ///< ' ', '\t', '\n', '\v', '\f', '\r'
  Alpha = 1 << 1, ///< 'A'-'Z', 'a'-'z'
  Digit = 1 << 2, ///< '0'-'9'
};

inline constexpr std::array<uint8_t, 256> Table = [] {
  std::array<uint8_t, 256> T{};
  for (unsigned C : {' ', '\t', '\n', '\v', '\f', '\r'})
    T[C] |= Space;
  for (unsigned C = 'A'; C <= 'Z'; ++C)
    T[C] |= Alpha;
  for (unsigned C = 'a'; C <= 'z'; ++C)
    T[C] |= Alpha;
  for (unsigned C = '0'; C <= '9'; ++C)
    T[C] |= Digit;
  return T;
}();

constexpr bool is(char C, uint8_t Classes) {
  return (Table[static_cast<unsigned char>(C)] & Classes) != 0;
}
constexpr bool isSpace(char C) { return is(C, Space); }
constexpr bool isAlpha(char C) { return is(C, Alpha); }
constexpr bool isDigit(char C) { return is(C, Digit); }
constexpr bool isAlnum(char C) { return is(C, Alpha | Digit); }

} // namespace charclass
} // namespace gator

#endif // GATOR_SUPPORT_CHARCLASS_H
