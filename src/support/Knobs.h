//===- Knobs.h - the PROTEUS_* environment knob table -----------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every PROTEUS_* environment variable is one constant Knob row, kept next
/// to the config struct that owns it; each owner's fromEnvironment is a
/// call to read(), the only place the environment is consulted. Rejection
/// is warn-don't-coerce: the default is kept, "ignoring invalid NAME value
/// 'V' (expected ...)" goes to the caller's warning list (or stderr as
/// "proteus: warning: ..."), and "config.errors" is counted. Rows are
/// constant-initialized, so static initializers may read them.
///
//===----------------------------------------------------------------------===//

#ifndef PROTEUS_SUPPORT_KNOBS_H
#define PROTEUS_SUPPORT_KNOBS_H

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace proteus {
namespace knobs {

/// Value grammars, each parsed strictly (no whitespace, signs or junk).
enum class Grammar : uint8_t {
  Flag,     ///< presence switch: any value, even empty, clears the bound bool
  Choice,   ///< one of Spellings; several spellings may share a value
  Unsigned, ///< decimal integer in [Min, Max]
  Bytes,    ///< decimal byte count, 0 = unlimited; u64 overflow is rejected
  Path,     ///< free text naming a Noun; empty only when AllowEmpty
  ArchList, ///< Spellings joined by ',', no empty segments
};

/// A value's first spelling is its canonical name.
struct Spelling {
  const char *Text;
  unsigned Value;
};
inline constexpr Spelling OffOn[] = {{"off", 0}, {"on", 1}};

/// A parsed value on its way into, or out of, a row's field.
struct Value {
  uint64_t Num = 0;           ///< Flag, Choice, Unsigned, Bytes
  std::string Text;           ///< Path
  std::vector<unsigned> List; ///< ArchList
};

/// Type-erased access to an owner-struct field; built by field<>().
struct Field {
  void (*Store)(void *Owner, const Value &V);
  Value (*Load)(const void *Owner);
};

struct Knob {
  const char *Name;
  const char *Owner;
  Grammar Kind;
  Field Bound;
  const char *Default; ///< the default as format() prints it
  const char *Doc;     ///< one line: the README table's "Effect" column
  std::span<const Spelling> Spellings = {}; ///< Choice, ArchList
  uint64_t Min = 0, Max = 0;                ///< Unsigned
  const char *Noun = nullptr;               ///< Path
  bool AllowEmpty = false;                  ///< Path
};

/// Applies the environment's value of each of \p Rows to \p Owner, which
/// must point at the rows' owner struct.
void read(std::span<const Knob> Rows, void *Owner,
          std::vector<std::string> *Warnings);
template <class Cfg>
Cfg read(std::span<const Knob> Rows, std::vector<std::string> *Warnings) {
  Cfg C;
  read(Rows, &C, Warnings);
  return C;
}

const char *rawValue(const Knob &K); ///< null when unset
bool parse(const Knob &K, std::string_view Text, Value &Out);
/// \p K's field in \p Owner, spelled as Knob::Default documents it.
std::string format(const Knob &K, const void *Owner);
/// Canonical spelling of \p V, or "unknown".
const char *spelling(std::span<const Spelling> Spellings, unsigned V);
/// The "(expected ...)" clause of a rejection of \p K.
std::string expected(const Knob &K);

namespace detail {
template <class C, class T> C ownerOf(T C::*);

template <class T> void store(T &F, const Value &V) {
  if constexpr (std::is_same_v<T, std::string>) {
    F = V.Text;
  } else if constexpr (std::is_enum_v<T> || std::is_arithmetic_v<T>) {
    F = static_cast<T>(V.Num);
  } else {
    F.clear();
    for (unsigned E : V.List)
      F.push_back(static_cast<typename T::value_type>(E));
  }
}

template <class T> Value load(const T &F) {
  Value V;
  if constexpr (std::is_same_v<T, std::string>)
    V.Text = F;
  else if constexpr (std::is_enum_v<T> || std::is_arithmetic_v<T>)
    V.Num = static_cast<uint64_t>(F);
  else
    for (const auto &E : F)
      V.List.push_back(static_cast<unsigned>(E));
  return V;
}
} // namespace detail

/// Binds a row to the data member \p Member of its owner struct.
template <auto Member> constexpr Field field() {
  using Owner = decltype(detail::ownerOf(Member));
  return {[](void *O, const Value &V) {
            detail::store(static_cast<Owner *>(O)->*Member, V);
          },
          [](const void *O) {
            return detail::load(static_cast<const Owner *>(O)->*Member);
          }};
}

} // namespace knobs
} // namespace proteus

#endif // PROTEUS_SUPPORT_KNOBS_H
