//===- Knobs.cpp - the PROTEUS_* environment knob table ------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "support/Knobs.h"

#include "support/Metrics.h"
#include "support/StringUtils.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>

using namespace proteus;
using namespace proteus::knobs;

namespace {

bool parseU64(std::string_view S, uint64_t &Out) {
  auto [Ptr, Ec] = std::from_chars(S.data(), S.data() + S.size(), Out);
  return Ec == std::errc() && Ptr == S.data() + S.size();
}

bool parseSpelling(std::span<const Spelling> Spellings, std::string_view S,
                   uint64_t &Out) {
  for (const Spelling &Sp : Spellings)
    if (S == Sp.Text) {
      Out = Sp.Value;
      return true;
    }
  return false;
}

} // namespace

const char *knobs::rawValue(const Knob &K) { return std::getenv(K.Name); }

void knobs::read(std::span<const Knob> Rows, void *Owner,
                 std::vector<std::string> *Warnings) {
  for (const Knob &K : Rows) {
    const char *Raw = rawValue(K);
    if (!Raw)
      continue;
    Value V;
    if (parse(K, Raw, V)) {
      K.Bound.Store(Owner, V);
      continue;
    }
    metrics::processRegistry().counter("config.errors").add();
    std::string Msg = std::string("ignoring invalid ") + K.Name + " value '" +
                      Raw + "' (expected " + expected(K) + ")";
    if (Warnings)
      Warnings->push_back(std::move(Msg));
    else
      std::fprintf(stderr, "proteus: warning: %s\n", Msg.c_str());
  }
}

bool knobs::parse(const Knob &K, std::string_view S, Value &Out) {
  switch (K.Kind) {
  case Grammar::Flag:
    Out.Num = 0;
    return true;
  case Grammar::Choice:
    return parseSpelling(K.Spellings, S, Out.Num);
  case Grammar::Unsigned:
    return parseU64(S, Out.Num) && Out.Num >= K.Min && Out.Num <= K.Max;
  case Grammar::Bytes:
    return parseU64(S, Out.Num);
  case Grammar::Path:
    Out.Text = S;
    return K.AllowEmpty || !S.empty();
  case Grammar::ArchList:
    // split() keeps empty fields, so a leading, trailing or doubled comma
    // rejects the whole value.
    for (std::string_view Segment : split(S, ',')) {
      uint64_t Arch;
      if (!parseSpelling(K.Spellings, Segment, Arch))
        return false;
      Out.List.push_back(static_cast<unsigned>(Arch));
    }
    return true;
  }
  return false;
}

std::string knobs::format(const Knob &K, const void *Owner) {
  Value V = K.Bound.Load(Owner);
  switch (K.Kind) {
  case Grammar::Flag:
    return V.Num ? "unset" : "set";
  case Grammar::Choice:
    return spelling(K.Spellings, static_cast<unsigned>(V.Num));
  case Grammar::Unsigned:
    return std::to_string(V.Num);
  case Grammar::Bytes:
    return V.Num ? std::to_string(V.Num) : "unlimited";
  case Grammar::Path:
    return V.Text;
  case Grammar::ArchList:
    for (unsigned A : V.List)
      V.Text += (V.Text.empty() ? "" : ",") +
                std::string(spelling(K.Spellings, A));
    return V.Text;
  }
  return "";
}

const char *knobs::spelling(std::span<const Spelling> Spellings, unsigned V) {
  for (const Spelling &Sp : Spellings)
    if (Sp.Value == V)
      return Sp.Text;
  return "unknown";
}

std::string knobs::expected(const Knob &K) {
  std::string Names;
  for (const Spelling &Sp : K.Spellings)
    Names += (Names.empty() ? "" : "|") + std::string(Sp.Text);
  switch (K.Kind) {
  case Grammar::Flag:
    return "any value";
  case Grammar::Unsigned:
    return "an integer in [" + std::to_string(K.Min) + ", " +
           std::to_string(K.Max) + "]";
  case Grammar::Bytes:
    return "a byte count";
  case Grammar::Path:
    return std::string("a ") + K.Noun;
  case Grammar::ArchList:
    return Names + ", comma-separated, no empty segments";
  case Grammar::Choice:
    break;
  }
  return Names;
}
