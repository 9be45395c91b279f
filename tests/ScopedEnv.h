//===- ScopedEnv.h - scoped environment variables for tests ------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#ifndef PROTEUS_TESTS_SCOPEDENV_H
#define PROTEUS_TESTS_SCOPEDENV_H

#include <cstdlib>
#include <string>

namespace proteus_test {

/// Sets an environment variable for the scope, restoring the previous
/// state (including absence) on destruction.
struct ScopedEnv {
  std::string Name;
  std::string Old;
  bool Had;
  ScopedEnv(const std::string &N, const std::string &V) : Name(N) {
    const char *P = std::getenv(N.c_str());
    Had = P != nullptr;
    if (P)
      Old = P;
    setenv(N.c_str(), V.c_str(), 1);
  }
  ~ScopedEnv() {
    if (Had)
      setenv(Name.c_str(), Old.c_str(), 1);
    else
      unsetenv(Name.c_str());
  }
  ScopedEnv(const ScopedEnv &) = delete;
  ScopedEnv &operator=(const ScopedEnv &) = delete;
};

} // namespace proteus_test

#endif // PROTEUS_TESTS_SCOPEDENV_H
