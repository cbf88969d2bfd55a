// Contract checking helpers.
//
// Library code validates preconditions with `DTSE_CHECK` which throws
// `support::ContractError` (deriving from std::logic_error) so callers and
// tests can observe violations.  Internal invariants that indicate a bug in
// this library itself use `DTSE_ASSERT`, which also throws, keeping behaviour
// identical between build types (no NDEBUG surprises).
//
// THE SPLIT RULE (audited; keep it that way): `DTSE_CHECK` / `DTSE_ASSERT` /
// `DTSE_DCHECK` are reserved for *code* errors — API misuse by a caller in
// this process, or a broken internal invariant.  A condition that can be
// made false by the *contents of data* crossing a trust boundary (a
// bitstream or container from disk or the network, a cached profile
// artifact, a job request) must NOT be a check: it is a normal input for a
// hardened entry point and is reported as a `support::Status` /
// `support::Result<T>` value (see status.hpp).  Decode paths expose
// `try_decode` / `try_deserialize` returning Results and nothing else.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace dtse::support {

/// Thrown when a caller violates a documented precondition.
class ContractError : public std::logic_error {
 public:
  explicit ContractError(const std::string& what) : std::logic_error(what) {}
};

/// Thrown when an internal invariant of the library is broken (a bug here).
class InternalError : public std::logic_error {
 public:
  explicit InternalError(const std::string& what) : std::logic_error(what) {}
};

namespace detail {
[[noreturn]] inline void raise_contract(std::string_view cond, std::string_view file, int line,
                                        std::string_view msg) {
  std::ostringstream os;
  os << "precondition failed: " << cond << " (" << file << ':' << line << ')';
  if (!msg.empty()) os << ": " << msg;
  throw ContractError(os.str());
}

[[noreturn]] inline void raise_internal(std::string_view cond, std::string_view file, int line,
                                        std::string_view msg) {
  std::ostringstream os;
  os << "internal invariant failed: " << cond << " (" << file << ':' << line << ')';
  if (!msg.empty()) os << ": " << msg;
  throw InternalError(os.str());
}
}  // namespace detail

}  // namespace dtse::support

#define DTSE_CHECK(cond, msg)                                                       \
  do {                                                                              \
    if (!(cond)) ::dtse::support::detail::raise_contract(#cond, __FILE__, __LINE__, \
                                                         (msg));                    \
  } while (false)

#define DTSE_ASSERT(cond, msg)                                                      \
  do {                                                                              \
    if (!(cond)) ::dtse::support::detail::raise_internal(#cond, __FILE__, __LINE__, \
                                                         (msg));                    \
  } while (false)

// Debug-level contract check for per-access hot paths (instrumented array
// reads/writes, bitstream I/O).  Identical to DTSE_CHECK in Debug builds; in
// Release (NDEBUG) it compiles to nothing so the wrappers approach raw
// std::vector speed.  Defining DTSE_ENABLE_CHECKS re-arms it regardless of
// build type — the test targets do this so bounds violations keep surfacing
// as ContractError even in optimized CI builds.
#if !defined(NDEBUG) || defined(DTSE_ENABLE_CHECKS)
#define DTSE_DCHECK(cond, msg) DTSE_CHECK(cond, msg)
#else
#define DTSE_DCHECK(cond, msg) \
  do {                         \
  } while (false)
#endif
