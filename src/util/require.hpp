#pragma once

// Precondition and invariant checks.
//
// Contract: a check that passes costs one branch and allocates nothing. The
// message is a std::string_view, so a literal is never copied, and the
// "file:line: message" text is built only on failure, out of line. A
// message that has to be computed (it names a value) must not be built
// eagerly at the call site, where it would allocate on every passing call:
// use require_parts, which takes the message in pieces and joins them only
// when the check fails.

#include <concepts>
#include <source_location>
#include <stdexcept>
#include <string>
#include <string_view>

namespace dbr {

/// Thrown when a caller violates a documented precondition of a public API.
class precondition_error : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Thrown when an internal invariant fails; indicates a library bug.
class invariant_error : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

namespace detail {

/// Throws Error with the text "file:line: message".
template <typename Error>
[[noreturn, gnu::cold, gnu::noinline]] void fail_check(
    std::source_location loc, std::string_view message) {
  std::string text = loc.file_name();
  text += ':';
  text += std::to_string(loc.line());
  text += ": ";
  text += message;
  throw Error(text);
}

/// Appends a text piece of a require_parts message as is.
inline void append_part(std::string& out, std::string_view text) { out += text; }
/// Appends an integer piece of a require_parts message in decimal.
template <std::integral T>
void append_part(std::string& out, T value) {
  out += std::to_string(value);
}

/// Joins the parts, then throws precondition_error as fail_check does.
template <typename... Parts>
[[noreturn, gnu::cold, gnu::noinline]] void fail_parts(
    std::source_location loc, const Parts&... parts) {
  std::string message;
  (append_part(message, parts), ...);
  fail_check<precondition_error>(loc, message);
}

}  // namespace detail

/// Checks a documented precondition of a public entry point.
/// Throws dbr::precondition_error with the offending location on failure.
inline void require(bool condition, std::string_view message,
                    std::source_location loc = std::source_location::current()) {
  if (!condition) [[unlikely]] {
    detail::fail_check<precondition_error>(loc, message);
  }
}

/// Checks an internal invariant. Failure means the library itself is wrong,
/// so the error type is distinct from precondition violations.
inline void ensure(bool condition, std::string_view message,
                   std::source_location loc = std::source_location::current()) {
  if (!condition) [[unlikely]] {
    detail::fail_check<invariant_error>(loc, message);
  }
}

/// The condition of a require_parts check plus its call site. The location
/// is captured when the caller's bool converts to a CheckSite, because a
/// defaulted source_location parameter cannot follow a parameter pack.
struct CheckSite {
  CheckSite(bool condition,
            std::source_location where = std::source_location::current())
      : passed(condition), loc(where) {}

  bool passed;
  std::source_location loc;
};

/// require() with a computed message: the parts (string literals and
/// integers) are joined into the message only when the check fails, e.g.
///   require_parts(v < size, "faulty node word ", v, " out of range");
/// throws the same precondition_error text as the eager
///   require(v < size, "faulty node word " + std::to_string(v) + " out of range")
/// without building a string on every passing call.
template <typename... Parts>
void require_parts(CheckSite check, const Parts&... parts) {
  if (!check.passed) [[unlikely]] {
    detail::fail_parts(check.loc, parts...);
  }
}

}  // namespace dbr
