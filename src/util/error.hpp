#pragma once

#include <concepts>
#include <source_location>
#include <stdexcept>
#include <string>
#include <string_view>

namespace hpmm {

/// Thrown when a caller passes arguments that violate a documented
/// precondition (e.g. a processor count outside an algorithm's range of
/// applicability).
class PreconditionError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Thrown when an internal invariant is violated; indicates a bug in hpmm
/// itself rather than in the caller.
class InternalError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

namespace detail {

/// The throw paths of require/ensure, out of line: the message
/// "<file>:<line>: <message>" is built only here, with the file path from
/// its last "src/" component onward so the text is the same wherever the
/// repository is checked out.
[[noreturn]] void throw_precondition(std::string_view message,
                                     const std::source_location& loc);
[[noreturn]] void throw_internal(std::string_view message,
                                 const std::source_location& loc);

}  // namespace detail

/// Validate a documented precondition; throws PreconditionError with the
/// call site baked into the message. A passing check allocates nothing: the
/// message is a view, and the error text is built only on failure.
inline void require(bool condition, std::string_view message,
                    std::source_location loc = std::source_location::current()) {
  if (!condition) [[unlikely]] detail::throw_precondition(message, loc);
}

/// As above, for a message that has to be assembled (numbers, names):
/// `make_message()` runs only when the check fails.
template <std::invocable F>
void require(bool condition, F&& make_message,
             std::source_location loc = std::source_location::current()) {
  if (!condition) [[unlikely]] {
    detail::throw_precondition(std::string(make_message()), loc);
  }
}

/// Validate an internal invariant; throws InternalError on failure.
inline void ensure(bool condition, std::string_view message,
                   std::source_location loc = std::source_location::current()) {
  if (!condition) [[unlikely]] detail::throw_internal(message, loc);
}

/// As above with a lazily built message.
template <std::invocable F>
void ensure(bool condition, F&& make_message,
            std::source_location loc = std::source_location::current()) {
  if (!condition) [[unlikely]] {
    detail::throw_internal(std::string(make_message()), loc);
  }
}

}  // namespace hpmm
