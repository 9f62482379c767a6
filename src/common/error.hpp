#pragma once

#include <exception>
#include <source_location>
#include <stdexcept>
#include <string>
#include <utility>

namespace aqua {

/// Exception thrown when a precondition or invariant of the AquaCMP library
/// is violated. All validation failures in the library raise this type so
/// callers can distinguish model-usage errors from standard-library faults.
///
/// `what()` is the full diagnostic; for a failed `require`/`ensure` it names
/// the source location and function. `message()` is the caller's text only,
/// which is what a command-line tool or a service reply shows its user.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : Error(what, what) {}
  Error(const std::string& what, std::string message)
      : std::runtime_error(what), message_(std::move(message)) {}

  [[nodiscard]] const std::string& message() const { return message_; }

 private:
  std::string message_;
};

/// The text to show a user for `e`: an Error's message(), else what().
inline std::string user_message(const std::exception& e) {
  const auto* error = dynamic_cast<const Error*>(&e);
  return error != nullptr ? error->message() : std::string(e.what());
}

namespace detail {
[[noreturn]] inline void raise(const char* kind, const std::string& msg,
                               const std::source_location& loc) {
  throw Error(std::string(kind) + " at " + loc.file_name() + ":" +
                  std::to_string(loc.line()) + " in " + loc.function_name() +
                  ": " + msg,
              msg);
}
}  // namespace detail

/// Validate a caller-supplied precondition; throws aqua::Error on failure.
inline void require(bool ok, const std::string& msg,
                    const std::source_location loc =
                        std::source_location::current()) {
  if (!ok) detail::raise("precondition violated", msg, loc);
}

/// Validate an internal invariant; throws aqua::Error on failure.
inline void ensure(bool ok, const std::string& msg,
                   const std::source_location loc =
                       std::source_location::current()) {
  if (!ok) detail::raise("invariant violated", msg, loc);
}

}  // namespace aqua
