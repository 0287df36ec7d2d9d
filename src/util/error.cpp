#include "util/error.hpp"

namespace hpmm::detail {
namespace {

/// `file` from its last "src/" path component onward; paths outside a src/
/// directory come back unchanged.
std::string_view source_path(std::string_view file) noexcept {
  if (file.starts_with("src/")) return file;
  const std::size_t at = file.rfind("/src/");
  return at == std::string_view::npos ? file : file.substr(at + 1);
}

std::string located(std::string_view message, const std::source_location& loc) {
  std::string text(source_path(loc.file_name()));
  text += ':';
  text += std::to_string(loc.line());
  text += ": ";
  text += message;
  return text;
}

}  // namespace

void throw_precondition(std::string_view message,
                        const std::source_location& loc) {
  throw PreconditionError(located(message, loc));
}

void throw_internal(std::string_view message, const std::source_location& loc) {
  throw InternalError(located(message, loc));
}

}  // namespace hpmm::detail
