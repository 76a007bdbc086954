#include "analysis/findings.hpp"

#include "obs/export.hpp"

namespace ascp::analysis {

const char* severity_name(Severity s) {
  switch (s) {
    case Severity::Info: return "info";
    case Severity::Warning: return "warning";
    case Severity::Error: return "error";
  }
  return "?";
}

std::string Finding::format() const {
  return std::string(severity_name(severity)) + " [" + analyzer + "] " + location + ": " +
         message;
}

void Report::add(Severity sev, std::string analyzer, std::string location, std::string message) {
  if (sev == Severity::Error) ++errors_;
  if (sev == Severity::Warning) ++warnings_;
  findings_.push_back(
      Finding{sev, std::move(analyzer), std::move(location), std::move(message)});
}

void Report::merge(const Report& other) {
  for (const Finding& f : other.findings_) findings_.push_back(f);
  errors_ += other.errors_;
  warnings_ += other.warnings_;
}

bool Report::mentions(const std::string& needle) const {
  for (const Finding& f : findings_)
    if (f.message.find(needle) != std::string::npos ||
        f.location.find(needle) != std::string::npos)
      return true;
  return false;
}

std::string to_json(const Report& rep) {
  std::string out = "{\n  \"errors\": " + std::to_string(rep.errors()) +
                    ",\n  \"warnings\": " + std::to_string(rep.warnings()) +
                    ",\n  \"findings\": [";
  bool first = true;
  for (const Finding& f : rep.findings()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += std::string("    {\"severity\": \"") + severity_name(f.severity) +
           "\", \"analyzer\": \"" + obs::json_escape(f.analyzer) +
           "\", \"location\": \"" + obs::json_escape(f.location) +
           "\", \"message\": \"" + obs::json_escape(f.message) + "\"}";
  }
  out += "\n  ]\n}\n";
  return out;
}

std::string Report::format() const {
  std::string out;
  for (const Finding& f : findings_) {
    out += f.format();
    out += '\n';
  }
  out += std::to_string(errors_) + " error(s), " + std::to_string(warnings_) + " warning(s)\n";
  return out;
}

}  // namespace ascp::analysis
