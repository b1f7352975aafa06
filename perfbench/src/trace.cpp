#include "perfbench/src/trace.h"

#include <cstdio>

namespace perfbench {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\": [");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {",
                 i == 0 ? "" : ",", json_escape(s.name).c_str(), s.start_us, s.dur_us);
    for (std::size_t a = 0; a < s.args.size(); ++a) {
      std::fprintf(f, "%s\"%s\": %.17g", a == 0 ? "" : ", ", json_escape(s.args[a].first).c_str(),
                   s.args[a].second);
    }
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
