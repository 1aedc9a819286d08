// The JSON writer shared by everything in obs that prints JSON: trace lines
// (to_json_line) and the Chrome trace-event exports of wasp_trace. Internal
// to the obs library and its tests; callers outside obs serialize events
// through to_json_line.
#pragma once

#include <string>
#include <string_view>

namespace wasp::obs {

// Appends `text` as a JSON string, quotes included, per RFC 8259: quotes,
// backslashes and control bytes are escaped, and bytes that do not form
// valid UTF-8 become U+FFFD, so the output always parses whatever the input.
void append_json_string(std::string& out, std::string_view text);

// Appends `value` exactly as printf("%.12g") prints it in the "C" locale;
// NaN and the infinities, which JSON cannot represent, print `null`.
void append_json_number(std::string& out, double value);

}  // namespace wasp::obs
