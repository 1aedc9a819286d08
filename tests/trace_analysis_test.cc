// Offline trace analysis: JSONL parsing, span-forest reconstruction,
// validation, field-level diffing and the Chrome trace export -- the library
// behind the `wasp_trace` CLI and the CI trace checks.
#include "obs/trace_analysis.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"

namespace wasp::obs {
namespace {

// Serializes emitter output the way FileSink would and loads it back.
TraceFile roundtrip(const MemorySink& sink) {
  std::stringstream buf;
  for (const TraceEvent& e : sink.events()) {
    buf << to_json_line(e) << '\n';
  }
  return load_trace(buf);
}

// ---------------------------------------------------------------------------
// parse_trace_line

TEST(ParseTraceLineTest, ReadsNumbersStringsBoolsAndNulls) {
  TraceEvent event;
  int schema = -1;
  std::string error;
  ASSERT_TRUE(parse_trace_line(
      R"({"schema":2,"seq":7,"t":1.5,"type":"x","a":3,"b":"s","c":true,"d":null})",
      &event, &schema, &error))
      << error;
  EXPECT_EQ(schema, 2);
  EXPECT_EQ(event.seq, 7u);
  EXPECT_DOUBLE_EQ(event.t, 1.5);
  EXPECT_EQ(event.type, "x");
  EXPECT_DOUBLE_EQ(event.num("a"), 3.0);
  EXPECT_EQ(event.str("b"), "s");
  EXPECT_EQ(event.str("c"), "true");  // bools -> string fields, like flag()
  EXPECT_TRUE(std::isnan(event.num("d", 0.0)));  // null numbers -> NaN
}

TEST(ParseTraceLineTest, RoundTripsToJsonLineOutput) {
  TraceEvent original;
  original.seq = 41;
  original.t = 2.25;
  original.type = "span_begin";
  original.nums.emplace_back("span_id", 9.0);
  original.strs.emplace_back("name", "with \"quotes\"\nand newline");

  TraceEvent parsed;
  int schema = 0;
  std::string error;
  ASSERT_TRUE(parse_trace_line(to_json_line(original), &parsed, &schema,
                               &error))
      << error;
  EXPECT_EQ(schema, kTraceSchemaVersion);
  EXPECT_EQ(parsed.seq, original.seq);
  EXPECT_DOUBLE_EQ(parsed.t, original.t);
  EXPECT_EQ(parsed.type, original.type);
  EXPECT_DOUBLE_EQ(parsed.num("span_id"), 9.0);
  EXPECT_EQ(parsed.str("name"), "with \"quotes\"\nand newline");
}

TEST(ParseTraceLineTest, RejectsMalformedLines) {
  TraceEvent event;
  int schema = 0;
  std::string error;
  EXPECT_FALSE(parse_trace_line("not json", &event, &schema, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(parse_trace_line(R"({"type":"x")", &event, &schema, &error));
  EXPECT_FALSE(
      parse_trace_line(R"({"type":"x","a":})", &event, &schema, &error));
  EXPECT_FALSE(parse_trace_line(R"([1,2,3])", &event, &schema, &error));
}

TEST(LoadTraceTest, CollectsParseErrorsWithoutDroppingGoodLines) {
  std::stringstream in;
  in << R"({"schema":2,"seq":0,"t":0,"type":"a"})" << '\n'
     << "garbage line\n"
     << '\n'  // blank lines are skipped, not errors
     << R"({"schema":2,"seq":1,"t":1,"type":"b"})" << '\n';
  const TraceFile file = load_trace(in);
  EXPECT_EQ(file.lines, 3u);
  ASSERT_EQ(file.events.size(), 2u);
  EXPECT_EQ(file.events[0].type, "a");
  EXPECT_EQ(file.events[1].type, "b");
  ASSERT_EQ(file.errors.size(), 1u);
  EXPECT_NE(file.errors[0].find("line 2"), std::string::npos)
      << file.errors[0];
}

// ---------------------------------------------------------------------------
// SpanIndex

TEST(SpanIndexTest, BuildsForestAndToleratesNonLifoClose) {
  auto sink = std::make_shared<MemorySink>();
  TraceEmitter emitter(sink);
  std::uint64_t root = 0, first = 0, second = 0;
  emitter.set_now(1.0);
  { auto e = emitter.begin_span_event("adaptation", &root, kNoSpan); }
  {
    TraceEmitter::ParentScope in_root(&emitter, root);
    emitter.set_now(2.0);
    { auto e = emitter.begin_span_event("transfer", &first); }
    { auto e = emitter.begin_span_event("transfer", &second); }
    emitter.set_now(3.0);
    { auto e = emitter.end_span(first); }
  }
  // Root closes before its second child: legal, spans are not a stack.
  emitter.set_now(4.0);
  { auto e = emitter.end_span(root); }
  emitter.set_now(6.0);
  { auto e = emitter.end_span(second); }

  std::vector<TraceEvent> events(sink->events().begin(),
                                 sink->events().end());
  const SpanIndex index = SpanIndex::build(events);
  EXPECT_TRUE(index.balanced());
  EXPECT_TRUE(index.errors.empty());
  ASSERT_EQ(index.nodes.size(), 3u);
  ASSERT_EQ(index.roots.size(), 1u);

  const SpanNode* root_node = index.find(root);
  ASSERT_NE(root_node, nullptr);
  EXPECT_EQ(root_node->name, "adaptation");
  EXPECT_EQ(root_node->parent, kNoSpan);
  EXPECT_EQ(root_node->children.size(), 2u);
  EXPECT_DOUBLE_EQ(root_node->duration(), 3.0);
  const SpanNode* child = index.find(second);
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(child->parent, root);
  EXPECT_DOUBLE_EQ(child->end_t, 6.0);

  // Critical path from the root follows the child that ends last.
  const auto path = index.critical_path(index.roots[0]);
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(index.nodes[path[1]].id, second);
}

TEST(SpanIndexTest, FlagsUnclosedAndOrphanEnds) {
  std::vector<TraceEvent> events;
  TraceEvent begin;
  begin.seq = 0;
  begin.type = "span_begin";
  begin.strs.emplace_back("name", "dangling");
  begin.nums.emplace_back("span_id", 5.0);
  begin.nums.emplace_back("parent_id", 0.0);
  events.push_back(begin);
  TraceEvent end;
  end.seq = 1;
  end.type = "span_end";
  end.nums.emplace_back("span_id", 99.0);  // never begun
  events.push_back(end);

  const SpanIndex index = SpanIndex::build(events);
  EXPECT_FALSE(index.balanced());
  EXPECT_EQ(index.unclosed, 1u);
  EXPECT_EQ(index.orphan_ends, 1u);
  EXPECT_FALSE(index.errors.empty());
}

TEST(SpanIndexTest, RejectsParentClosedBeforeChildBegins) {
  auto sink = std::make_shared<MemorySink>();
  TraceEmitter emitter(sink);
  const std::uint64_t parent = emitter.begin_span("p", kNoSpan);
  { auto e = emitter.end_span(parent); }
  // Explicit parent id pointing at an already-closed span.
  const std::uint64_t child = emitter.begin_span("c", parent);
  { auto e = emitter.end_span(child); }

  std::vector<TraceEvent> events(sink->events().begin(),
                                 sink->events().end());
  const SpanIndex index = SpanIndex::build(events);
  EXPECT_TRUE(index.balanced());  // begin/end pairs still match up
  EXPECT_FALSE(index.errors.empty());  // but the nesting is flagged
}

// ---------------------------------------------------------------------------
// validate_trace

TEST(ValidateTraceTest, AcceptsEmitterOutput) {
  auto sink = std::make_shared<MemorySink>();
  TraceEmitter emitter(sink);
  std::uint64_t span = 0;
  { auto e = emitter.begin_span_event("adaptation", &span, kNoSpan); }
  emitter.event("migration_plan").num("moves", 2.0);
  emitter.end_span(span).str("status", "done");

  const TraceFile file = roundtrip(*sink);
  const ValidationReport report = validate_trace(file);
  EXPECT_TRUE(report.ok()) << (report.errors.empty() ? "" : report.errors[0]);
  EXPECT_EQ(report.events, 3u);
  EXPECT_EQ(report.spans, 1u);
  EXPECT_EQ(report.unclosed, 0u);
  EXPECT_EQ(report.orphan_ends, 0u);
}

TEST(ValidateTraceTest, ReportsSeqRegressionsAndBadSchema) {
  std::stringstream in;
  in << R"({"schema":2,"seq":5,"t":0,"type":"a"})" << '\n'
     << R"({"schema":2,"seq":3,"t":1,"type":"b"})" << '\n'  // seq goes back
     << R"({"schema":9,"seq":6,"t":2,"type":"c"})" << '\n';  // unknown schema
  const ValidationReport report = validate_trace(load_trace(in));
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.errors.size(), 2u);
}

TEST(ValidateTraceTest, SeqRestartSplitsConcatenatedRunsIntoSegments) {
  // Bench drivers append several runs (one emitter each) to a single file:
  // seq and span ids restart at 0 at each boundary. That must parse as
  // separate segments, with span ids resolved per segment, not as errors.
  std::stringstream buf;
  for (int run = 0; run < 2; ++run) {
    auto sink = std::make_shared<MemorySink>();
    TraceEmitter emitter(sink);
    std::uint64_t root = 0;
    { auto e = emitter.begin_span_event("adaptation", &root, kNoSpan); }
    std::uint64_t child = 0;
    {
      TraceEmitter::ParentScope in_root(&emitter, root);
      auto e = emitter.begin_span_event("transfer", &child);
    }
    emitter.end_span(child).str("status", "done");
    emitter.end_span(root).str("status", "stabilized");
    for (const TraceEvent& e : sink->events()) {
      buf << to_json_line(e) << '\n';
    }
  }
  const TraceFile file = load_trace(buf);
  const ValidationReport report = validate_trace(file);
  EXPECT_TRUE(report.ok()) << (report.errors.empty() ? "" : report.errors[0]);
  EXPECT_EQ(report.segments, 2u);
  EXPECT_EQ(report.spans, 4u);
  EXPECT_EQ(report.unclosed, 0u);
  EXPECT_EQ(report.orphan_ends, 0u);

  const SpanIndex index = SpanIndex::build(file.events);
  EXPECT_TRUE(index.balanced());
  EXPECT_EQ(index.segments, 2u);
  ASSERT_EQ(index.roots.size(), 2u);
  for (std::size_t root : index.roots) {
    EXPECT_EQ(index.nodes[root].name, "adaptation");
    ASSERT_EQ(index.nodes[root].children.size(), 1u);
    EXPECT_EQ(index.nodes[index.nodes[root].children[0]].name, "transfer");
  }
}

// ---------------------------------------------------------------------------
// diff_traces

std::vector<TraceEvent> simple_stream() {
  std::vector<TraceEvent> events;
  for (int i = 0; i < 3; ++i) {
    TraceEvent e;
    e.seq = static_cast<std::uint64_t>(i);
    e.t = i * 1.0;
    e.type = "tick";
    e.nums.emplace_back("delay_sec", 0.25 * i);
    e.strs.emplace_back("phase", "steady");
    events.push_back(e);
  }
  return events;
}

TEST(DiffTracesTest, IdenticalStreamsAndWallClockExemption) {
  const auto a = simple_stream();
  auto b = simple_stream();
  EXPECT_TRUE(diff_traces(a, b).identical());

  // Wall-clock fields differ run to run; ignored by default.
  b[1].nums.emplace_back("wall_us", 1234.0);
  EXPECT_TRUE(diff_traces(a, b).identical());

  DiffOptions strict;
  strict.ignore_wall_keys = false;
  EXPECT_FALSE(diff_traces(a, b, strict).identical());
}

TEST(DiffTracesTest, ReportsFieldAndLengthDifferences) {
  const auto a = simple_stream();
  auto b = simple_stream();
  b[2].nums[0].second = 99.0;  // delay_sec differs
  TraceEvent extra;
  extra.seq = 3;
  extra.type = "tick";
  b.push_back(extra);

  const TraceDiff diff = diff_traces(a, b);
  EXPECT_FALSE(diff.identical());
  EXPECT_EQ(diff.differing_events, 2u);
  ASSERT_FALSE(diff.reports.empty());
  EXPECT_NE(diff.reports[0].find("delay_sec"), std::string::npos)
      << diff.reports[0];

  // Ignoring the differing key leaves only the length mismatch.
  DiffOptions ignore;
  ignore.ignore_keys.push_back("delay_sec");
  EXPECT_EQ(diff_traces(a, b, ignore).differing_events, 1u);
}

// ---------------------------------------------------------------------------
// export_chrome_trace

TEST(ChromeExportTest, EmitsCompleteEventsForClosedSpans) {
  auto sink = std::make_shared<MemorySink>();
  TraceEmitter emitter(sink);
  emitter.set_now(1.0);
  std::uint64_t span = 0;
  { auto e = emitter.begin_span_event("adaptation", &span, kNoSpan); }
  emitter.event("migration_plan").num("moves", 1.0);
  emitter.set_now(3.5);
  { auto e = emitter.end_span(span); }

  std::vector<TraceEvent> events(sink->events().begin(),
                                 sink->events().end());
  std::stringstream out;
  export_chrome_trace(events, out);
  const std::string json = out.str();
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\"", 0), 0u) << json;
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"adaptation\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos) << json;
  // Sim seconds map to trace microseconds: 2.5 s duration -> 2500000 us.
  EXPECT_NE(json.find("2500000"), std::string::npos) << json;
}

// A strict JSON checker for the export test: RFC 8259 grammar over bytes
// that must be valid UTF-8 as a whole (what a JSON reader such as Python's
// json.load requires of a file).
class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : s_(text) {}

  bool document() {
    return utf8_valid() && value() && (ws(), i_ == s_.size());
  }

 private:
  bool utf8_valid() const {
    for (std::size_t k = 0; k < s_.size();) {
      const auto b = static_cast<unsigned char>(s_[k]);
      std::size_t len = b < 0x80 ? 1 : b >= 0xC2 && b < 0xE0 ? 2
                        : b >= 0xE0 && b < 0xF0   ? 3
                        : b >= 0xF0 && b < 0xF5   ? 4
                                                  : 0;
      if (len == 0 || k + len > s_.size()) return false;
      for (std::size_t c = 1; c < len; ++c) {
        if ((static_cast<unsigned char>(s_[k + c]) & 0xC0) != 0x80) {
          return false;
        }
      }
      k += len;
    }
    return true;
  }
  void ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\n' ||
                              s_[i_] == '\r' || s_[i_] == '\t')) {
      ++i_;
    }
  }
  bool eat(char c) {
    ws();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  bool string() {
    if (!eat('"')) return false;
    while (i_ < s_.size() && s_[i_] != '"') {
      const auto b = static_cast<unsigned char>(s_[i_]);
      if (b < 0x20) return false;
      if (b == '\\') {
        if (++i_ >= s_.size()) return false;
        if (s_[i_] == 'u') {
          for (int k = 0; k < 4; ++k) {
            if (++i_ >= s_.size() || !std::isxdigit(
                    static_cast<unsigned char>(s_[i_]))) {
              return false;
            }
          }
        } else if (std::string_view("\"\\/bfnrt").find(s_[i_]) ==
                   std::string_view::npos) {
          return false;
        }
      }
      ++i_;
    }
    return eat('"');
  }
  // Digits, sign, point and exponent only (no nan/inf/hex), then strtod.
  bool number() {
    const std::size_t n = s_.find_first_not_of("0123456789+-.eE", i_);
    const std::string token(s_.substr(i_, n - i_));
    if (token.empty() || token[0] == '+') return false;
    char* end = nullptr;
    std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return false;
    i_ += token.size();
    return true;
  }
  bool value() {
    ws();
    if (i_ >= s_.size()) return false;
    const char c = s_[i_];
    if (c == '{') {
      ++i_;
      if (eat('}')) return true;
      do {
        if (!string() || !eat(':') || !value()) return false;
      } while (eat(','));
      return eat('}');
    }
    if (c == '[') {
      ++i_;
      if (eat(']')) return true;
      do {
        if (!value()) return false;
      } while (eat(','));
      return eat(']');
    }
    if (c == '"') return string();
    for (const std::string_view word : {"null", "true", "false"}) {
      if (s_.substr(i_, word.size()) == word) {
        i_ += word.size();
        return true;
      }
    }
    return number();
  }

  std::string_view s_;
  std::size_t i_ = 0;
};

TEST(ChromeExportTest, InvalidUtf8SpanNameStillExportsValidJson) {
  auto sink = std::make_shared<MemorySink>();
  TraceEmitter emitter(sink);
  emitter.set_now(1.0);
  std::uint64_t closed = 0;
  std::uint64_t open = 0;
  { auto e = emitter.begin_span_event("bad\xff", &closed, kNoSpan); }
  {
    auto e = emitter.begin_span_event("open\xc3", &open, kNoSpan);
    e.str("detail", "tail\xe2\x82");
  }
  emitter.event("note\xff").str("why", "\x80");
  emitter.set_now(2.0);
  { auto e = emitter.end_span(closed); }

  std::vector<TraceEvent> events(sink->events().begin(),
                                 sink->events().end());
  std::stringstream out;
  export_chrome_trace(events, out);
  const std::string json = out.str();
  EXPECT_TRUE(JsonChecker(json).document()) << json;
  EXPECT_NE(json.find("\"name\":\"bad\xEF\xBF\xBD\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"name\":\"open\xEF\xBF\xBD (unclosed)\""),
            std::string::npos)
      << json;
  EXPECT_EQ(json.find('\xff'), std::string::npos) << json;
}

}  // namespace
}  // namespace wasp::obs
