// Chrome trace_event JSON export: pt_trace_dump and the FSUP_TRACE_FILE at-exit hook.
//
// The exported file is parsed back with a small self-contained JSON well-formedness parser
// (no third-party dependency) plus field-level checks: every event carries ph/pid, timed
// events carry non-decreasing ts, switch-derived slices balance, counter points name a
// registry track, and metadata names the process and threads.

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/pthread.hpp"
#include "src/debug/trace.hpp"
#include "src/util/counters.hpp"

namespace fsup {
namespace {

// ---------------------------------------------------------------------------------------
// Minimal JSON well-formedness parser (values, objects, arrays, strings with escapes,
// numbers, literals). Accepts exactly the RFC 8259 grammar; no extensions.
// ---------------------------------------------------------------------------------------

class JsonParser {
 public:
  explicit JsonParser(const std::string& s) : s_(s) {}

  bool Valid() {
    pos_ = 0;
    SkipWs();
    if (!ParseValue()) {
      return false;
    }
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
                                s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool ParseValue() {
    if (pos_ >= s_.size()) {
      return false;
    }
    switch (s_[pos_]) {
      case '{':
        return ParseObject();
      case '[':
        return ParseArray();
      case '"':
        return ParseString();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return ParseNumber();
    }
  }
  bool Literal(const char* lit) {
    const size_t n = std::strlen(lit);
    if (s_.compare(pos_, n, lit) != 0) {
      return false;
    }
    pos_ += n;
    return true;
  }
  bool ParseObject() {
    ++pos_;  // '{'
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      if (!ParseString()) {
        return false;
      }
      SkipWs();
      if (pos_ >= s_.size() || s_[pos_] != ':') {
        return false;
      }
      ++pos_;
      SkipWs();
      if (!ParseValue()) {
        return false;
      }
      SkipWs();
      if (pos_ >= s_.size()) {
        return false;
      }
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool ParseArray() {
    ++pos_;  // '['
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      if (!ParseValue()) {
        return false;
      }
      SkipWs();
      if (pos_ >= s_.size()) {
        return false;
      }
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool ParseString() {
    if (pos_ >= s_.size() || s_[pos_] != '"') {
      return false;
    }
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) {
          return false;
        }
        const char e = s_[pos_];
        if (e == 'u') {
          if (pos_ + 4 >= s_.size()) {
            return false;
          }
          for (int i = 1; i <= 4; ++i) {
            if (!std::isxdigit(static_cast<unsigned char>(s_[pos_ + i]))) {
              return false;
            }
          }
          pos_ += 4;
        } else if (std::strchr("\"\\/bfnrt", e) == nullptr) {
          return false;
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;
      }
      ++pos_;
    }
    return false;
  }
  bool ParseNumber() {
    const size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') {
      ++pos_;
    }
    while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
    if (pos_ < s_.size() && s_[pos_] == '.') {
      ++pos_;
      while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) {
        ++pos_;
      }
      while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        ++pos_;
      }
    }
    return pos_ > start && std::isdigit(static_cast<unsigned char>(s_[pos_ - 1]));
  }

  const std::string& s_;
  size_t pos_ = 0;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Splits the traceEvents array into one string per event (the exporter emits one per line).
std::vector<std::string> EventLines(const std::string& json) {
  std::vector<std::string> out;
  std::stringstream ss(json);
  std::string line;
  while (std::getline(ss, line)) {
    if (!line.empty() && line[0] == '{' && line.find("\"ph\"") != std::string::npos) {
      out.push_back(line);
    }
  }
  return out;
}

bool FieldNumber(const std::string& ev, const char* key, double* out) {
  const std::string pat = std::string("\"") + key + "\":";
  const size_t p = ev.find(pat);
  if (p == std::string::npos) {
    return false;
  }
  return std::sscanf(ev.c_str() + p + pat.size(), "%lf", out) == 1;
}

std::string FieldString(const std::string& ev, const char* key) {
  const std::string pat = std::string("\"") + key + "\":\"";
  const size_t p = ev.find(pat);
  if (p == std::string::npos) {
    return "";
  }
  const size_t start = p + pat.size();
  const size_t end = ev.find('"', start);
  return end == std::string::npos ? "" : ev.substr(start, end - start);
}

// A "C" track is named for a gauge, or for a counter's rate ("<counter>/s").
bool IsCounterTrackName(const std::string& name) {
  for (const char* g : counters::kGaugeNames) {
    if (name == g) {
      return true;
    }
  }
  for (const char* c : counters::kNames) {
    if (name == std::string(c) + "/s") {
      return true;
    }
  }
  return false;
}

std::string TempPath(const char* tag) {
  return std::string("/tmp/fsup_trace_") + tag + "_" + std::to_string(::getpid()) + ".json";
}

// Workload that exercises switches, mutex contention, cond waits and a user event so the
// exported timeline has every record shape.
void RunTracedWorkload() {
  static pt_mutex_t m;
  static pt_cond_t c;
  static bool posted;
  pt_mutex_init(&m);
  pt_cond_init(&c);
  posted = false;
  auto waiter = +[](void*) -> void* {
    pt_mutex_lock(&m);
    while (!posted) {
      pt_cond_wait(&c, &m);
    }
    pt_mutex_unlock(&m);
    return nullptr;
  };
  ThreadAttr attr;
  attr.name = "traced";
  pt_thread_t t;
  pt_create(&t, &attr, waiter, nullptr);
  pt_yield();  // waiter blocks on the cond
  pt_trace_user(42, 43);
  pt_mutex_lock(&m);
  posted = true;
  pt_cond_signal(&c);
  pt_mutex_unlock(&m);
  pt_join(t, nullptr);
  pt_mutex_destroy(&m);
  pt_cond_destroy(&c);
}

class TraceExportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pt_reinit();
    debug::trace::Clear();
    debug::trace::Enable(false);
  }
  void TearDown() override { debug::trace::Enable(false); }
};

TEST_F(TraceExportTest, MutexAndCondTagsNeverCollide) {
  // Tags come from one process-wide counter (sync/tag.hpp): a mutex and a condition variable
  // must never share one, or their timelines merge in the exported trace. Interleave the two
  // kinds to exercise the counter from both init paths.
  std::vector<uint32_t> tags;
  pt_mutex_t ms[4];
  pt_cond_t cs[4];
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(0, pt_mutex_init(&ms[i]));
    tags.push_back(ms[i].tag);
    ASSERT_EQ(0, pt_cond_init(&cs[i]));
    tags.push_back(cs[i].tag);
  }
  for (size_t i = 0; i < tags.size(); ++i) {
    EXPECT_NE(0u, tags[i]);  // 0 means "untagged"
    for (size_t j = i + 1; j < tags.size(); ++j) {
      EXPECT_NE(tags[i], tags[j]) << "tag collision between objects " << i << " and " << j;
    }
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(0, pt_mutex_destroy(&ms[i]));
    EXPECT_EQ(0, pt_cond_destroy(&cs[i]));
  }
}

TEST_F(TraceExportTest, DumpRejectsBadPaths) {
  EXPECT_EQ(EINVAL, pt_trace_dump(nullptr));
  EXPECT_EQ(EINVAL, pt_trace_dump(""));
  EXPECT_NE(0, pt_trace_dump("/nonexistent-dir/zzz/t.json"));
}

TEST_F(TraceExportTest, EmptyRingStillProducesValidJson) {
  const std::string path = TempPath("empty");
  ASSERT_EQ(0, pt_trace_dump(path.c_str()));
  const std::string json = ReadFile(path);
  EXPECT_TRUE(JsonParser(json).Valid()) << json;
  EXPECT_NE(std::string::npos, json.find("\"traceEvents\""));
  ::unlink(path.c_str());
}

TEST_F(TraceExportTest, ExportedWorkloadParsesBackWithSaneFields) {
  debug::trace::Enable(true);
  RunTracedWorkload();
  debug::trace::Enable(false);

  const std::string path = TempPath("workload");
  ASSERT_EQ(0, pt_trace_dump(path.c_str()));
  const std::string json = ReadFile(path);
  ::unlink(path.c_str());

  ASSERT_FALSE(json.empty());
  ASSERT_TRUE(JsonParser(json).Valid()) << json.substr(0, 2000);

  const std::vector<std::string> events = EventLines(json);
  ASSERT_GT(events.size(), 4u);

  const double want_pid = static_cast<double>(::getpid());
  double last_ts = -1.0;
  int begins = 0, ends = 0, instants = 0, metas = 0, counter_points = 0;
  bool saw_process_name = false, saw_thread_meta = false, saw_user = false,
       saw_cond_wait = false;
  for (const std::string& ev : events) {
    const std::string ph = FieldString(ev, "ph");
    ASSERT_FALSE(ph.empty()) << ev;
    double pid = -1.0;
    ASSERT_TRUE(FieldNumber(ev, "pid", &pid)) << ev;
    EXPECT_EQ(want_pid, pid) << ev;
    if (ph == "M") {
      ++metas;
      if (FieldString(ev, "name") == "process_name") {
        saw_process_name = true;
      }
      if (FieldString(ev, "name") == "thread_name") {
        saw_thread_meta = true;
        EXPECT_TRUE(ev.find("\"tid\":") != std::string::npos) << ev;
      }
      continue;
    }
    // Timed events: ts present, microseconds, non-decreasing across the file.
    double ts = -1.0;
    ASSERT_TRUE(FieldNumber(ev, "ts", &ts)) << ev;
    EXPECT_GE(ts, last_ts) << "timestamps must be monotonic: " << ev;
    last_ts = ts;
    if (ph == "C") {
      // A counter point (a profiling session is live): a process-wide track, no tid.
      ++counter_points;
      EXPECT_TRUE(IsCounterTrackName(FieldString(ev, "name"))) << ev;
      double value = -1.0;
      EXPECT_TRUE(FieldNumber(ev, "value", &value)) << ev;
      continue;
    }
    EXPECT_TRUE(ev.find("\"tid\":") != std::string::npos) << ev;
    if (ph == "B") {
      ++begins;
      EXPECT_EQ("running", FieldString(ev, "name")) << ev;
    } else if (ph == "E") {
      ++ends;
    } else if (ph == "i") {
      ++instants;
      const std::string name = FieldString(ev, "name");
      EXPECT_FALSE(name.empty()) << ev;
      if (name == "user") {
        saw_user = true;
        double a = -1;
        EXPECT_TRUE(FieldNumber(ev, "a", &a)) << ev;
        EXPECT_EQ(42.0, a);
      }
      if (name == "cond-wait") {
        saw_cond_wait = true;
      }
    } else {
      FAIL() << "unexpected ph: " << ev;
    }
  }
  EXPECT_TRUE(saw_process_name);
  EXPECT_TRUE(saw_thread_meta);
  EXPECT_GT(metas, 1);                // process + at least one thread
  EXPECT_GT(begins, 1);               // the workload context-switched
  EXPECT_EQ(begins, ends);            // every slice closed
  EXPECT_GT(instants, 0);
  EXPECT_TRUE(saw_user);
  EXPECT_TRUE(saw_cond_wait);
  // Thread names from the live TCBs made it into the metadata.
  EXPECT_NE(std::string::npos, json.find("\"name\":\"main\""));
  if (pt_profile_active()) {
    EXPECT_GT(counter_points, 0);  // a session's points become counter tracks
  }
}

using TraceExportDeathTest = TraceExportTest;

TEST_F(TraceExportDeathTest, EnvVarDumpsAtExit) {
  // The acceptance path: a process started with FSUP_TRACE_FILE set writes a valid Chrome
  // trace at exit without any API call. The death-test child plays the example program:
  // it re-inits (re-reading the env), runs a workload, and exits normally.
  // Fast style = plain fork: the child inherits the initialized runtime and re-inits with
  // the env var set, exactly like a fresh process would. The file sits under two 200-byte
  // directory names, so the whole path, well over 512 bytes, must survive to the exit.
  ::testing::FLAGS_gtest_death_test_style = "fast";
  const std::string d1 = "/tmp/fsup_trace_" + std::to_string(::getpid()) + std::string(200, 'd');
  const std::string d2 = d1 + "/" + std::string(200, 'e');
  ASSERT_TRUE(::mkdir(d1.c_str(), 0755) == 0 || errno == EEXIST);
  ASSERT_TRUE(::mkdir(d2.c_str(), 0755) == 0 || errno == EEXIST);
  const std::string path = d2 + "/" + std::string(120, 'f') + ".json";
  ::unlink(path.c_str());
  ::setenv("FSUP_TRACE_FILE", path.c_str(), 1);
  EXPECT_EXIT(
      {
        pt_reinit();  // EnsureInit reads FSUP_TRACE_FILE: enables trace + arms atexit
        RunTracedWorkload();
        std::exit(0);
      },
      ::testing::ExitedWithCode(0), "");
  ::unsetenv("FSUP_TRACE_FILE");

  const std::string json = ReadFile(path);
  ::unlink(path.c_str());
  ::rmdir(d2.c_str());
  ::rmdir(d1.c_str());
  ASSERT_FALSE(json.empty()) << "atexit handler did not write " << path;
  EXPECT_TRUE(JsonParser(json).Valid()) << json.substr(0, 2000);
  const std::vector<std::string> events = EventLines(json);
  EXPECT_GT(events.size(), 4u);
  EXPECT_NE(std::string::npos, json.find("\"ph\":\"B\""));
  EXPECT_NE(std::string::npos, json.find("\"name\":\"user\""));
}

}  // namespace
}  // namespace fsup
