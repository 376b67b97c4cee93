// Drives the pure-C translation unit (c_interface_impl.c) that consumes the
// language-independent interface with no C++ at all.

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

#include "src/core/pthread.hpp"
#include "src/debug/trace.hpp"

extern "C" long c_interface_smoke(void);
extern "C" long c_interface_sem_smoke(void);
extern "C" long c_interface_observability_smoke(int dump_fd, const char* trace_path);

namespace fsup {
namespace {

class CInterfaceTest : public ::testing::Test {
 protected:
  void SetUp() override { pt_reinit(); }
};

TEST_F(CInterfaceTest, ThreadsAndMutexesFromPureC) { EXPECT_EQ(0, c_interface_smoke()); }

TEST_F(CInterfaceTest, SemaphoresFromPureC) { EXPECT_EQ(0, c_interface_sem_smoke()); }

TEST_F(CInterfaceTest, ObservabilityFromPureC) {
  debug::trace::Clear();
  debug::trace::Enable(true);
  int fds[2];
  ASSERT_EQ(0, ::pipe(fds));
  const std::string path =
      "/tmp/fsup_cinterface_trace_" + std::to_string(::getpid()) + ".json";
  EXPECT_EQ(0, c_interface_observability_smoke(fds[1], path.c_str()));
  debug::trace::Enable(false);
  ::close(fds[1]);

  // The C side's user events landed in the ring with their payloads intact.
  bool saw_user = false;
  for (const debug::trace::Record& r : debug::trace::SnapshotAll()) {
    if (r.event == debug::trace::Event::kUser && r.a == 1001 && r.b == 2002) {
      saw_user = true;
    }
  }
  EXPECT_TRUE(saw_user);

  // The metrics dump produced output through the plain-C entry point.
  char buf[16384];
  const ssize_t n = ::read(fds[0], buf, sizeof(buf));
  ::close(fds[0]);
  ASSERT_GT(n, 0);
  EXPECT_NE(std::string::npos,
            std::string(buf, static_cast<size_t>(n)).find("fsup metrics"));

  // And the trace export wrote a file.
  EXPECT_EQ(0, ::access(path.c_str(), R_OK));
  ::unlink(path.c_str());
}

}  // namespace
}  // namespace fsup
