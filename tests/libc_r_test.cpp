// Reentrant libc shims (paper future work: "make C libraries reentrant for threads").

#include <gtest/gtest.h>

#include <cerrno>
#include <cstring>
#include <string>
#include <vector>

#include "src/core/pthread.hpp"
#include "src/libc/reentrant.hpp"

namespace fsup {
namespace {

class LibcRTest : public ::testing::Test {
 protected:
  void SetUp() override { pt_reinit(); }
};

TEST_F(LibcRTest, StrtokTokenizes) {
  char buf[] = "alpha,beta;;gamma";
  EXPECT_STREQ("alpha", pt_strtok(buf, ",;"));
  EXPECT_STREQ("beta", pt_strtok(nullptr, ",;"));
  EXPECT_STREQ("gamma", pt_strtok(nullptr, ",;"));
  EXPECT_EQ(nullptr, pt_strtok(nullptr, ",;"));
}

TEST_F(LibcRTest, StrtokEdgeCases) {
  char empty[] = "";
  EXPECT_EQ(nullptr, pt_strtok(empty, ","));
  char only_delims[] = ",,,";
  EXPECT_EQ(nullptr, pt_strtok(only_delims, ","));
  char no_delims[] = "single";
  EXPECT_STREQ("single", pt_strtok(no_delims, ","));
  EXPECT_EQ(nullptr, pt_strtok(nullptr, ","));
}

TEST_F(LibcRTest, StrtokStateIsPerThread) {
  // Two threads interleave tokenizations of different strings; libc's strtok would cross the
  // streams, ours must not.
  struct Arg {
    const char* input;
    std::vector<std::string> tokens;
  };
  static pt_sem_t turn_a, turn_b;
  ASSERT_EQ(0, pt_sem_init(&turn_a, 1));
  ASSERT_EQ(0, pt_sem_init(&turn_b, 0));
  static Arg a{"1 2 3 4", {}}, b{"x y z w", {}};
  a.tokens.clear();
  b.tokens.clear();

  auto body_a = +[](void*) -> void* {
    char buf[32];
    std::strcpy(buf, a.input);
    char* tok = nullptr;
    bool first = true;
    for (;;) {
      pt_sem_wait(&turn_a);
      tok = pt_strtok(first ? buf : nullptr, " ");
      first = false;
      pt_sem_post(&turn_b);
      if (tok == nullptr) {
        break;
      }
      a.tokens.push_back(tok);
    }
    return nullptr;
  };
  auto body_b = +[](void*) -> void* {
    char buf[32];
    std::strcpy(buf, b.input);
    char* tok = nullptr;
    bool first = true;
    for (;;) {
      pt_sem_wait(&turn_b);
      tok = pt_strtok(first ? buf : nullptr, " ");
      first = false;
      pt_sem_post(&turn_a);
      if (tok == nullptr) {
        break;
      }
      b.tokens.push_back(tok);
    }
    return nullptr;
  };
  pt_thread_t ta, tb;
  ASSERT_EQ(0, pt_create(&ta, nullptr, body_a, nullptr));
  ASSERT_EQ(0, pt_create(&tb, nullptr, body_b, nullptr));
  ASSERT_EQ(0, pt_join(ta, nullptr));
  ASSERT_EQ(0, pt_join(tb, nullptr));
  ASSERT_EQ(4u, a.tokens.size());
  ASSERT_EQ(4u, b.tokens.size());
  EXPECT_EQ("1", a.tokens[0]);
  EXPECT_EQ("4", a.tokens[3]);
  EXPECT_EQ("x", b.tokens[0]);
  EXPECT_EQ("w", b.tokens[3]);
  pt_sem_destroy(&turn_a);
  pt_sem_destroy(&turn_b);
}

TEST_F(LibcRTest, StrerrorPerThreadBuffers) {
  const char* mine = pt_strerror(ENOENT);
  ASSERT_NE(nullptr, mine);
  EXPECT_NE(nullptr, std::strstr(mine, "o such file"));  // "No such file or directory"

  static const char* theirs;
  static const void* theirs_ptr;
  auto body = +[](void*) -> void* {
    theirs = pt_strerror(EACCES);
    theirs_ptr = theirs;
    return nullptr;
  };
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, body, nullptr));
  ASSERT_EQ(0, pt_join(t, nullptr));
  // Our buffer was not clobbered by the other thread's call.
  EXPECT_NE(nullptr, std::strstr(mine, "o such file"));
  EXPECT_NE(static_cast<const void*>(mine), theirs_ptr);
}

TEST_F(LibcRTest, RandStreamsAreIndependent) {
  pt_srand(7);
  const int a1 = pt_rand();
  const int a2 = pt_rand();

  static int b1, b2;
  auto body = +[](void*) -> void* {
    pt_srand(7);
    b1 = pt_rand();
    b2 = pt_rand();
    // draw some extras; must not perturb the parent's stream
    for (int i = 0; i < 10; ++i) {
      pt_rand();
    }
    return nullptr;
  };
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, body, nullptr));
  ASSERT_EQ(0, pt_join(t, nullptr));
  EXPECT_EQ(a1, b1);  // same seed, same stream
  EXPECT_EQ(a2, b2);
  pt_srand(7);
  EXPECT_EQ(a1, pt_rand());  // parent stream unaffected by the child's draws
}

TEST_F(LibcRTest, RandInRange) {
  pt_srand(123);
  for (int i = 0; i < 1000; ++i) {
    const int v = pt_rand();
    EXPECT_GE(v, 0);
  }
}

TEST_F(LibcRTest, TimeFormattersPerThread) {
  const time_t stamp = 86400 * 365;  // some time in 1971, UTC
  struct tm* mine = pt_gmtime(&stamp);
  ASSERT_NE(nullptr, mine);
  const int my_year = mine->tm_year;

  static int their_year;
  auto body = +[](void*) -> void* {
    const time_t other = 86400LL * 365 * 30;  // ~1999
    struct tm* t = pt_gmtime(&other);
    their_year = t->tm_year;
    return nullptr;
  };
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, body, nullptr));
  ASSERT_EQ(0, pt_join(t, nullptr));
  EXPECT_EQ(my_year, mine->tm_year);  // our struct tm survived their call
  EXPECT_NE(my_year, their_year);

  const char* text = pt_ctime(&stamp);
  ASSERT_NE(nullptr, text);
  EXPECT_NE(nullptr, std::strstr(text, "1971"));
}

TEST_F(LibcRTest, StateBlocksFreedAtThreadExit) {
  const int before = libc_internal::LiveStateBlocks();
  auto body = +[](void*) -> void* {
    pt_rand();  // allocates the state block
    return nullptr;
  };
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, body, nullptr));
  ASSERT_EQ(0, pt_join(t, nullptr));
  EXPECT_EQ(before, libc_internal::LiveStateBlocks());  // TSD destructor reclaimed it
}

TEST_F(LibcRTest, ReinitFreesTheMainThreadsStateBlock) {
  char text[] = "a b";
  ASSERT_NE(nullptr, pt_strtok(text, " "));  // allocates main's state block
  EXPECT_EQ(1, libc_internal::LiveStateBlocks());
  pt_reinit();
  EXPECT_EQ(0, libc_internal::LiveStateBlocks());
}

}  // namespace
}  // namespace fsup
