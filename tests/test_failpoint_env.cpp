// ESW_FAILPOINTS arms failpoints in a process that never touches the
// registry itself.  ctest runs this binary with
// ESW_FAILPOINTS=mbuf.alloc=always (tests/CMakeLists.txt); nothing here may
// call FailpointRegistry::instance() before the checks.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "common/failpoint.hpp"
#include "netio/mbuf_pool.hpp"

namespace esw {
namespace {

TEST(FailpointEnv, ArmsWithoutARegistryCall) {
  const char* env = std::getenv("ESW_FAILPOINTS");
  ASSERT_NE(env, nullptr) << "run through ctest, which sets ESW_FAILPOINTS=mbuf.alloc=always";
  ASSERT_EQ(std::string(env), "mbuf.alloc=always");

  EXPECT_TRUE(common::FailpointRegistry::any_armed());
  net::MbufPool pool(4);
  EXPECT_EQ(pool.alloc(), nullptr);
}

}  // namespace
}  // namespace esw
