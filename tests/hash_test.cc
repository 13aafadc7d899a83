#include "util/hash.h"

#include <gtest/gtest.h>

namespace pullmon {
namespace {

TEST(Fnv1a64Test, StandardVectors) {
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(Fnv1a64Test, ChainingEqualsConcatenation) {
  EXPECT_EQ(Fnv1a64("bar", Fnv1a64("foo")), Fnv1a64("foobar"));
  EXPECT_EQ(Fnv1a64("", Fnv1a64("foo")), Fnv1a64("foo"));
}

TEST(Fnv1a64Test, HighBytesHashAsUnsigned) {
  // Bytes >= 0x80 mix as unsigned values, as every hand-written copy
  // did; the run fingerprint hashes raw double bytes.
  uint64_t expected = kFnv1a64Basis;
  expected ^= 0xffU;
  expected *= 0x100000001b3ULL;
  EXPECT_EQ(Fnv1a64("\xff"), expected);
}

TEST(Fnv1a32Test, StandardVectors) {
  // The snapshot and WAL record checksum: pinned record bytes depend on
  // these exact values.
  EXPECT_EQ(Fnv1a32(""), 0x811c9dc5U);
  EXPECT_EQ(Fnv1a32("a"), 0xe40c292cU);
  EXPECT_EQ(Fnv1a32("foobar"), 0xbf9cf968U);
}

}  // namespace
}  // namespace pullmon
