#include "src/util/inline_function.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <utility>

namespace perfiso {
namespace {

using IntFn = InlineFunction<int(int), 32>;

TEST(InlineFunctionTest, EmptyByDefaultAndFromNullptr) {
  IntFn empty;
  EXPECT_FALSE(empty);
  IntFn null = nullptr;
  EXPECT_FALSE(null);
}

TEST(InlineFunctionTest, InvokesWithArgumentsAndReturnsResult) {
  const int offset = 7;
  IntFn add = [offset](int x) { return x + offset; };
  ASSERT_TRUE(add);
  EXPECT_EQ(add(5), 12);
}

TEST(InlineFunctionTest, MoveTransfersTheCallableAndEmptiesTheSource) {
  int calls = 0;
  IntFn source = [&calls](int x) {
    ++calls;
    return 2 * x;
  };
  IntFn moved = std::move(source);
  EXPECT_FALSE(source);  // a moved-from wrapper is empty
  ASSERT_TRUE(moved);
  EXPECT_EQ(moved(4), 8);

  IntFn assigned;
  assigned = std::move(moved);
  EXPECT_FALSE(moved);
  EXPECT_EQ(assigned(1), 2);
  EXPECT_EQ(calls, 2);
}

TEST(InlineFunctionTest, NonTrivialCapturesAreMovedAndDestroyedExactlyOnce) {
  auto token = std::make_shared<int>(3);
  {
    InlineFunction<int(), 32> fn = [token] { return *token; };
    EXPECT_EQ(token.use_count(), 2);
    InlineFunction<int(), 32> moved = std::move(fn);
    EXPECT_EQ(token.use_count(), 2);  // moved, not copied
    EXPECT_EQ(moved(), 3);
    moved = nullptr;  // Reset destroys the capture
    EXPECT_EQ(token.use_count(), 1);
    moved = [token] { return *token + 1; };
    EXPECT_EQ(moved(), 4);
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);  // the destructor released it
}

TEST(InlineFunctionTest, FitsReportsTheInlineBudget) {
  struct Small {
    void operator()() const {}
  };
  struct Large {
    std::array<uint64_t, 8> words;
    void operator()() const {}
  };
  static_assert(InlineFunction<void(), 16>::kFits<Small>);
  static_assert(!InlineFunction<void(), 16>::kFits<Large>);
  static_assert(InlineFunction<void(), 64>::kFits<Large>);
  InlineFunction<void(), 64> fn = Large{};
  EXPECT_TRUE(fn);
}

}  // namespace
}  // namespace perfiso
