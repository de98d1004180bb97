/** @file Unit tests for the dynamic bitset. */

#include <gtest/gtest.h>

#include <vector>

#include "sim/bitset.hh"
#include "sim/logging.hh"

using namespace mscp;

TEST(DynamicBitset, StartsClear)
{
    DynamicBitset b(100);
    EXPECT_EQ(b.size(), 100u);
    EXPECT_EQ(b.count(), 0u);
    EXPECT_TRUE(b.none());
    EXPECT_FALSE(b.any());
}

TEST(DynamicBitset, SetTestReset)
{
    DynamicBitset b(70);
    b.set(0);
    b.set(63);
    b.set(64);
    b.set(69);
    EXPECT_TRUE(b.test(0));
    EXPECT_TRUE(b.test(63));
    EXPECT_TRUE(b.test(64));
    EXPECT_TRUE(b.test(69));
    EXPECT_FALSE(b.test(1));
    EXPECT_EQ(b.count(), 4u);
    b.reset(63);
    EXPECT_FALSE(b.test(63));
    EXPECT_EQ(b.count(), 3u);
}

TEST(DynamicBitset, SetFalseClears)
{
    DynamicBitset b(8);
    b.set(3);
    b.set(3, false);
    EXPECT_FALSE(b.test(3));
}

TEST(DynamicBitset, OutOfRangePanics)
{
    DynamicBitset b(8);
    EXPECT_THROW(b.test(8), PanicError);
    EXPECT_THROW(b.set(100), PanicError);
}

TEST(DynamicBitset, AnyInRange)
{
    DynamicBitset b(128);
    b.set(70);
    EXPECT_TRUE(b.anyInRange(0, 128));
    EXPECT_TRUE(b.anyInRange(70, 71));
    EXPECT_FALSE(b.anyInRange(0, 70));
    EXPECT_FALSE(b.anyInRange(71, 128));
    EXPECT_FALSE(b.anyInRange(5, 5)); // empty range
}

TEST(DynamicBitset, FindFirstAndNext)
{
    DynamicBitset b(200);
    EXPECT_EQ(b.findFirst(), 200u);
    b.set(65);
    b.set(130);
    EXPECT_EQ(b.findFirst(), 65u);
    EXPECT_EQ(b.findNext(65), 130u);
    EXPECT_EQ(b.findNext(130), 200u);
}

TEST(DynamicBitset, SetBitsAscending)
{
    DynamicBitset b(300);
    for (std::size_t i : {7u, 64u, 65u, 255u, 299u})
        b.set(i);
    std::vector<std::size_t> bits;
    for (std::size_t i = b.findFirst(); i < b.size(); i = b.findNext(i))
        bits.push_back(i);
    ASSERT_EQ(bits.size(), 5u);
    EXPECT_EQ(bits[0], 7u);
    EXPECT_EQ(bits[4], 299u);
    for (std::size_t i = 1; i < bits.size(); ++i)
        EXPECT_LT(bits[i - 1], bits[i]);
}

TEST(DynamicBitset, ClearAndEquality)
{
    DynamicBitset a(64), b(64);
    a.set(10);
    EXPECT_FALSE(a == b);
    b.set(10);
    EXPECT_TRUE(a == b);
    a.clear();
    EXPECT_EQ(a.count(), 0u);
    EXPECT_FALSE(a == b);
}
