/** @file The fields() visitors (common/fields.hh): memo keys and
 *  wire/store bytes pinned to the values the hand-written codecs
 *  produced, and a generic sweep that mutates every visited field of
 *  every visited struct in turn — the memo key must move (for hashed
 *  structs), the JSON round trip must be the identity under the diff,
 *  and the diff must name exactly the mutated field. */

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/fields.hh"
#include "exp/experiment.hh"
#include "exp/simcache.hh"
#include "obs/json.hh"
#include "sim/chip.hh"
#include "svc/proto.hh"

namespace pfits
{
namespace
{

CoreConfig
paperCore(ConfigId id)
{
    return Runner(ExperimentParams{}).coreConfig(id);
}

template <typename T>
std::string
compactJson(const T &s)
{
    std::ostringstream os;
    JsonWriter w(os, 0);
    writeFieldsJson(w, s);
    return os.str();
}

// --- pinned memo keys and bytes -------------------------------------------

TEST(Fields, MemoKeysArePinned)
{
    // Captured from the hand-written hash functions the visitor
    // replaced. A changed value orphans every cached result.
    struct Pin
    {
        ConfigId id;
        bool fast;
        bool packed;
        uint64_t key;
    };
    const Pin pins[] = {
        {ConfigId::ARM16, false, false, 0xdcd6329caf52764dull},
        {ConfigId::ARM16, false, true, 0xbddb6b93a4632c2cull},
        {ConfigId::ARM16, true, false, 0xd0624942f995162full},
        {ConfigId::ARM16, true, true, 0x8164337ae67ffdeeull},
        {ConfigId::ARM8, false, false, 0xea5fef00b2b58f87ull},
        {ConfigId::ARM8, false, true, 0xcb6527f7a7c64566ull},
        {ConfigId::ARM8, true, false, 0x42ea6088b40ef225ull},
        {ConfigId::ARM8, true, true, 0xf3ec4ac0a0f9d9e4ull},
        {ConfigId::FITS16, false, false, 0x023c639f00792a70ull},
        {ConfigId::FITS16, false, true, 0x21372aa80b687491ull},
        {ConfigId::FITS16, true, false, 0xf9a0166b2a516cb2ull},
        {ConfigId::FITS16, true, true, 0x489e2c333d6684f3ull},
        {ConfigId::FITS8, false, false, 0x849308416b468564ull},
        {ConfigId::FITS8, false, true, 0xa38dcf4a7635cf85ull},
        {ConfigId::FITS8, true, false, 0xab63dc13bce0ae26ull},
        {ConfigId::FITS8, true, true, 0xfa61f1dbcff5c667ull},
    };
    for (const Pin &pin : pins) {
        CoreConfig core = paperCore(pin.id);
        core.backend = pin.fast ? SimBackend::Fast : SimBackend::Interp;
        core.packedFetch = pin.packed;
        EXPECT_EQ(hashConfigKey(core, ChipConfig{}), pin.key)
            << core.name << " fast=" << pin.fast
            << " packed=" << pin.packed;
    }

    ChipConfig chip;
    chip.tiles = 4;
    chip.sharedL2 = true;
    chip.l2.parity = true;
    chip.quantum = 5000;
    EXPECT_EQ(hashChipConfig(chip), 0x273775df9021a9f0ull);
    EXPECT_EQ(hashConfigKey(paperCore(ConfigId::ARM16), chip),
              0xf249b29323fc73b5ull);

    FaultParams faults;
    faults.seed = 0x1234abcdull;
    faults.icacheMeanInterval = 50000;
    faults.memoryMeanInterval = 70000;
    EXPECT_EQ(hashFaultParams(faults, 3), 0x437fd1b59338b20full);
}

TEST(Fields, OutOfRangeDoublesHashWithoutOverflow)
{
    // clock_hz arrives from the wire as any JSON number; x * 1e3 past
    // uint64_t used to be converted anyway (undefined behaviour, which
    // UBSan builds flag). Such values now hash by bit pattern.
    CoreConfig huge, negative;
    huge.clockHz = 1e300;
    negative.clockHz = -1.0;
    EXPECT_NE(hashCoreConfig(huge), hashCoreConfig(negative));
    EXPECT_NE(hashCoreConfig(huge), hashCoreConfig(CoreConfig{}));
    EXPECT_EQ(hashCoreConfig(huge), hashCoreConfig(huge));
}

TEST(Fields, ConfigJsonIsPinned)
{
    const std::string paper[] = {
        R"({"name":"ARM16","issue_width":2,"branch_penalty":2,)"
        R"("icache_miss_penalty":24,"dcache_miss_penalty":24,)"
        R"("icache":{"name":"icache","size_bytes":16384,"assoc":32,)"
        R"("line_bytes":32,"policy":"lru","write_back":true,)"
        R"("parity":false},"dcache":{"name":"dcache","size_bytes":8192,)"
        R"("assoc":32,"line_bytes":32,"policy":"lru","write_back":true,)"
        R"("parity":false},"max_instructions":400000000,)"
        R"("clock_hz":200000000,"packed_fetch":false})",
        R"({"name":"ARM8","issue_width":2,"branch_penalty":2,)"
        R"("icache_miss_penalty":24,"dcache_miss_penalty":24,)"
        R"("icache":{"name":"icache","size_bytes":8192,"assoc":32,)"
        R"("line_bytes":32,"policy":"lru","write_back":true,)"
        R"("parity":false},"dcache":{"name":"dcache","size_bytes":8192,)"
        R"("assoc":32,"line_bytes":32,"policy":"lru","write_back":true,)"
        R"("parity":false},"max_instructions":400000000,)"
        R"("clock_hz":200000000,"packed_fetch":false})",
        R"({"name":"FITS16","issue_width":2,"branch_penalty":2,)"
        R"("icache_miss_penalty":24,"dcache_miss_penalty":24,)"
        R"("icache":{"name":"icache","size_bytes":16384,"assoc":32,)"
        R"("line_bytes":32,"policy":"lru","write_back":true,)"
        R"("parity":false},"dcache":{"name":"dcache","size_bytes":8192,)"
        R"("assoc":32,"line_bytes":32,"policy":"lru","write_back":true,)"
        R"("parity":false},"max_instructions":400000000,)"
        R"("clock_hz":200000000,"packed_fetch":false})",
        R"({"name":"FITS8","issue_width":2,"branch_penalty":2,)"
        R"("icache_miss_penalty":24,"dcache_miss_penalty":24,)"
        R"("icache":{"name":"icache","size_bytes":8192,"assoc":32,)"
        R"("line_bytes":32,"policy":"lru","write_back":true,)"
        R"("parity":false},"dcache":{"name":"dcache","size_bytes":8192,)"
        R"("assoc":32,"line_bytes":32,"policy":"lru","write_back":true,)"
        R"("parity":false},"max_instructions":400000000,)"
        R"("clock_hz":200000000,"packed_fetch":false})",
    };
    const ConfigId ids[] = {ConfigId::ARM16, ConfigId::ARM8,
                            ConfigId::FITS16, ConfigId::FITS8};
    for (size_t i = 0; i < 4; ++i) {
        std::ostringstream os;
        JsonWriter w(os, 0);
        writeCoreConfigJson(w, paperCore(ids[i]));
        EXPECT_EQ(os.str(), paper[i]);
    }

    // Non-default backend (written only then) and an enum off its
    // default.
    CoreConfig core = paperCore(ConfigId::FITS8);
    core.backend = SimBackend::Fast;
    core.packedFetch = true;
    core.icache.policy = ReplPolicy::ROUND_ROBIN;
    std::ostringstream os;
    JsonWriter w(os, 0);
    writeCoreConfigJson(w, core);
    EXPECT_EQ(os.str(),
        R"({"name":"FITS8","issue_width":2,"branch_penalty":2,)"
        R"("icache_miss_penalty":24,"dcache_miss_penalty":24,)"
        R"("icache":{"name":"icache","size_bytes":8192,"assoc":32,)"
        R"("line_bytes":32,"policy":"round-robin","write_back":true,)"
        R"("parity":false},"dcache":{"name":"dcache","size_bytes":8192,)"
        R"("assoc":32,"line_bytes":32,"policy":"lru","write_back":true,)"
        R"("parity":false},"max_instructions":400000000,)"
        R"("clock_hz":200000000,"packed_fetch":true,"backend":"fast"})");

    FaultParams faults;
    faults.seed = 0x1234abcdull;
    faults.icacheMeanInterval = 50000;
    faults.memoryMeanInterval = 70000;
    std::ostringstream fs;
    JsonWriter fw(fs, 0);
    writeFaultParamsJson(fw, faults);
    EXPECT_EQ(fs.str(), R"({"seed":"0x000000001234abcd",)"
                        R"("icache_mean_interval":50000,)"
                        R"("memory_mean_interval":70000})");
}

// --- every field, generically ---------------------------------------------

/**
 * Changes the target-th leaf field fields() visits (depth first) and
 * records its diff path; visits nothing once past it. A sequence
 * grows by one element, an array changes its first.
 */
struct Mutator
{
    explicit Mutator(size_t t) : target(t) {}

    size_t target;
    size_t index = 0;
    std::string prefix;
    std::string path; //!< set once the target field was changed

    template <typename T>
    void
    operator()(const char *name, T &x, unsigned = kFieldPlain)
    {
        if constexpr (HasFields<T>) {
            const std::string outer = prefix;
            prefix += std::string(name) + ".";
            x.fields(*this);
            prefix = outer;
        } else if (index++ == target) {
            path = prefix + name;
            if constexpr (std::is_array_v<T>) {
                x[0] += 1;
                path += "[0]";
            } else if constexpr (kIsFieldSequence<T>) {
                x.emplace_back();
            } else if constexpr (std::is_same_v<T, bool>) {
                x = !x;
            } else if constexpr (std::is_same_v<T, std::string>) {
                x += "x";
            } else if constexpr (std::is_same_v<T, double>) {
                x += 1.5;
            } else if constexpr (std::is_enum_v<T>) {
                const unsigned n =
                    static_cast<unsigned>(FieldEnum<T>::kLast) + 1;
                x = static_cast<T>((static_cast<unsigned>(x) + 1) % n);
            } else {
                x += 1;
            }
        }
    }
};

/**
 * Mutate every field of @p base in turn. @p key, when given, is the
 * memo-key function that must move with every field.
 */
template <typename T>
void
checkEveryField(const T &base,
                std::function<uint64_t(const T &)> key = nullptr)
{
    T back;
    ASSERT_TRUE(parseFieldsJson(JsonValue::parse(compactJson(base)),
                                &back));
    EXPECT_EQ(diffFields(base, back), std::vector<std::string>());

    size_t fields = 0;
    for (;; ++fields) {
        T mutated = base;
        Mutator m(fields);
        mutated.fields(m);
        if (m.path.empty())
            break;
        SCOPED_TRACE(m.path);

        const std::vector<std::string> diff = diffFields(base, mutated);
        ASSERT_EQ(diff.size(), 1u);
        EXPECT_EQ(diff[0].rfind(m.path + ": ", 0), 0u) << diff[0];

        T parsed;
        ASSERT_TRUE(parseFieldsJson(
            JsonValue::parse(compactJson(mutated)), &parsed));
        EXPECT_EQ(diffFields(mutated, parsed),
                  std::vector<std::string>());

        if (key) {
            EXPECT_NE(key(mutated), key(base));
        }
    }
    EXPECT_GT(fields, 1u);
}

TEST(Fields, EveryCacheConfigFieldIsHashedAndRoundTrips)
{
    checkEveryField<CacheConfig>(
        paperCore(ConfigId::ARM16).icache, [](const CacheConfig &c) {
            CoreConfig core;
            core.icache = c;
            return hashCoreConfig(core);
        });
}

TEST(Fields, EveryCoreConfigFieldIsHashedAndRoundTrips)
{
    checkEveryField<CoreConfig>(paperCore(ConfigId::FITS8),
                                hashCoreConfig);
}

TEST(Fields, EveryChipConfigFieldIsHashedAndRoundTrips)
{
    ChipConfig chip; // non-default, or the hash is pinned to 0
    chip.tiles = 4;
    chip.sharedL2 = true;
    checkEveryField<ChipConfig>(chip, hashChipConfig);
}

TEST(Fields, EveryFaultParamsFieldIsHashedAndRoundTrips)
{
    FaultParams faults; // enabled, or the hash is pinned to 0
    faults.icacheMeanInterval = 50000;
    faults.memoryMeanInterval = 70000;
    checkEveryField<FaultParams>(faults, [](const FaultParams &f) {
        return hashFaultParams(f, 3);
    });
}

TEST(Fields, EveryResultFieldRoundTripsAndDiffs)
{
    checkEveryField(SimCacheKey{1, 2, 3, 4});
    checkEveryField(CacheStats{});
    checkEveryField(Flags{});
    checkEveryField(CpuState{});
    checkEveryField(IoSinks{});
    checkEveryField(IntervalSample{});
    checkEveryField(RunResult{});

    SimResult result;
    result.intervals.resize(2);
    result.run.io.emitted = {1, 2, 3};
    checkEveryField(result);
}

TEST(Fields, DefaultOmittedFieldsAndOptionalFieldsMayBeAbsent)
{
    // backend: absent means interp, which is also never written.
    CoreConfig fast;
    fast.backend = SimBackend::Fast;
    std::string text = compactJson(CoreConfig{});
    EXPECT_EQ(text.find("backend"), std::string::npos);
    ASSERT_TRUE(parseFieldsJson(JsonValue::parse(text), &fast));
    EXPECT_EQ(fast.backend, SimBackend::Interp);

    // way_memo_hits: stores written before the counter existed.
    CacheStats stats;
    stats.wayMemoHits = 9;
    text = compactJson(CacheStats{});
    const std::string memo = ",\"way_memo_hits\":0";
    ASSERT_NE(text.find(memo), std::string::npos);
    text.erase(text.find(memo), memo.size());
    ASSERT_TRUE(parseFieldsJson(JsonValue::parse(text), &stats));
    EXPECT_EQ(stats.wayMemoHits, 0u);

    // Every other field is required.
    text = compactJson(CacheStats{});
    const std::string reads = "\"reads\":0,";
    text.erase(text.find(reads), reads.size());
    EXPECT_FALSE(parseFieldsJson(JsonValue::parse(text), &stats));
}

TEST(Fields, BadEnumNamesAndShapesAreRejected)
{
    std::string text = compactJson(CacheConfig{});
    text.replace(text.find("\"lru\""), 5, "\"mru\"");
    CacheConfig cfg;
    EXPECT_FALSE(parseFieldsJson(JsonValue::parse(text), &cfg));

    // Fixed arrays must match their length exactly.
    std::string regs = compactJson(CpuState{});
    regs.replace(regs.find("[0,"), 3, "[");
    CpuState state;
    EXPECT_FALSE(parseFieldsJson(JsonValue::parse(regs), &state));
    EXPECT_FALSE(parseFieldsJson(JsonValue::parse("[]"), &state));
}

} // namespace
} // namespace pfits
