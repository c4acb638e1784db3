#include "hostprobe.h"

#include <cstdint>
#include <random>
#include <vector>

#include "spans.h"

namespace perfbench {
namespace {

volatile std::uint64_t probeSink;

/** Inputs are drawn once from a fixed generator (same on every library). */
struct ProbeInputs
{
    std::vector<std::uint8_t> table;
    std::vector<std::uint32_t> program;

    ProbeInputs() : table(1 << 16), program(4096)
    {
        std::mt19937 rng(0x5eed);
        for (auto &b : table)
            b = static_cast<std::uint8_t>(rng());
        for (auto &ins : program)
            ins = static_cast<std::uint32_t>(rng());
    }
};

const ProbeInputs &
inputs()
{
    static const ProbeInputs in;
    return in;
}

std::uint64_t
branches(const std::vector<std::uint8_t> &table)
{
    std::uint64_t acc = 0;
    for (int rep = 0; rep < 30; ++rep)
        for (std::size_t i = 0; i < table.size(); ++i) {
            const std::uint8_t v = table[i];
            if (v & 1)
                acc += v;
            else
                acc ^= static_cast<std::uint64_t>(v) << 3;
            if (v & 2)
                acc *= 3;
            if ((v >> 4) > 7)
                acc -= i;
            else
                acc += 7;
        }
    return acc;
}

std::uint64_t
interpret(const std::vector<std::uint32_t> &program)
{
    std::uint64_t r[16];
    for (unsigned i = 0; i < 16; ++i)
        r[i] = i + 1;
    for (int rep = 0; rep < 250; ++rep)
        for (std::uint32_t ins : program) {
            const unsigned d = (ins >> 4) & 15, a = (ins >> 8) & 15,
                           b = (ins >> 12) & 15;
            const std::uint64_t imm = ins >> 16;
            switch (ins & 15) {
              case 0: r[d] = r[a] + r[b]; break;
              case 1: r[d] = r[a] - r[b]; break;
              case 2: r[d] = r[a] * r[b]; break;
              case 3: r[d] = r[a] ^ r[b]; break;
              case 4: r[d] = r[a] | imm; break;
              case 5: r[d] = r[a] & r[b]; break;
              case 6: r[d] = r[a] << (r[b] & 31); break;
              case 7: r[d] = r[a] >> (r[b] & 31); break;
              case 8: r[d] = r[a] < r[b]; break;
              case 9: r[d] = r[a] == r[b] ? r[d] : r[a]; break;
              case 10: r[d] = imm * 3 + r[a]; break;
              case 11: r[d] = r[a] > r[b] ? r[a] : r[b]; break;
              case 12: r[d] = ~r[a]; break;
              case 13: r[d] = r[a] + 1; break;
              case 14: r[d] = r[b] - 1; break;
              default: r[d] = r[a] * 7 + r[b]; break;
            }
        }
    std::uint64_t x = 0;
    for (std::uint64_t v : r)
        x ^= v;
    return x;
}

std::uint64_t
chains()
{
    std::uint64_t a = 1, b = 2, c = 3, d = 4, e = 5, f = 6, g = 7, h = 8;
    auto step = [](std::uint64_t &x) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    };
    for (int i = 0; i < 1500000; ++i) {
        step(a), step(b), step(c), step(d);
        step(e), step(f), step(g), step(h);
    }
    return a ^ b ^ c ^ d ^ e ^ f ^ g ^ h;
}

} // namespace

double
hostProbeSeconds()
{
    const ProbeInputs &in = inputs();
    const Clock::time_point start = Clock::now();
    probeSink = branches(in.table) + interpret(in.program) + chains();
    return secondsSince(start);
}

} // namespace perfbench
