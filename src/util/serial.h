/**
 * @file
 * In-memory binary serialization primitives for the persistence layer
 * (engine snapshots, disk-store artifact payloads).
 *
 * Byte order is explicit little-endian so payload digests are
 * host-independent, and floating-point values round-trip bit-exactly
 * through their IEEE-754 bit patterns (the engine's determinism
 * contract is bit-level; "close" is a divergence). A Reader underrun
 * throws SimError rather than returning garbage: a short buffer means
 * a truncated or corrupted artifact, which callers must treat as
 * "absent", never as data.
 */

#ifndef VKSIM_UTIL_SERIAL_H
#define VKSIM_UTIL_SERIAL_H

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/simerror.h"

namespace vksim {
namespace serial {

class Writer
{
  public:
    void
    u8(std::uint8_t v)
    {
        buf_.push_back(v);
    }

    void
    u32(std::uint32_t v)
    {
        for (unsigned b = 0; b < 4; ++b)
            buf_.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
    }

    void
    u64(std::uint64_t v)
    {
        for (unsigned b = 0; b < 8; ++b)
            buf_.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
    }

    void
    i32(std::int32_t v)
    {
        u32(static_cast<std::uint32_t>(v));
    }

    void
    i64(std::int64_t v)
    {
        u64(static_cast<std::uint64_t>(v));
    }

    void
    b(bool v)
    {
        u8(v ? 1 : 0);
    }

    void
    f32(float v)
    {
        std::uint32_t bits;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(bits));
        u32(bits);
    }

    void
    f64(double v)
    {
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        buf_.insert(buf_.end(), s.begin(), s.end());
    }

    void
    bytes(const void *data, std::size_t size)
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        buf_.insert(buf_.end(), p, p + size);
    }

    const std::vector<std::uint8_t> &buffer() const { return buf_; }
    std::vector<std::uint8_t> take() { return std::move(buf_); }
    std::size_t size() const { return buf_.size(); }

  private:
    std::vector<std::uint8_t> buf_;
};

class Reader
{
  public:
    Reader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    explicit Reader(const std::vector<std::uint8_t> &buf)
        : data_(buf.data()), size_(buf.size())
    {
    }

    std::uint8_t
    u8()
    {
        need(1);
        return data_[pos_++];
    }

    std::uint32_t
    u32()
    {
        need(4);
        std::uint32_t v = 0;
        for (unsigned b = 0; b < 4; ++b)
            v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * b);
        return v;
    }

    std::uint64_t
    u64()
    {
        need(8);
        std::uint64_t v = 0;
        for (unsigned b = 0; b < 8; ++b)
            v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * b);
        return v;
    }

    std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    bool b() { return u8() != 0; }

    float
    f32()
    {
        std::uint32_t bits = u32();
        float v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    double
    f64()
    {
        std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    std::string
    str()
    {
        std::uint64_t n = u64();
        need(n);
        std::string s(reinterpret_cast<const char *>(data_ + pos_),
                      static_cast<std::size_t>(n));
        pos_ += static_cast<std::size_t>(n);
        return s;
    }

    void
    bytes(void *out, std::size_t size)
    {
        need(size);
        std::memcpy(out, data_ + pos_, size);
        pos_ += size;
    }

    /** An element count, bounded by the bytes left: each element takes
     *  at least `bytes_each` more, so a crafted count throws SimError. */
    std::uint64_t
    count(std::uint64_t bytes_each, const char *what)
    {
        const std::uint64_t n = u64();
        if (n > remaining() / bytes_each)
            throw SimError("serialized payload: " + std::to_string(n) + " "
                           + what + " in " + std::to_string(remaining())
                           + " bytes");
        return n;
    }

    std::size_t remaining() const { return size_ - pos_; }
    bool done() const { return pos_ == size_; }

  private:
    void
    need(std::uint64_t n)
    {
        if (n > size_ - pos_)
            throw SimError(
                "serialized payload truncated: needed "
                + std::to_string(n) + " more bytes at offset "
                + std::to_string(pos_) + " of " + std::to_string(size_));
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

} // namespace serial
} // namespace vksim

#endif // VKSIM_UTIL_SERIAL_H
