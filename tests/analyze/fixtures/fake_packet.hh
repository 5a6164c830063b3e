// Minimal stand-ins so the LIF fixtures read like real call sites.
// The tokenizer engine never compiles fixtures; they stay
// syntactically honest C++ all the same.

#ifndef TESTS_ANALYZE_FIXTURES_FAKE_PACKET_HH
#define TESTS_ANALYZE_FIXTURES_FAKE_PACKET_HH

#include <cstdint>

struct Packet
{
    std::uint64_t addr = 0;
    std::uint64_t pc = 0;
};

struct PacketPtr
{
    Packet *get() const { return _p; }
    Packet *release()
    {
        Packet *p = _p;
        _p = nullptr;
        return p;
    }
    Packet *operator->() const { return _p; }
    Packet *_p = nullptr;
};

struct PacketPool
{
    void release(Packet *p);
};

#endif // TESTS_ANALYZE_FIXTURES_FAKE_PACKET_HH
