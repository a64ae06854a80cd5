#include "bench.hh"

#include <sched.h>
#include <sys/mman.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cinttypes>
#include <numeric>

namespace zbench
{

Tracer::Tracer() : origin(Clock::now())
{
    void *p = mmap(nullptr, capacity * sizeof(Span),
                   PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p == MAP_FAILED) {
        std::fprintf(stderr, "zbench: cannot map the span store\n");
        std::exit(1);
    }
    store = static_cast<Span *>(p);
}

Tracer::~Tracer() { munmap(store, capacity * sizeof(Span)); }

CpuRotor::CpuRotor() : last(Clock::now())
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
}

void
CpuRotor::tick()
{
    if (cpus.size() < 2)
        return;
    Clock::time_point now = Clock::now();
    if (now - last < std::chrono::milliseconds(100))
        return;
    last = now;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus[next], &set);
    next = (next + 1) % cpus.size();
    sched_setaffinity(0, sizeof(set), &set);
}

std::vector<double>
Tracer::durationsUs(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : all())
        if (name == s.name)
            out.push_back(double(s.endNs - s.startNs) / 1e3);
    return out;
}

std::vector<double>
Tracer::perItemUs(const std::string &name, size_t items) const
{
    std::vector<double> out(items, 0.0);
    for (const Span &s : all())
        if (s.item < items && name == s.name)
            out[s.item] += double(s.endNs - s.startNs) / 1e3;
    return out;
}

void
Tracer::writeJson(FILE *f) const
{
    std::fprintf(f, "{\"fields\": [\"name\", \"start_ns\", \"end_ns\", "
                    "\"parent\", \"item\"],\n \"spans\": [");
    for (size_t i = 0; i < n; ++i) {
        const Span &s = store[i];
        std::fprintf(f,
                     "%s\n  [\"%s\", %" PRIu64 ", %" PRIu64 ", %" PRId64
                     ", %" PRIu64 "]",
                     i ? "," : "", s.name, s.startNs, s.endNs, s.parent,
                     s.item);
    }
    std::fprintf(f, "\n]}\n");
}

double
Result::timedSeconds() const
{
    return std::accumulate(itemMs.begin(), itemMs.end(), 0.0) / 1e3;
}

uint64_t
deriveSeed(uint64_t seed, uint64_t stream)
{
    uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + long(mid), v.end());
    double hi = v[mid];
    if (v.size() % 2)
        return hi;
    double lo = *std::max_element(v.begin(), v.begin() + long(mid));
    return (lo + hi) / 2;
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t rank = size_t(std::ceil(p / 100.0 * double(v.size())));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0;
    return std::accumulate(v.begin(), v.end(), 0.0) / double(v.size());
}

Tail
tailOf(std::vector<double> v)
{
    Tail t;
    if (v.empty())
        return t;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    if (n <= 10) {
        t.value = v.back();
        return t;
    }
    t.value = v[n - 11];
    t.percentile = 100.0 * double(n - 10) / double(n);
    return t;
}

uint64_t
fnv1a(const void *data, size_t n, uint64_t h)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

uint64_t
fnv1a(const std::string &s, uint64_t h)
{
    return fnv1a(s.data(), s.size(), h);
}

std::string
hex64(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
}

} // namespace zbench
