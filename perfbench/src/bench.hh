/**
 * @file
 * Shared pieces of the repository benchmark (perfbench/README.md):
 * the in-memory span tracer, per-workload result records, and the
 * small statistics and hashing helpers every workload uses.
 *
 * Spans are recorded only from the benchmark's own files, around
 * calls into each layer's public functions; nothing under src/ is
 * instrumented. A null Tracer pointer means "untraced": Scope then
 * costs one branch and no clock read.
 */

#ifndef ZBENCH_BENCH_HH
#define ZBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

namespace zbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Per-item records are reserved up front so that growing them never
 *  frees a large block in mid-run (see settleAllocator in main.cc). */
constexpr size_t kReserveItems = size_t(1) << 18;

/** One closed interval of host time at a layer boundary. */
struct Span
{
    const char *name;  ///< Static layer.operation name.
    uint64_t startNs;  ///< Since the tracer's origin.
    uint64_t endNs;
    int64_t parent;    ///< Index of the enclosing span, or -1.
    uint64_t item;     ///< Workload item the span belongs to.
};

/**
 * In-memory span store, written out when the run ends. The store is
 * one fixed anonymous mapping, not heap memory: a growing vector
 * would free ever larger blocks back to malloc, and glibc raises its
 * trim threshold on such frees — which alone made the oracle several
 * times faster. Spans past the capacity are counted, not kept.
 */
class Tracer
{
  public:
    Tracer();
    ~Tracer();
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    int64_t
    begin(const char *name, uint64_t item, int64_t parent)
    {
        if (n == capacity) {
            ++dropped;
            return -1;
        }
        store[n] = { name, nowNs(), 0, parent, item };
        return int64_t(n++);
    }

    void
    end(int64_t id)
    {
        if (id >= 0)
            store[size_t(id)].endNs = nowNs();
    }

    std::span<const Span> all() const { return { store, n }; }
    /** Room left before spans start being dropped. */
    size_t room() const { return capacity - n; }
    uint64_t droppedSpans() const { return dropped; }

    /** Durations in microseconds of every span named `name`. */
    std::vector<double> durationsUs(const std::string &name) const;

    /** Per-item sums in microseconds of the spans named `name`,
     *  indexed by item id (items without such a span read 0). */
    std::vector<double> perItemUs(const std::string &name,
                                  size_t items) const;

    /** Write all spans as JSON: one [name, start, end, parent,
     *  item] array per span. */
    void writeJson(FILE *f) const;

  private:
    uint64_t
    nowNs() const
    {
        return uint64_t(std::chrono::duration_cast<
                            std::chrono::nanoseconds>(Clock::now() -
                                                      origin)
                            .count());
    }

    static constexpr size_t capacity = size_t(1) << 20;
    Clock::time_point origin;
    Span *store;
    size_t n = 0;
    uint64_t dropped = 0;
};

/** RAII span; a no-op when the tracer is null. */
class Scope
{
  public:
    Scope(Tracer *t, const char *name, uint64_t item,
          int64_t parent = -1)
        : tracer(t), id(t ? t->begin(name, item, parent) : -1)
    {}
    ~Scope()
    {
        if (tracer)
            tracer->end(id);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    int64_t spanId() const { return id; }

  private:
    Tracer *tracer;
    int64_t id;
};

/**
 * Moves the calling thread to the next CPU of its affinity set once
 * per 100 ms of measured work. On a shared host each vCPU's speed
 * depends on what runs beside it and changes over seconds; pinned to
 * one vCPU, a whole run takes that vCPU's luck. Rotating spreads
 * every run over all of them. Single-threaded workloads only.
 */
class CpuRotor
{
  public:
    CpuRotor();
    /** Call between items. */
    void tick();

  private:
    std::vector<int> cpus;
    size_t next = 0;
    Clock::time_point last;
};

/** A named number with its unit. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** What one workload run hands back to main. */
struct Result
{
    std::string workload;
    /** Wall seconds of each repeated set-up. */
    std::vector<double> setupS;
    /** Host milliseconds of each timed item. */
    std::vector<double> itemMs;
    /** What one item is ("100 ms slice", "image", ...). */
    std::string itemName;
    /** Work completed in the timed items, in the headline unit. */
    double work = 0;
    /** Headline throughput: name and unit (e.g. sim_s_per_host_s). */
    std::string headlineName;
    std::string headlineUnit;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** First few failed checks, for the report. */
    std::vector<std::string> failures;
    /** Workload-specific end-to-end figures beyond the common five. */
    std::vector<Metric> extra;
    /** Per-layer metrics (traced runs only). */
    std::vector<Metric> layer;
    /** Simulated-statistics fingerprint: identical for every run of
     *  one (workload, seed) on one program version. */
    std::vector<std::pair<std::string, std::string>> fingerprint;
    /** Sample counts by name, for provenance. */
    std::vector<std::pair<std::string, uint64_t>> samples;

    double timedSeconds() const;

    /** Count one failed item and describe it. */
    void
    fail(const std::string &why)
    {
        ++failed;
        describe(why);
    }
    /** Describe a failed check whose items are counted elsewhere. */
    void
    describe(const std::string &why)
    {
        if (failures.size() < 8)
            failures.push_back(why);
    }
};

/** How a workload is to be run. */
struct RunSpec
{
    uint64_t seed = 1;
    double seconds = 10;
    /** Null = untraced (the end-to-end configuration). */
    Tracer *tracer = nullptr;
    /** Do the fixed minimum of work the fingerprint covers. */
    bool fingerprint = true;
    /** Checked-in corpus directory (oracle_sweep). */
    std::string corpusDir = "tests/corpus";
    /** Worker threads for fault_campaign. */
    unsigned threads = 1;
};

Result runIcdCosim(const RunSpec &spec);
Result runOracleSweep(const RunSpec &spec);
Result runConcolicSweep(const RunSpec &spec);
Result runFaultCampaign(const RunSpec &spec);

// ---- helpers ----

/** Derive an independent 64-bit stream seed (splitmix64). */
uint64_t deriveSeed(uint64_t seed, uint64_t stream);

double median(std::vector<double> v);
/** Nearest-rank percentile (p in [0, 100]). */
double percentile(std::vector<double> v, double p);
double mean(const std::vector<double> &v);

/** The tail: the highest percentile with at least ten samples beyond
 *  it, i.e. the 11th-largest sample. With ten or fewer samples no
 *  such percentile exists and the maximum is reported (percentile
 *  100). */
struct Tail
{
    double value = 0;
    double percentile = 100;
};
Tail tailOf(std::vector<double> v);

/** FNV-1a over bytes, chainable. */
uint64_t fnv1a(const void *data, size_t n,
               uint64_t h = 0xcbf29ce484222325ull);
uint64_t fnv1a(const std::string &s, uint64_t h = 0xcbf29ce484222325ull);
std::string hex64(uint64_t v);

} // namespace zbench

#endif // ZBENCH_BENCH_HH
