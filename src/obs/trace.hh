/**
 * @file
 * Ring-buffered structured event tracer (docs/OBSERVABILITY.md).
 *
 * The Recorder is the single sink every instrumented component — the
 * λ-machine, the imperative core, the two-layer system's devices —
 * writes into. Design constraints, in order:
 *
 *  - Disabled costs ~zero: components hold a `Recorder *` that is
 *    null by default, so the disabled hook is one predicted branch
 *    (bench_trace_overhead verifies the bound).
 *  - Deterministic: events are fixed-size integer records stamped
 *    with simulated λ cycles, recorded in emission order into a
 *    ring that grows on demand up to its capacity. Two runs of the
 *    same seed produce byte-identical exports; nothing depends on
 *    host time, pointer values, or thread scheduling (a Recorder is
 *    single-threaded by contract — one per simulated system).
 *  - Bounded: the ring drops the *oldest* events once full and
 *    counts the drops, so long co-simulations keep the most recent
 *    window without unbounded memory.
 *
 * toChromeJson() renders the ring as Chrome-trace/Perfetto JSON with
 * one "thread" per Track and timestamps in λ cycles (1 unit = 20 ns).
 */

#ifndef ZARF_OBS_TRACE_HH
#define ZARF_OBS_TRACE_HH

#include <string>
#include <vector>

#include "obs/events.hh"

namespace zarf::obs
{

/** Recorder sizing and filtering. */
struct TraceConfig
{
    /** Ring capacity in events; the oldest are dropped past it. */
    size_t capacity = 1u << 15;
    /** Bitmask of Cat values to record (kAllCats = everything). */
    uint32_t mask = kAllCats;
};

/** The ring-buffered event sink. */
class Recorder
{
  public:
    explicit Recorder(TraceConfig config = {});

    /** Is this category recorded? Callers on hot paths cache the
     *  answer instead of asking per event. */
    bool
    wants(Cat c) const
    {
        return (cfg.mask & static_cast<uint32_t>(c)) != 0;
    }

    /** Record one event (dropped silently if its category is
     *  masked; drops the oldest ring entry when full). */
    void
    emit(EventKind k, Cycles ts, int64_t a = 0, int64_t b = 0)
    {
        if (!wants(eventCat(k)))
            return;
        ++nEmitted;
        if (count == ring.size()) {
            if (ring.size() < cfg.capacity) {
                grow(Event{ ts, a, b, k });
                return;
            }
            ++nDropped;
            ring[head] = Event{ ts, a, b, k };
            head = (head + 1) % ring.size();
            return;
        }
        ring[(head + count) % ring.size()] = Event{ ts, a, b, k };
        ++count;
    }

    /** Events currently held (<= capacity). */
    size_t size() const { return count; }
    /** Events emitted since construction/clear (accepted by mask). */
    uint64_t emitted() const { return nEmitted; }
    /** Events discarded because the ring was full. */
    uint64_t dropped() const { return nDropped; }

    /** The i-th held event, oldest first. */
    const Event &
    at(size_t i) const
    {
        return ring[(head + i) % ring.size()];
    }

    /** Visit held events oldest-first. */
    template <typename F>
    void
    forEach(F &&f) const
    {
        for (size_t i = 0; i < count; ++i)
            f(at(i));
    }

    /** Forget everything recorded (capacity and mask unchanged). */
    void clear();

    /**
     * Render as Chrome-trace JSON (the "JSON Array Format" with
     * metadata): open in Perfetto (ui.perfetto.dev) or
     * chrome://tracing. Timestamps are simulated λ cycles. The
     * rendering is deterministic: fixed key order, integers only.
     */
    std::string toChromeJson() const;

  private:
    /** Append to a ring still below capacity (head is 0 there). */
    void grow(const Event &e);

    TraceConfig cfg;
    std::vector<Event> ring; ///< Grows on demand up to cfg.capacity.
    size_t head = 0;  ///< Index of the oldest held event.
    size_t count = 0; ///< Held events.
    uint64_t nEmitted = 0;
    uint64_t nDropped = 0;
};

} // namespace zarf::obs

#endif // ZARF_OBS_TRACE_HH
