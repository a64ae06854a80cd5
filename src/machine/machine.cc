#include "machine/machine_impl.hh"

namespace zarf
{

namespace testhooks
{
bool poisonedOperandDefect = false;
bool forceSwitchDispatch = false;
} // namespace testhooks

const char *
dispatchTierName(DispatchTier t)
{
    switch (t) {
      case DispatchTier::WordWalk:
        return "word-walk";
      case DispatchTier::Uop:
        return "uop";
      case DispatchTier::FastFunctional:
        return "fast-functional";
    }
    return "?";
}

const char *
machineStatusName(MachineStatus st)
{
    switch (st) {
      case MachineStatus::Running:
        return "Running";
      case MachineStatus::Done:
        return "Done";
      case MachineStatus::OutOfMemory:
        return "OutOfMemory";
      case MachineStatus::Stuck:
        return "Stuck";
      case MachineStatus::HeapCorrupt:
        return "HeapCorrupt";
      case MachineStatus::MemFault:
        return "MemFault";
      case MachineStatus::BudgetExceeded:
        return "BudgetExceeded";
    }
    return "?";
}

std::shared_ptr<const MachineSnapshot>
Machine::Impl::makeSnapshot() const
{
    // Fold the flat call counters into the stats map first so the
    // snapshot's stats (and the source's, from now on) carry the
    // counts identically.
    syncStats();
    auto s = std::make_shared<MachineSnapshot>();
    s->li = li;
    s->semispaceWords = cfg.semispaceWords;
    s->tier = tier;
    heap.save(s->heap);
    s->stats = machineStats;
    s->tally = tally;
    conts.copyTo(s->frames);
    s->framesRef = contsV;
    s->act = act;
    s->vreg = vreg;
    s->mode = mode;
    s->curClass = curClass;
    s->status = status;
    s->diagnostic = diagnostic;
    s->total = total;
    s->lastGcAt = lastGcAt;
    return s;
}

void
Machine::Impl::restoreFrom(const MachineSnapshot &s)
{
    if (s.semispaceWords != cfg.semispaceWords) {
        fatal("machine restore: semispace mismatch (%zu vs %zu "
              "words)",
              s.semispaceWords, cfg.semispaceWords);
    }
    // Each tier keeps its own state layout and ledger: WordWalk
    // keeps its frames elsewhere and FastFunctional counts steps
    // instead of cycles, so a snapshot restores only into its tier.
    if (s.tier != tier) {
        fatal("machine restore: dispatch tier mismatch (%s snapshot "
              "into a %s machine)",
              dispatchTierName(s.tier), dispatchTierName(tier));
    }
    if (s.li != li && !(s.li && s.li->image == li->image))
        fatal("machine restore: snapshot is from a different image");
    heap.restore(s.heap);
    machineStats = s.stats;
    tally = s.tally;
    // The snapshot's stats already hold the folded call counts;
    // start the flat counters from zero so the next fold adds only
    // post-restore activations.
    std::fill(callCounts.begin(), callCounts.end(), 0);
    conts.assignFrom(s.frames);
    contsV = s.framesRef;
    act = s.act;
    vreg = s.vreg;
    mode = s.mode;
    curClass = s.curClass;
    status = s.status;
    diagnostic = s.diagnostic;
    total = s.total;
    lastGcAt = s.lastGcAt;
}

Machine::Machine(const Image &image, IoBus &bus, MachineConfig config)
    : impl(std::make_unique<Impl>(
          LoadedImage::load(image, tierUsesPredecode(config.tier)),
          bus, config))
{}

Machine::Machine(std::shared_ptr<const LoadedImage> li, IoBus &bus,
                 MachineConfig config)
    : impl(std::make_unique<Impl>(std::move(li), bus, config))
{}

std::shared_ptr<const MachineSnapshot>
Machine::snapshot() const
{
    return impl->makeSnapshot();
}

void
Machine::restore(const MachineSnapshot &snap)
{
    impl->restoreFrom(snap);
}

Machine::~Machine() = default;

MachineStatus
Machine::advance(Cycles budget)
{
    return impl->advance(budget);
}

Machine::Outcome
Machine::run(Cycles maxCycles)
{
    return impl->run(maxCycles);
}

Cycles
Machine::cycles() const
{
    return impl->cyclesTotal();
}

MachineStatus
Machine::status() const
{
    return impl->currentStatus();
}

const std::string &
Machine::diagnostic() const
{
    return impl->currentDiagnostic();
}

bool
Machine::injectHeapBitFlip(size_t wordIndex, unsigned bit)
{
    return impl->injectHeapBitFlip(wordIndex, bit);
}

void
Machine::injectOperandBitFlip(unsigned bit)
{
    impl->injectOperandBitFlip(bit);
}

void
Machine::raiseMemFault(const std::string &why)
{
    impl->raiseMemFault(why);
}

const MachineStats &
Machine::stats() const
{
    return impl->stats();
}

const FsmTally &
Machine::fsmTally() const
{
    return impl->tallyRef();
}

void
Machine::exportMetrics(obs::Metrics &metrics,
                       const std::string &prefix) const
{
    impl->exportMetricsImpl(metrics, prefix);
}

void
Machine::collectNow()
{
    impl->collectNow();
}

size_t
Machine::heapUsedWords() const
{
    return impl->heapUsed();
}

std::vector<Machine::CensusEntry>
Machine::heapCensus()
{
    return impl->census();
}

} // namespace zarf
