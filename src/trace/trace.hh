/**
 * @file
 * Per-instruction pipeline tracing.
 *
 * Every DynInst already carries its stage timestamps (fetch, decode
 * exit, rename, issue, complete) as part of normal simulation; the
 * tracer adds no hot-path writes. When a sink is attached to a Core,
 * each instruction leaving the pipeline — retired at the ROB head or
 * squashed on a recovery walk — is folded into one TraceEvent and
 * emitted, bounded by a retired-instruction window [start, start+count)
 * so trace files stay finite on long runs.
 *
 * Two exporters:
 *
 *  - KonataTraceSink: gem5 O3PipeView-compatible text, directly
 *    loadable by the Konata pipeline viewer. One record per
 *    instruction:
 *
 *        O3PipeView:fetch:<cycle>:0x<pc>:0:<seq>:<disasm>
 *        O3PipeView:decode:<cycle>
 *        O3PipeView:rename:<cycle>
 *        O3PipeView:dispatch:<cycle>
 *        O3PipeView:issue:<cycle>
 *        O3PipeView:complete:<cycle>
 *        O3PipeView:retire:<cycle>:store:0
 *
 *    Squashed instructions carry retire cycle 0 (the viewer renders
 *    them as flushed).
 *
 *  - JsonlTraceSink: one self-describing JSON object per line, with
 *    the integration / LISP / DIVA annotations (integration kind and
 *    producer status, misintegration flag, squash cause) for tooling.
 *
 * Zero-overhead when off: the Core holds a null sink pointer and pays
 * one pointer test per retired instruction. Tracing never touches simulated state; cycles,
 * retired counts and every other CoreStats field are bit-identical
 * with tracing on or off (enforced by tests/test_trace.cc and the
 * cli.zero_overhead drill).
 */

#ifndef RIX_TRACE_TRACE_HH
#define RIX_TRACE_TRACE_HH

#include <cstdio>
#include <memory>
#include <string>
#include <utility>

#include "cpu/dyn_inst.hh"

namespace rix
{

/** One instruction leaving the pipeline, with clamped stage cycles. */
struct TraceEvent
{
    InstSeqNum seq = 0;
    InstAddr pc = 0;
    Instruction inst;

    // Stage cycles, normalized to be monotonically non-decreasing
    // (fetch <= decode <= rename <= issue <= complete <= retire).
    // Instructions that skipped a stage (integrated instructions never
    // issue; squashed ones may die before rename) inherit the previous
    // stage's cycle; `issued` distinguishes a real issue from the
    // integration shortcut.
    Cycle fetch = 0;
    Cycle decode = 0;
    Cycle rename = 0;
    Cycle issue = 0;
    Cycle complete = 0;
    Cycle retire = 0;

    bool retired = false;      // false: squashed on a recovery walk
    u64 retireIndex = 0;       // 0-based retire-stream position (retired)
    SquashCause cause = SquashCause::None; // squashed only

    // Annotations: register integration (paper mechanism), DIVA.
    bool issued = false;
    bool integrated = false;
    bool reverseIntegrated = false;
    IntegStatus integStatus = IntegStatus::None;
    bool mispredicted = false;
};

/** Build the (monotonic) event for an instruction leaving at @p now. */
TraceEvent makeTraceEvent(const DynInst &di, Cycle now, bool retired,
                          SquashCause cause, u64 retire_index);

/**
 * Where trace events go. emit() keeps per-sink counters and forwards
 * to the format-specific write(); sinks are single-run, single-thread
 * objects (each SimJob owns its own).
 */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    void
    emit(const TraceEvent &ev)
    {
        ++nEvents_;
        if (ev.retired)
            ++nRetired_;
        else
            ++nSquashed_;
        write(ev);
    }

    virtual void flush() {}

    /** Flush and release the destination. @return "" when every event
     *  reached it, else a diagnostic naming it; later calls return "". */
    virtual std::string close() { return ""; }

    u64 numEvents() const { return nEvents_; }
    u64 numRetired() const { return nRetired_; }
    u64 numSquashed() const { return nSquashed_; }

  protected:
    virtual void write(const TraceEvent &ev) = 0;

  private:
    u64 nEvents_ = 0;
    u64 nRetired_ = 0;
    u64 nSquashed_ = 0;
};

/** Shared FILE-owning base of the two text exporters. */
class FileTraceSink : public TraceSink
{
  public:
    ~FileTraceSink() override;
    void flush() override;
    std::string close() override;

  protected:
    /** Takes ownership of @p f, opened on @p path. */
    FileTraceSink(FILE *f, std::string path)
        : f_(f), path_(std::move(path))
    {
    }
    FILE *f_;

  private:
    std::string path_;
};

/** Konata / gem5-O3PipeView text. */
class KonataTraceSink : public FileTraceSink
{
  public:
    KonataTraceSink(FILE *f, std::string path)
        : FileTraceSink(f, std::move(path))
    {
    }

  protected:
    void write(const TraceEvent &ev) override;
};

/** One JSON object per event. */
class JsonlTraceSink : public FileTraceSink
{
  public:
    JsonlTraceSink(FILE *f, std::string path)
        : FileTraceSink(f, std::move(path))
    {
    }

  protected:
    void write(const TraceEvent &ev) override;
};

/** Trace block of a scenario spec / the `rix trace` subcommand. */
struct TraceConfig
{
    bool enabled = false;
    u64 start = 0;          // first retired-instruction index to trace
    u64 count = 100'000;    // window length in retired instructions
    std::string format = "konata"; // "konata" | "jsonl"
    std::string out = "rix_trace.txt";

    /** start + count, saturating. */
    u64
    end() const
    {
        return count > ~u64(0) - start ? ~u64(0) : start + count;
    }
};

/** True iff @p format names a known exporter. */
bool traceFormatValid(const std::string &format);

/**
 * Open a file sink per @p cfg at @p path (usually cfg.out, possibly
 * suffixed per job). Returns null with *err set on open failure.
 */
std::unique_ptr<TraceSink> openTraceSink(const TraceConfig &cfg,
                                         const std::string &path,
                                         std::string *err);

} // namespace rix

#endif // RIX_TRACE_TRACE_HH
