#include "trace/trace.hh"

#include <algorithm>

namespace rix
{

const char *
squashCauseName(SquashCause cause)
{
    switch (cause) {
      case SquashCause::None: return "none";
      case SquashCause::Branch: return "branch";
      case SquashCause::MemOrder: return "mem_order";
      case SquashCause::Misintegration: return "misintegration";
    }
    return "?";
}

TraceEvent
makeTraceEvent(const DynInst &di, Cycle now, bool retired,
               SquashCause cause, u64 retire_index)
{
    TraceEvent ev;
    ev.seq = di.seq;
    ev.pc = di.pc;
    ev.inst = di.inst;

    // Clamp into a monotone staircase: a stage an instruction never
    // reached (or that was stamped in the same cycle as its
    // predecessor) inherits the previous stage's cycle. The raw stamps
    // stay untouched on the DynInst.
    ev.fetch = di.fetchCycle;
    ev.decode = std::max(ev.fetch, di.renameReadyCycle);
    ev.rename = std::max(ev.decode, di.renameCycle);
    ev.issue = std::max(ev.rename, di.issueCycle);
    ev.complete = std::max(ev.issue, di.completeCycle);
    ev.retire = std::max(ev.complete, now);

    ev.retired = retired;
    ev.retireIndex = retired ? retire_index : 0;
    ev.cause = retired ? SquashCause::None : cause;

    ev.issued = di.issued;
    ev.integrated = di.integrated;
    ev.reverseIntegrated = di.reverseIntegrated;
    ev.integStatus = di.integStatus;
    ev.mispredicted = di.mispredicted;
    return ev;
}

FileTraceSink::~FileTraceSink()
{
    close();
}

std::string
FileTraceSink::close()
{
    if (!f_)
        return "";
    const bool writeFailed = ferror(f_) != 0;
    const bool closeFailed = fclose(f_) != 0;
    f_ = nullptr;
    if (writeFailed || closeFailed)
        return "write failed on trace output '" + path_ + "'";
    return "";
}

void
FileTraceSink::flush()
{
    if (f_)
        fflush(f_);
}

void
KonataTraceSink::write(const TraceEvent &ev)
{
    fprintf(f_, "O3PipeView:fetch:%llu:0x%08llx:0:%llu:%s\n",
            (unsigned long long)ev.fetch, (unsigned long long)ev.pc,
            (unsigned long long)ev.seq, disassemble(ev.inst).c_str());
    fprintf(f_, "O3PipeView:decode:%llu\n", (unsigned long long)ev.decode);
    fprintf(f_, "O3PipeView:rename:%llu\n", (unsigned long long)ev.rename);
    fprintf(f_, "O3PipeView:dispatch:%llu\n",
            (unsigned long long)ev.rename);
    fprintf(f_, "O3PipeView:issue:%llu\n", (unsigned long long)ev.issue);
    fprintf(f_, "O3PipeView:complete:%llu\n",
            (unsigned long long)ev.complete);
    // Retire cycle 0 marks a flushed (squashed) instruction — the
    // viewer's convention for wrong-path work.
    fprintf(f_, "O3PipeView:retire:%llu:store:0\n",
            (unsigned long long)(ev.retired ? ev.retire : 0));
}

namespace
{

/** Minimal JSON string escape (disassembly is plain ASCII). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if ((unsigned char)c < 0x20) {
            char buf[8];
            snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
            continue;
        }
        out += c;
    }
    return out;
}

const char *
integKindName(const TraceEvent &ev)
{
    if (!ev.integrated)
        return "none";
    return ev.reverseIntegrated ? "reverse" : "direct";
}

const char *
integStatusName(IntegStatus st)
{
    switch (st) {
      case IntegStatus::None: return "none";
      case IntegStatus::Rename: return "rename";
      case IntegStatus::Issue: return "issue";
      case IntegStatus::Retire: return "retire";
      case IntegStatus::ShadowSquash: return "shadow";
    }
    return "?";
}

} // namespace

void
JsonlTraceSink::write(const TraceEvent &ev)
{
    fprintf(f_,
            "{\"seq\": %llu, \"pc\": %llu, \"disasm\": \"%s\", "
            "\"fetch\": %llu, \"decode\": %llu, \"rename\": %llu, "
            "\"issue\": %llu, \"complete\": %llu, \"retire\": %llu, "
            "\"retired\": %s, \"retire_index\": %llu, "
            "\"squash_cause\": \"%s\", \"issued\": %s, "
            "\"integ\": \"%s\", \"integ_status\": \"%s\", "
            "\"mispredicted\": %s}\n",
            (unsigned long long)ev.seq, (unsigned long long)ev.pc,
            jsonEscape(disassemble(ev.inst)).c_str(),
            (unsigned long long)ev.fetch, (unsigned long long)ev.decode,
            (unsigned long long)ev.rename, (unsigned long long)ev.issue,
            (unsigned long long)ev.complete,
            (unsigned long long)ev.retire, ev.retired ? "true" : "false",
            (unsigned long long)ev.retireIndex, squashCauseName(ev.cause),
            ev.issued ? "true" : "false", integKindName(ev),
            integStatusName(ev.integStatus),
            ev.mispredicted ? "true" : "false");
}

bool
traceFormatValid(const std::string &format)
{
    return format == "konata" || format == "jsonl";
}

std::unique_ptr<TraceSink>
openTraceSink(const TraceConfig &cfg, const std::string &path,
              std::string *err)
{
    FILE *f = fopen(path.c_str(), "w");
    if (!f) {
        if (err)
            *err = "cannot open trace output '" + path + "'";
        return nullptr;
    }
    if (cfg.format == "jsonl")
        return std::make_unique<JsonlTraceSink>(f, path);
    return std::make_unique<KonataTraceSink>(f, path);
}

} // namespace rix
