/**
 * @file
 * Shared plumbing of the measuring program: the command line, wall
 * clock, a minimal JSON writer for the raw samples, the span tracer and
 * the plant digest the output checks compare.
 *
 * The program only measures. It writes raw samples (per-step, per-request
 * and per-run times, spans and counters) as one JSON document; run.py
 * turns them into metrics, so the arithmetic lives in one place
 * (perfbench/stats.py) and is self-tested without the program.
 */
#ifndef INSURE_PERFBENCH_COMMON_HH
#define INSURE_PERFBENCH_COMMON_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hh"

namespace perfbench {

/** Parsed command line. */
struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    /** Measuring budget of the run, wall seconds. */
    double seconds = 20.0;
    /** Run the traced pass instead of the timed one. */
    bool trace = false;
    /** Print the pinned digests for this seed and exit. */
    bool digestOnly = false;
};

/** Monotonic wall clock, seconds. */
double now();

/** Peak resident set of this process, MB. */
double peakRssMb();

/** FNV-1a over the full run state of @p rig (clock, RNG, plant). */
std::uint64_t rigDigest(const insure::core::ExperimentRig &rig);

/** Hex form of a digest, as pins.json stores it. */
std::string hex(std::uint64_t v);

/**
 * Streaming JSON writer for the raw-sample document. Keys and values
 * are written in call order; the writer inserts the commas.
 */
class Json
{
  public:
    Json &beginObject(const char *key = nullptr);
    Json &endObject();
    Json &beginArray(const char *key = nullptr);
    Json &endArray();
    Json &field(const char *key, double v);
    Json &field(const char *key, std::uint64_t v);
    Json &field(const char *key, bool v);
    Json &field(const char *key, const std::string &v);
    Json &value(double v);
    Json &array(const char *key, const std::vector<double> &v);
    std::string text() const { return os_.str(); }

  private:
    void sep(const char *key);
    void num(double v);
    void str(const std::string &v);
    std::ostringstream os_;
    std::vector<bool> first_{true};
};

/** One timed interval recorded by the traced run. */
struct Span {
    std::uint64_t id = 0;
    /** Id of the enclosing span on the same thread (0 = root). */
    std::uint64_t parent = 0;
    /** Request id shared by the spans of one twin request (0 = none). */
    std::uint64_t rid = 0;
    const char *name = "";
    double start = 0.0;
    double end = 0.0;
};

/**
 * In-memory span store. Off by default: a ScopedSpan then costs one
 * branch. The traced run switches it on and writes the spans at exit.
 */
class Tracer
{
  public:
    static Tracer &instance();
    bool on() const { return on_.load(std::memory_order_relaxed); }
    void enable() { on_ = true; }
    void disable() { on_ = false; }
    /** Allocate a span id; @p parent gets this thread's open span. */
    std::uint64_t open(std::uint64_t &parent);
    void close(std::uint64_t id, std::uint64_t parent, std::uint64_t rid,
               const char *name, double start, double end);
    /** Every closed span, in closing order. */
    std::vector<Span> spans() const;

  private:
    std::atomic<bool> on_{false};
    mutable std::mutex mu_;
    std::uint64_t nextId_ = 1;
    std::vector<Span> spans_;
};

/** RAII span around one call into a layer. */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name, std::uint64_t rid = 0);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    const char *name_;
    std::uint64_t rid_;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    double start_ = 0.0;
};

/** Append the tracer's spans to @p out as a "spans" array. */
void writeSpans(Json &out);

/** Workload entry points; each fills @p out and returns its exit code. */
int runPlant10k(const Args &args, Json &out);
int runFaultCampaign(const Args &args, Json &out);
int runTwinLive(const Args &args, Json &out);

} // namespace perfbench

#endif // INSURE_PERFBENCH_COMMON_HH
