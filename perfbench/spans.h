/**
 * @file
 * In-memory span recorder for the benchmark's traced runs. A span is
 * one call the benchmark makes into a library layer: its name, start,
 * end and the enclosing span. Spans stay in memory while the run
 * measures and are written once, as Trace Event Format, when it ends.
 * With recording off, opening and closing a span does nothing.
 */

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/** One recorded call; times are microseconds since the recorder began. */
struct Span
{
    std::string name;
    double startUs = 0.0;
    double endUs = 0.0;
    /** Index of the enclosing span, or -1 at top level. */
    int parent = -1;
};

class SpanRecorder
{
  public:
    SpanRecorder();

    bool recording() const { return recording_; }
    void setRecording(bool on) { recording_ = on; }

    /** Opens a span under the innermost open one; -1 when off. */
    int open(const char *name);
    void close(int id);

    /** Index the next span will get; bounds a window for sumMs(). */
    std::size_t mark() const { return spans_.size(); }

    /** Total duration in ms of the spans named @p name among spans
     *  [from, to). */
    double sumMs(const std::string &name, std::size_t from,
                 std::size_t to) const;

    /** Writes every span as Trace Event Format JSON. Returns false
     *  when the file cannot be written. */
    bool writeTraceEvents(const std::string &path) const;

  private:
    double nowUs() const;

    bool recording_ = false;
    std::chrono::steady_clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span around one layer call. */
class SpanScope
{
  public:
    SpanScope(SpanRecorder &recorder, const char *name)
        : recorder_(recorder), id_(recorder.open(name))
    {
    }
    ~SpanScope() { recorder_.close(id_); }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    SpanRecorder &recorder_;
    int id_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H_
