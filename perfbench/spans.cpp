#include "spans.h"

#include <cstdio>

namespace perfbench {

SpanRecorder::SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

double
SpanRecorder::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

int
SpanRecorder::open(const char *name)
{
    if (!recording_)
        return -1;
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : open_.back();
    span.startUs = nowUs();
    spans_.push_back(std::move(span));
    int id = static_cast<int>(spans_.size()) - 1;
    open_.push_back(id);
    return id;
}

void
SpanRecorder::close(int id)
{
    if (id < 0)
        return;
    spans_[id].endUs = nowUs();
    // Scopes nest, so the span closing is the innermost open one.
    open_.pop_back();
}

double
SpanRecorder::sumMs(const std::string &name, std::size_t from,
                    std::size_t to) const
{
    double total = 0.0;
    for (std::size_t i = from; i < to && i < spans_.size(); i++) {
        if (spans_[i].name == name)
            total += spans_[i].endUs - spans_[i].startUs;
    }
    return total / 1000.0;
}

bool
SpanRecorder::writeTraceEvents(const std::string &path) const
{
    std::FILE *file = std::fopen(path.c_str(), "w");
    if (file == nullptr)
        return false;
    std::fprintf(file, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); i++) {
        const Span &span = spans_[i];
        // Span names are fixed identifiers, so they need no escaping.
        std::fprintf(file,
                     "  {\"name\": \"%s\", \"cat\": \"perfbench\", "
                     "\"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                     "\"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"id\": %zu, \"parent\": %d}}%s\n",
                     span.name.c_str(), span.startUs,
                     span.endUs - span.startUs, i, span.parent,
                     i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(file, "]}\n");
    return std::fclose(file) == 0;
}

} // namespace perfbench
