#include "common.hh"

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>

#include "snapshot/archive.hh"

namespace perfbench {

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // kB on Linux
}

std::uint64_t
rigDigest(const insure::core::ExperimentRig &rig)
{
    insure::snapshot::Archive ar = insure::snapshot::Archive::forSave();
    rig.save(ar);
    return insure::snapshot::fnv1a(ar.payload().data(), ar.payload().size());
}

std::string
hex(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

void
Json::sep(const char *key)
{
    if (!first_.back())
        os_ << ',';
    first_.back() = false;
    if (key)
        os_ << '"' << key << "\":";
}

Json &
Json::beginObject(const char *key)
{
    sep(key);
    os_ << '{';
    first_.push_back(true);
    return *this;
}

Json &
Json::endObject()
{
    first_.pop_back();
    os_ << '}';
    return *this;
}

Json &
Json::beginArray(const char *key)
{
    sep(key);
    os_ << '[';
    first_.push_back(true);
    return *this;
}

Json &
Json::endArray()
{
    first_.pop_back();
    os_ << ']';
    return *this;
}

Json &
Json::value(double v)
{
    sep(nullptr);
    num(v);
    return *this;
}

void
Json::num(double v)
{
    if (std::isfinite(v)) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        os_ << buf;
    } else {
        os_ << "null";
    }
}

void
Json::str(const std::string &v)
{
    os_ << '"';
    for (char c : v) {
        if (c == '"' || c == '\\')
            os_ << '\\' << c;
        else if (static_cast<unsigned char>(c) < 0x20)
            os_ << ' ';
        else
            os_ << c;
    }
    os_ << '"';
}

Json &
Json::field(const char *key, double v)
{
    sep(key);
    num(v);
    return *this;
}

Json &
Json::field(const char *key, std::uint64_t v)
{
    sep(key);
    os_ << v;
    return *this;
}

Json &
Json::field(const char *key, bool v)
{
    sep(key);
    os_ << (v ? "true" : "false");
    return *this;
}

Json &
Json::field(const char *key, const std::string &v)
{
    sep(key);
    str(v);
    return *this;
}

Json &
Json::array(const char *key, const std::vector<double> &v)
{
    beginArray(key);
    for (double x : v)
        value(x);
    return endArray();
}

namespace {

/** Innermost open span of this thread (the parent of the next one). */
thread_local std::uint64_t tlsCurrent = 0;

} // namespace

Tracer &
Tracer::instance()
{
    static Tracer t;
    return t;
}

std::uint64_t
Tracer::open(std::uint64_t &parent)
{
    std::uint64_t id;
    {
        const std::lock_guard<std::mutex> lock(mu_);
        id = nextId_++;
    }
    parent = tlsCurrent;
    tlsCurrent = id;
    return id;
}

void
Tracer::close(std::uint64_t id, std::uint64_t parent, std::uint64_t rid,
              const char *name, double start, double end)
{
    tlsCurrent = parent;
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{id, parent, rid, name, start, end});
}

std::vector<Span>
Tracer::spans() const
{
    const std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

ScopedSpan::ScopedSpan(const char *name, std::uint64_t rid)
    : name_(name), rid_(rid)
{
    Tracer &t = Tracer::instance();
    if (!t.on())
        return;
    start_ = now();
    id_ = t.open(parent_);
}

ScopedSpan::~ScopedSpan()
{
    if (id_)
        Tracer::instance().close(id_, parent_, rid_, name_, start_, now());
}

void
writeSpans(Json &out)
{
    const std::vector<Span> spans = Tracer::instance().spans();
    out.beginArray("spans");
    for (const Span &s : spans) {
        out.beginObject()
            .field("id", s.id)
            .field("parent", s.parent)
            .field("rid", s.rid)
            .field("name", std::string(s.name))
            .field("start", s.start)
            .field("end", s.end)
            .endObject();
    }
    out.endArray();
}

} // namespace perfbench
