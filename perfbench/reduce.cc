#include "reduce.hh"

#include <algorithm>
#include <fstream>
#include <map>
#include <stdexcept>

#include "common/logging.hh"
#include "obs/json.hh"

namespace perfbench
{

using pfits::JsonValue;

namespace
{

std::string
argString(const JsonValue &ev, const char *key)
{
    const JsonValue &args = ev.get("args");
    if (args.isObject() && args.get(key).isString())
        return args.get(key).asString();
    return "";
}

} // namespace

std::vector<Span>
parseTrace(std::istream &in)
{
    std::vector<Span> spans;
    // Per lane, the open spans' indices; -1 marks a dropped chip span.
    std::map<uint32_t, std::vector<int>> open;
    std::string line;
    while (std::getline(in, line)) {
        size_t lo = line.find('{');
        size_t hi = line.rfind('}');
        if (lo == std::string::npos ||
            line.compare(lo, 6, "{\"ph\":") != 0)
            continue; // document framing, not an event
        JsonValue ev;
        try {
            ev = JsonValue::parse(line.substr(lo, hi + 1 - lo));
        } catch (const pfits::FatalError &e) {
            throw std::runtime_error(std::string("trace: ") + e.what());
        }
        if (!ev.get("ph").isString())
            throw std::runtime_error("trace: event without ph");
        const std::string &ph = ev.get("ph").asString();
        if (ph != "B" && ph != "E")
            continue;
        if (!ev.get("ts").isNumber() || !ev.get("tid").isNumber())
            throw std::runtime_error("trace: event without ts/tid");
        auto lane = static_cast<uint32_t>(ev.get("tid").asNumber());
        double ts = ev.get("ts").asNumber();
        std::vector<int> &stack = open[lane];
        if (ph == "E") {
            if (stack.empty())
                throw std::runtime_error("trace: unbalanced E on lane " +
                                         std::to_string(lane));
            if (stack.back() >= 0)
                spans[stack.back()].endUs = ts;
            stack.pop_back();
            continue;
        }
        Span s;
        s.cat = ev.get("cat").isString() ? ev.get("cat").asString() : "";
        if (s.cat == "chip") {
            stack.push_back(-1);
            continue;
        }
        s.name =
            ev.get("name").isString() ? ev.get("name").asString() : "";
        s.lane = lane;
        s.startUs = ts;
        s.parent = stack.empty() ? -1 : stack.back();
        s.trace = argString(ev, "trace");
        s.op = argString(ev, "op");
        stack.push_back(static_cast<int>(spans.size()));
        spans.push_back(std::move(s));
    }
    for (const auto &[lane, stack] : open)
        if (!stack.empty())
            throw std::runtime_error("trace: unclosed span on lane " +
                                     std::to_string(lane));
    return spans;
}

void
computeSelfTime(std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
    for (const Span &s : spans)
        if (s.parent >= 0)
            kids[s.parent].push_back({s.startUs, s.endUs});

    for (size_t i = 0; i < spans.size(); ++i) {
        Span &s = spans[i];
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0;
        double cur_lo = 0, cur_hi = 0;
        bool have = false;
        for (auto [lo, hi] : iv) {
            lo = std::max(lo, s.startUs);
            hi = std::min(hi, s.endUs);
            if (hi <= lo)
                continue;
            if (have && lo <= cur_hi) {
                cur_hi = std::max(cur_hi, hi);
                continue;
            }
            if (have)
                covered += cur_hi - cur_lo;
            cur_lo = lo;
            cur_hi = hi;
            have = true;
        }
        if (have)
            covered += cur_hi - cur_lo;
        s.selfUs = std::max(0.0, s.durUs() - covered);
    }
}

std::vector<Span>
loadTrace(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read trace " + path);
    std::vector<Span> spans = parseTrace(in);
    computeSelfTime(spans);
    return spans;
}

int
ancestorNamed(const std::vector<Span> &spans, int i,
              const std::string &name)
{
    for (int p = spans[i].parent; p >= 0; p = spans[p].parent)
        if (spans[p].name == name)
            return p;
    return -1;
}

} // namespace perfbench
