#include "api/context.h"

#include <cstdarg>
#include <cstdio>
#include <sstream>

#include "chr/export.h"

namespace rp::api {

ConfigSchema
baseSchema()
{
    ConfigSchema schema;
    // Every location's layout must fit the bank.
    schema.add({"locations", OptionType::Int, "10",
                "tested row locations per module", 1.0, true,
                double(chr::maxLocations()), true});
    schema.add({"dies", OptionType::String, "default",
                "die set: default | all | comma-separated die ids"});
    schema.add({"scale", OptionType::Double, "1",
                "effort multiplier for the heavy experiments", 0.0,
                true});
    schema.add({"seed", OptionType::Int, "1",
                "root seed for module construction and searches", 0.0,
                true});
    // A fixed ceiling: a job's engine starts up to this many threads
    // per task set.
    schema.add({"threads", OptionType::Int, "0",
                "engine worker threads (0 = hardware concurrency)",
                0.0, true, double(kMaxThreads), true});
    return schema;
}

ExperimentContext::ExperimentContext(ExperimentInfo info, Config config,
                                     core::ExperimentEngine &engine,
                                     JobEventEmitter emit)
    : info_(std::move(info)),
      config_(std::move(config)),
      engine_(engine),
      emit_(std::move(emit))
{
}

int
ExperimentContext::locations() const
{
    return config_.getInt("locations");
}

double
ExperimentContext::scale() const
{
    return config_.getDouble("scale");
}

std::uint64_t
ExperimentContext::seed() const
{
    return std::uint64_t(config_.getInt("seed"));
}

std::vector<device::DieConfig>
ExperimentContext::dies() const
{
    return dies({device::dieS8GbB(), device::dieH16GbA(),
                 device::dieM16GbF()});
}

std::vector<device::DieConfig>
ExperimentContext::dies(const std::vector<device::DieConfig> &dflt) const
{
    const std::string &spec = config_.getString("dies");
    if (spec == "default")
        return dflt;
    if (spec == "all")
        return device::allDies();
    std::vector<device::DieConfig> out;
    std::stringstream ss(spec);
    std::string id;
    while (std::getline(ss, id, ',')) {
        if (id.empty())
            continue;
        // dieById() is fatal on a miss; pre-validate for a clean error.
        bool found = false;
        for (const auto &d : device::allDies()) {
            if (d.id == id) {
                out.push_back(d);
                found = true;
                break;
            }
        }
        if (!found)
            throw ConfigError("--dies: unknown die id '" + id + "'");
    }
    if (out.empty())
        throw ConfigError("--dies: no die ids in '" + spec + "'");
    return out;
}

bool
ExperimentContext::allDiesSelected() const
{
    return config_.getString("dies") == "all";
}

chr::ModuleConfig
ExperimentContext::moduleConfig(const device::DieConfig &die,
                                double temp_c) const
{
    chr::ModuleConfig cfg;
    cfg.die = die;
    cfg.numLocations = locations();
    cfg.temperatureC = temp_c;
    cfg.seed = seed();
    return cfg;
}

void
ExperimentContext::emit(const Dataset &d)
{
    JobEvent event;
    event.type = JobEventType::Dataset;
    event.dataset = &d;
    emit_(std::move(event));
}

void
ExperimentContext::note(const std::string &text)
{
    JobEvent event;
    event.type = JobEventType::Note;
    event.text = text;
    emit_(std::move(event));
}

void
ExperimentContext::notef(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list args2;
    va_copy(args2, args);
    const int n = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);
    std::string buf(n > 0 ? std::size_t(n) : 0, '\0');
    if (n > 0)
        std::vsnprintf(&buf[0], buf.size() + 1, fmt, args2);
    va_end(args2);
    note(buf);
}

void
ExperimentContext::rawCsv(
    const std::string &name,
    const std::function<void(std::ostream &)> &writer)
{
    JobEvent event;
    event.type = JobEventType::RawCsv;
    event.name = name;
    event.bodyWriter = writer;
    emit_(std::move(event));
}

void
ExperimentContext::emitAcminSweepRaw(
    const std::string &name, const std::string &die_id, double temp_c,
    chr::AccessKind kind, chr::DataPattern pattern,
    const std::vector<chr::SweepPoint> &sweep)
{
    rawCsv(name, [&](std::ostream &os) {
        chr::writeAcminSweepCsv(os, die_id, temp_c, kind, pattern,
                                sweep);
    });
}

void
ExperimentContext::emitTAggOnMinRaw(
    const std::string &name, const std::string &die_id, double temp_c,
    const std::vector<chr::TAggOnMinPoint> &points)
{
    rawCsv(name, [&](std::ostream &os) {
        chr::writeTAggOnMinCsv(os, die_id, temp_c, points);
    });
}

void
ExperimentContext::emitOverlapRaw(
    const std::string &name, const std::string &die_id,
    const std::vector<chr::OverlapResult> &results)
{
    rawCsv(name, [&](std::ostream &os) {
        chr::writeOverlapCsv(os, die_id, results);
    });
}

} // namespace rp::api
