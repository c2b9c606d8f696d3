#include "api/sink.h"

#include <cstdlib>
#include <fstream>

#include "api/env.h"
#include "chr/export.h"

namespace rp::api {

void
ResultSink::beginExperiment(const ExperimentInfo &info)
{
    (void)info;
}

void
ResultSink::resolvedConfig(const std::vector<ConfigValue> &config)
{
    (void)config;
}

void
ResultSink::note(const std::string &text)
{
    (void)text;
}

void
ResultSink::rawCsv(const std::string &name,
                   const std::function<void(std::ostream &)> &writer)
{
    (void)name;
    (void)writer;
}

void
ResultSink::endExperiment()
{
}

// ---- TableSink -------------------------------------------------------

void
TableSink::beginExperiment(const ExperimentInfo &info)
{
    os_ << "==============================================================="
        << "\n"
        << "RowPress reproduction - " << info.title << "\n"
        << "Paper reference: " << info.paperRef << "\n"
        << "==============================================================="
        << "\n";
}

void
TableSink::dataset(const Dataset &d)
{
    os_ << d.renderAscii();
}

void
TableSink::note(const std::string &text)
{
    os_ << text;
    if (text.empty() || text.back() != '\n')
        os_ << "\n";
}

// ---- CsvSink ---------------------------------------------------------

void
CsvSink::beginExperiment(const ExperimentInfo &info)
{
    expDir_ = outDir_ / info.id;
    usedStems_.clear();
    std::filesystem::create_directories(expDir_);
}

std::filesystem::path
CsvSink::filePath(const std::string &stem)
{
    std::string unique = stem;
    for (int n = 2; usedStems_.count(unique); ++n)
        unique = stem + "_" + std::to_string(n);
    usedStems_.insert(unique);
    return expDir_ / (unique + ".csv");
}

void
CsvSink::dataset(const Dataset &d)
{
    const auto path = filePath(slugify(d.name));
    std::ofstream os(path);
    if (!os)
        throw ConfigError("cannot write " + path.string());
    os << chr::csvRow(d.columns);
    for (const auto &row : d.rows)
        os << chr::csvRow(row);
}

void
CsvSink::rawCsv(const std::string &name,
                const std::function<void(std::ostream &)> &writer)
{
    const auto path = filePath(slugify(name));
    std::ofstream os(path);
    if (!os)
        throw ConfigError("cannot write " + path.string());
    writer(os);
}

// ---- JsonSink --------------------------------------------------------

namespace {

/** A table cell or config value: bare when numeric, else quoted. */
JsonValue
jsonCell(const std::string &text)
{
    return looksNumeric(text) ? JsonValue::number(text)
                              : JsonValue::string(text);
}

} // namespace

void
JsonSink::beginExperiment(const ExperimentInfo &info)
{
    expDir_ = outDir_ / info.id;
    doc_ = JsonValue::object();
    doc_.add("experiment", JsonValue::string(info.id));
    doc_.add("title", JsonValue::string(info.title));
    doc_.add("paper_ref", JsonValue::string(info.paperRef));
    doc_.add("category", JsonValue::string(info.category));
    datasets_ = JsonValue::array();
    notes_ = JsonValue::array();
}

void
JsonSink::resolvedConfig(const std::vector<ConfigValue> &config)
{
    // The fully resolved config (defaults < overlay): the values this
    // run actually used, so the artifact reproduces with `rowpress
    // run <experiment>` plus the non-default keys.
    JsonValue resolved = JsonValue::object();
    for (const ConfigValue &kv : config) {
        JsonValue entry = JsonValue::object();
        entry.add("value", jsonCell(kv.value));
        entry.add("origin", JsonValue::string(kv.origin));
        resolved.add(kv.key, std::move(entry));
    }
    doc_.add("config", std::move(resolved));
}

void
JsonSink::dataset(const Dataset &d)
{
    JsonValue columns = JsonValue::array();
    for (const std::string &column : d.columns)
        columns.push(JsonValue::string(column));
    JsonValue rows = JsonValue::array();
    for (const auto &row : d.rows) {
        JsonValue cells = JsonValue::array();
        for (const std::string &cell : row)
            cells.push(jsonCell(cell));
        rows.push(std::move(cells));
    }
    JsonValue entry = JsonValue::object();
    entry.add("name", JsonValue::string(d.name));
    entry.add("columns", std::move(columns));
    entry.add("rows", std::move(rows));
    datasets_.push(std::move(entry));
}

void
JsonSink::note(const std::string &text)
{
    notes_.push(JsonValue::string(text));
}

void
JsonSink::endExperiment()
{
    std::filesystem::create_directories(expDir_);
    const auto path = expDir_ / "result.json";
    std::ofstream os(path);
    if (!os)
        throw ConfigError("cannot write " + path.string());
    doc_.add("datasets", std::move(datasets_));
    doc_.add("notes", std::move(notes_));
    writeJson(os, doc_, 2);
    os << "\n";
    // The artifact is on disk; keeping the collected results alive
    // for the sink's remaining lifetime would only hold memory (a
    // long-lived service finishes many experiments per process).
    doc_ = JsonValue();
}

// ---- event dispatch --------------------------------------------------

void
applyJobEvent(ResultSink &sink, const JobEvent &event)
{
    switch (event.type) {
    case JobEventType::Queued:
    case JobEventType::Progress:
        break;
    case JobEventType::Started:
        sink.beginExperiment(event.info);
        sink.resolvedConfig(event.config);
        break;
    case JobEventType::Dataset:
        if (event.dataset)
            sink.dataset(*event.dataset);
        break;
    case JobEventType::Note:
        sink.note(event.text);
        break;
    case JobEventType::RawCsv:
        // Streams the lazy writer straight through: only sinks that
        // persist CSV ever render the body.
        sink.rawCsv(event.name, event.bodyWriter);
        break;
    case JobEventType::Finished:
        if (event.state == JobState::Finished)
            sink.endExperiment();
        break;
    }
}

// ---- factory ---------------------------------------------------------

std::unique_ptr<ResultSink>
makeSink(const std::string &format,
         const std::filesystem::path &out_dir, std::ostream &os)
{
    if (format == "table")
        return std::make_unique<TableSink>(os);
    if (format == "csv")
        return std::make_unique<CsvSink>(out_dir);
    if (format == "json")
        return std::make_unique<JsonSink>(out_dir);
    throw ConfigError("unknown --format '" + format +
                      "' (expected table, csv, or json)");
}

} // namespace rp::api
