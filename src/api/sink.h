/**
 * @file
 * ResultSink: pluggable output backends for experiment results.
 *
 * An ExperimentContext forwards every emitted Dataset / note / raw
 * tidy-CSV artifact to each attached sink:
 *
 *  - TableSink renders datasets as aligned ASCII tables on a stream
 *    (the classic bench-binary output);
 *  - CsvSink writes one tidy CSV file per dataset plus the raw
 *    characterization exports (chr/export writers) under
 *    `<out>/<experiment>/`;
 *  - JsonSink collects the whole experiment into a single
 *    `<out>/<experiment>/result.json`.
 *
 * Artifact files contain no timestamps or timing, so sink output is a
 * pure function of the experiment results — byte-identical across
 * thread counts and reruns.
 */

#ifndef ROWPRESS_API_SINK_H
#define ROWPRESS_API_SINK_H

#include <filesystem>
#include <functional>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "api/dataset.h"
#include "api/job.h"
#include "api/json.h"
#include "api/registry.h"

namespace rp::api {

/**
 * Output backend interface; methods arrive in emission order.
 *
 * Since the Service redesign, sinks are consumers of the typed
 * JobEvent stream: the Service translates a job's events onto these
 * virtuals through applyJobEvent(), which is the only call path in
 * `rowpress run` and `rowpress serve` alike.  The virtuals survive as
 * the rendering interface (and for tests that drive a sink directly).
 */
class ResultSink
{
  public:
    virtual ~ResultSink() = default;

    /** Format name ("table", "csv", "json"). */
    virtual std::string formatName() const = 0;

    virtual void beginExperiment(const ExperimentInfo &info);
    /**
     * The job's fully resolved Config (defaults < overlay),
     * delivered right after beginExperiment.  JsonSink embeds it in
     * result.json so every artifact is reproducible from its own
     * metadata; default: ignored.
     */
    virtual void resolvedConfig(const std::vector<ConfigValue> &config);
    virtual void dataset(const Dataset &d) = 0;
    /** Free-form commentary (paper-shape notes); default: ignored. */
    virtual void note(const std::string &text);
    /**
     * Raw tidy-CSV artifact: @p writer streams the file body (one of
     * the chr/export writers).  Default: ignored; CsvSink writes
     * `<out>/<experiment>/<name>.csv`.
     */
    virtual void rawCsv(const std::string &name,
                        const std::function<void(std::ostream &)> &writer);
    virtual void endExperiment();
};

/** ASCII renderer on an ostream (stdout in the CLI). */
class TableSink : public ResultSink
{
  public:
    explicit TableSink(std::ostream &os) : os_(os) {}

    std::string formatName() const override { return "table"; }
    void beginExperiment(const ExperimentInfo &info) override;
    void dataset(const Dataset &d) override;
    void note(const std::string &text) override;

  private:
    std::ostream &os_;
};

/** Tidy-CSV writer: one file per dataset / raw artifact. */
class CsvSink : public ResultSink
{
  public:
    explicit CsvSink(std::filesystem::path out_dir)
        : outDir_(std::move(out_dir)) {}

    std::string formatName() const override { return "csv"; }
    void beginExperiment(const ExperimentInfo &info) override;
    void dataset(const Dataset &d) override;
    void rawCsv(const std::string &name,
                const std::function<void(std::ostream &)> &writer)
        override;

  private:
    std::filesystem::path filePath(const std::string &stem);

    std::filesystem::path outDir_;
    std::filesystem::path expDir_;
    std::set<std::string> usedStems_;
};

/**
 * JSON collector: one result.json per experiment, built as one
 * JsonValue document and written by writeJson (indent 2).  A cell or
 * config value is a JSON number when looksNumeric() holds and a
 * string otherwise.
 */
class JsonSink : public ResultSink
{
  public:
    explicit JsonSink(std::filesystem::path out_dir)
        : outDir_(std::move(out_dir)) {}

    std::string formatName() const override { return "json"; }
    void beginExperiment(const ExperimentInfo &info) override;
    void resolvedConfig(const std::vector<ConfigValue> &config) override;
    void dataset(const Dataset &d) override;
    void note(const std::string &text) override;
    void endExperiment() override;

  private:
    std::filesystem::path outDir_;
    std::filesystem::path expDir_;
    /** Header members, then "config" once resolvedConfig() ran. */
    JsonValue doc_;
    JsonValue datasets_;
    JsonValue notes_;
};

/**
 * Translate one JobEvent onto a ResultSink: Started maps to
 * beginExperiment + resolvedConfig, Dataset/Note/RawCsv to their
 * virtuals, and a successful Finished to endExperiment (a
 * failed or cancelled job never finalizes its sinks, matching the
 * pre-service CLI behavior of leaving no result.json on failure).
 * Queued and Progress events render nothing.
 */
void applyJobEvent(ResultSink &sink, const JobEvent &event);

/**
 * Build the sink for @p format ("table" | "csv" | "json"); file sinks
 * write under @p out_dir, "table" renders to @p os.  Throws
 * ConfigError on an unknown format name.
 */
std::unique_ptr<ResultSink> makeSink(const std::string &format,
                                     const std::filesystem::path &out_dir,
                                     std::ostream &os);

} // namespace rp::api

#endif // ROWPRESS_API_SINK_H
