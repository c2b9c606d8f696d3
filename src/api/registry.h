/**
 * @file
 * ExperimentRegistry: experiments addressable by name.
 *
 * Every paper figure/table registers itself via REGISTER_EXPERIMENT
 * with an id ("fig06", "table3", ...), a title, the paper reference,
 * a category, optionally extra Config options, and its emit function.
 * The `rowpress` CLI enumerates the registry (`rowpress list`) and
 * executes members by id or glob (`rowpress run fig06`, `rowpress run
 * 'fig4*'`, `rowpress run --all`); registration is static, so linking
 * an experiment translation unit into a binary is all it takes to
 * make it addressable.
 */

#ifndef ROWPRESS_API_REGISTRY_H
#define ROWPRESS_API_REGISTRY_H

#include <functional>
#include <string>
#include <vector>

namespace rp::api {

class ConfigSchema;
class ExperimentContext;

/** Identity of a registered experiment. */
struct ExperimentInfo
{
    std::string id;        ///< Addressable name ("fig06", "table3").
    std::string title;     ///< Banner title.
    std::string paperRef;  ///< Paper figure/table reference.
    std::string category;  ///< characterization | system | simulator | ablation.
};

/** A registered experiment. */
struct Experiment
{
    ExperimentInfo info;
    /** Extend the base ConfigSchema with experiment options (may be null). */
    std::function<void(ConfigSchema &)> declareOptions;
    /** Produce the figure/table through the context's sinks. */
    std::function<void(ExperimentContext &)> run;
};

/** '*' / '?' glob match over experiment ids. */
bool globMatch(const std::string &pattern, const std::string &text);

/** Process-wide experiment table. */
class ExperimentRegistry
{
  public:
    static ExperimentRegistry &instance();

    /** Register; throws std::logic_error on a duplicate id. */
    void add(Experiment exp);

    /** nullptr when @p id is not registered. */
    const Experiment *find(const std::string &id) const;

    /**
     * Experiments whose id matches any of @p patterns (exact names or
     * globs), in id order, each once.
     */
    std::vector<const Experiment *>
    match(const std::vector<std::string> &patterns) const;

  private:
    std::vector<Experiment> experiments_;
};

/** Static-registration helper behind REGISTER_EXPERIMENT. */
struct ExperimentRegistrar
{
    ExperimentRegistrar(ExperimentInfo info,
                        std::function<void(ConfigSchema &)> options,
                        std::function<void(ExperimentContext &)> run);
};

/**
 * Register an experiment under the id @p id (also used as the C++
 * identifier of the registrar, so it must be a bare word).
 */
#define REGISTER_EXPERIMENT(id, title, paper_ref, category, run_fn)    \
    static const ::rp::api::ExperimentRegistrar                        \
        rp_api_registrar_##id({#id, title, paper_ref, category},       \
                              nullptr, run_fn)

/** REGISTER_EXPERIMENT with an extra-options declaration hook. */
#define REGISTER_EXPERIMENT_OPTS(id, title, paper_ref, category,       \
                                 options_fn, run_fn)                   \
    static const ::rp::api::ExperimentRegistrar                        \
        rp_api_registrar_##id({#id, title, paper_ref, category},       \
                              options_fn, run_fn)

} // namespace rp::api

#endif // ROWPRESS_API_REGISTRY_H
