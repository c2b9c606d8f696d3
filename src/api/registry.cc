#include "api/registry.h"

#include <algorithm>
#include <stdexcept>

namespace rp::api {

bool
globMatch(const std::string &pattern, const std::string &text)
{
    // Iterative '*'/'?' matcher with backtracking to the last star.
    std::size_t p = 0, t = 0;
    std::size_t star = std::string::npos, mark = 0;
    while (t < text.size()) {
        if (p < pattern.size() &&
            (pattern[p] == '?' || pattern[p] == text[t])) {
            ++p;
            ++t;
        } else if (p < pattern.size() && pattern[p] == '*') {
            star = p++;
            mark = t;
        } else if (star != std::string::npos) {
            p = star + 1;
            t = ++mark;
        } else {
            return false;
        }
    }
    while (p < pattern.size() && pattern[p] == '*')
        ++p;
    return p == pattern.size();
}

ExperimentRegistry &
ExperimentRegistry::instance()
{
    static ExperimentRegistry registry;
    return registry;
}

void
ExperimentRegistry::add(Experiment exp)
{
    if (find(exp.info.id))
        throw std::logic_error("duplicate experiment id '" +
                               exp.info.id + "'");
    experiments_.push_back(std::move(exp));
}

const Experiment *
ExperimentRegistry::find(const std::string &id) const
{
    for (const auto &exp : experiments_)
        if (exp.info.id == id)
            return &exp;
    return nullptr;
}

std::vector<const Experiment *>
ExperimentRegistry::match(const std::vector<std::string> &patterns) const
{
    std::vector<const Experiment *> out;
    for (const auto &exp : experiments_)
        if (std::any_of(patterns.begin(), patterns.end(),
                        [&exp](const std::string &pattern) {
                            return globMatch(pattern, exp.info.id);
                        }))
            out.push_back(&exp);
    std::sort(out.begin(), out.end(),
              [](const Experiment *a, const Experiment *b) {
                  return a->info.id < b->info.id;
              });
    return out;
}

ExperimentRegistrar::ExperimentRegistrar(
    ExperimentInfo info, std::function<void(ConfigSchema &)> options,
    std::function<void(ExperimentContext &)> run)
{
    ExperimentRegistry::instance().add(
        {std::move(info), std::move(options), std::move(run)});
}

} // namespace rp::api
