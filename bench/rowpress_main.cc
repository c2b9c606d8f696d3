/**
 * @file
 * Entry point of the `rowpress` multi-tool binary.
 *
 * Every figure/table experiment is linked in and registers itself
 * with rp::api::ExperimentRegistry; the CLI (`list` / `run` / `serve`
 * / `cache`) lives in src/api/cli.cc.
 */

#include "api/cli.h"

int
main(int argc, char **argv)
{
    return rp::api::cliMain(argc, argv);
}
