/**
 * @file
 * Public facade of the RowPress library.
 *
 * Pulls together the five subsystems and offers the high-level entry
 * points a downstream user needs:
 *
 *  - device models of the 12 characterized DDR4 die revisions;
 *  - the DRAM-Bender-style test platform and characterization suite
 *    (ACmin / tAggONmin searches, BER, overlap, ECC analyses);
 *  - the real-system attack demonstration;
 *  - the performance simulator with Graphene / PARA and their
 *    RowPress-adapted variants;
 *  - `characterizeProfile` + `mitigation::adaptThreshold`, the
 *    paper's section 7.4 methodology, going from a device to a
 *    deployable (T'_RH, t_mro) mitigation configuration.
 */

#ifndef ROWPRESS_CORE_ROWPRESS_H
#define ROWPRESS_CORE_ROWPRESS_H

#include "chr/acmin.h"
#include "chr/ecc.h"
#include "chr/experiments.h"
#include "chr/overlap.h"
#include "chr/patterns.h"
#include "core/engine.h"
#include "device/chip.h"
#include "device/die_config.h"
#include "mitigation/adapter.h"
#include "mitigation/graphene.h"
#include "mitigation/para.h"
#include "sim/system.h"
#include "sys/demo.h"
#include "workloads/presets.h"

namespace rp {

/** Options for measuring a device's disturbance profile. */
struct ProfileOptions
{
    int numLocations = 16;            ///< Tested row locations.
    std::vector<double> temperatures = {50.0, 80.0};
    std::vector<chr::AccessKind> kinds = {
        chr::AccessKind::SingleSided, chr::AccessKind::DoubleSided};
    std::vector<Time> tMros = {
        36 * units::NS, 66 * units::NS, 96 * units::NS,
        186 * units::NS, 336 * units::NS, 636 * units::NS};
    std::uint64_t seed = 1;
};

/**
 * Measure the worst-case ACmin-reduction profile of a die
 * (section 7.4: worst case across temperatures and access patterns),
 * suitable for mitigation::adaptThreshold.
 *
 * The (tMro x temperature x AccessKind) grid fans out through
 * @p engine as one flat task set; every task measures its cell of the
 * grid on a private Module, so the profile is bit-identical for any
 * thread count.
 */
mitigation::DisturbProfile
characterizeProfile(const device::DieConfig &die,
                    core::ExperimentEngine &engine,
                    const ProfileOptions &opts = {});

/** Same, on a local engine with default options. */
mitigation::DisturbProfile
characterizeProfile(const device::DieConfig &die,
                    const ProfileOptions &opts = {});

/** Library version string. */
const char *version();

} // namespace rp

#endif // ROWPRESS_CORE_ROWPRESS_H
