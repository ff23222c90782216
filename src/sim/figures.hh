/**
 * @file
 * Built-in figure renderers of the scenario subsystem.
 *
 * Each renders one of the paper's evaluation tables from a finished
 * scenario run, byte-identical to the historical hand-written bench
 * binaries. The renderers locate their data points by config label
 * (figureConfigLabels); parseScenario rejects a spec missing one, so
 * the check comes before any job runs. Everything else about the
 * figure — which workloads, which geometry values, which run limits —
 * comes from the spec, so the committed JSON remains the single source
 * of truth for the experiment.
 */

#ifndef RIX_SIM_FIGURES_HH
#define RIX_SIM_FIGURES_HH

#include <cstdio>
#include <string>
#include <vector>

#include "sim/scenario.hh"

namespace rix
{

/** The config labels render @p render reads (empty for jsonl/csv). */
std::vector<std::string> figureConfigLabels(const std::string &render);

void renderFig4(const ScenarioSpec &spec, const ScenarioResults &res,
                FILE *out);
void renderFig5(const ScenarioSpec &spec, const ScenarioResults &res,
                FILE *out);
void renderFig6(const ScenarioSpec &spec, const ScenarioResults &res,
                FILE *out);
void renderFig7(const ScenarioSpec &spec, const ScenarioResults &res,
                FILE *out);

} // namespace rix

#endif // RIX_SIM_FIGURES_HH
