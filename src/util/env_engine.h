/**
 * @file
 * Process-wide engine defaults read from environment variables.
 *
 * Each layer that keeps a reference engine (ray casting, graph search,
 * nearest-neighbor search, batched environments) lets one environment
 * variable flip its default, so the full test suite can run against
 * the reference engine (the scripts/check.sh legs). All four share
 * this one reader: an unset or empty variable keeps the production
 * default, and any value the layer's parser rejects is a configuration
 * error that prints the accepted names and exits with status 2 (not
 * fatal()'s 1). A silently ignored typo would run the production
 * engine while the run claims to test the reference.
 */

#ifndef RTR_UTIL_ENV_ENGINE_H
#define RTR_UTIL_ENV_ENGINE_H

#include <cstdlib>
#include <iostream>
#include <string_view>

namespace rtr {

/**
 * The engine named by environment variable @p var, or @p fallback when
 * it is unset or empty. @p parse is the layer's name parser and
 * @p accepted lists its names for the error message. Callers cache the
 * result in a function-local static, so the variable is read once.
 */
template <typename Engine>
Engine
engineFromEnv(const char *var, Engine fallback,
              bool (*parse)(std::string_view, Engine &), const char *accepted)
{
    const char *env = std::getenv(var);
    if (env == nullptr || *env == '\0')
        return fallback;
    Engine parsed = fallback;
    if (!parse(env, parsed)) {
        std::cerr << var << "=" << env << " is not an engine (expected "
                  << accepted << ")\n";
        std::exit(2);
    }
    return parsed;
}

} // namespace rtr

#endif // RTR_UTIL_ENV_ENGINE_H
