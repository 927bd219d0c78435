/**
 * @file
 * The two JSON writing helpers every exporter shares: the batch and
 * bench ==JSON== documents, the sweep manifest and the telemetry files.
 */

#ifndef SL_COMMON_JSON_HH
#define SL_COMMON_JSON_HH

#include <string>

namespace sl
{

/** JSON-escape the contents of @p s (no surrounding quotes). */
std::string jsonEscape(const std::string& s);

/** Round-trippable double literal (max_digits10 precision). */
std::string jsonNumber(double v);

} // namespace sl

#endif // SL_COMMON_JSON_HH
