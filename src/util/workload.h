// Synthetic workload generators shared by tests, examples and benchmarks.
//
// Each generator drives one experiment axis from DESIGN.md: product-catalog
// documents (the paper's running example and Table 2 queries), recursive
// documents with a controllable recursion degree r (the QuickXScan state
// bound), random trees for differential property tests, and employee rows
// for constructor benchmarks.
#ifndef XDB_UTIL_WORKLOAD_H_
#define XDB_UTIL_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"

namespace xdb {
namespace workload {

struct CatalogOptions {
  uint32_t categories = 2;
  uint32_t products_per_category = 10;
  /// Fraction (0..1) of products with a Discount element.
  double discount_fraction = 0.3;
  /// Price range [min, max] for RegPrice.
  double min_price = 1.0;
  double max_price = 500.0;
  /// Extra Description padding per product (bytes of filler text).
  uint32_t description_bytes = 40;
};

/// One /Catalog/Categories/Product[...] document.
std::string GenCatalogXml(Random* rng, const CatalogOptions& options);

/// Recursive document: `nesting` levels of <a> nested within <a>, each level
/// carrying `siblings_per_level` additional <a> leaf children and a text
/// payload. The recursion degree r of Section 4.2 equals `nesting`.
std::string GenRecursiveXml(uint32_t nesting, uint32_t siblings_per_level,
                            const std::string& name = "a");

/// A "wide" document: one root with `leaves` flat <item>text</item> children
/// of ~leaf_bytes each; scales document size without recursion.
std::string GenWideXml(uint32_t leaves, uint32_t leaf_bytes);

/// Knobs for GenRandomXml. Element names come from a..(a+element_names-1),
/// attribute names from v..(v+attribute_names-1) — the same tiny alphabets
/// GenRandomXPath draws from, so random queries hit random documents.
struct RandomXmlOptions {
  uint32_t max_nodes = 40;
  int max_depth = 12;
  uint32_t element_names = 5;    // a..e
  uint32_t attribute_names = 3;  // v..x
  uint32_t max_attrs_per_element = 2;
  /// The generator guards against emitting two attributes with the same name
  /// on one element (invalid XML the parser rejects, which would make
  /// round-trip tests spuriously fail — or pass for the wrong reason).
  /// Setting this lets duplicates through, for parser-rejection tests only.
  bool allow_duplicate_attrs = false;
  /// Deep-document mode: when spine_depth_max > 0, the random tree is
  /// wrapped in a nested spine of spine_depth_min..spine_depth_max single
  /// elements whose names repeat from the same a.. alphabet. Descendant
  /// axes then cross dozens of levels of recurring names — the regime where
  /// the structural index's node-ID prefix ancestry has to agree with the
  /// streaming evaluators on every reflexive // match.
  uint32_t spine_depth_min = 0;
  uint32_t spine_depth_max = 0;
};

/// Random tree for differential testing: up to `max_nodes` nodes with
/// random attributes/text/nesting.
std::string GenRandomXml(Random* rng, const RandomXmlOptions& options);

/// Back-compat shorthand: default options with `max_nodes` nodes.
std::string GenRandomXml(Random* rng, uint32_t max_nodes);

/// Knobs for GenRandomXPath. Probabilities are per decision point.
struct XPathOptions {
  uint32_t max_steps = 4;        // steps on the main path (>= 1)
  uint32_t max_predicates = 2;   // total predicates across all steps
  uint32_t max_branch_steps = 2; // steps inside a predicate's relative path
  uint32_t element_names = 5;    // name-test alphabet a..e
  uint32_t attribute_names = 3;  // attribute alphabet v..x
  bool allow_predicates = true;
  double descendant_prob = 0.4;  // '//' instead of '/' before a step
  double wildcard_prob = 0.15;   // '*' instead of a name test
  double attribute_prob = 0.2;   // final step becomes '@name'
  double text_prob = 0.1;        // final step becomes 'text()'
};

/// Seeded random XPath over the GenRandomXml alphabets: child / descendant /
/// attribute / wildcard / text() steps plus exists, not() and value
/// comparison predicates. Always parses with xpath::ParsePath.
std::string GenRandomXPath(Random* rng, const XPathOptions& options = {});

struct EmployeeRow {
  std::string id, fname, lname, hire, dept;
};
std::vector<EmployeeRow> GenEmployees(Random* rng, uint32_t count);

/// Schema text matching GenCatalogXml documents.
const char* CatalogSchemaText();

}  // namespace workload
}  // namespace xdb

#endif  // XDB_UTIL_WORKLOAD_H_
