// Lowers an LNF decomposition into a CompiledQuery (see program.h): the
// Test branch program, the flattened Next descent program, the fused
// candidate-check pool, and the peephole passes over both.

#ifndef NWD_COMPILE_COMPILER_H_
#define NWD_COMPILE_COMPILER_H_

#include <memory>
#include <vector>

#include "compile/program.h"
#include "enumerate/lnf.h"
#include "graph/colored_graph.h"

namespace nwd {
namespace compile {

// Per-case inputs the lowering borrows from the engine's prepared
// structures (both must outlive the program): the candidate-list id per
// fresh position (-1 elsewhere) and the materialized extendable first
// coordinates. Only the list ids are read at lowering time; the
// extendable vector is borrowed by address and may still be empty.
struct CaseInputs {
  const std::vector<int>* list_index = nullptr;
  const std::vector<Vertex>* extendable0 = nullptr;
};

// Compiles the decomposition. `inputs` is parallel to lnf.cases. Requires
// lnf.supported and lnf.arity >= 2 (the engine's LNF-mode preconditions)
// and non-negative distance bounds, which fo::DistLeq guarantees by
// folding a negative bound to False. Never returns null.
std::unique_ptr<CompiledQuery> Compile(const Lnf& lnf, const ColoredGraph& g,
                                       const std::vector<CaseInputs>& inputs);

}  // namespace compile
}  // namespace nwd

#endif  // NWD_COMPILE_COMPILER_H_
