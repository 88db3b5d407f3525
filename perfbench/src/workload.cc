#include "workload.h"

#include "common/check.h"
#include "decorators.h"
#include "memory/cc_model.h"
#include "memory/dsm_model.h"

namespace perfbench {

std::unique_ptr<rmrsim::CostModel> make_cost_model(const std::string& model) {
  if (model == "dsm") return std::make_unique<rmrsim::DsmModel>();
  if (model == "cc") {
    return std::make_unique<rmrsim::CcModel>(rmrsim::CcPolicy::kWriteThrough);
  }
  rmrsim::fail("perfbench: unknown model '" + model + "' (dsm|cc)");
}

std::unique_ptr<rmrsim::SharedMemory> make_memory(const std::string& model,
                                                  int nprocs, bool traced) {
  std::unique_ptr<rmrsim::CostModel> pricing = make_cost_model(model);
  if (traced) pricing = std::make_unique<TimedCostModel>(std::move(pricing));
  return std::make_unique<rmrsim::SharedMemory>(nprocs, std::move(pricing));
}

}  // namespace perfbench
