#include "gatelevel/sta.h"

#include "common/error.h"

namespace mivtx::gatelevel {

const CellTiming& TimingModel::timing(cells::Implementation impl,
                                      cells::CellType type) const {
  const auto impl_it = cells.find(impl);
  MIVTX_EXPECT(impl_it != cells.end(), "timing model missing implementation");
  const auto it = impl_it->second.find(type);
  MIVTX_EXPECT(it != impl_it->second.end(),
               std::string("timing model missing cell ") +
                   cells::cell_name(type));
  return it->second;
}

double TimingModel::slope(cells::Implementation impl) const {
  const auto it = load_slope.find(impl);
  MIVTX_EXPECT(it != load_slope.end(), "timing model missing load slope");
  return it->second;
}

double StaLoadOptions::load_for_output(const std::string& net,
                                       double c_ref) const {
  const auto it = output_load.find(net);
  if (it != output_load.end()) return it->second;
  return default_output_load < 0.0 ? c_ref : default_output_load;
}

}  // namespace mivtx::gatelevel
