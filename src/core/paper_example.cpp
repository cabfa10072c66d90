#include "core/paper_example.hpp"

#include "util/rng.hpp"

namespace xh {
namespace {

/// X locations, 0-indexed patterns (paper pattern Pk → index k-1).
struct CellXs {
  std::size_t cell;
  std::initializer_list<std::size_t> patterns;
};

const CellXs kFigure4[] = {
    {PaperExampleCells::sc1_c0, {0, 3, 4, 5}},           // P1 P4 P5 P6
    {PaperExampleCells::sc2_c0, {0, 3, 4, 5}},
    {PaperExampleCells::sc2_c2, {0, 3}},                 // P1 P4
    {PaperExampleCells::sc3_c0, {0, 3, 4, 5}},
    {PaperExampleCells::sc4_c2, {0, 1, 2, 3, 4, 6, 7}},  // all but P6
    {PaperExampleCells::sc5_c1, {0, 1, 3, 4, 6, 7}},     // all but P3, P6
    {PaperExampleCells::sc5_c2, {5}},                    // P6
};

}  // namespace

ScanGeometry paper_example_geometry() { return {5, 3}; }

XMatrix paper_example_x_matrix() {
  XMatrix::Builder xm(paper_example_geometry(), 8);
  for (const auto& entry : kFigure4) {
    for (const std::size_t p : entry.patterns) xm.add_x(entry.cell, p);
  }
  return xm.freeze();
}

ResponseMatrix paper_example_response(std::uint64_t seed) {
  const XMatrix xm = paper_example_x_matrix();
  ResponseMatrix response(paper_example_geometry(), 8);
  Rng rng(seed);
  for (std::size_t p = 0; p < 8; ++p) {
    for (std::size_t c = 0; c < response.num_cells(); ++c) {
      response.set(p, c,
                   xm.is_x(c, p) ? Lv::kX
                                 : (rng.chance(0.5) ? Lv::k1 : Lv::k0));
    }
  }
  return response;
}

}  // namespace xh
