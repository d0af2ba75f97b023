// Box cell construction for 2D DBSCAN — Section 4.2 of the paper.
//
// Points are sorted by x and grouped into vertical strips of width at most
// epsilon/sqrt(2): a new strip starts at the first point more than
// epsilon/sqrt(2) to the right of the current strip's start. The same
// procedure applied to y within each strip produces the box cells. Strip
// starts are found with the paper's parallel pointer-jumping construction
// (Figure 2): each point links to the first point more than epsilon/sqrt(2)
// to its right, the leftmost point is seeded with a 1-flag, and flag
// propagation marks exactly the strip starts.
//
// Neighbor cells are collected from strips s-2..s+2 (the only strips that
// can hold points within epsilon, because consecutive strip starts are more
// than epsilon/sqrt(2) apart), comparing tight cell bounding boxes.
#ifndef PDBSCAN_DBSCAN_BOX_CELLS_H_
#define PDBSCAN_DBSCAN_BOX_CELLS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "dbscan/cell_structure.h"
#include "geometry/point.h"

namespace pdbscan::dbscan {

// Point ids sorted by (x, y, id) — the epsilon-independent part of the box
// construction (the strip grouping itself depends on epsilon). A CellLayout
// caches this order across epsilon changes.
std::vector<uint32_t> BoxSortByX(std::span<const geometry::Point<2>> input);

// Builds the box cell structure for 2D points with parameter `epsilon`.
CellStructure<2> BuildBoxCells(std::span<const geometry::Point<2>> input,
                               double epsilon);

// Same, reusing a precomputed BoxSortByX(input) order instead of sorting.
CellStructure<2> BuildBoxCells(std::span<const geometry::Point<2>> input,
                               double epsilon,
                               std::span<const uint32_t> x_order);

}  // namespace pdbscan::dbscan

#endif  // PDBSCAN_DBSCAN_BOX_CELLS_H_
