package harness

import (
	"bytes"
	"fmt"
	"sort"

	"rnuma/internal/tracefile"
)

// This file generalizes the one-axis sweep engine (sweep.go) to
// two-axis grids: one recorded trace transformed along a pair of
// parameter axes and replayed under all three designs at every (x, y)
// cell. The paper's robustness claim is really a claim about parameter
// *pairs* — R-NUMA tracks the better base protocol as machine shape and
// workload knobs move together — and a grid answers where that tracking
// stops (FindKnee, knee.go) instead of eyeballing two separate curves.
//
// Composition is canonical: the X transform applies first, then the Y
// transform, so a cell's trace variant registers under the composed
// name "name@<x>@<y>". Each grid line runs through the same line
// resolver as Sweep (sweep.go), so a line at a fixed transform value is
// *by construction* the one-axis sweep of that variant — same
// transforms, same content keys, same memo slots. The threshold axis
// stays a config-only axis: cells along it share one registered variant
// source, differ only in sys.Threshold, and are pre-computed by the
// trunk-and-fork engine (fork.go), so a whole threshold line costs
// about one replay instead of one per cell.

// GridCell is one (x, y) configuration's result: the three base
// protocols' execution times normalized to the ideal machine of the
// same shape, geometry, and trace variant.
type GridCell struct {
	// Nodes and CPUsPerNode are the simulated machine shape at this cell.
	Nodes       int
	CPUsPerNode int
	// Normalized execution times.
	CCNUMA, SCOMA, RNUMA float64
}

// RNUMAOverBest reports R-NUMA's time relative to the better base
// protocol at this cell (the paper's bounded-worst-case ratio).
func (c GridCell) RNUMAOverBest() float64 {
	best := c.CCNUMA
	if c.SCOMA < best {
		best = c.SCOMA
	}
	if best == 0 {
		return 0
	}
	return c.RNUMA / best
}

// Grid is a two-axis sensitivity sweep's results. Values along each
// axis come back reduced, sorted, and deduplicated, exactly as Sweep
// returns its points; Cells[i][j] is the cell at (XValues[j],
// YValues[i]) — row index first, so a row shares a Y value and a
// column shares an X value.
type Grid struct {
	// Workload is the capture's embedded name.
	Workload string
	// AxisX applies first in the transform composition, AxisY second.
	AxisX, AxisY Axis
	// XValues/YValues are the swept values; XLabels/YLabels the
	// corresponding point labels ("b=32B", "T=64", ...).
	XValues, YValues []SweepValue
	XLabels, YLabels []string
	// Cells[i][j] is the cell at (XValues[j], YValues[i]).
	Cells [][]GridCell
}

// point places the cell on a sweep axis, the shape Sweep returns.
func (c GridCell) point(axis Axis, v SweepValue, label string) AxisPoint {
	return AxisPoint{
		Axis: axis, Value: v, Label: label,
		Nodes: c.Nodes, CPUsPerNode: c.CPUsPerNode,
		CCNUMA: c.CCNUMA, SCOMA: c.SCOMA, RNUMA: c.RNUMA,
	}
}

// Row returns row i (YValues[i] held fixed) as one-axis sweep points
// along the X axis — the same shape Sweep returns, so FindKnee and the
// Sensitivity renderer apply to grid lines unchanged.
func (g *Grid) Row(i int) []AxisPoint {
	out := make([]AxisPoint, len(g.XValues))
	for j, c := range g.Cells[i] {
		out[j] = c.point(g.AxisX, g.XValues[j], g.XLabels[j])
	}
	return out
}

// Col returns column j (XValues[j] held fixed) as one-axis sweep points
// along the Y axis.
func (g *Grid) Col(j int) []AxisPoint {
	out := make([]AxisPoint, len(g.YValues))
	for i, row := range g.Cells {
		out[i] = row[j].point(g.AxisY, g.YValues[i], g.YLabels[i])
	}
	return out
}

// SweepGrid transforms the in-memory trace encoding along two distinct
// axes and replays every (x, y) cell under CC-NUMA, S-COMA, and R-NUMA
// plus the same-configuration ideal baseline. The X transform applies
// before the Y transform, so each cell's variant registers under the
// composed "<name>@<x>@<y>" source and overlapping grids and one-axis
// sweeps share simulations through the memo store. When one axis is
// the threshold, its cells share the other axis's variant source and
// every threshold line is pre-computed by the trunk-and-fork engine.
func (h *Harness) SweepGrid(data []byte, axisX Axis, valuesX []SweepValue, axisY Axis, valuesY []SweepValue) (*Grid, error) {
	if axisX == axisY {
		return nil, fmt.Errorf("harness: grid axes must differ (both %s)", axisX)
	}
	if len(valuesX) == 0 || len(valuesY) == 0 {
		return nil, fmt.Errorf("harness: %s x %s grid over no values", axisX, axisY)
	}
	d, err := tracefile.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	hdr := d.Header()

	xs := normalizeSweepValues(valuesX)
	ys := normalizeSweepValues(valuesY)

	// The engine walks the transform axis on the outside (each outer
	// value encodes one variant trace) and runs the inner axis along it
	// as one sweep line. A threshold X axis has no transform of its own,
	// so the axes swap internally and the cells transpose back on
	// assembly.
	swap := axisX == AxisThreshold
	outerAxis, outerVals, innerAxis, innerVals := axisX, xs, axisY, ys
	if swap {
		outerAxis, outerVals, innerAxis, innerVals = axisY, ys, axisX, xs
	}
	lines := make([][]sweepPoint, len(outerVals))
	outerLabels := make([]string, len(outerVals))
	for oi, ov := range outerVals {
		encO, labelO, err := variantFor(data, hdr, outerAxis, ov)
		if err != nil {
			return nil, err
		}
		od, err := tracefile.NewReader(bytes.NewReader(encO))
		if err != nil {
			return nil, fmt.Errorf("harness: %s variant %s: %w", outerAxis, ov, err)
		}
		hdrO := od.Header()
		// A threshold line shares the outer variant under its own
		// transformed name (always "@"-suffixed, so it cannot shadow a
		// catalog app).
		if lines[oi], err = h.line(encO, hdrO, innerAxis, innerVals, labelO+", ", hdrO.Name); err != nil {
			return nil, err
		}
		outerLabels[oi] = labelO
	}
	cells, err := h.assemble(lines...)
	if err != nil {
		return nil, err
	}
	innerLabels := make([]string, len(innerVals))
	for ii, p := range lines[0] {
		innerLabels[ii] = p.label
	}

	// cells[oi][ii] is already row-major when the outer axis is Y.
	g := &Grid{
		Workload: hdr.Name,
		AxisX:    axisX, AxisY: axisY,
		XValues: xs, YValues: ys,
		XLabels: innerLabels, YLabels: outerLabels,
		Cells: cells,
	}
	if !swap {
		g.XLabels, g.YLabels = outerLabels, innerLabels
		g.Cells = make([][]GridCell, len(ys))
		for i := range g.Cells {
			g.Cells[i] = make([]GridCell, len(xs))
			for j := range g.Cells[i] {
				g.Cells[i][j] = cells[j][i]
			}
		}
	}
	return g, nil
}

// normalizeSweepValues reduces, sorts, and deduplicates axis values
// (2/4 and 1/2 are one point), shared by Sweep and SweepGrid.
func normalizeSweepValues(values []SweepValue) []SweepValue {
	vals := make([]SweepValue, 0, len(values))
	for _, v := range values {
		vals = append(vals, v.reduced())
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i].Float() < vals[j].Float() })
	out := vals[:0]
	for i, v := range vals {
		if i == 0 || vals[i-1] != v {
			out = append(out, v)
		}
	}
	return out
}
