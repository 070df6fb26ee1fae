package harness

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"rnuma/internal/config"
	"rnuma/internal/tracefile"
)

// This file implements the sensitivity-sweep engine: one recorded trace
// transformed along a single parameter axis and replayed under all three
// designs at every point. The paper's core claim is robustness — R-NUMA
// stays within a small constant of the better base protocol across
// machine and workload parameters — so every axis re-checks that claim
// against a different knob: machine size (shape retarget), processor
// speed (gap dilation), coherence granularity (geometry retarget), page
// size (geometry retarget), and the relocation threshold (a config
// change, no transform needed).

// Axis identifies the parameter a sensitivity sweep varies.
type Axis int

const (
	// AxisNodes sweeps the node count: the capture is re-homed
	// round-robin onto each machine size (the original node-count sweep).
	AxisNodes Axis = iota
	// AxisDilate sweeps a compute-gap scale factor: factors below 1 model
	// faster processors (less compute between references), factors above
	// 1 slower ones.
	AxisDilate
	// AxisBlockSize sweeps the coherence block size via geometry
	// retargeting (values in bytes).
	AxisBlockSize
	// AxisPageSize sweeps the page size via geometry retargeting (values
	// in bytes).
	AxisPageSize
	// AxisThreshold sweeps R-NUMA's relocation threshold T; the trace is
	// replayed unchanged and only the R-NUMA configuration varies.
	AxisThreshold
)

// String names the axis the way the CLI spells it.
func (a Axis) String() string {
	switch a {
	case AxisNodes:
		return "nodes"
	case AxisDilate:
		return "dilate"
	case AxisBlockSize:
		return "block"
	case AxisPageSize:
		return "page"
	case AxisThreshold:
		return "threshold"
	}
	return fmt.Sprintf("Axis(%d)", int(a))
}

// ParseAxis resolves a CLI axis name.
func ParseAxis(name string) (Axis, error) {
	switch name {
	case "nodes":
		return AxisNodes, nil
	case "dilate":
		return AxisDilate, nil
	case "block":
		return AxisBlockSize, nil
	case "page":
		return AxisPageSize, nil
	case "threshold", "T":
		return AxisThreshold, nil
	default:
		return 0, fmt.Errorf("harness: unknown sweep axis %q (want nodes, dilate, block, page, or threshold)", name)
	}
}

// SweepValue is one point's parameter value. Every axis uses integers
// (Den == 1) except dilate, whose factors are rationals.
type SweepValue struct {
	Num, Den int64
}

// IntValue wraps an integer axis value.
func IntValue(n int) SweepValue { return SweepValue{Num: int64(n), Den: 1} }

// Float returns the value as a float for sorting and plotting.
func (v SweepValue) Float() float64 {
	if v.Den == 0 {
		return 0
	}
	return float64(v.Num) / float64(v.Den)
}

// String renders the value as the CLI accepts it ("4", "1/2").
func (v SweepValue) String() string {
	if v.Den == 1 {
		return strconv.FormatInt(v.Num, 10)
	}
	return fmt.Sprintf("%d/%d", v.Num, v.Den)
}

// reduced normalizes the fraction (2/4 and 1/2 are the same point).
func (v SweepValue) reduced() SweepValue {
	a, b := v.Num, v.Den
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return v
	}
	if a < 0 {
		a = -a
	}
	return SweepValue{Num: v.Num / a, Den: v.Den / a}
}

// ParseSweepValues parses a comma-separated value list for an axis:
// plain integers everywhere, N/D rationals on the dilate axis.
func ParseSweepValues(axis Axis, csv string) ([]SweepValue, error) {
	var out []SweepValue
	for _, s := range strings.Split(csv, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		if axis == AxisDilate {
			num, den, err := tracefile.ParseRatio(s)
			if err != nil {
				return nil, err
			}
			// ParseRatio only checks the syntax; reject non-positive
			// factors here so the bad token is named at parse time rather
			// than failing deep inside the dilate transform.
			if num <= 0 || den <= 0 {
				return nil, fmt.Errorf("harness: bad %s sweep value %q (factor must be positive)", axis, s)
			}
			out = append(out, SweepValue{Num: num, Den: den})
			continue
		}
		n, err := strconv.Atoi(s)
		if err != nil {
			return nil, fmt.Errorf("harness: bad %s sweep value %q (want an integer)", axis, s)
		}
		out = append(out, IntValue(n))
	}
	return out, nil
}

// AxisPoint is one configuration of a sensitivity sweep: the three base
// protocols' execution times normalized to the ideal machine (infinite
// block cache) of the same shape, geometry, and trace variant.
type AxisPoint struct {
	Axis  Axis
	Value SweepValue
	// Label names the point the way the report prints it ("8n x 4cpu",
	// "x1/2", "b=64B", "T=256").
	Label string
	// Nodes and CPUsPerNode are the simulated machine shape at this point.
	Nodes       int
	CPUsPerNode int
	// Normalized execution times.
	CCNUMA, SCOMA, RNUMA float64
}

// RNUMAOverBest reports R-NUMA's time relative to the better base
// protocol at this point (the paper's bounded-worst-case ratio).
func (p AxisPoint) RNUMAOverBest() float64 {
	return GridCell{CCNUMA: p.CCNUMA, SCOMA: p.SCOMA, RNUMA: p.RNUMA}.RNUMAOverBest()
}

// humanBytes renders a byte size compactly for point labels.
func humanBytes(n int) string {
	if n >= 1<<20 && n%(1<<20) == 0 {
		return fmt.Sprintf("%dM", n>>20)
	}
	if n >= 1<<10 && n%(1<<10) == 0 {
		return fmt.Sprintf("%dK", n>>10)
	}
	return fmt.Sprintf("%dB", n)
}

// sweepSystem shapes a base configuration to one sweep point: the
// machine shape and geometry come from the (possibly transformed) trace
// header, and the label lands in the name for progress logs.
func sweepSystem(sys config.System, hdr tracefile.Header, label string) config.System {
	sys.Nodes = hdr.Nodes
	sys.CPUsPerNode = hdr.CPUs / hdr.Nodes
	sys.Geometry = hdr.Geometry
	sys.Name = fmt.Sprintf("%s %s", sys.Name, label)
	return sys
}

// sweepPoint is one resolved point of a sweep line: its value and axis
// label, the registered source it replays, and the four systems to
// replay it under (each shaped to the point's trace variant).
type sweepPoint struct {
	value                SweepValue
	label                string
	app                  string
	ideal, cc, scoma, rn config.System
}

// variantFor transforms the capture for one axis value and returns the
// variant's encoding and the point label. The threshold axis returns a
// nil encoding: the capture replays unchanged.
func variantFor(data []byte, hdr tracefile.Header, axis Axis, v SweepValue) (enc []byte, label string, err error) {
	switch axis {
	case AxisNodes:
		n := int(v.Num)
		if v.Den != 1 || n < 1 {
			return nil, "", fmt.Errorf("harness: node count %s must be a positive integer", v)
		}
		if hdr.CPUs%n != 0 {
			return nil, "", fmt.Errorf("harness: trace %s has %d CPUs, not divisible across %d nodes", hdr.Name, hdr.CPUs, n)
		}
		var buf bytes.Buffer
		_, err := tracefile.Retarget(&buf, bytes.NewReader(data), tracefile.RetargetSpec{
			Nodes:  n,
			Policy: tracefile.RoundRobin(),
			Name:   fmt.Sprintf("%s@%dn", hdr.Name, n),
		})
		return buf.Bytes(), fmt.Sprintf("%dn x %dcpu", n, hdr.CPUs/n), err
	case AxisDilate:
		var buf bytes.Buffer
		_, err := tracefile.Dilate(&buf, bytes.NewReader(data), tracefile.DilateSpec{
			Num: v.Num, Den: v.Den,
			Name: fmt.Sprintf("%s@x%s", hdr.Name, v),
		})
		return buf.Bytes(), "x" + v.String(), err
	case AxisBlockSize, AxisPageSize:
		n := int(v.Num)
		if v.Den != 1 || n < 1 {
			return nil, "", fmt.Errorf("harness: %s size %s must be a positive integer", axis, v)
		}
		spec := tracefile.GeometrySpec{Name: fmt.Sprintf("%s@%s%d", hdr.Name, axis, n)}
		label := "b=" + humanBytes(n)
		if axis == AxisPageSize {
			spec.PageBytes = n
			label = "p=" + humanBytes(n)
		} else {
			spec.BlockBytes = n
		}
		var buf bytes.Buffer
		_, err := tracefile.RetargetGeometry(&buf, bytes.NewReader(data), spec)
		return buf.Bytes(), label, err
	case AxisThreshold:
		T := int(v.Num)
		if v.Den != 1 || T < 1 {
			return nil, "", fmt.Errorf("harness: threshold %s must be a positive integer", v)
		}
		return nil, fmt.Sprintf("T=%d", T), nil
	}
	return nil, "", fmt.Errorf("harness: unknown sweep axis %v", axis)
}

// Sweep transforms the in-memory trace encoding along one axis and
// replays every point under CC-NUMA, S-COMA, and R-NUMA plus the
// same-configuration ideal baseline. Transformed sources register under
// "<name>@<point>", so repeated and overlapping sweeps share simulations
// through the memo cache. Points come back sorted by value; duplicate
// values collapse to one point.
func (h *Harness) Sweep(data []byte, axis Axis, values []SweepValue) ([]AxisPoint, string, error) {
	if len(values) == 0 {
		return nil, "", fmt.Errorf("harness: %s sweep over no values", axis)
	}
	// Only the header is needed here (name + shape for validation); each
	// variant source validates and hashes its own full decode.
	d, err := tracefile.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, "", fmt.Errorf("harness: %w", err)
	}
	hdr := d.Header()
	// A config-only axis replays the capture unchanged under an
	// axis-tagged name, so it cannot collide with a same-named catalog
	// generator or an untransformed -traces row.
	pts, err := h.line(data, hdr, axis, normalizeSweepValues(values), "", fmt.Sprintf("%s@%s", hdr.Name, axis))
	if err != nil {
		return nil, "", err
	}
	cells, err := h.assemble(pts)
	if err != nil {
		return nil, "", err
	}
	out := make([]AxisPoint, len(pts))
	for i, p := range pts {
		out[i] = cells[0][i].point(axis, p.value, p.label)
	}
	return out, hdr.Name, nil
}

// line resolves one sweep line: every value of axis applied to enc,
// whose header is hdr. Each transformed variant registers under its own
// "<name>@<point>" source, so overlapping sweeps and grids share
// simulations through the store. A threshold line replays enc
// unchanged, registered once under the name shared, and the
// trunk-and-fork engine (fork.go) pre-computes its R-NUMA points. Point
// systems are named "<system> <prefix><label>" for progress logs.
func (h *Harness) line(enc []byte, hdr tracefile.Header, axis Axis, vals []SweepValue, prefix, shared string) ([]sweepPoint, error) {
	pts := make([]sweepPoint, 0, len(vals))
	var sharedSrc Source
	for _, v := range vals {
		encV, label, err := variantFor(enc, hdr, axis, v)
		if err != nil {
			return nil, err
		}
		src, vh := sharedSrc, hdr
		if encV != nil {
			if src, err = TraceSource(encV); err != nil {
				return nil, err
			}
			vh = src.(*traceSource).Header()
		} else if src == nil {
			if src, err = TraceSource(enc); err != nil {
				return nil, err
			}
			src = RenamedSource(src, shared)
			sharedSrc = src
		}
		if err := h.Register(src); err != nil {
			return nil, err
		}
		name := prefix + label
		pt := sweepPoint{
			value: v, label: label, app: src.Name(),
			ideal: sweepSystem(config.Ideal(), vh, name),
			cc:    sweepSystem(config.Base(config.CCNUMA), vh, name),
			scoma: sweepSystem(config.Base(config.SCOMA), vh, name),
			rn:    sweepSystem(config.Base(config.RNUMA), vh, name),
		}
		if axis == AxisThreshold {
			pt.rn.Threshold = int(v.Num)
		}
		pts = append(pts, pt)
	}
	// Threshold points replay the identical trace and differ only in T, so
	// they share a prefix: run it once on a trunk machine and fork each
	// point from a snapshot instead of replaying it per point.
	if axis == AxisThreshold && len(pts) > 1 {
		if err := h.forkThresholdPoints(enc, pts); err != nil {
			return nil, err
		}
	}
	return pts, nil
}

// assemble runs every point of the given lines as one plan, then reads
// each point's normalized cell from the store: cells[l][i] is the cell
// of lines[l][i].
func (h *Harness) assemble(lines ...[]sweepPoint) ([][]GridCell, error) {
	plan := NewPlan()
	for _, line := range lines {
		for _, p := range line {
			plan.AddRuns([]string{p.app}, p.ideal, p.cc, p.scoma, p.rn)
		}
	}
	h.Prefetch(plan)
	cells := make([][]GridCell, len(lines))
	for l, line := range lines {
		cells[l] = make([]GridCell, len(line))
		for i, p := range line {
			runs, err := h.runsOf(p.app, []config.System{p.ideal, p.cc, p.scoma, p.rn})
			if err != nil {
				return nil, err
			}
			cells[l][i] = GridCell{
				Nodes: p.ideal.Nodes, CPUsPerNode: p.ideal.CPUsPerNode,
				CCNUMA: runs[1].Normalized(runs[0]),
				SCOMA:  runs[2].Normalized(runs[0]),
				RNUMA:  runs[3].Normalized(runs[0]),
			}
		}
	}
	return cells, nil
}

// renamedSource registers an existing source under a different
// application name (the content key is unchanged, so identical content
// still shares simulations).
type renamedSource struct {
	Source
	name string
}

func (r *renamedSource) Name() string { return r.name }

// RenamedSource wraps a source under a different application name. The
// content key is unchanged, so identical content still shares
// simulations through the store; the server uses it to disambiguate
// uploads whose embedded names collide.
func RenamedSource(src Source, name string) Source {
	return &renamedSource{Source: src, name: name}
}
