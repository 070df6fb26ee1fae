package harness

import (
	"fmt"
	"io"

	"rnuma/internal/config"
	"rnuma/internal/machine"
	"rnuma/internal/stats"
	"rnuma/internal/telemetry"
	"rnuma/internal/tracefile"
	"rnuma/internal/workloads"
)

// This file is the one-shot execution surface: replaying a recorded
// trace or running a built workload exactly once, outside the memoizing
// store (callers that replay each input once have nothing to memoize).
// One variadic-option family — WithTelemetry, WithThresholds,
// WithMachineOptions — replaced the old ReplayTrace /
// ReplayTraceFile / ThresholdForkRuns / ThresholdForkRunsProbe
// entry points and their probe/no-probe duplicate signatures.

// RunOption configures a one-shot Replay/RunWorkload execution.
type RunOption func(*runOptions)

type runOptions struct {
	tcfg       telemetry.Config
	thresholds []int
	mopts      []machine.Option
}

func buildRunOptions(opts []RunOption) runOptions {
	var o runOptions
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// machineOptions resolves the machine options a run implies: the
// caller's raw options after the probe (matching the old entry points,
// which appended explicit options last).
func (o runOptions) machineOptions() []machine.Option {
	var out []machine.Option
	if o.tcfg.Enabled() {
		out = append(out, machine.WithTelemetry(o.tcfg))
	}
	return append(out, o.mopts...)
}

// WithTelemetry attaches a sampling probe to the run: the resulting
// Run(s) carry a telemetry.Timeline alongside their counters. A probe
// never changes a run's counters.
func WithTelemetry(cfg telemetry.Config) RunOption {
	return func(o *runOptions) { o.tcfg = cfg }
}

// WithThresholds replays the trace at every listed relocation
// threshold through the trunk-and-fork engine (fork.go): the shared
// prefix is paid once, and Result.ByThreshold maps each threshold to a
// run bit-identical to an independent full replay at that threshold.
// Only Replay accepts it (a workload is a consume-once
// stream; the fork engine needs a seekable encoding).
func WithThresholds(thresholds ...int) RunOption {
	return func(o *runOptions) { o.thresholds = append(o.thresholds, thresholds...) }
}

// WithMachineOptions appends raw machine options (ablations like
// machine.WithoutRelocation) after the option-derived ones.
func WithMachineOptions(opts ...machine.Option) RunOption {
	return func(o *runOptions) { o.mopts = append(o.mopts, opts...) }
}

// Result is one one-shot execution's output.
type Result struct {
	// Run is the completed run. Under WithThresholds it is the run at
	// the largest requested threshold (the trunk's own point).
	Run *stats.Run
	// Header is the recorded machine shape for trace replays (zero for
	// workload runs).
	Header tracefile.Header
	// ByThreshold maps each requested threshold to its run; nil unless
	// WithThresholds was given.
	ByThreshold map[int]*stats.Run
}

// Replay runs one recorded trace through a machine of its recorded
// shape: the protocol, cache sizes, threshold, and costs come from sys,
// while the node/CPU counts, geometry, segment size, and page placement
// come from the trace header. This is the one-shot path for resumed
// runs' baselines and probed threshold forks; it bypasses the
// harness store (no Harness receiver) because the callers replay each
// input exactly once.
func Replay(r io.Reader, sys config.System, opts ...RunOption) (*Result, error) {
	o := buildRunOptions(opts)
	if len(o.thresholds) > 0 {
		data, err := io.ReadAll(r)
		if err != nil {
			return nil, fmt.Errorf("harness: %w", err)
		}
		return replayThresholds(data, sys, o)
	}
	d, err := tracefile.NewReader(r)
	if err != nil {
		return nil, err
	}
	hdr := d.Header()
	m, _, err := NewTraceMachine(hdr, sys, o.machineOptions()...)
	if err != nil {
		return nil, err
	}
	run, err := m.Run(d.Streams())
	if err != nil {
		return nil, err
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return &Result{Run: run, Header: hdr}, nil
}

// replayThresholds is the WithThresholds arm of Replay: the
// trunk-and-fork engine over an in-memory encoding.
func replayThresholds(data []byte, sys config.System, o runOptions) (*Result, error) {
	if len(o.mopts) > 0 {
		return nil, fmt.Errorf("harness: WithMachineOptions cannot combine with WithThresholds (forked machines snapshot only probe state)")
	}
	runs, hdr, err := thresholdForkRuns(data, sys, o.thresholds, o.tcfg)
	if err != nil {
		return nil, err
	}
	res := &Result{Header: hdr, ByThreshold: runs}
	max := 0
	for t := range runs {
		if t > max {
			max = t
		}
	}
	res.Run = runs[max]
	return res, nil
}

// NewTraceMachine builds a machine for a recorded trace: the protocol,
// cache sizes, threshold, and costs come from sys, while the node/CPU
// counts, geometry, segment size, and page placement come from the trace
// header. Returns the merged configuration alongside the machine
// (Replay, Resume, the snapshot CLI, and the fork trunk all share this
// construction, which is what makes their machines state-compatible).
func NewTraceMachine(h tracefile.Header, sys config.System, opts ...machine.Option) (*machine.Machine, config.System, error) {
	if h.Nodes < 1 || h.CPUs%h.Nodes != 0 {
		return nil, sys, fmt.Errorf("harness: trace has %d CPUs on %d nodes (not evenly divided)", h.CPUs, h.Nodes)
	}
	sys.Geometry = h.Geometry
	sys.Nodes = h.Nodes
	sys.CPUsPerNode = h.CPUs / h.Nodes
	if err := sys.Validate(); err != nil {
		return nil, sys, err
	}
	all := append([]machine.Option{machine.WithHomes(h.HomeFunc()), machine.WithPages(h.SharedPages)}, opts...)
	m, err := machine.New(sys, all...)
	return m, sys, err
}

// RunWorkload runs one built workload through a machine shaped by its
// sizing config: the protocol, cache sizes, threshold, and costs come
// from sys, the shape from cfg, and the page placement and attribution
// from the workload itself; WithMachineOptions options apply last, so
// they can override any of these. It bypasses the store — it is the
// one-shot path for a built workload, and the harness's memoized jobs
// run through it too. WithThresholds is not supported here (workload
// streams are consume-once). The workload's Check runs on every path,
// since it also releases the workload's resources (trace sources hold
// an open file); its error is reported only when the run succeeded.
func RunWorkload(w *workloads.Workload, cfg workloads.Config, sys config.System, opts ...RunOption) (run *stats.Run, err error) {
	if w.Check != nil {
		defer func() {
			if cerr := w.Check(); err == nil && cerr != nil {
				run, err = nil, cerr
			}
		}()
	}
	o := buildRunOptions(opts)
	if len(o.thresholds) > 0 {
		return nil, fmt.Errorf("harness: WithThresholds requires a recorded trace (use Replay)")
	}
	sys.Geometry = cfg.Geometry
	sys.Nodes = cfg.Nodes
	sys.CPUsPerNode = cfg.CPUsPerNode
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	all := make([]machine.Option, 0, len(o.mopts)+4)
	all = append(all, machine.WithHomes(w.Homes), machine.WithPages(w.SharedPages))
	if w.Attribution != nil {
		all = append(all, machine.WithAttribution(w.Attribution))
	}
	all = append(all, o.machineOptions()...)
	m, err := machine.New(sys, all...)
	if err != nil {
		return nil, err
	}
	// Replayed traces cannot report I/O or decode errors through
	// trace.Stream; Check surfaces them after the run.
	return m.Run(w.Streams)
}
