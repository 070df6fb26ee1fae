package harness

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"

	"rnuma/internal/spec"
	"rnuma/internal/tracefile"
	"rnuma/internal/traffic"
	"rnuma/internal/workloads"
)

// Source supplies a workload from outside the built-in catalog: a
// declarative spec file or a recorded trace. Registered sources join the
// harness's application namespace, so every figure, plan, and CLI flag
// that takes an application name takes a source name too.
type Source interface {
	// Name is the application name the source registers under.
	Name() string
	// Key identifies the source's *content* for the memo cache: two
	// files with the same name but different bytes must not share
	// simulations, and re-registering identical content is a no-op.
	Key() string
	// Load builds (or opens) the workload for one simulation. It is
	// called once per memoized job, so trace sources may hand out
	// consume-once streams.
	Load(cfg workloads.Config) (*workloads.Workload, error)
}

// Register adds a source to the harness's application namespace.
// Registered names take precedence over the built-in catalog (replaying a
// recorded "barnes" trace shadows the generator of the same name for
// that harness). Re-registering the same content is a no-op; a name
// collision with different content is an error.
func (h *Harness) Register(src Source) error {
	h.srcMu.Lock()
	defer h.srcMu.Unlock()
	if h.sources == nil {
		h.sources = make(map[string]Source)
	}
	if old, ok := h.sources[src.Name()]; ok && old.Key() != src.Key() {
		return fmt.Errorf("harness: source %q already registered with different content", src.Name())
	}
	h.sources[src.Name()] = src
	return nil
}

// source looks up a registered source by application name.
func (h *Harness) source(name string) Source {
	h.srcMu.Lock()
	defer h.srcMu.Unlock()
	return h.sources[name]
}

// Sources lists the registered source names in no particular order.
func (h *Harness) Sources() []string {
	h.srcMu.Lock()
	defer h.srcMu.Unlock()
	out := make([]string, 0, len(h.sources))
	for name := range h.sources {
		out = append(out, name)
	}
	return out
}

// jobKey is the canonical string form of KeyFor (kept for tests and
// log lines; stores index by the same string via JobKey.String).
func (h *Harness) jobKey(j Job) string {
	return h.KeyFor(j).String()
}

// ---------------------------------------------------------------------

// specSource builds workloads from a parsed declarative spec.
type specSource struct {
	s   *spec.Spec
	key string
}

// SpecSource wraps an in-memory spec document (CLI paths that already
// read the bytes, e.g. stdin).
func SpecSource(data []byte) (Source, error) {
	s, err := spec.Parse(data)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(data)
	return &specSource{s: s, key: fmt.Sprintf("spec:%s:%x", s.Name, sum[:8])}, nil
}

// SpecFileSource loads a spec file as a workload source; the memo key is
// derived from the file's content hash.
func SpecFileSource(path string) (Source, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	src, err := SpecSource(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return src, nil
}

func (s *specSource) Name() string { return s.s.Name }
func (s *specSource) Key() string  { return s.key }
func (s *specSource) Load(cfg workloads.Config) (*workloads.Workload, error) {
	return s.s.Build(cfg)
}

// ---------------------------------------------------------------------

// traceSource replays a recorded trace, either from a file (opened per
// Load and streamed, never materialized) or from an in-memory encoding
// (retargeted traces, which exist only as transform output).
// Workload.Check releases the input and surfaces any decode error after
// the run.
type traceSource struct {
	path string // file-backed source ("" when data-backed)
	data []byte // in-memory source (nil when file-backed)
	hdr  tracefile.Header
	key  string
}

// TraceFileSource opens a recorded trace as a workload source. The memo
// key is derived from tracefile.CanonicalHash — the decoded reference
// streams, not the bytes on disk — so a v1 trace, its v2 recompression,
// and a cut+cat recomposition of the same capture all share simulations;
// replay validates that the simulated machine matches the recorded
// geometry and CPU count. Registration fully decodes the file, so a
// truncated or corrupt trace is rejected here rather than mid-run.
func TraceFileSource(path string) (Source, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	defer f.Close()
	sum, hdr, err := tracefile.CanonicalHash(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &traceSource{
		path: path,
		hdr:  hdr,
		key:  fmt.Sprintf("trace:%s:%x", hdr.Name, sum[:8]),
	}, nil
}

// TraceSource wraps an in-memory trace encoding as a workload source —
// the transform pipeline's natural endpoint, where a retargeted or
// dilated trace goes straight into the harness without a temp file. The
// memo key follows the canonical content hash, like TraceFileSource.
func TraceSource(data []byte) (Source, error) {
	sum, hdr, err := tracefile.CanonicalHash(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	return &traceSource{
		data: data,
		hdr:  hdr,
		key:  fmt.Sprintf("trace:%s:%x", hdr.Name, sum[:8]),
	}, nil
}

// ---------------------------------------------------------------------

// TrafficScenarioSource serves a compiled multi-tenant traffic scenario
// (the concrete Source so callers can reach the compiled Scenario). The
// scenario is compiled once at registration (for one machine shape) and
// handed out as fresh streams per Load.
type TrafficScenarioSource struct {
	sc  *traffic.Scenario
	key string
}

// TrafficSource compiles an in-memory traffic spec for the given machine
// configuration and wraps the scenario as a workload source. The memo key
// combines the compiled streams' canonical hash (so two specs compiling
// to the same scenario share simulations, like trace sources) with the
// spec content hash (the attribution split is not part of the encoded
// streams, but it does shape per-client results).
func TrafficSource(data []byte, baseDir string, cfg workloads.Config) (*TrafficScenarioSource, error) {
	s, err := traffic.Parse(data)
	if err != nil {
		return nil, err
	}
	sc, err := traffic.Compile(s, cfg, baseDir)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if _, _, err := sc.Encode(&buf); err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	sum, _, err := tracefile.CanonicalHash(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	specSum := sha256.Sum256(data)
	return &TrafficScenarioSource{
		sc:  sc,
		key: fmt.Sprintf("traffic:%s:%x:%x", sc.Name, sum[:8], specSum[:8]),
	}, nil
}

func (t *TrafficScenarioSource) Name() string { return t.sc.Name }
func (t *TrafficScenarioSource) Key() string  { return t.key }

// Scenario exposes the compiled scenario (CLIs reuse the compilation for
// reporting and export).
func (t *TrafficScenarioSource) Scenario() *traffic.Scenario { return t.sc }

func (t *TrafficScenarioSource) Load(cfg workloads.Config) (*workloads.Workload, error) {
	want := t.sc.Cfg
	if cfg.Geometry != want.Geometry || cfg.Nodes != want.Nodes || cfg.CPUsPerNode != want.CPUsPerNode {
		return nil, fmt.Errorf("harness: traffic scenario %q compiled for %dx%d %v, machine wants %dx%d %v",
			t.sc.Name, want.Nodes, want.CPUsPerNode, want.Geometry, cfg.Nodes, cfg.CPUsPerNode, cfg.Geometry)
	}
	return t.sc.Workload(), nil
}

func (t *traceSource) Name() string { return t.hdr.Name }
func (t *traceSource) Key() string  { return t.key }

// Header returns the recorded machine shape (CLIs size the simulated
// machine from it instead of re-parsing the file).
func (t *traceSource) Header() tracefile.Header { return t.hdr }

// what names the source in errors.
func (t *traceSource) what() string {
	if t.path != "" {
		return t.path
	}
	return "(in-memory) " + t.hdr.Name
}

func (t *traceSource) Load(cfg workloads.Config) (*workloads.Workload, error) {
	if cfg.Geometry != t.hdr.Geometry {
		return nil, fmt.Errorf("harness: trace %s recorded with %v, machine uses %v", t.what(), t.hdr.Geometry, cfg.Geometry)
	}
	if cpus := cfg.Nodes * cfg.CPUsPerNode; cpus != t.hdr.CPUs || cfg.Nodes != t.hdr.Nodes {
		return nil, fmt.Errorf("harness: trace %s recorded on %d nodes/%d cpus, machine has %d/%d",
			t.what(), t.hdr.Nodes, t.hdr.CPUs, cfg.Nodes, cpus)
	}
	if t.data != nil {
		d, err := tracefile.NewReader(bytes.NewReader(t.data))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", t.what(), err)
		}
		return d.Workload(), nil
	}
	f, err := os.Open(t.path)
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	d, err := tracefile.NewReader(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", t.path, err)
	}
	w := d.Workload()
	w.Check = func() error {
		cerr := d.Err()
		if err := f.Close(); cerr == nil && err != nil {
			cerr = err
		}
		return cerr
	}
	return w, nil
}
