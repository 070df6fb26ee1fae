package serve

import (
	"bytes"
	"fmt"

	"rnuma/internal/experiment"
	"rnuma/internal/harness"
)

// This file executes jobs. Every job gets a fresh Harness wired to the
// server's shared store: the harness carries the job's own Progress/Log
// writers and Simulations counter, while the store makes results — and
// in-flight singleflight claims — common property of all jobs. The
// experiment itself runs through experiment.Execute, the same path the
// rnuma-experiments CLI takes.

// execute runs one job to completion, returning the rendered text
// report, the JSON document, and how many simulations the job executed
// itself (0 for a fully warm resubmission).
func (s *Server) execute(js *jobState) (text string, doc any, sims int64, err error) {
	h := harness.New(s.opts.Scale)
	h.Seed = s.opts.Seed
	h.Workers = s.opts.Workers
	h.Store = s.store
	h.Progress = js.progress
	h.Log = js.progress

	var buf bytes.Buffer
	doc, err = experiment.Execute(h, &buf, js.req, js.in...)
	return buf.String(), doc, h.Simulations(), err
}

// inputs resolves a request's artifact references: one for replay,
// sweep, and grid, two for diffstats, none for experiments. A trace
// registers under a content-qualified name, because the embedded
// workload name alone could collide with a differing second upload
// (e.g. in a diffstats job).
func (s *Server) inputs(req JobRequest) ([]experiment.Input, error) {
	var refs []string
	switch req.Type {
	case "replay", "sweep", "grid":
		refs = []string{req.Artifact}
	case "diffstats":
		refs = []string{req.Artifact, req.ArtifactB}
	case "experiments":
	default:
		return nil, fmt.Errorf("serve: unknown job type %q (want replay, sweep, grid, diffstats, or experiments)", req.Type)
	}
	in := make([]experiment.Input, 0, len(refs))
	for _, ref := range refs {
		a, err := s.artifact(ref)
		if err != nil {
			return nil, err
		}
		in = append(in, experiment.Input{
			Kind:  a.Kind,
			Name:  fmt.Sprintf("%s@%s", a.Name, a.ID[:8]),
			Label: a.ID[:12],
			Data:  a.data,
		})
	}
	return in, nil
}
