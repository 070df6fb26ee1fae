package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"rnuma/internal/experiment"
)

// JobRequest is one job submission: an experiment.Request whose Type
// is one of the daemon's five job types (replay, sweep, grid, diffstats,
// experiments) and whose artifact fields reference uploaded inputs.
type JobRequest = experiment.Request

// Job statuses.
const (
	StatusQueued  = "queued"
	StatusRunning = "running"
	StatusDone    = "done"
	StatusFailed  = "failed"
)

// JobInfo is a job's externally visible state.
type JobInfo struct {
	ID       string     `json:"id"`
	Request  JobRequest `json:"request"`
	Status   string     `json:"status"`
	Error    string     `json:"error,omitempty"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	// Simulations counts simulations this job executed itself; results
	// its harness got from the shared store (earlier jobs, concurrent
	// jobs, or disk) are not included. A warm resubmission reports 0.
	Simulations int64 `json:"simulations"`
}

// jobState is one job's internal state.
type jobState struct {
	id       string
	req      JobRequest
	in       []experiment.Input // resolved artifacts
	created  time.Time
	progress *progressBuffer

	mu       sync.Mutex
	status   string
	err      error
	started  time.Time
	finished time.Time
	sims     int64
	text     string // rendered text report (valid when done)
	doc      any    // JSON report document (valid when done)
}

func (js *jobState) info() JobInfo {
	js.mu.Lock()
	defer js.mu.Unlock()
	info := JobInfo{
		ID:          js.id,
		Request:     js.req,
		Status:      js.status,
		Created:     js.created,
		Simulations: js.sims,
	}
	if js.err != nil {
		info.Error = js.err.Error()
	}
	if !js.started.IsZero() {
		t := js.started
		info.Started = &t
	}
	if !js.finished.IsZero() {
		t := js.finished
		info.Finished = &t
	}
	return info
}

func (js *jobState) simulations() int64 {
	js.mu.Lock()
	defer js.mu.Unlock()
	return js.sims
}

// progressBuffer accumulates a job's progress stream (the harness's
// Progress/Log lines) for polling and streaming reads; done closes when
// the job finishes.
type progressBuffer struct {
	mu   sync.Mutex
	buf  []byte
	done chan struct{}
}

func newProgressBuffer() *progressBuffer {
	return &progressBuffer{done: make(chan struct{})}
}

func (b *progressBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	b.buf = append(b.buf, p...)
	b.mu.Unlock()
	return len(p), nil
}

// from returns the bytes at and after offset, plus the next offset.
func (b *progressBuffer) from(off int) ([]byte, int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if off < 0 {
		off = 0
	}
	if off > len(b.buf) {
		off = len(b.buf)
	}
	out := append([]byte(nil), b.buf[off:]...)
	return out, off + len(out)
}

func (b *progressBuffer) finish() { close(b.done) }

// Submit validates a request, resolves its artifacts, assigns it an ID,
// and schedules it; the job runs asynchronously (bounded by
// Options.MaxJobs). Artifact references must resolve and the request
// must pass experiment.Validate at submission time, so a bad request
// never occupies a job slot.
func (s *Server) Submit(req JobRequest) (*jobState, error) {
	in, err := s.inputs(req)
	if err != nil {
		return nil, err
	}
	if err := experiment.Validate(req); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.jobSeq++
	js := &jobState{
		id:       fmt.Sprintf("j%d", s.jobSeq),
		req:      req,
		in:       in,
		created:  time.Now(),
		progress: newProgressBuffer(),
		status:   StatusQueued,
	}
	s.jobs[js.id] = js
	s.mu.Unlock()
	s.logf("job %s: submitted %s", js.id, req.Type)
	go s.run(js)
	return js, nil
}

// run executes one job through a slot of the job semaphore.
func (s *Server) run(js *jobState) {
	s.sem <- struct{}{}
	defer func() { <-s.sem }()

	js.mu.Lock()
	js.status = StatusRunning
	js.started = time.Now()
	js.mu.Unlock()

	var (
		text string
		doc  any
		sims int64
		err  error
	)
	func() {
		// A panicking job must fail like any other error: without the
		// recover it would permanently consume this semaphore slot, leave
		// the job "running" forever, and never finish the progress stream.
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("serve: job %s panicked: %v", js.id, r)
			}
		}()
		text, doc, sims, err = s.execute(js)
	}()

	js.mu.Lock()
	js.finished = time.Now()
	js.sims = sims
	if err != nil {
		js.status = StatusFailed
		js.err = err
	} else {
		js.status = StatusDone
		js.text, js.doc = text, doc
	}
	js.mu.Unlock()
	js.progress.finish()
	if err != nil {
		s.logf("job %s: failed: %v", js.id, err)
	} else {
		s.logf("job %s: done (%d new simulations)", js.id, sims)
	}
}

// job resolves a job ID.
func (s *Server) job(id string) (*jobState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	js, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("serve: no job %q", id)
	}
	return js, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "serve: bad job request: %v", err)
		return
	}
	js, err := s.Submit(req)
	if err != nil {
		code := http.StatusBadRequest
		var ve *experiment.ValueError
		if errors.As(err, &ve) {
			code = http.StatusUnprocessableEntity
		}
		writeError(w, code, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, js.info())
}

// handleProgress serves a job's progress stream. Plain GET returns the
// bytes from ?offset= with X-Next-Offset and X-Job-Status headers;
// ?follow=1 streams (chunked, flushed) until the job finishes.
func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	js, err := s.job(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	off, _ := strconv.Atoi(r.URL.Query().Get("offset"))
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if r.URL.Query().Get("follow") == "" {
		data, next := js.progress.from(off)
		w.Header().Set("X-Next-Offset", strconv.Itoa(next))
		w.Header().Set("X-Job-Status", js.info().Status)
		w.Write(data) //nolint:errcheck // client went away; nothing to do
		return
	}
	flusher, _ := w.(http.Flusher)
	for {
		data, next := js.progress.from(off)
		if len(data) > 0 {
			if _, err := w.Write(data); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
			off = next
		}
		select {
		case <-js.progress.done:
			// Drain whatever landed between the read and the close.
			if data, _ := js.progress.from(off); len(data) > 0 {
				w.Write(data) //nolint:errcheck // final drain on a closing stream
			}
			return
		case <-r.Context().Done():
			return
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// handleReport serves a finished job's rendered report: ?format=text
// (default) or ?format=json. 409 while the job is still queued/running.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	js, err := s.job(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	js.mu.Lock()
	status, jerr, text, doc := js.status, js.err, js.text, js.doc
	js.mu.Unlock()
	switch status {
	case StatusQueued, StatusRunning:
		writeError(w, http.StatusConflict, "serve: job %s is %s", js.id, status)
		return
	case StatusFailed:
		writeError(w, http.StatusUnprocessableEntity, "serve: job %s failed: %v", js.id, jerr)
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, text)
	case "json":
		writeJSON(w, http.StatusOK, doc)
	default:
		writeError(w, http.StatusBadRequest, "serve: unknown report format %q (want text or json)", format)
	}
}
