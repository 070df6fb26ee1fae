package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"rnuma/internal/config"
	"rnuma/internal/harness"
	"rnuma/internal/report"
	"rnuma/internal/serve"
	"rnuma/internal/tracefile"
	"rnuma/internal/workloads"
)

// gridJob is the block x threshold grid every serve-grid job submits.
var gridJob = serve.JobRequest{
	Type: "grid", Axis: "block", Values: "16,32,64", AxisB: "threshold", ValuesB: "16,64,256",
}

// warmJobs is how many warm resubmissions follow each cold job.
const warmJobs = 2

// serveRig is one serve-grid set-up: the em3d capture, a disk store in a
// fresh directory behind a timing wrapper, an in-process server on a
// loopback listener, and the uploaded artifact.
type serveRig struct {
	data     []byte
	dir      string
	st       *timingStore
	srv      *httptest.Server
	client   *http.Client
	artifact string
}

func (r *serveRig) close() {
	r.client.CloseIdleConnections()
	r.srv.Close()
	os.RemoveAll(r.dir) //nolint:errcheck // scratch directory under the run's tmp, removed again at exit
}

// newServeRig records full-scale em3d, starts the server over a fresh
// disk store, and uploads the capture.
func (b *bench) newServeRig(tr *tracer) (*serveRig, error) {
	cfg := workloads.DefaultConfig()
	cfg.Seed = b.seed
	app, _ := workloads.ByName("em3d")
	var buf bytes.Buffer
	var err error
	tr.do("serve.record", 0, func(int) int64 {
		var n int64
		n, _, err = tracefile.WriteWorkload(&buf, app.Build(cfg), cfg)
		return n
	})
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(b.tmp, "store-")
	if err != nil {
		return nil, err
	}
	disk, err := harness.NewDiskStore(dir)
	if err != nil {
		return nil, err
	}
	st := newTimingStore(disk, tr)
	srv := serve.New(serve.Options{Scale: 1.0, Seed: b.seed, Workers: b.workers, Store: st})
	rig := &serveRig{
		data: buf.Bytes(),
		dir:  dir,
		st:   st,
		srv:  httptest.NewServer(srv.Handler()),
		// One client, one connection at a time.
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
	}
	var a serve.Artifact
	tr.do("serve.upload", 0, func(int) int64 {
		err = rig.call("POST", "/api/v1/artifacts?kind=trace", rig.data, http.StatusCreated, &a)
		return int64(len(rig.data))
	})
	if err != nil {
		rig.close()
		return nil, err
	}
	rig.artifact = a.ID
	return rig, nil
}

// call makes one request and decodes a JSON answer into out (or copies
// the raw body when out is a *[]byte); any status but want is an error.
func (r *serveRig) call(method, path string, body []byte, want int, out any) error {
	req, err := http.NewRequest(method, r.srv.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	switch o := out.(type) {
	case nil:
	case *[]byte:
		*o = data
	default:
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return nil
}

// jobResult is one served job as the client saw it.
type jobResult struct {
	text, json []byte
	info       serve.JobInfo
	sec        float64 // submit to both reports fetched
}

// job submits the grid, follows its progress stream to the end, and
// fetches the text and JSON reports. kind names the span ("cold" or
// "warm").
func (b *bench) job(r *serveRig, tr *tracer, kind string) (jobResult, error) {
	var res jobResult
	req := gridJob
	req.Artifact = r.artifact
	body, _ := json.Marshal(req) // a JobRequest always marshals
	id := tr.start("serve.job."+kind, 0)
	r.st.parent.Store(int64(id))
	t := time.Now()
	var info serve.JobInfo
	err := r.call("POST", "/api/v1/jobs", body, http.StatusAccepted, &info)
	if err == nil {
		var progress []byte
		err = r.call("GET", "/api/v1/jobs/"+info.ID+"/progress?follow=1", nil, http.StatusOK, &progress)
	}
	if err == nil {
		err = r.call("GET", "/api/v1/jobs/"+info.ID+"/report?format=text", nil, http.StatusOK, &res.text)
	}
	if err == nil {
		err = r.call("GET", "/api/v1/jobs/"+info.ID+"/report?format=json", nil, http.StatusOK, &res.json)
	}
	res.sec = time.Since(t).Seconds()
	tr.end(id, 0)
	if err == nil {
		err = r.call("GET", "/api/v1/jobs/"+info.ID, nil, http.StatusOK, &res.info)
	}
	if err == nil && res.info.Status != serve.StatusDone {
		err = fmt.Errorf("job %s ended %s: %s", info.ID, res.info.Status, res.info.Error)
	}
	if err == nil && res.info.Started != nil && res.info.Finished != nil {
		tr.add("serve.queue", id, res.info.Created, *res.info.Started)
		tr.add("serve.run", id, *res.info.Started, *res.info.Finished)
	}
	return res, err
}

// round is one cold job then warmJobs warm resubmissions on one rig.
func (b *bench) round(r *serveRig, tr *tracer) (cold jobResult, warm []jobResult) {
	var err error
	cold, err = b.job(r, tr, "cold")
	if !b.op(err) {
		return cold, nil
	}
	b.check(cold.info.Simulations > 0, "cold job ran no simulation")
	for i := 0; i < warmJobs; i++ {
		w, err := b.job(r, tr, "warm")
		if !b.op(err) {
			continue
		}
		b.check(w.info.Simulations == 0, "warm job ran %d simulations", w.info.Simulations)
		b.check(bytes.Equal(w.text, cold.text) && bytes.Equal(w.json, cold.json), "warm reports differ from the cold job's")
		warm = append(warm, w)
	}
	return cold, warm
}

// runServeGrid is the serve-grid workload: per round, a fresh set-up
// (capture, store, server, upload), one cold grid job and warm
// resubmissions of the same grid, all over HTTP.
func runServeGrid(b *bench) error {
	var (
		first     jobResult
		firstData []byte
	)
	checkRound := func(r *serveRig, cold jobResult) {
		if firstData == nil {
			first, firstData = cold, r.data
			return
		}
		b.check(bytes.Equal(firstData, r.data), "set-up recorded em3d differently")
		b.check(bytes.Equal(first.text, cold.text) && bytes.Equal(first.json, cold.json), "cold reports differ between rounds")
	}
	// digestRuns digests the first round's simulations (seed-0 gate).
	var digestRuns string

	if b.tr == nil {
		for b.more(3) {
			var r *serveRig
			if err := b.setup(func() (err error) { r, err = b.newServeRig(nil); return err }); err != nil {
				return err
			}
			var (
				cold jobResult
				warm []jobResult
			)
			b.pass(func() { cold, warm = b.round(r, nil) })
			b.e2e.refs += r.st.executedRefs()
			b.e2e.cold = append(b.e2e.cold, cold.sec)
			for _, w := range warm {
				b.e2e.warm = append(b.e2e.warm, w.sec)
			}
			checkRound(r, cold)
			if digestRuns == "" {
				keys, runs := r.st.runs()
				digestRuns = runsDigest(keys, runs)
			}
			r.close()
		}
	}
	var (
		tracedRig  *serveRig
		tracedCold jobResult
		tracedWarm []jobResult
	)
	if b.tr != nil {
		r, err := b.newServeRig(nil)
		if err != nil {
			return err
		}
		untraced := measure(func() {
			cold, _ := b.round(r, nil)
			checkRound(r, cold)
		})
		keys, runs := r.st.runs()
		digestRuns = runsDigest(keys, runs)
		r.close()

		if tracedRig, err = b.newServeRig(b.tr); err != nil {
			return err
		}
		defer tracedRig.close()
		traced := measure(func() { tracedCold, tracedWarm = b.round(tracedRig, b.tr) })
		b.overhead(untraced.sec, traced.sec)
		checkRound(tracedRig, tracedCold)
	}
	if firstData == nil {
		return nil
	}

	// Correctness: the served text report equals an offline rendering of
	// the same grid; seed 0 also matches the committed digests.
	h := harness.New(1.0)
	h.Seed, h.Workers = b.seed, b.workers
	xs, err := harness.ParseSweepValues(harness.AxisBlockSize, gridJob.Values)
	if err != nil {
		return err
	}
	ys, err := harness.ParseSweepValues(harness.AxisThreshold, gridJob.ValuesB)
	if err != nil {
		return err
	}
	var text, doc bytes.Buffer
	g, err := h.SweepGrid(firstData, harness.AxisBlockSize, xs, harness.AxisThreshold, ys)
	if err != nil {
		b.fail("offline grid: %v", err)
	} else {
		b.tr.do("report.render", 0, func(int) int64 {
			report.Grid(&text, g, gridJob.KneeBound)
			enc := json.NewEncoder(&doc)
			enc.SetIndent("", "  ")
			err = enc.Encode(report.NewGridDoc(g, gridJob.KneeBound))
			return 0
		})
		b.check(err == nil && bytes.Equal(text.Bytes(), first.text), "served text report differs from the offline rendering")
		b.check(bytes.Equal(doc.Bytes(), first.json), "served JSON report differs from the offline rendering")
	}
	b.gate("text", digestBytes(first.text))
	b.gate("json", digestBytes(first.json))
	b.gate("runs", digestRuns)
	if b.tr != nil {
		return b.serveLayers(tracedRig, tracedCold, tracedWarm)
	}
	return nil
}

// serveLayers fills serve-grid's per-layer metrics from the traced round
// and from seams on the same capture: decode, the machine under the
// four designs, encode, the geometry transform and the fork engine.
func (b *bench) serveLayers(r *serveRig, cold jobResult, warm []jobResult) error {
	var acc layerAcc
	keys, runs := r.st.runs()
	for _, k := range keys {
		acc.addCounters(runs[k])
	}
	l := b.layers
	ss := r.st.Stats()
	sims := cold.info.Simulations
	for _, w := range warm {
		sims += w.info.Simulations
	}
	l["harness.simulations"] = float64(sims)
	l["harness.store_hits"] = float64(ss.Hits)
	l["harness.store_disk_hits"] = float64(ss.DiskHits)
	l["harness.store_commit_s"] = float64(r.st.commitNs.Load()) / 1e9
	l["harness.store_lookup_s"] = float64(r.st.lookupNs.Load()) / 1e9
	l["serve.upload_s"] = b.tr.seconds("serve.upload")
	jobSplit("serve.cold.", l, []jobResult{cold})
	jobSplit("serve.warm.", l, warm)

	root := b.tr.start("bench.layers", 0)
	hdr, refs, err := b.decodeSeam(&acc, root, r.data)
	if err != nil {
		return err
	}
	for _, d := range designs {
		for rep := 0; rep < 5; rep++ {
			if _, err := b.machineSeam(&acc, root, d.name, d.sys, hdr, refs); err != nil {
				return err
			}
		}
	}
	if err := b.encodeSeam(root, hdr, refs); err != nil {
		return err
	}
	app, _ := workloads.ByName("em3d")
	cfg := workloads.DefaultConfig()
	cfg.Seed = b.seed
	b.buildSeam(root, app, cfg)
	for _, v := range []int{16, 32, 64} {
		b.tr.do("tracefile.transform", root, func(int) int64 {
			_, err = tracefile.RetargetGeometry(io.Discard, bytes.NewReader(r.data), tracefile.GeometrySpec{BlockBytes: v})
			return 1
		})
		if err != nil {
			return err
		}
	}
	var fork, plain []float64
	for rep := 0; rep < 3; rep++ {
		for _, thresholds := range [][]int{{8, 16, 64, 256, 1024}, nil} {
			var opts []harness.RunOption
			if thresholds != nil {
				opts = append(opts, harness.WithThresholds(thresholds...))
			}
			t := time.Now()
			_, err := harness.Replay(bytes.NewReader(r.data), config.Base(config.RNUMA), opts...)
			if err != nil {
				return err
			}
			if thresholds != nil {
				fork = append(fork, time.Since(t).Seconds())
			} else {
				plain = append(plain, time.Since(t).Seconds())
			}
		}
	}
	b.eventSeam(root)
	b.tr.end(root, 0)

	b.fillLayers(&acc)
	if acc.decodeRefs > 0 {
		l["tracefile.bytes_per_ref"] = float64(len(r.data)) / float64(acc.decodeRefs)
	}
	l["tracefile.transform_s"] = b.tr.seconds("tracefile.transform") / 3
	l["harness.fork_vs_replay"] = median(fork) / median(plain)
	return nil
}

// jobSplit splits served jobs' latency into queue wait (Created →
// Started), run (Started → Finished) and the client round trips left
// over, as medians under prefix.
func jobSplit(prefix string, l map[string]float64, jobs []jobResult) {
	var queue, run, http []float64
	for _, j := range jobs {
		if j.info.Started == nil || j.info.Finished == nil {
			continue
		}
		q := j.info.Started.Sub(j.info.Created).Seconds()
		r := j.info.Finished.Sub(*j.info.Started).Seconds()
		queue, run, http = append(queue, q), append(run, r), append(http, j.sec-q-r)
	}
	l[prefix+"queue_wait_s"] = median(queue)
	l[prefix+"run_s"] = median(run)
	l[prefix+"http_s"] = median(http)
}
