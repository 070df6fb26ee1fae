package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rnuma/internal/serve"
	"rnuma/internal/tracefile"
)

// TestCLIServeParity runs each experiment kind both front ends share
// twice — once through this command's run() and once as a served job
// over HTTP — and requires byte-equal text reports. Diffstats may differ
// only in input names (paths on the CLI, content-qualified artifact
// names in the daemon) and the CLI's "diff ... vs ..." header.
func TestCLIServeParity(t *testing.T) {
	const scale = "0.05"
	s := serve.New(serve.Options{Scale: 0.05})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	// The diffstats pair: the committed capture and its 2x dilation.
	data, err := os.ReadFile(ciTrace)
	if err != nil {
		t.Fatal(err)
	}
	var dilated bytes.Buffer
	if _, err := tracefile.Dilate(&dilated, bytes.NewReader(data), tracefile.DilateSpec{Num: 2, Den: 1, Name: "fft-x2"}); err != nil {
		t.Fatal(err)
	}
	x2Path := filepath.Join(t.TempDir(), "fft-x2.trace")
	if err := os.WriteFile(x2Path, dilated.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	art := uploadArtifact(t, ts, data)
	x2 := uploadArtifact(t, ts, dilated.Bytes())

	cases := []struct {
		name string
		cli  []string
		job  serve.JobRequest
		// names maps served input names to the CLI's.
		names map[string]string
	}{
		{
			name: "sweep",
			cli:  []string{"-exp", "sweep", "-sweep-trace", ciTrace, "-sweep-axis", "nodes", "-sweep-values", "4,8"},
			job:  serve.JobRequest{Type: "sweep", Artifact: art.ID, Axis: "nodes", Values: "4,8"},
		},
		{
			name: "grid",
			cli:  []string{"-exp", "grid", "-sweep-trace", ciTrace, "-grid-axes", "block,threshold", "-grid-values-a", "16,32", "-grid-values-b", "16,64"},
			job:  serve.JobRequest{Type: "grid", Artifact: art.ID, Axis: "block", Values: "16,32", AxisB: "threshold", ValuesB: "16,64"},
		},
		{
			name: "figure 6",
			cli:  []string{"-exp", "fig6", "-apps", "fft", "-scale", scale},
			job:  serve.JobRequest{Type: "experiments", Figures: []string{"6"}, Apps: []string{"fft"}},
		},
		{
			name: "diffstats",
			cli:  []string{"-diff", ciTrace + "," + x2Path},
			job:  serve.JobRequest{Type: "diffstats", Artifact: art.ID, ArtifactB: x2.ID},
			names: map[string]string{
				fmt.Sprintf("%s@%s", art.Name, art.ID[:8]): ciTrace,
				fmt.Sprintf("%s@%s", x2.Name, x2.ID[:8]):   x2Path,
			},
		},
	}
	for _, tc := range cases {
		code, cliText, stderr := runCLI(t, tc.cli...)
		if code != 0 {
			t.Fatalf("%s: CLI exited %d: %s", tc.name, code, stderr)
		}
		served := servedReport(t, ts, tc.job)
		for from, to := range tc.names {
			served = strings.ReplaceAll(served, from, to)
		}
		if tc.job.Type == "diffstats" {
			_, cliText, _ = strings.Cut(cliText, "\n\n")
		}
		if served != cliText {
			t.Errorf("%s: served report differs from the CLI's\nserved:\n%s\ncli:\n%s", tc.name, served, cliText)
		}
	}
}

func uploadArtifact(t *testing.T, ts *httptest.Server, data []byte) serve.Artifact {
	t.Helper()
	resp, err := http.Post(ts.URL+"/api/v1/artifacts?kind=trace", "application/octet-stream", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var a serve.Artifact
	if err := json.NewDecoder(resp.Body).Decode(&a); err != nil {
		t.Fatal(err)
	}
	return a
}

// servedReport submits one job, waits for it, and returns its text report.
func servedReport(t *testing.T, ts *httptest.Server, req serve.JobRequest) string {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var info serve.JobInfo
	err = json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit %s: %s (%v)", req.Type, resp.Status, err)
	}
	for deadline := time.Now().Add(2 * time.Minute); info.Status != serve.StatusDone; time.Sleep(10 * time.Millisecond) {
		if info.Status == serve.StatusFailed || time.Now().After(deadline) {
			t.Fatalf("job %s: %s %s", info.ID, info.Status, info.Error)
		}
		resp, err := http.Get(ts.URL + "/api/v1/jobs/" + info.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	resp, err = http.Get(ts.URL + "/api/v1/jobs/" + info.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(text)
}
