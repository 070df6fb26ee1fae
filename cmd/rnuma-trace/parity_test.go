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

	"rnuma/internal/serve"
)

// TestDiffStatsServeParity: rnuma-trace diffstats and a served diffstats
// job run through the same experiment.Diff, so their delta tables agree
// byte for byte from the DELTA line down once the served input names
// (content-qualified artifact names) map to the CLI's paths. The pair is
// the committed capture and its 2x dilation, which moves every timing
// counter.
func TestDiffStatsServeParity(t *testing.T) {
	const ciTrace = "../../testdata/ci/fft.trace"
	data := mustReadFile(t, ciTrace)
	code, x2, stderr := runCLI(t, data, "dilate", "-", "-factor", "2", "-name", "fft-x2", "-o", "-")
	if code != 0 {
		t.Fatalf("dilate exited %d: %s", code, stderr)
	}
	x2Path := filepath.Join(t.TempDir(), "fft-x2.trace")
	if err := os.WriteFile(x2Path, []byte(x2), 0o644); err != nil {
		t.Fatal(err)
	}
	code, cliText, stderr := runCLI(t, nil, "diffstats", ciTrace, x2Path)
	if code != 1 {
		t.Fatalf("diffstats of a 2x dilation exited %d, want 1: %s", code, stderr)
	}
	_, cliTable, _ := strings.Cut(cliText, "\n\n") // drop the CLI's header line

	ts := httptest.NewServer(serve.New(serve.Options{}).Handler())
	t.Cleanup(ts.Close)
	var a, b serve.Artifact
	postJSON(t, ts.URL+"/api/v1/artifacts", data, &a)
	postJSON(t, ts.URL+"/api/v1/artifacts", []byte(x2), &b)
	body, _ := json.Marshal(serve.JobRequest{Type: "diffstats", Artifact: a.ID, ArtifactB: b.ID})
	var job serve.JobInfo
	postJSON(t, ts.URL+"/api/v1/jobs", body, &job)
	getBody(t, ts.URL+"/api/v1/jobs/"+job.ID+"/progress?follow=1") // returns when the job ends
	served := strings.NewReplacer(
		fmt.Sprintf("%s@%s", a.Name, a.ID[:8]), ciTrace,
		fmt.Sprintf("%s@%s", b.Name, b.ID[:8]), x2Path,
	).Replace(getBody(t, ts.URL+"/api/v1/jobs/"+job.ID+"/report"))
	if served != cliTable {
		t.Errorf("served diffstats report differs from the CLI's\nserved:\n%s\ncli:\n%s", served, cliTable)
	}
}

// postJSON posts body and decodes the JSON answer into v.
func postJSON(t *testing.T, url string, body []byte, v any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		t.Fatalf("POST %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// getBody fetches url and requires a 200.
func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s: %s", url, resp.Status, text)
	}
	return string(text)
}
