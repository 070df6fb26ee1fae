package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// runCLI drives one in-process invocation, returning the exit code and
// captured stdout/stderr.
func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code = run(args, &out, &errBuf)
	return code, out.String(), errBuf.String()
}

// fromRun is a report from its "run:" line on: the part that does not
// depend on how the input was named.
func fromRun(t *testing.T, report string) string {
	t.Helper()
	i := strings.Index(report, "run: ")
	if i < 0 {
		t.Fatalf("report has no run line:\n%s", report)
	}
	return report[i:]
}

// TestUsageExitCodes pins exit 2 for usage errors, naming the offending
// token on stderr, and exit 1 for runtime errors.
func TestUsageExitCodes(t *testing.T) {
	cases := []struct {
		name  string
		args  []string
		want  int
		token string
	}{
		{"unknown flag", []string{"-bogus"}, 2, "bogus"},
		{"unknown protocol", []string{"-protocol", "warp"}, 2, `"warp"`},
		{"unknown app", []string{"-app", "doom"}, 2, `"doom"`},
		{"extra argument", []string{"-app", "fft", "-scale", "0.02", "junk"}, 2, "junk"},
		{"help", []string{"-h"}, 0, "-protocol"},
		{"missing spec", []string{"-spec", "absent.json"}, 1, "absent.json"},
		{"bad shape", []string{"-app", "fft", "-scale", "0.02", "-nodes", "0"}, 1, "0 nodes"},
		{"bad shape recording", []string{"-app", "fft", "-scale", "0.02", "-cpus", "0", "-record", filepath.Join(t.TempDir(), "f.trace")}, 1, "0 CPUs"},
	}
	for _, tc := range cases {
		code, _, stderr := runCLI(t, tc.args...)
		if code != tc.want {
			t.Errorf("%s: exit %d, want %d (stderr: %s)", tc.name, code, tc.want, stderr)
		}
		if !strings.Contains(stderr, tc.token) {
			t.Errorf("%s: stderr %q does not name %s", tc.name, stderr, tc.token)
		}
	}
}

// TestRunReports: a catalog run prints rnuma-sim's two header lines and
// the normalized line; a spec runs under its own name.
func TestRunReports(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-app", "fft", "-scale", "0.02", "-protocol", "scoma")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.HasPrefix(stdout, "application: fft (64K points)\nsystem: S-COMA, 8x4 CPUs\nrun: S-COMA\n") ||
		!strings.HasSuffix(stdout, "(vs infinite block cache)\n") {
		t.Errorf("catalog report:\n%s", stdout)
	}

	code, stdout, stderr = runCLI(t, "-spec", "../../examples/specs/halo.json", "-scale", "0.05", "-nodes", "4", "-cpus", "2")
	if code != 0 {
		t.Fatalf("spec exit %d: %s", code, stderr)
	}
	if !strings.HasPrefix(stdout, "spec: halo-exchange (4 nodes x 2 CPUs)\nrun: R-NUMA\n") {
		t.Errorf("spec report:\n%s", stdout)
	}
}

// TestRecordReplaysTheRecording: -record writes the trace, reports it on
// stderr, and prints the recording's replay, which matches the live run
// from the run line on (trace transport identity).
func TestRecordReplaysTheRecording(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fft.trace")
	code, live, stderr := runCLI(t, "-app", "fft", "-scale", "0.02")
	if code != 0 {
		t.Fatalf("live exit %d: %s", code, stderr)
	}
	code, recorded, stderr := runCLI(t, "-app", "fft", "-scale", "0.02", "-record", path)
	if code != 0 {
		t.Fatalf("record exit %d: %s", code, stderr)
	}
	if !strings.HasPrefix(stderr, "recorded fft: ") || !strings.Contains(stderr, path) {
		t.Errorf("record stderr: %s", stderr)
	}
	if !strings.HasPrefix(recorded, "trace: "+path+" (workload fft, 8 nodes x 4 CPUs)\n") {
		t.Errorf("record header:\n%s", recorded)
	}
	if fromRun(t, recorded) != fromRun(t, live) {
		t.Errorf("recording replay differs from the live run:\n--- live\n%s--- recorded\n%s", live, recorded)
	}
}
