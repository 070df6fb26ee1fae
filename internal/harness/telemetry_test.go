package harness

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"

	"rnuma/internal/config"
	"rnuma/internal/machine"
	"rnuma/internal/telemetry"
	"rnuma/internal/tracefile"
	"rnuma/internal/tracefile/snapfile"
)

// TestTimelineSerialVsParallel: the interval series is defined by global
// reference counts, not wall-clock schedule, so a parallel plan execution
// produces timelines bit-identical to a serial one.
func TestTimelineSerialVsParallel(t *testing.T) {
	const scale = 0.02
	apps := []string{"fft", "em3d"}
	sys := config.Base(config.RNUMA)

	timelines := func(workers int) map[string]*telemetry.Timeline {
		h := New(scale)
		h.Workers = workers
		h.Telemetry = telemetry.Config{Window: 2048}
		h.Prefetch(NewPlan().AddRuns(apps, sys))
		out := make(map[string]*telemetry.Timeline, len(apps))
		for _, app := range apps {
			run, err := h.Run(app, sys)
			if err != nil {
				t.Fatal(err)
			}
			if run.Timeline == nil {
				t.Fatalf("%s: probed harness run carries no timeline", app)
			}
			out[app] = run.Timeline
		}
		return out
	}

	serial, parallel := timelines(1), timelines(4)
	for _, app := range apps {
		if !reflect.DeepEqual(serial[app], parallel[app]) {
			t.Errorf("%s: parallel timeline differs from serial", app)
		}
	}
}

// TestTimelineForkSweepMatchesFullReplay: every point of a probed
// threshold fork sweep carries the timeline an independent full probed
// replay at that threshold produces — including points forked mid-window
// from the trunk (the cursor-carrying snapshot is what makes this exact).
func TestTimelineForkSweepMatchesFullReplay(t *testing.T) {
	const scale = 0.02
	data := recordCatalog(t, "em3d", scale)
	sys := config.Base(config.RNUMA)
	tcfg := telemetry.Config{Window: 3000} // deliberately unaligned with any fork point
	thresholds := []int{4, 16, 1 << 20}

	res, err := Replay(bytes.NewReader(data), sys, WithThresholds(thresholds...), WithTelemetry(tcfg))
	if err != nil {
		t.Fatal(err)
	}
	runs := res.ByThreshold
	var relocated bool
	for _, T := range thresholds {
		s := sys
		s.Threshold = T
		wantRes, err := Replay(bytes.NewReader(data), s, WithTelemetry(tcfg))
		if err != nil {
			t.Fatalf("T=%d: %v", T, err)
		}
		want := wantRes.Run
		got := runs[T]
		if !reflect.DeepEqual(want, got) {
			t.Errorf("T=%d: forked run differs from independent probed replay", T)
		}
		if want.Timeline == nil || len(want.Timeline.Intervals) == 0 {
			t.Fatalf("T=%d: full replay captured no intervals", T)
		}
		if want.Relocations > 0 {
			relocated = true
			if len(want.Timeline.Events) == 0 {
				t.Errorf("T=%d: %d relocations but no events", T, want.Relocations)
			}
		}
	}
	if !relocated {
		t.Error("no threshold relocated a page; the identity proves nothing about post-crossing series")
	}
}

// TestTimelineSnapshotResumeContinuity: a probed replay paused mid-window,
// checkpointed through the snapfile encoding, restored into a fresh
// machine, and finished produces the identical timeline — the probe
// cursor survives serialization.
func TestTimelineSnapshotResumeContinuity(t *testing.T) {
	const scale = 0.02
	data := recordCatalog(t, "fft", scale)
	sys := config.Base(config.RNUMA)
	tcfg := telemetry.Config{Window: 4096}

	fullRes, err := Replay(bytes.NewReader(data), sys, WithTelemetry(tcfg))
	if err != nil {
		t.Fatal(err)
	}
	full := fullRes.Run
	pause := full.Refs/3 + 1 // off any 4096 boundary: the cursor is mid-window
	if pause%tcfg.Window == 0 {
		pause++
	}

	d, err := tracefile.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := NewTraceMachine(d.Header(), sys, machine.WithTelemetry(tcfg))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(d.Streams()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunUntilRefs(pause); err != nil {
		t.Fatal(err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Probe == nil {
		t.Fatal("probed snapshot carries no cursor")
	}

	// Round-trip the checkpoint through the on-disk encoding.
	path := filepath.Join(t.TempDir(), "pause.rnss")
	if err := snapfile.WriteFile(path, snap); err != nil {
		t.Fatal(err)
	}
	decoded, err := snapfile.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Probe == nil {
		t.Fatal("probe cursor lost in snapfile round-trip")
	}

	// Resume takes the probe window from the decoded cursor alone.
	forked, _, err := Resume(data, sys, decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full, forked) {
		t.Errorf("resumed run diverged from uninterrupted probed replay:\n full timeline %+v\n fork timeline %+v",
			full.Timeline, forked.Timeline)
	}
}

// TestForkSweepClonedPointsIndependent: when no counter ever reaches the
// watermark, every sweep point is a clone of the trunk's run — the clones
// must not share timeline storage, or mutating one point corrupts the
// others.
func TestForkSweepClonedPointsIndependent(t *testing.T) {
	const scale = 0.02
	data := recordCatalog(t, "fft", scale) // fft never refetches at these thresholds
	sys := config.Base(config.RNUMA)
	tcfg := telemetry.Config{Window: 4096}

	res, err := Replay(bytes.NewReader(data), sys, WithThresholds(1<<19, 1<<20), WithTelemetry(tcfg))
	if err != nil {
		t.Fatal(err)
	}
	a, b := res.ByThreshold[1<<19], res.ByThreshold[1<<20]
	if a == b {
		t.Fatal("duplicate points share one *stats.Run")
	}
	if a.Timeline == nil || len(a.Timeline.Intervals) == 0 {
		t.Fatal("cloned point carries no timeline")
	}
	if !reflect.DeepEqual(a.Timeline, b.Timeline) {
		t.Fatal("cloned points disagree before mutation")
	}
	a.Timeline.Intervals[0].Delta.Refs = -1
	if b.Timeline.Intervals[0].Delta.Refs == -1 {
		t.Error("cloned points share interval storage")
	}
}
