package tracefile

import (
	"bytes"
	"reflect"
	"testing"

	"rnuma/internal/config"
	"rnuma/internal/machine"
	"rnuma/internal/trace"
	"rnuma/internal/workloads"
)

// TestReaderHeldViewSurvivesOtherPulls pins the trace.Batcher aliasing
// contract the queue reclaim must respect: a NextBatch view stays valid
// until the next call on its own stream, however many of its chunks
// another stream's pulls decode in the meantime. The held view covers
// nearly all of CPU 0's first chunk, so a reclaim inside readChunk (the
// live tail is far shorter than the consumed prefix) would overwrite it.
func TestReaderHeldViewSurvivesOtherPulls(t *testing.T) {
	h := testHeader()
	const perCPU = 5 * chunkRecords
	refs := randRefs(h, perCPU, 33)
	d, err := NewReader(bytes.NewReader(encode(t, h, refs)))
	if err != nil {
		t.Fatal(err)
	}
	x := d.Streams()[0].(trace.Batcher)
	view := x.NextBatch(chunkRecords - 96)
	if !reflect.DeepEqual(view, refs[0][:len(view)]) {
		t.Fatalf("first batch of %d records differs from the encoded prefix", len(view))
	}
	queued := len(d.queues[0]) - d.heads[0]
	drainStream(d.Streams()[1])
	if got := len(d.queues[0]) - d.heads[0]; got < queued+3*chunkRecords {
		t.Fatalf("draining cpu 1 decoded only %d of cpu 0's records; want at least 3 more chunks", got-queued)
	}
	if !reflect.DeepEqual(view, refs[0][:len(view)]) {
		t.Fatal("cpu 0's held view changed while cpu 1 was pulled")
	}
	// Releasing the view by pulling again delivers the rest intact.
	rest := drainStream(d.Streams()[0])
	if !reflect.DeepEqual(rest, refs[0][len(view):]) {
		t.Fatalf("cpu 0 after the held view: %d records, want %d", len(rest), perCPU-len(view))
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
}

// queueWatch wraps one reader stream and, after every pull, records each
// CPU's peak live backlog (records decoded and not yet delivered, plus the
// view still held) and its queue's largest capacity.
type queueWatch struct {
	trace.Batcher
	d          *Reader
	cpu        int
	held, peak []int
	maxCap     []int
}

func (w *queueWatch) NextBatch(n int) []trace.Ref {
	b := w.Batcher.NextBatch(n)
	w.held[w.cpu] = len(b)
	for c := range w.held {
		w.peak[c] = max(w.peak[c], len(w.d.queues[c])-w.d.heads[c]+w.held[c])
		w.maxCap[c] = max(w.maxCap[c], cap(w.d.queues[c]))
	}
	return b
}

// TestReaderQueueCapacityBounded replays a recorded catalog app in the
// machine's 256-record batches and checks that no CPU's demux queue holds
// storage beyond twice its peak live backlog. The recording interleaves
// CPUs round-robin but the machine pulls in simulated-time order, so
// queues keep receiving chunks before they drain; without the reclaim
// such a queue grows with its whole stream.
func TestReaderQueueCapacityBounded(t *testing.T) {
	cfg := workloads.DefaultConfig()
	cfg.Scale = 0.2 // ~0.9M records; without the reclaim a queue reaches 7x its backlog
	app, _ := workloads.ByName("moldyn")
	var buf bytes.Buffer
	if _, _, err := WriteWorkload(&buf, app.Build(cfg), cfg); err != nil {
		t.Fatal(err)
	}
	d, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	h := d.Header()
	held, peak, maxCap := make([]int, h.CPUs), make([]int, h.CPUs), make([]int, h.CPUs)
	streams := make([]trace.Stream, h.CPUs)
	for c, s := range d.Streams() {
		streams[c] = &queueWatch{Batcher: s.(trace.Batcher), d: d, cpu: c, held: held, peak: peak, maxCap: maxCap}
	}
	m, err := machine.New(config.Base(config.RNUMA), machine.WithHomes(h.HomeFunc()), machine.WithPages(h.SharedPages))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(streams); err != nil {
		t.Fatal(err)
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	for c := range peak {
		if maxCap[c] > 2*peak[c] {
			t.Errorf("cpu %d: queue capacity reached %d records, over twice its peak live backlog %d", c, maxCap[c], peak[c])
		}
	}
}

// TestReaderSeekThenBatchPull: after a seek, round-robin batch pulls with
// the scalar path interleaved (so each queue is reclaimed mid-stream)
// deliver exactly the records TestReaderSeekRecord expects.
func TestReaderSeekThenBatchPull(t *testing.T) {
	h := testHeader()
	const perCPU = 10000
	refs := randRefs(h, perCPU, 21)
	data := encode(t, h, refs)
	for _, k := range []int64{0, 1, 100, 4095, 4096, 4097, 9000, perCPU} {
		d, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		for c, s := range d.Streams() {
			if err := s.(trace.Seeker).SeekRecord(k); err != nil {
				t.Fatalf("seek cpu %d to %d: %v", c, k, err)
			}
		}
		got := make([][]trace.Ref, h.CPUs)
		for live := h.CPUs; live > 0; {
			live = 0
			for c, s := range d.Streams() {
				b := s.(trace.Batcher).NextBatch(256 + 61*c)
				got[c] = append(got[c], b...)
				if r, ok := s.Next(); ok {
					got[c] = append(got[c], r)
				}
				if len(b) > 0 {
					live++
				}
			}
		}
		for c := range refs {
			if want := append([]trace.Ref(nil), refs[c][k:]...); !reflect.DeepEqual(got[c], want) {
				t.Fatalf("cpu %d after seek to %d: got %d records, want %d", c, k, len(got[c]), len(want))
			}
		}
		if err := d.Err(); err != nil {
			t.Fatalf("seek to %d: %v", k, err)
		}
	}
}
