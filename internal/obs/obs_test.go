package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Inc()
	r.Counter("a").Add(4)
	r.Gauge("g").Set(2.5)
	r.Gauge("g").Add(-1)
	h := r.Histogram("h", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	s := r.Snapshot()
	if s.Counters["a"] != 5 {
		t.Errorf("counter a = %d, want 5", s.Counters["a"])
	}
	if s.Gauges["g"] != 1.5 {
		t.Errorf("gauge g = %g, want 1.5", s.Gauges["g"])
	}
	hs := s.Histograms["h"]
	if want := []int64{1, 1, 1, 1}; len(hs.Counts) != 4 ||
		hs.Counts[0] != want[0] || hs.Counts[1] != want[1] || hs.Counts[2] != want[2] || hs.Counts[3] != want[3] {
		t.Errorf("histogram counts = %v, want %v", hs.Counts, want)
	}
	if hs.Count != 4 || hs.Sum != 5.555 {
		t.Errorf("histogram count/sum = %d/%g, want 4/5.555", hs.Count, hs.Sum)
	}
	// Boundary value lands in its own bucket (le semantics).
	h.Observe(0.01)
	if got := r.Snapshot().Histograms["h"].Counts[0]; got != 2 {
		t.Errorf("le=0.01 bucket = %d after boundary observe, want 2", got)
	}
}

// TestSnapshotPairConsistency is the regserver offered/improved bug in
// miniature: two counters updated as a pair through Atomically must
// never be observed torn apart, no matter how the snapshots interleave
// with concurrent publishers.
func TestSnapshotPairConsistency(t *testing.T) {
	r := NewRegistry()
	offered, improved := r.Counter("offered"), r.Counter("improved")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r.Atomically(func() {
					offered.Add(3)
					improved.Add(3) // improved never exceeds offered in any consistent view
				})
			}
		}()
	}
	for i := 0; i < 200; i++ {
		s := r.Snapshot()
		if s.Counters["improved"] > s.Counters["offered"] {
			t.Fatalf("snapshot %d tore a pair: improved %d > offered %d",
				i, s.Counters["improved"], s.Counters["offered"])
		}
	}
	close(stop)
	wg.Wait()
}

func TestWritePrometheusLints(t *testing.T) {
	r := NewRegistry()
	r.Counter("jobs_submitted").Add(12)
	r.Gauge("uptime_seconds").Set(3.25)
	h := r.Histogram("lease_wait_seconds", nil)
	h.Observe(0.002)
	h.Observe(0.3)
	h.Observe(120) // lands in +Inf
	var buf bytes.Buffer
	WritePrometheus(&buf, "ansor_test", r.Snapshot())
	out := buf.String()
	for _, want := range []string{
		"# TYPE ansor_test_jobs_submitted counter\nansor_test_jobs_submitted 12\n",
		"# TYPE ansor_test_uptime_seconds gauge\nansor_test_uptime_seconds 3.25\n",
		`ansor_test_lease_wait_seconds_bucket{le="+Inf"} 3`,
		"ansor_test_lease_wait_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q in:\n%s", want, out)
		}
	}
	if err := LintPrometheus(buf.Bytes()); err != nil {
		t.Fatalf("lint: %v\n%s", err, out)
	}
}

func TestLintPrometheusRejectsMalformed(t *testing.T) {
	for name, text := range map[string]string{
		"undeclared":     "foo 1\n",
		"bad value":      "# TYPE foo counter\nfoo abc\n",
		"bad name":       "# TYPE foo counter\n1foo 3\n",
		"non-cumulative": "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
		"missing inf":    "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_sum 1\nh_count 5\n",
		"count mismatch": "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 7\n",
	} {
		if err := LintPrometheus([]byte(text)); err == nil {
			t.Errorf("%s: lint accepted malformed input %q", name, text)
		}
	}
}

func TestStreamSinkWritesJSONLAndDrops(t *testing.T) {
	var buf bytes.Buffer
	s := NewStreamSink(&buf, 4)
	o := New(s, nil)
	o.Clock = FakeClock(time.Unix(1700000000, 0), time.Millisecond)
	o.Emit(Event{Type: EvRoundStart, Task: "mm", Round: 1})
	o.Emit(Event{Type: EvRoundEnd, Task: "mm", Round: 1, Seconds: 0.5})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2: %q", len(lines), buf.String())
	}
	e, err := Decode([]byte(lines[0]))
	if err != nil {
		t.Fatal(err)
	}
	if e.V != Version || e.Type != EvRoundStart || e.TS != "2023-11-14T22:13:20Z" {
		t.Errorf("decoded %+v", e)
	}
	// Post-close emits drop silently.
	o.Emit(Event{Type: EvRoundStart})
	if s.Dropped() == 0 {
		t.Error("post-close emit was not counted as dropped")
	}
}

// TestStreamSinkNeverBlocks pins the no-backpressure contract: with a
// writer that never makes progress, emits beyond the buffer drop
// instead of stalling the caller.
func TestStreamSinkNeverBlocks(t *testing.T) {
	block := make(chan struct{})
	s := NewStreamSink(blockingWriter{block}, 2)
	defer close(block)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			s.Emit(Event{Type: EvPhase, Round: i})
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Emit blocked on a stuck writer")
	}
	if s.Dropped() == 0 {
		t.Error("expected drops with a stuck writer")
	}
}

type blockingWriter struct{ ch chan struct{} }

func (w blockingWriter) Write(p []byte) (int, error) {
	<-w.ch
	return len(p), nil
}

func TestNilObserverSafe(t *testing.T) {
	var o *Observer
	o.Emit(Event{Type: EvPhase})
	o.Observe("x", 1)
	if !o.Now().IsZero() {
		t.Error("nil observer Now() not zero")
	}
	_ = o.SinceSeconds(time.Time{})
	o.EmitSince(Event{Type: EvModelTrained}, time.Time{})
	// Partly-nil observers are fine too.
	New(nil, nil).Emit(Event{Type: EvPhase})
	New(nil, NewRegistry()).Observe("x", 1)
}

func TestEventFieldOrderStable(t *testing.T) {
	e := Event{V: 1, TS: "t", Type: "phase", Task: "mm", Round: 2, Phase: "sketch", DurMS: 1.5}
	b, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"v":1,"ts":"t","type":"phase","task":"mm","round":2,"phase":"sketch","dur_ms":1.5}`
	if string(b) != want {
		t.Errorf("field order drifted:\ngot  %s\nwant %s", b, want)
	}
}

func TestOpenSink(t *testing.T) {
	if s, err := OpenSink(""); err != nil || s != nil {
		t.Fatalf("OpenSink(\"\") = %v, %v; want nil, nil", s, err)
	}
	path := t.TempDir() + "/events.jsonl"
	s, err := OpenSink(path)
	if err != nil {
		t.Fatal(err)
	}
	New(s, nil).Emit(Event{Type: EvTaskStart, Task: "mm"})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A second open appends rather than truncating.
	s, err = OpenSink(path)
	if err != nil {
		t.Fatal(err)
	}
	New(s, nil).Emit(Event{Type: EvTaskEnd, Task: "mm"})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines after two appends, want 2", len(lines))
	}
}

func TestFakeClock(t *testing.T) {
	c := FakeClock(time.Unix(0, 0), time.Second)
	if !c().Equal(time.Unix(0, 0)) || !c().Equal(time.Unix(1, 0)) {
		t.Error("fake clock did not step deterministically")
	}
}

// TestEmitSince: the event's own timestamp read sets its duration, and
// an observer without a sink reads no clock at all, so narrating a span
// never shifts a fake clock's later readings.
func TestEmitSince(t *testing.T) {
	sink := &MemorySink{}
	start := time.Unix(1700000000, 0)
	o := &Observer{Events: sink, Clock: FakeClock(start, 3*time.Millisecond)}
	t0 := o.Now()
	o.EmitSince(Event{Type: EvModelTrained, Detail: "refit"}, t0)
	evs := sink.Events()
	if len(evs) != 1 {
		t.Fatalf("got %d events, want 1", len(evs))
	}
	if e := evs[0]; e.DurMS != 3 || e.TS != start.Add(3*time.Millisecond).UTC().Format(time.RFC3339Nano) {
		t.Errorf("EmitSince stamped ts=%s dur_ms=%g, want the second clock read and 3 ms", e.TS, e.DurMS)
	}
	if next := o.Now(); !next.Equal(start.Add(6 * time.Millisecond)) {
		t.Errorf("EmitSince read the clock more than once: next read %v", next)
	}

	reads := 0
	quiet := &Observer{Metrics: NewRegistry(), Clock: func() time.Time { reads++; return start }}
	quiet.EmitSince(Event{Type: EvModelTrained}, start)
	if reads != 0 {
		t.Errorf("EmitSince without a sink read the clock %d times, want 0", reads)
	}
}
