package trace

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// mkTrace builds a finished two-stage trace for recorder tests.
func mkTrace(seq int) Snapshot {
	start := time.Unix(1700000000, 0)
	t := New(uint64(seq)+1, seq, "request", start)
	q := t.StartSpanAt("queue", Root, start)
	t.EndSpanAt(q, start.Add(200*time.Microsecond))
	ex := t.StartSpanAt("exec", Root, start.Add(200*time.Microsecond))
	t.Annotate(ex, "speculative")
	t.EndSpanAt(ex, start.Add(1200*time.Microsecond))
	t.EndSpanAt(Root, start.Add(1500*time.Microsecond))
	return t.Snapshot()
}

func TestTraceSpansAndSnapshot(t *testing.T) {
	start := time.Unix(1700000000, 0)
	tr := New(0xabcd, 7, "request", start)
	q := tr.StartSpanAt("queue", Root, start)
	tr.EndSpanAt(q, start.Add(100*time.Microsecond))
	ex := tr.StartSpanAt("exec", Root, start.Add(100*time.Microsecond))
	solve := tr.StartSpanAt("solve", ex, start.Add(150*time.Microsecond))
	tr.Annotate(solve, "cache_hit")
	tr.Annotate(solve, "shared")
	tr.EndSpanAt(solve, start.Add(650*time.Microsecond))
	tr.EndSpanAt(ex, start.Add(700*time.Microsecond))
	tr.EndSpanAt(Root, start.Add(900*time.Microsecond))

	s := tr.Snapshot()
	if s.TraceID != "000000000000abcd" || s.Seq != 7 {
		t.Fatalf("snapshot header = %q seq=%d", s.TraceID, s.Seq)
	}
	if s.DurationUS != 900 {
		t.Fatalf("root duration = %dµs, want 900", s.DurationUS)
	}
	if len(s.Spans) != 4 {
		t.Fatalf("span count = %d, want 4", len(s.Spans))
	}
	if s.Spans[solve].Parent != ex || s.Spans[ex].Parent != Root || s.Spans[Root].Parent != -1 {
		t.Fatalf("parent links wrong: %+v", s.Spans)
	}
	if s.Spans[solve].StartUS != 150 || s.Spans[solve].DurationUS != 500 {
		t.Fatalf("solve span = %+v, want start 150µs dur 500µs", s.Spans[solve])
	}
	if s.Spans[solve].Note != "cache_hit,shared" {
		t.Fatalf("note = %q", s.Spans[solve].Note)
	}
}

// TestSnapshotOfOpenSpans checks that snapshotting a trace with unended
// spans stays well-formed: open spans inherit the root's end.
func TestSnapshotOfOpenSpans(t *testing.T) {
	start := time.Unix(1700000000, 0)
	tr := New(1, 1, "request", start)
	tr.StartSpanAt("queue", Root, start) // never ended
	tr.EndSpanAt(Root, start.Add(400*time.Microsecond))
	s := tr.Snapshot()
	if s.Spans[1].DurationUS != 400 {
		t.Fatalf("open span duration = %dµs, want root's 400", s.Spans[1].DurationUS)
	}
}

func TestRecorderWraparound(t *testing.T) {
	r := NewRecorder(4)
	for seq := 0; seq < 10; seq++ {
		r.Record(mkTrace(seq))
	}
	if r.Total() != 10 {
		t.Fatalf("total = %d, want 10", r.Total())
	}
	got := r.Snapshots()
	if len(got) != 4 {
		t.Fatalf("ring holds %d traces, want capacity 4", len(got))
	}
	// Newest first: seqs 9, 8, 7, 6.
	for i, want := range []int{9, 8, 7, 6} {
		if got[i].Seq != want {
			t.Fatalf("snapshot[%d].Seq = %d, want %d (ring %+v)", i, got[i].Seq, want, got)
		}
	}
}

func TestRecorderZeroCapacity(t *testing.T) {
	r := NewRecorder(0)
	r.Record(mkTrace(1))
	if r.Total() != 0 || len(r.Snapshots()) != 0 {
		t.Fatal("zero-capacity recorder must drop everything")
	}
}

// TestRecorderConcurrent hammers the recorder from writer goroutines while
// readers snapshot the ring and scrape the HTTP handler — the flight
// recorder's race-detector test (`make test-race`). Memory stays bounded:
// the ring never exceeds its capacity no matter how many traces complete.
func TestRecorderConcurrent(t *testing.T) {
	const (
		capacity = 32
		writers  = 8
		perG     = 500
	)
	r := NewRecorder(capacity)
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.Record(mkTrace(g*perG + i))
			}
		}(g)
	}
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got := r.Snapshots(); len(got) > capacity {
					t.Errorf("ring grew past capacity: %d > %d", len(got), capacity)
					return
				}
				resp, err := http.Get(srv.URL)
				if err == nil {
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	if r.Total() != writers*perG {
		t.Fatalf("total = %d, want %d", r.Total(), writers*perG)
	}
	if got := len(r.Snapshots()); got != capacity {
		t.Fatalf("final ring size = %d, want %d", got, capacity)
	}
}

func TestRecorderHandler(t *testing.T) {
	r := NewRecorder(8)
	for seq := 1; seq <= 5; seq++ {
		r.Record(mkTrace(seq))
	}
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "?n=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/traces = %d", resp.StatusCode)
	}
	var body tracesResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if body.Capacity != 8 || body.Recorded != 5 || body.Returned != 2 {
		t.Fatalf("header = %+v", body)
	}
	if len(body.Traces) != 2 || body.Traces[0].Seq != 5 || body.Traces[1].Seq != 4 {
		t.Fatalf("traces = %+v, want seqs 5,4 newest-first", body.Traces)
	}

	// Filter by trace ID.
	id := fmt.Sprintf("%016x", 3+1) // mkTrace(3)'s ID
	resp2, err := http.Get(srv.URL + "?id=" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var one tracesResponse
	if err := json.NewDecoder(resp2.Body).Decode(&one); err != nil {
		t.Fatal(err)
	}
	if len(one.Traces) != 1 || one.Traces[0].Seq != 3 {
		t.Fatalf("id filter returned %+v", one.Traces)
	}

	// Method discipline.
	resp3, err := http.Post(srv.URL, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /debug/traces = %d, want 405", resp3.StatusCode)
	}
}
