package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/serve/wal"
)

// Request-trace operation kinds. A trace file is a header (OpMeta), a body of
// OpAugment/OpRelease/OpNode operations in admission order, and an optional
// OpEOF trailer carrying the run's final state for replay verification.
const (
	// OpMeta is the trace header: the recording service's determinism-relevant
	// configuration (seed, solver, hop bound, admission policy).
	OpMeta = "meta"
	// OpAugment is one admitted augmentation request, with its assigned
	// admission sequence number.
	OpAugment = "augment"
	// OpRelease is one successful placement release.
	OpRelease = "release"
	// OpNode is one applied node health transition (down/up/degraded).
	OpNode = "node"
	// OpEOF is the trailer: final state hash, placement count, and epoch of
	// the recorded run — the ground truth a replay must reproduce.
	OpEOF = "eof"
)

// TraceOp is one line of a recorded request trace. One struct covers all
// four operation kinds; unused fields are omitted from the JSON.
type TraceOp struct {
	// Op is the operation kind (OpMeta, OpAugment, OpRelease, OpEOF).
	Op string `json:"op"`
	// AtUS is the operation's offset from the recording's start in
	// microseconds — what the replay clock advances to.
	AtUS int64 `json:"at_us"`

	// Meta fields (OpMeta). Admission and Tenants record the queue
	// discipline and tenant specification of the recording run — quota and
	// fair-queueing decisions are part of the admission sequence a replay
	// must reproduce, so replays verify them alongside seed and solver.
	Seed        int64  `json:"seed,omitempty"`
	Solver      string `json:"solver,omitempty"`
	HopBound    int    `json:"l,omitempty"`
	AdmitPolicy string `json:"admit,omitempty"`
	Admission   string `json:"admission,omitempty"`
	Tenants     string `json:"tenants,omitempty"`

	// Augment fields (OpAugment): Seq is the admission sequence the recording
	// run assigned — replay reproduces it exactly (including gaps from
	// rejected submissions) so every per-request RNG seed matches.
	Seq         int     `json:"seq,omitempty"`
	SFC         []int   `json:"sfc,omitempty"`
	Expectation float64 `json:"rho,omitempty"`
	Source      int     `json:"src"` // AP 0 is valid — never omitted
	Destination int     `json:"dst"`
	Primaries   []int   `json:"primaries,omitempty"`
	DeadlineMS  int     `json:"deadline_ms,omitempty"`
	// Tenant is the resolved admission-economics principal of an OpAugment
	// (empty means the default tenant).
	Tenant string `json:"tenant,omitempty"`
	// Sync marks an augment the producer waited on before submitting anything
	// else (a repair; traces of older builds also mark the re-admissions that
	// repaired a session then). Micro-batch composition is an input to every
	// solve — phase 1 charges the whole batch's primaries before any
	// secondaries are placed — so the replay driver must flush its in-flight
	// window at sync points to reproduce the recorded batching.
	Sync bool `json:"sync,omitempty"`

	// ID is the placement ID torn down (OpRelease), the session an OpAugment
	// repairs in place (absent for a new admission: IDs start at 1), or the
	// cloudlet a health transition applies to (OpNode).
	ID int `json:"id,omitempty"`
	// Node field (OpNode) — the health state entered.
	Health string `json:"health,omitempty"`

	// EOF fields (OpEOF).
	Hash   string `json:"hash,omitempty"`
	Placed int    `json:"placed,omitempty"`
	Epoch  uint64 `json:"epoch,omitempty"`
	// Ops counts the body operations recorded before the trailer.
	Ops uint64 `json:"ops,omitempty"`
}

// TraceWriter is the append-only request-trace recorder: every admitted
// augmentation and successful release is framed with the WAL's CRC framing
// and appended to one file, so `augmentd -replay` can re-drive the workload
// bit-identically. Recording degrades on I/O error — a broken disk must not
// take the serving path down — and the first error is logged once.
type TraceWriter struct {
	mu    sync.Mutex
	f     *os.File
	w     *bufio.Writer
	start time.Time
	ops   uint64
	err   error
}

// OpenTraceWriter creates (truncating) the trace file at path and writes the
// meta header.
func OpenTraceWriter(path string, meta TraceOp) (*TraceWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("serve: create trace file: %w", err)
	}
	t := &TraceWriter{f: f, w: bufio.NewWriter(f), start: time.Now()}
	meta.Op = OpMeta
	t.append(meta)
	return t, nil
}

// Record appends one body operation, stamping its time offset. Never fails:
// on I/O error the writer degrades to a no-op (logged once).
func (t *TraceWriter) Record(op TraceOp) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	op.AtUS = time.Since(t.start).Microseconds()
	t.append(op)
	t.ops++
}

// append marshals and frames op under t.mu. Sets t.err on failure.
func (t *TraceWriter) append(op TraceOp) {
	payload, err := json.Marshal(op)
	if err == nil {
		_, err = t.w.Write(wal.EncodeFrame(payload))
	}
	if err != nil && t.err == nil {
		t.err = err
		slog.Error("serve: trace recording degraded", "err", err)
	}
}

// CloseWith appends the EOF trailer (stamped with the body-operation count)
// and closes the file. Returns the first recording error, if any.
func (t *TraceWriter) CloseWith(eof TraceOp) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err == nil {
		eof.Op = OpEOF
		eof.AtUS = time.Since(t.start).Microseconds()
		eof.Ops = t.ops
		t.append(eof)
	}
	if err := t.w.Flush(); err != nil && t.err == nil {
		t.err = err
	}
	if err := t.f.Close(); err != nil && t.err == nil {
		t.err = err
	}
	return t.err
}

// ReadTrace parses a recorded request trace: the meta header, the body
// operations in recorded order, and the EOF trailer (nil when the recording
// was cut short — a torn final frame is tolerated, exactly like the WAL's
// crash tail; a corrupt frame before an intact one is an error).
func ReadTrace(path string) (meta TraceOp, ops []TraceOp, eof *TraceOp, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return meta, nil, nil, fmt.Errorf("serve: read trace: %w", err)
	}
	lines := strings.Split(string(raw), "\n")
	var decoded []TraceOp
	for i, line := range lines {
		if line == "" {
			continue
		}
		payload, ok := wal.DecodeFrame(line)
		var op TraceOp
		if ok {
			ok = json.Unmarshal(payload, &op) == nil
		}
		if !ok {
			for _, rest := range lines[i+1:] {
				if rest != "" {
					return meta, nil, nil, fmt.Errorf("serve: corrupt trace frame at line %d of %s with intact frames after it", i+1, path)
				}
			}
			break
		}
		decoded = append(decoded, op)
	}
	if len(decoded) == 0 || decoded[0].Op != OpMeta {
		return meta, nil, nil, fmt.Errorf("serve: trace %s has no meta header", path)
	}
	meta = decoded[0]
	decoded = decoded[1:]
	if n := len(decoded); n > 0 && decoded[n-1].Op == OpEOF {
		eof = &decoded[n-1]
		decoded = decoded[:n-1]
	}
	for _, op := range decoded {
		if op.Op != OpAugment && op.Op != OpRelease && op.Op != OpNode {
			return meta, nil, nil, fmt.Errorf("serve: unexpected trace op %q in %s", op.Op, path)
		}
	}
	return meta, decoded, eof, nil
}
