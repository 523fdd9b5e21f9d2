// Package wal is the durability subsystem of the augmentation service: an
// append-only write-ahead log of epoch transitions plus periodic full-state
// snapshots, so a restarted augmentd rebuilds its residual ledger and
// placement records exactly (same canonical state hash, same placement count).
//
// Layout inside the WAL directory:
//
//	snapshot.json   full state at one epoch, written atomically (tmp+rename)
//	wal.log         one framed entry per epoch install since that snapshot
//
// Each wal.log line is "<crc32-hex> <json>\n"; the checksum covers the JSON
// payload. Replay verifies every frame and stops at the first torn or
// corrupt line — the expected tail state after a crash mid-append — so a
// SIGKILL'd process restores to its last durable epoch. Every entry carries
// the full post-install residual vector: Go's float64 JSON encoding
// round-trips exactly, which makes the restored ledger bit-identical without
// having to replay the in-batch arithmetic in its original operation order.
package wal

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// SyncPolicy selects when Append calls fsync.
type SyncPolicy string

// Append fsync policies: SyncAlways survives machine crashes at one fsync
// per epoch install; SyncNone leaves flushing to the OS page cache, which
// still survives process kills (SIGKILL) but not power loss.
const (
	SyncAlways SyncPolicy = "always"
	SyncNone   SyncPolicy = "none"
)

// ParseSyncPolicy validates a policy string (e.g. a CLI flag value).
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch SyncPolicy(s) {
	case SyncAlways, SyncNone:
		return SyncPolicy(s), nil
	case "":
		return SyncAlways, nil
	default:
		return "", fmt.Errorf("wal: unknown sync policy %q (want %q or %q)", s, SyncAlways, SyncNone)
	}
}

// PlacedRecord is the durable form of one live placement: everything the
// serving layer needs to rebuild its record after a restart, including the
// exact per-node MHz a future release must return to the ledger.
type PlacedRecord struct {
	ID          int             `json:"id"`
	SFC         []int           `json:"sfc"`
	Expectation float64         `json:"rho"`
	Source      int             `json:"src"`
	Destination int             `json:"dst"`
	Primaries   []int           `json:"primaries"`
	Secondaries [][]int         `json:"secondaries"`
	Reliability float64         `json:"reliability"`
	Met         bool            `json:"met"`
	Algorithm   string          `json:"algorithm"`
	ServedBy    string          `json:"served_by,omitempty"`
	Tenant      string          `json:"tenant,omitempty"`
	PerNode     map[int]float64 `json:"per_node"`
	// Failed marks a record a node failure rewrote (instances destroyed,
	// reliability from the survivors) and no repair replaced since; only such
	// a record, once below ρ, awaits repair, live and after a restore.
	Failed bool `json:"failed,omitempty"`
}

// TenantQuota journals one tenant's token-bucket state (balance and virtual
// batch-clock position) at install time, so a restarted service resumes
// quota enforcement where the crashed one stopped instead of granting every
// tenant a fresh burst.
type TenantQuota struct {
	Name   string  `json:"name"`
	Tokens float64 `json:"tokens"`
	Tick   int64   `json:"tick"`
}

// HealthRecord journals one node health transition: the cloudlet and the
// state it entered ("down", "up", or "degraded"). A restarted service replays
// these to rebuild its down/degraded sets — and therefore its alert state —
// exactly as they were at crash time.
type HealthRecord struct {
	Node int    `json:"node"`
	To   string `json:"to"`
}

// Entry is one logged epoch transition: the post-install residual vector and
// canonical hash, plus the placements admitted, released and rewritten in
// place (Updates: a repaired session, or the records a failure rewrote) by
// the install. Health transitions additionally carry the triggering event and
// the full post-transition down/degraded sets, so replay agrees with the live
// process on failed-instance accounting.
type Entry struct {
	Epoch    uint64         `json:"epoch"`
	Hash     string         `json:"hash"` // %016x of the canonical ledger hash
	Residual []float64      `json:"residual"`
	Admits   []PlacedRecord `json:"admits,omitempty"`
	Releases []int          `json:"releases,omitempty"`
	Health   *HealthRecord  `json:"health,omitempty"`
	Updates  []PlacedRecord `json:"updates,omitempty"`
	Down     []int          `json:"down,omitempty"`
	Degraded []int          `json:"degraded,omitempty"`
	Tenants  []TenantQuota  `json:"tenants,omitempty"`
}

// Snapshot is a full serving-state checkpoint: writing one truncates the log,
// bounding replay work and WAL growth. MaxID is the highest placement ID
// ever issued, released ones included (absent in logs written before it
// existed), so a restart never reissues an ID the truncated log held.
type Snapshot struct {
	Epoch    uint64         `json:"epoch"`
	Hash     string         `json:"hash"`
	Residual []float64      `json:"residual"`
	Placed   []PlacedRecord `json:"placed"`
	Down     []int          `json:"down,omitempty"`
	Degraded []int          `json:"degraded,omitempty"`
	Tenants  []TenantQuota  `json:"tenants,omitempty"`
	MaxID    int            `json:"max_id,omitempty"`
}

// File names inside the WAL directory.
const (
	logName      = "wal.log"
	snapshotName = "snapshot.json"
)

// Log is an open write-ahead log. Append, Sync, and WriteSnapshot are safe
// for concurrent use; the serving layer orders appends itself and calls Sync
// concurrently from its committers, relying on the group-commit coalescing
// below for throughput.
type Log struct {
	mu        sync.Mutex
	dir       string
	policy    SyncPolicy
	f         *os.File
	entries   uint64
	snapshots uint64

	// Group-commit state, all under mu. Under SyncAlways, Append stages
	// frames in pending (pure memory — it never touches the file, so appends
	// cannot block on the kernel's inode lock while an fsync is in flight)
	// and writeSeq numbers them. One Sync caller at a time is the flush
	// leader (flushing == true): it swaps the buffer out, writes it in one
	// syscall, fsyncs, records the covered writeSeq in syncSeq, and
	// broadcasts by closing flushDone. Every other committer waits on that
	// channel — never on a mutex, so a finished group's members return the
	// moment they are covered instead of queueing behind the next leader —
	// re-checks coverage, and either returns or becomes the next leader.
	// One flush thus makes every previously staged entry durable: N
	// concurrent committers share ~1 fsync instead of paying N.
	pending   []byte
	writeSeq  uint64
	syncSeq   uint64
	flushing  bool
	flushDone chan struct{}
}

// Open creates dir if needed and opens the log file for appending. Existing
// entries are preserved (restart continues the same log); use Replay first
// to rebuild state from them.
func Open(dir string, policy SyncPolicy) (*Log, error) {
	if policy == "" {
		policy = SyncAlways
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create dir: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open log: %w", err)
	}
	return &Log{dir: dir, policy: policy, f: f, flushDone: make(chan struct{})}, nil
}

// beginFlush blocks until no flush is in flight, then claims flush
// leadership. Every file-mutating path (Sync's flush, WriteSnapshot, Close)
// runs between beginFlush and endFlush, so at most one of them touches the
// log file at a time without any of them holding a lock across disk I/O.
func (l *Log) beginFlush() {
	for {
		l.mu.Lock()
		if !l.flushing {
			l.flushing = true
			l.mu.Unlock()
			return
		}
		ch := l.flushDone
		l.mu.Unlock()
		<-ch
	}
}

// endFlush releases flush leadership and wakes every waiter (committers
// blocked in Sync and claimants queued in beginFlush) by closing the current
// generation's flushDone channel.
func (l *Log) endFlush() {
	l.mu.Lock()
	l.flushing = false
	close(l.flushDone)
	l.flushDone = make(chan struct{})
	l.mu.Unlock()
}

// Dir returns the WAL directory.
func (l *Log) Dir() string { return l.dir }

// Entries returns the number of entries appended through this Log handle.
func (l *Log) Entries() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.entries
}

// Snapshots returns the number of snapshots written through this Log handle.
func (l *Log) Snapshots() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snapshots
}

// Append frames one entry and returns a token for Sync. Under SyncAlways
// the frame is staged in memory — it reaches the file (and the disk) only
// when a Sync or Close flushes it, so callers must not treat the write as
// committed until Sync(token) returns. Staging keeps Append free of file
// I/O entirely, which is what lets the commit pipeline keep executing while
// another committer's fsync is in flight. Under SyncNone the frame is
// written through to the OS immediately.
func (l *Log) Append(e Entry) (uint64, error) {
	payload, err := json.Marshal(e)
	if err != nil {
		return 0, fmt.Errorf("wal: marshal entry: %w", err)
	}
	frame := EncodeFrame(payload)

	l.mu.Lock()
	if l.policy == SyncAlways {
		l.pending = append(l.pending, frame...)
	} else if _, err := l.f.Write(frame); err != nil {
		l.mu.Unlock()
		return 0, fmt.Errorf("wal: append entry %d: %w", e.Epoch, err)
	}
	l.entries++
	l.writeSeq++
	tok := l.writeSeq
	l.mu.Unlock()
	return tok, nil
}

// Sync blocks until the append identified by token is durable and returns
// how long the disk flush took (zero under SyncNone, or when another
// committer's flush already covered the append). One committer at a time
// leads: it swaps out every frame staged so far, writes them in one
// syscall, and fsyncs once — so committers that arrive while a flush is
// running wait on a broadcast channel, re-check coverage when it completes,
// and usually return without ever touching the disk: the classic
// group-commit optimization. A write failure drops the staged frames (the
// log degrades to non-durable rather than wedging every later Sync).
func (l *Log) Sync(token uint64) (time.Duration, error) {
	if l.policy != SyncAlways {
		return 0, nil
	}
	for {
		l.mu.Lock()
		if l.syncSeq >= token {
			l.mu.Unlock()
			return 0, nil
		}
		if !l.flushing {
			l.flushing = true
			l.mu.Unlock()
			break
		}
		ch := l.flushDone
		l.mu.Unlock()
		<-ch
	}
	// Flush leader from here down.
	start := time.Now()
	l.mu.Lock()
	buf := l.pending
	l.pending = nil
	cover := l.writeSeq
	l.mu.Unlock()
	if len(buf) > 0 {
		if _, err := l.f.Write(buf); err != nil {
			l.mu.Lock()
			l.syncSeq = cover
			l.mu.Unlock()
			l.endFlush()
			return 0, fmt.Errorf("wal: flush staged entries: %w", err)
		}
	}
	if err := l.f.Sync(); err != nil {
		// The frames are in the file but not durably; leave syncSeq so a
		// later leader retries the fsync over them.
		l.endFlush()
		return 0, fmt.Errorf("wal: fsync: %w", err)
	}
	l.mu.Lock()
	l.syncSeq = cover
	l.mu.Unlock()
	l.endFlush()
	return time.Since(start), nil
}

// WriteSnapshot checkpoints the full state atomically (tmp file, fsync,
// rename) and truncates the log: every entry the snapshot subsumes is
// dropped, so Replay work stays bounded. Callers must order appends against
// snapshots themselves (the serving layer holds its WAL-order lock across
// both): an entry for an epoch after the snapshot's must be appended after
// the snapshot is written, or the truncation would drop it. Prior appends
// are subsumed — their pending Sync calls return without an fsync, since the
// snapshot file itself is already durable.
func (l *Log) WriteSnapshot(s Snapshot) error {
	payload, err := json.Marshal(s)
	if err != nil {
		return fmt.Errorf("wal: marshal snapshot: %w", err)
	}
	l.beginFlush()
	defer l.endFlush()
	l.mu.Lock()
	defer l.mu.Unlock()
	tmp := filepath.Join(l.dir, snapshotName+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create snapshot: %w", err)
	}
	if _, err := f.Write(payload); err != nil {
		f.Close()
		return fmt.Errorf("wal: write snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: fsync snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: close snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, snapshotName)); err != nil {
		return fmt.Errorf("wal: publish snapshot: %w", err)
	}
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: truncate log after snapshot: %w", err)
	}
	if _, err := l.f.Seek(0, 0); err != nil {
		return fmt.Errorf("wal: rewind log after snapshot: %w", err)
	}
	l.snapshots++
	// Frames still staged in memory describe epochs at or before the
	// snapshot's, so the durable snapshot subsumes them — drop them and
	// mark every outstanding token covered.
	l.pending = nil
	l.syncSeq = l.writeSeq
	return nil
}

// Close flushes any staged or unsynced appends (under SyncAlways) and
// releases the log file handle.
func (l *Log) Close() error {
	l.beginFlush()
	defer l.endFlush()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.policy == SyncAlways && (len(l.pending) > 0 || l.syncSeq < l.writeSeq) {
		if len(l.pending) > 0 {
			if _, err := l.f.Write(l.pending); err != nil {
				l.f.Close()
				return fmt.Errorf("wal: flush staged entries on close: %w", err)
			}
			l.pending = nil
		}
		if err := l.f.Sync(); err != nil {
			l.f.Close()
			return fmt.Errorf("wal: fsync on close: %w", err)
		}
		l.syncSeq = l.writeSeq
	}
	return l.f.Close()
}

// Replay reads the durable state in dir: the latest snapshot (nil if none
// was ever written) and every intact log entry after it, in append order.
// A torn or corrupt tail frame ends the replay silently — that is the
// expected crash artifact — but a corrupt frame *before* an intact one is an
// error, since it means silent data loss mid-log.
func Replay(dir string) (*Snapshot, []Entry, error) {
	var snap *Snapshot
	if payload, err := os.ReadFile(filepath.Join(dir, snapshotName)); err == nil {
		snap = &Snapshot{}
		if err := json.Unmarshal(payload, snap); err != nil {
			return nil, nil, fmt.Errorf("wal: corrupt snapshot in %s: %w", dir, err)
		}
	} else if !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("wal: read snapshot: %w", err)
	}

	raw, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		if os.IsNotExist(err) {
			return snap, nil, nil
		}
		return nil, nil, fmt.Errorf("wal: read log: %w", err)
	}
	var entries []Entry
	lines := strings.Split(string(raw), "\n")
	for i, line := range lines {
		if line == "" {
			continue
		}
		e, ok := decodeFrame(line)
		if !ok {
			// Only the final frame may be torn; anything after it must be
			// empty, or the log lost data in the middle.
			for _, rest := range lines[i+1:] {
				if rest != "" {
					return nil, nil, fmt.Errorf("wal: corrupt frame at line %d of %s with intact entries after it", i+1, logName)
				}
			}
			break
		}
		if snap != nil && e.Epoch <= snap.Epoch {
			continue // subsumed by the snapshot
		}
		entries = append(entries, e)
	}
	return snap, entries, nil
}

// decodeFrame parses one "<crc32-hex> <json>" line, reporting whether the
// frame is intact.
func decodeFrame(line string) (Entry, bool) {
	var e Entry
	payload, ok := DecodeFrame(line)
	if !ok {
		return e, false
	}
	if err := json.Unmarshal(payload, &e); err != nil {
		return e, false
	}
	return e, true
}

// EncodeFrame wraps a payload in the WAL's line framing —
// "<crc32-hex> <payload>\n", checksum over the payload bytes. Exported so
// other append-only logs (the serving layer's request-trace recorder) share
// the WAL's torn-tail detection instead of inventing a second format.
func EncodeFrame(payload []byte) []byte {
	frame := make([]byte, 0, len(payload)+10)
	frame = append(frame, fmt.Sprintf("%08x ", crc32.ChecksumIEEE(payload))...)
	frame = append(frame, payload...)
	frame = append(frame, '\n')
	return frame
}

// DecodeFrame unwraps one framed line (without its trailing newline),
// returning the payload and whether the checksum verified.
func DecodeFrame(line string) ([]byte, bool) {
	crcHex, payload, found := strings.Cut(line, " ")
	if !found || len(crcHex) != 8 {
		return nil, false
	}
	want, err := strconv.ParseUint(crcHex, 16, 32)
	if err != nil {
		return nil, false
	}
	if crc32.ChecksumIEEE([]byte(payload)) != uint32(want) {
		return nil, false
	}
	return []byte(payload), true
}
