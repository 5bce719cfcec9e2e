// Package journal is the durable job log behind capxd's crash safety:
// an append-only, CRC-framed record file under the daemon's -data-dir
// that survives SIGKILL and power loss, so accepted async jobs are
// never lost and finished results stay queryable across restarts.
//
// # Record format
//
// The file opens with a header record carrying the schema version;
// every record after it is one job state transition:
//
//	[4B little-endian payload length][4B CRC-32C of payload][JSON payload]
//
// Appends are fsync'd at every state edge (accepted, running,
// terminal), so the admission contract — a 202 means the job is
// durable — holds through an immediate kill. The last record of a
// crashed process may be torn; Open tolerates it: a partial frame or
// failed checksum at the tail is truncated away (the transition it
// described never became durable, exactly as if the crash had landed
// one instruction earlier). A CRC failure in the *middle* of the file,
// one an intact record follows (disk corruption, not a torn write),
// skips that one record and keeps scanning — one damaged transition
// must not take out every other job's history. A header from a newer
// schema than this build understands is a structured *SchemaError,
// never a panic: downgrades refuse loudly instead of misreading the log.
//
// # Replay
//
// Open folds the surviving records into one Entry per job — last state
// wins — and dedups by client-supplied idempotency key (first job
// keeps the key; later accepted records reusing it fold into the same
// entry, so replaying a doubled journal cannot double-run a job).
// Entries in a terminal state carry their persisted result or error;
// non-terminal entries (accepted, running, interrupted) are the jobs
// the crashed process still owed and are the caller's to re-enqueue.
//
// # Compaction
//
// Compact rewrites the log as one folded record per live entry via
// write-to-temp + atomic rename (+ directory fsync), bounding file
// growth across restarts; capxd compacts after replay and again on a
// clean drain.
package journal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"parbem/internal/faultpoint"
)

// Schema is the record-format version this build reads and writes.
const Schema = 1

// FileName is the journal's file name under the data directory.
const FileName = "jobs.journal"

// maxRecordBytes bounds one record's payload; a length field over it
// is treated as tail corruption (frames after a garbage length are
// unrecoverable anyway).
const maxRecordBytes = 64 << 20

// castagnoli is the CRC-32C table (the same polynomial storage systems
// use for frame checksums).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Job states as persisted. Accepted, Running and Interrupted are
// non-terminal: a replayed job in one of them is re-enqueued.
const (
	StateAccepted    = "accepted"
	StateRunning     = "running"
	StateCompleted   = "completed"
	StateFailed      = "failed"
	StateCancelled   = "cancelled"
	StateInterrupted = "interrupted" // drain deadline cut the run short
)

// Terminal reports whether state is a terminal outcome.
func Terminal(state string) bool {
	return state == StateCompleted || state == StateFailed || state == StateCancelled
}

// Record is one persisted state transition (or the file header, which
// carries only Schema).
type Record struct {
	Schema  int    `json:"schema,omitempty"`
	JobID   string `json:"job_id,omitempty"`
	State   string `json:"state,omitempty"`
	Kind    string `json:"kind,omitempty"`
	IdemKey string `json:"idem_key,omitempty"`
	// Request is the accepted job's wire payload, replayed verbatim on
	// recovery.
	Request json.RawMessage `json:"request,omitempty"`
	// Result / Error carry the terminal outcome (completed / failed).
	Result json.RawMessage `json:"result,omitempty"`
	Error  json.RawMessage `json:"error,omitempty"`
}

// Entry is the folded state of one job after replay.
type Entry struct {
	JobID   string
	Kind    string
	IdemKey string
	State   string
	Request json.RawMessage
	Result  json.RawMessage
	Error   json.RawMessage
}

// SchemaError reports a journal written by a newer (or unknown) schema
// than this build understands.
type SchemaError struct {
	Found int
}

// Error implements the error interface.
func (e *SchemaError) Error() string {
	return fmt.Sprintf("journal: file schema %d is newer than supported schema %d", e.Found, Schema)
}

// ReplayStats reports what Open found while scanning.
type ReplayStats struct {
	Records   int // intact records folded
	Corrupt   int // mid-file records skipped on CRC/JSON failure
	TornBytes int // trailing bytes truncated as a torn write
}

// Journal is an open job log. Safe for concurrent use.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	dir  string
	path string
	// Logf receives skip/truncate diagnostics (default: discard). Set
	// before concurrent use.
	Logf func(format string, args ...any)
}

// Open opens (creating if absent) the journal under dir, replays every
// surviving record and returns the folded per-job entries in first-
// accepted order. A torn tail is truncated in place so subsequent
// appends land on a clean frame boundary.
func Open(dir string) (*Journal, []Entry, ReplayStats, error) {
	var stats ReplayStats
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, stats, fmt.Errorf("journal: %w", err)
	}
	path := filepath.Join(dir, FileName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, stats, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{f: f, dir: dir, path: path, Logf: func(string, ...any) {}}
	entries, good, sawHeader, stats, err := j.scan()
	if err != nil {
		f.Close()
		return nil, nil, stats, err
	}
	// Truncate a torn tail so the next append starts a clean frame.
	if fi, ferr := f.Stat(); ferr == nil && fi.Size() > good {
		stats.TornBytes = int(fi.Size() - good)
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, stats, fmt.Errorf("journal: truncating torn tail: %w", err)
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, nil, stats, fmt.Errorf("journal: %w", err)
	}
	if !sawHeader {
		// Fresh (or fully torn, or all-damaged) file: write the schema
		// header, so that the next record appended is not read as one.
		if err := j.append(Record{Schema: Schema}); err != nil {
			f.Close()
			return nil, nil, stats, err
		}
	}
	return j, entries, stats, nil
}

// scan reads the file from the start, folding intact records into
// entries. good is the offset just past the last intact record: a
// CRC-corrupt record is skipped as mid-file damage only when an intact
// one follows it, and is otherwise part of the torn tail.
func (j *Journal) scan() (entries []Entry, good int64, sawHeader bool, stats ReplayStats, err error) {
	if _, err := j.f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, false, stats, fmt.Errorf("journal: %w", err)
	}
	size, err := j.f.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, 0, false, stats, fmt.Errorf("journal: %w", err)
	}
	if _, err := j.f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, false, stats, fmt.Errorf("journal: %w", err)
	}
	r := io.NewSectionReader(j.f, 0, size)

	byID := make(map[string]*Entry)
	byKey := make(map[string]string) // idem key -> job id
	var order []string
	var pos int64   // just past the last frame read
	var skipped int // CRC-corrupt frames since good
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			// Clean EOF or a torn frame header: stop at the last good
			// offset either way.
			break
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if n > maxRecordBytes || int64(n) > size-pos-8 {
			// A length pointing past the file (torn write) or into
			// absurdity (corrupted length): everything from here on is
			// unframeable.
			break
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			break
		}
		at := pos
		next := at + 8 + int64(n)
		pos = next
		if crc32.Checksum(payload, castagnoli) != want {
			// Mid-file damage if an intact frame follows, skipped then;
			// a torn final write, truncated by Open, if none does.
			skipped++
			continue
		}
		if skipped > 0 {
			j.Logf("journal: skipping %d CRC-corrupt record(s) between offsets %d and %d", skipped, good, at)
			stats.Corrupt += skipped
			skipped = 0
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			j.Logf("journal: skipping undecodable record at offset %d: %v", at, err)
			stats.Corrupt++
			good = next
			continue
		}
		good = next
		if !sawHeader {
			sawHeader = true
			if rec.Schema > Schema || rec.Schema < 1 {
				return nil, 0, false, stats, &SchemaError{Found: rec.Schema}
			}
			continue
		}
		if rec.JobID == "" {
			j.Logf("journal: skipping record with no job id at offset %d", at)
			stats.Corrupt++
			continue
		}
		stats.Records++
		e := byID[rec.JobID]
		if e == nil {
			// Idempotency-key dedup: a second accepted record reusing a
			// live key (doubled replay, retried submit that raced a
			// crash) folds into the first job instead of creating a
			// runnable twin.
			if rec.IdemKey != "" {
				if prior, ok := byKey[rec.IdemKey]; ok && prior != rec.JobID {
					j.Logf("journal: job %s duplicates idem key %q of job %s; folding", rec.JobID, rec.IdemKey, prior)
					e = byID[prior]
					e.fold(rec)
					continue
				}
			}
			e = &Entry{JobID: rec.JobID}
			byID[rec.JobID] = e
			order = append(order, rec.JobID)
			if rec.IdemKey != "" {
				byKey[rec.IdemKey] = rec.JobID
			}
		}
		e.fold(rec)
	}
	entries = make([]Entry, 0, len(order))
	for _, id := range order {
		entries = append(entries, *byID[id])
	}
	return entries, good, sawHeader, stats, nil
}

// fold applies one transition record onto the entry (last state wins;
// payload fields stick once set).
func (e *Entry) fold(rec Record) {
	if rec.State != "" {
		e.State = rec.State
	}
	if rec.Kind != "" {
		e.Kind = rec.Kind
	}
	if rec.IdemKey != "" {
		e.IdemKey = rec.IdemKey
	}
	if len(rec.Request) > 0 {
		e.Request = rec.Request
	}
	if len(rec.Result) > 0 {
		e.Result = rec.Result
	}
	if len(rec.Error) > 0 {
		e.Error = rec.Error
	}
}

// Append writes one state-transition record and fsyncs it: when Append
// returns nil the transition is durable.
func (j *Journal) Append(rec Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.append(rec)
}

// append writes and syncs one record. Caller holds mu (or is Open's
// single-threaded setup).
func (j *Journal) append(rec Record) error {
	if j.f == nil {
		return errClosed
	}
	if err := faultpoint.Hit("journal.append"); err != nil {
		return err
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	buf := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, castagnoli))
	copy(buf[8:], payload)
	if _, err := j.f.Write(buf); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := faultpoint.Hit("journal.sync"); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// Compact atomically rewrites the journal as one folded record per
// entry (header first), dropping the transition history. The entries
// should be the caller's full live set: anything omitted is forgotten.
func (j *Journal) Compact(entries []Entry) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errClosed
	}
	if err := faultpoint.Hit("journal.compact"); err != nil {
		return err
	}
	tmpPath := j.path + ".tmp"
	tmp, err := os.OpenFile(tmpPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	writeRec := func(rec Record) error {
		payload, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
		if _, err := tmp.Write(hdr[:]); err != nil {
			return err
		}
		_, err = tmp.Write(payload)
		return err
	}
	err = writeRec(Record{Schema: Schema})
	for _, e := range entries {
		if err != nil {
			break
		}
		err = writeRec(Record{
			JobID: e.JobID, State: e.State, Kind: e.Kind, IdemKey: e.IdemKey,
			Request: e.Request, Result: e.Result, Error: e.Error,
		})
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("journal: compact: %w", err)
	}
	if err := os.Rename(tmpPath, j.path); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("journal: compact: %w", err)
	}
	if err := syncDir(j.dir); err != nil {
		return err
	}
	// Swap the open handle onto the new file, positioned for appends.
	nf, err := os.OpenFile(j.path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}
	if _, err := nf.Seek(0, io.SeekEnd); err != nil {
		nf.Close()
		return fmt.Errorf("journal: compact: %w", err)
	}
	j.f.Close()
	j.f = nf
	return nil
}

// syncDir fsyncs a directory so a rename inside it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// Close syncs and closes the file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}

var errClosed = errors.New("journal: closed")
