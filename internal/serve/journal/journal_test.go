package journal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// openT opens a journal in dir, failing the test on error.
func openT(t *testing.T, dir string) (*Journal, []Entry, ReplayStats) {
	t.Helper()
	j, entries, stats, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { j.Close() })
	return j, entries, stats
}

// appendT appends a record, failing the test on error.
func appendT(t *testing.T, j *Journal, rec Record) {
	t.Helper()
	if err := j.Append(rec); err != nil {
		t.Fatalf("Append: %v", err)
	}
}

func TestRoundTripAndFold(t *testing.T) {
	dir := t.TempDir()
	j, entries, _ := openT(t, dir)
	if len(entries) != 0 {
		t.Fatalf("fresh journal replayed %d entries", len(entries))
	}
	appendT(t, j, Record{JobID: "j1", State: StateAccepted, Kind: "extract",
		IdemKey: "k1", Request: json.RawMessage(`{"edge_m":1}`)})
	appendT(t, j, Record{JobID: "j1", State: StateRunning})
	appendT(t, j, Record{JobID: "j1", State: StateCompleted, Result: json.RawMessage(`{"job_id":"j1"}`)})
	appendT(t, j, Record{JobID: "j2", State: StateAccepted, Kind: "extract",
		Request: json.RawMessage(`{"edge_m":2}`)})
	j.Close()

	_, entries, stats := openT(t, dir)
	if stats.Corrupt != 0 || stats.TornBytes != 0 {
		t.Errorf("clean file reported corruption: %+v", stats)
	}
	if len(entries) != 2 {
		t.Fatalf("replayed %d entries, want 2", len(entries))
	}
	e1, e2 := entries[0], entries[1]
	if e1.JobID != "j1" || e1.State != StateCompleted || e1.IdemKey != "k1" {
		t.Errorf("j1 folded to %+v", e1)
	}
	if string(e1.Request) != `{"edge_m":1}` || string(e1.Result) != `{"job_id":"j1"}` {
		t.Errorf("j1 lost payloads: req %s result %s", e1.Request, e1.Result)
	}
	if e2.JobID != "j2" || e2.State != StateAccepted || Terminal(e2.State) {
		t.Errorf("j2 folded to %+v", e2)
	}
}

// corruptAt flips payload bytes of the n-th record (0-based, counting
// the header) without touching its frame, so the length stays valid
// and only the CRC fails.
func corruptAt(t *testing.T, path string, n int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := 0
	for i := 0; i < n; i++ {
		off += 8 + int(binary.LittleEndian.Uint32(data[off:off+4]))
	}
	plen := int(binary.LittleEndian.Uint32(data[off : off+4]))
	data[off+8+plen/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestTornFinalRecord(t *testing.T) {
	dir := t.TempDir()
	j, _, _ := openT(t, dir)
	appendT(t, j, Record{JobID: "j1", State: StateAccepted, Kind: "extract"})
	appendT(t, j, Record{JobID: "j1", State: StateRunning})
	j.Close()

	// Chop the final record mid-payload: the crash landed mid-write.
	path := filepath.Join(dir, FileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	j2, entries, stats := openT(t, dir)
	if stats.TornBytes == 0 {
		t.Error("torn tail not reported")
	}
	if len(entries) != 1 || entries[0].State != StateAccepted {
		t.Fatalf("after torn tail: %+v, want j1 back in accepted", entries)
	}
	// The tail was truncated: appends land on a clean frame and survive
	// another replay.
	appendT(t, j2, Record{JobID: "j1", State: StateCompleted})
	j2.Close()
	_, entries, stats = openT(t, dir)
	if stats.Corrupt != 0 || stats.TornBytes != 0 {
		t.Errorf("post-truncate file still dirty: %+v", stats)
	}
	if len(entries) != 1 || entries[0].State != StateCompleted {
		t.Errorf("append after truncation lost: %+v", entries)
	}
}

func TestCorruptMiddleRecordSkipped(t *testing.T) {
	dir := t.TempDir()
	j, _, _ := openT(t, dir)
	appendT(t, j, Record{JobID: "j1", State: StateAccepted, Kind: "extract"})
	appendT(t, j, Record{JobID: "j2", State: StateAccepted, Kind: "extract"})
	appendT(t, j, Record{JobID: "j2", State: StateCompleted})
	j.Close()

	// Damage j1's accepted record (record 1; record 0 is the header):
	// mid-file disk corruption, not a torn write.
	corruptAt(t, filepath.Join(dir, FileName), 1)

	jj, entries, stats, err := Open(dir)
	if err != nil {
		t.Fatalf("Open after mid-file corruption: %v", err)
	}
	defer jj.Close()
	if stats.Corrupt != 1 {
		t.Errorf("corrupt records = %d, want 1", stats.Corrupt)
	}
	// j1's only record was destroyed; j2 must survive intact.
	if len(entries) != 1 || entries[0].JobID != "j2" || entries[0].State != StateCompleted {
		t.Fatalf("entries after skip = %+v, want j2 completed", entries)
	}
}

func TestNewerSchemaRejectedStructured(t *testing.T) {
	dir := t.TempDir()
	// Hand-write a header claiming schema 99.
	payload, _ := json.Marshal(Record{Schema: 99})
	buf := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	copy(buf[8:], payload)
	if err := os.WriteFile(filepath.Join(dir, FileName), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, _, err := Open(dir)
	se := new(SchemaError)
	if !errors.As(err, &se) {
		t.Fatalf("newer-schema open returned %v, want *SchemaError", err)
	}
	if se.Found != 99 {
		t.Errorf("SchemaError.Found = %d, want 99", se.Found)
	}
}

func TestIdempotencyKeyDedupOnDoubleReplay(t *testing.T) {
	dir := t.TempDir()
	j, _, _ := openT(t, dir)
	// The same logical submit journaled twice under two job ids — the
	// shape a client retry racing a crash (or a doubled log segment)
	// leaves behind.
	appendT(t, j, Record{JobID: "j1", State: StateAccepted, Kind: "extract",
		IdemKey: "idem-A", Request: json.RawMessage(`{"edge_m":1}`)})
	appendT(t, j, Record{JobID: "j2", State: StateAccepted, Kind: "extract",
		IdemKey: "idem-A", Request: json.RawMessage(`{"edge_m":1}`)})
	appendT(t, j, Record{JobID: "j3", State: StateAccepted, Kind: "extract",
		IdemKey: "idem-B"})
	j.Close()

	_, entries, _ := openT(t, dir)
	if len(entries) != 2 {
		t.Fatalf("replayed %d entries, want 2 (j2 folded into j1 by idem key)", len(entries))
	}
	if entries[0].JobID != "j1" || entries[0].IdemKey != "idem-A" {
		t.Errorf("first entry %+v, want j1 with idem-A", entries[0])
	}
	if entries[1].JobID != "j3" {
		t.Errorf("second entry %+v, want j3", entries[1])
	}
}

func TestCompactBoundsAndPreserves(t *testing.T) {
	dir := t.TempDir()
	j, _, _ := openT(t, dir)
	for i := 0; i < 50; i++ {
		appendT(t, j, Record{JobID: "j1", State: StateRunning})
	}
	appendT(t, j, Record{JobID: "j1", State: StateCompleted, Kind: "extract",
		IdemKey: "k", Result: json.RawMessage(`{"ok":true}`)})
	appendT(t, j, Record{JobID: "j2", State: StateAccepted, Kind: "extract",
		Request: json.RawMessage(`{"edge_m":3}`)})
	big, err := os.Stat(j.path)
	if err != nil {
		t.Fatal(err)
	}

	if err := j.Compact([]Entry{
		{JobID: "j1", State: StateCompleted, Kind: "extract", IdemKey: "k", Result: json.RawMessage(`{"ok":true}`)},
		{JobID: "j2", State: StateAccepted, Kind: "extract", Request: json.RawMessage(`{"edge_m":3}`)},
	}); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	small, err := os.Stat(j.path)
	if err != nil {
		t.Fatal(err)
	}
	if small.Size() >= big.Size() {
		t.Errorf("compaction did not shrink the file: %d -> %d bytes", big.Size(), small.Size())
	}
	// Appends after compaction land on the new file.
	appendT(t, j, Record{JobID: "j2", State: StateCompleted})
	j.Close()

	_, entries, stats := openT(t, dir)
	if stats.Corrupt != 0 || stats.TornBytes != 0 {
		t.Errorf("compacted file dirty: %+v", stats)
	}
	if len(entries) != 2 {
		t.Fatalf("replayed %d entries, want 2", len(entries))
	}
	if entries[0].State != StateCompleted || string(entries[0].Result) != `{"ok":true}` {
		t.Errorf("j1 after compact: %+v", entries[0])
	}
	if entries[1].State != StateCompleted || string(entries[1].Request) != `{"edge_m":3}` {
		t.Errorf("j2 after compact+append: %+v", entries[1])
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	j, _, _ := openT(t, t.TempDir())
	j.Close()
	if err := j.Append(Record{JobID: "j1", State: StateAccepted}); err == nil {
		t.Error("append after close succeeded")
	}
}
